//! # blobseer
//!
//! A from-scratch Rust reproduction of
//! **"Enabling Lock-Free Concurrent Fine-Grain Access to Massive
//! Distributed Data: Application to Supernovae Detection"**
//! (Nicolae, Antoniu, Bougé — IEEE CLUSTER 2008), the design that became
//! the BlobSeer storage system.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `blobseer-core` | [`Deployment`], [`BlobClient`], version-manager service |
//! | [`meta`] | `blobseer-meta` | segment-tree algorithms, [`ReferenceStore`] |
//! | [`version`] | `blobseer-version` | version manager internals |
//! | [`proto`] | `blobseer-proto` | ids, geometry, messages, codec |
//! | [`rpc`] | `blobseer-rpc` | RPC framework with call aggregation |
//! | [`simnet`] | `blobseer-simnet` | simulated cluster + cost model |
//! | [`dht`] | `blobseer-dht` | metadata-provider DHT |
//! | [`provider`] | `blobseer-provider` | data provider + provider manager |
//! | [`baseline`] | `blobseer-baseline` | lock-based comparators |
//! | [`sky`] | `blobseer-sky` | the supernova-detection application |
//!
//! ## Quickstart
//!
//! ```
//! use blobseer::{Deployment, DeploymentConfig, Ctx, Segment};
//!
//! // A 4-storage-node cluster (zero-cost transport for this doc test).
//! let cluster = Deployment::build(DeploymentConfig::functional(4));
//! let client = cluster.client();
//! let mut ctx = Ctx::start();
//!
//! // ALLOC a 1 MiB blob with 4 KiB pages.
//! let blob = client.alloc(&mut ctx, 1 << 20, 4096).unwrap().blob;
//!
//! // WRITE produces a new immutable snapshot version.
//! let v1 = client.write(&mut ctx, blob, 0, &vec![7u8; 8192]).unwrap();
//! let v2 = client.write(&mut ctx, blob, 4096, &vec![9u8; 4096]).unwrap();
//! assert_eq!((v1, v2), (1, 2));
//!
//! // READ any published version — snapshots never change.
//! let (old, latest) = client.read(&mut ctx, blob, Some(v1), Segment::new(4096, 4096)).unwrap();
//! assert_eq!(latest, 2);
//! assert!(old.iter().all(|&b| b == 7)); // v1 view
//! let (new, _) = client.read(&mut ctx, blob, Some(v2), Segment::new(4096, 4096)).unwrap();
//! assert!(new.iter().all(|&b| b == 9)); // v2 view
//! ```
//!
//! Version assignment is grant-batched (one metered acquisition of the
//! per-blob mutex serves a whole queue of concurrent writers), and the
//! version manager itself can be sharded across nodes by blob id:
//!
//! ```
//! use blobseer::{Deployment, DeploymentConfig};
//!
//! // Three version-manager shards: blob ids route by `id % 3`, each
//! // shard journals (and replays) independently. `version_shards: 1`
//! // — the default — is bit-identical to the classic singleton.
//! let cluster = Deployment::build(
//!     DeploymentConfig::functional(4).tune().version_shards(3).build(),
//! );
//! assert_eq!(cluster.registries.len(), 3);
//! ```
//!
//! ## Zero-copy data path
//!
//! Pages are immutable once written, so they travel the whole system as
//! refcounted [`PageBuf`]s: `write` copies the caller's buffer exactly
//! once into the `PageBuf` that [`BlobClient::write_buf`] takes as is,
//! replica fan-out and RPC batching share that one allocation, and reads
//! copy each page exactly once into the result. `read_into`
//! scatter-assembles into a caller-provided buffer; a single-page
//! aligned [`BlobClient::read_buf`] is zero-copy end to end.
//!
//! ```
//! use blobseer::{Ctx, Deployment, DeploymentConfig, PageBuf, Segment};
//!
//! let cluster = Deployment::build(DeploymentConfig::functional(4));
//! let client = cluster.client();
//! let mut ctx = Ctx::start();
//! let blob = client.alloc(&mut ctx, 1 << 20, 4096).unwrap().blob;
//!
//! // Zero-copy write: the buffer is shared, never duplicated. The
//! // write's breakdown comes back with the version.
//! let buf = PageBuf::from_vec(vec![5u8; 8192]);
//! let (v, stats) = client.write_buf(&mut ctx, blob, 0, buf).unwrap();
//! assert!(stats.nodes_built > 0);
//!
//! // Scatter-assembling read into a caller-owned buffer.
//! let mut out = vec![0u8; 8192];
//! client.read_into(&mut ctx, blob, Some(v), Segment::new(0, 8192), &mut out).unwrap();
//! assert!(out.iter().all(|&b| b == 5));
//!
//! // Single-page aligned read: the returned PageBuf is a refcount
//! // borrow of the stored page — zero copies.
//! let (page, _) = client.read_buf(&mut ctx, blob, Some(v), Segment::new(0, 4096)).unwrap();
//! assert!(page.iter().all(|&b| b == 5));
//! ```
//!
//! ## Real network transport
//!
//! The same stack runs over genuine TCP sockets
//! ([`rpc::TcpTransport`]): select it per deployment and every frame is
//! **gather-written** straight from its segment chain (`writev`, no
//! flattening memcpy) and decoded out of a single receive buffer whose
//! payload ranges are **lent by refcount** — the payload leg meters the
//! same byte counts as the in-process path.
//!
//! ```
//! use blobseer::{Ctx, Deployment, DeploymentConfig, Segment};
//!
//! // Same topology, but vm/pm/storage each listen on a loopback port.
//! let cluster = Deployment::build(DeploymentConfig::functional_tcp(4));
//! let client = cluster.client();
//! let mut ctx = Ctx::start();
//! let blob = client.alloc(&mut ctx, 1 << 20, 4096).unwrap().blob;
//!
//! let v = client.write(&mut ctx, blob, 0, &vec![3u8; 8192]).unwrap();
//! let (data, _) = client.read(&mut ctx, blob, Some(v), Segment::new(0, 8192)).unwrap();
//! assert!(data.iter().all(|&b| b == 3));
//!
//! // It really crossed the kernel: the transport is addressable.
//! let tcp = cluster.cluster.tcp().unwrap();
//! assert!(tcp.addr(cluster.vm_node).is_some());
//! ```
//!
//! Faults surface as typed errors, never hangs: connect refused, a peer
//! closing mid-frame, timeouts, and corrupt length prefixes all map to
//! [`BlobError::Unreachable`] / [`BlobError::Codec`]; a failed call's
//! connection is dropped, not pooled. See `blobseer_rpc::tcp` for the
//! wire format and the full error taxonomy, and
//! `crates/core/tests/tcp_zero_copy.rs` for the exact copy counts over a
//! socket.
//!
//! The server side is an **event-driven reactor**: a fixed set of
//! nonblocking event loops owns every accepted connection and a bounded
//! dispatch pool runs the service handlers, so ten thousand established
//! connections are served by the same handful of threads as one
//! (`crates/rpc/tests/c10k.rs` asserts exactly that, and bounds the
//! resident bytes per idle connection well below a thread stack). The
//! client multiplexes: the wire envelope (v2) carries a **correlation
//! id**, so one socket carries many in-flight calls, each completed
//! through its own slot — connection errors fail every call in flight
//! with a typed error, never a hang.
//! Overload is shed, not queued: past the fd budget (or
//! [`TcpOptions::max_connections`]) the *newest* connection gets a
//! typed control-frame close — established connections are never
//! sacrificed for new ones.
//!
//! ## Persistent deployments
//!
//! Providers can keep their pages on a **persistent storage backend**
//! ([`BackendKind::Mmap`]) instead of process memory: every
//! acknowledged page is appended to a per-provider page log and then
//! served as a refcounted slice of a read-only memory mapping of that
//! log — the same zero-copy discipline (one sanctioned copy in, one
//! out), now backed by the page cache. The log is **crash-consistent**:
//! an append is acknowledged only once a group-commit marker covers it
//! (`DeploymentConfig::log.fsync_on_commit` upgrades that promise from
//! process-crash to power-loss durability), so a provider restarted on
//! the directory it died with — even after a `SIGKILL` mid-append —
//! replays the log and re-serves every page it acknowledged, losing at
//! most uncommitted tails:
//!
//! ```
//! use blobseer::{BackendKind, Ctx, Deployment, DeploymentConfig, Segment};
//!
//! // Same topology; every provider gets an append-only mapped page log.
//! let mut cfg = DeploymentConfig::functional_mmap(4);
//! cfg.replication = 2;
//! cfg.meta_replication = 2;
//! let mut cluster = Deployment::build(cfg);
//! let client = cluster.client();
//! let mut ctx = Ctx::start();
//! let blob = client.alloc(&mut ctx, 1 << 20, 4096).unwrap().blob;
//! let v = client.write(&mut ctx, blob, 0, &vec![7u8; 8192]).unwrap();
//!
//! // Kill a provider; replicas carry the reads through the outage.
//! cluster.kill_storage(0);
//! let (data, _) = client.read(&mut ctx, blob, Some(v), Segment::new(0, 8192)).unwrap();
//! assert!(data.iter().all(|&b| b == 7));
//!
//! // Restart it on the same directory: a fresh provider replays the
//! // log, is bound to the same node, and re-serves everything the
//! // killed one ever acknowledged.
//! cluster.restart_storage(0).unwrap();
//! assert_eq!(cluster.config.backend, BackendKind::Mmap);
//! let (data, _) = client.read(&mut ctx, blob, Some(v), Segment::new(0, 8192)).unwrap();
//! assert!(data.iter().all(|&b| b == 7));
//! ```
//!
//! The log is append-only, so dropped and superseded pages accumulate
//! as **dead bytes** until an **online compaction** rewrites the live
//! pages into a fresh generation file and reclaims the rest. It runs
//! automatically past the configured threshold
//! (`DeploymentConfig::log`), or on demand — readers are never
//! invalidated, because already-served buffers keep the old
//! generation's mapping alive by refcount:
//!
//! ```
//! use blobseer::{Ctx, Deployment, DeploymentConfig, Segment};
//!
//! let mut cluster = Deployment::build(DeploymentConfig::functional_mmap(2));
//! let client = cluster.client();
//! let mut ctx = Ctx::start();
//! let blob = client.alloc(&mut ctx, 1 << 20, 4096).unwrap().blob;
//!
//! // Four versions of the same region; then collect the first three.
//! let mut latest = 0;
//! for round in 0u8..4 {
//!     latest = client.write(&mut ctx, blob, 0, &vec![round; 16384]).unwrap();
//! }
//! client.gc(&mut ctx, blob, latest).unwrap();
//!
//! // ¾ of the log is now dead weight; compaction hands it back.
//! for i in 0..2 {
//!     let before = cluster.storage[i].data().stats();
//!     let report = cluster.compact_storage(i).unwrap().expect("mmap compacts");
//!     assert!(report.reclaimed_bytes >= before.dead_bytes * 9 / 10);
//!     assert_eq!(cluster.storage[i].data().stats().dead_bytes, 0);
//! }
//!
//! // The survivor reads back intact — also after a restart on the
//! // compacted generation.
//! cluster.kill_storage(0);
//! cluster.restart_storage(0).unwrap();
//! let (data, _) = client.read(&mut ctx, blob, Some(latest), Segment::new(0, 16384)).unwrap();
//! assert!(data.iter().all(|&b| b == 3));
//! ```
//!
//! ## Whole-cluster cold restart
//!
//! Since PR 7 the *control plane* shares the page log's guarantee: on
//! the mmap backend every storage node journals its metadata-tree
//! mutations write-ahead (`meta.g<N>.log`) and the version manager
//! journals blob creation and every publish before acknowledging it
//! (`version.g<N>.log`) — all three logs are clients of the one
//! record-then-commit engine (`blobseer_util::recordlog`: the same
//! append/group-commit, replay and generation-install code). So the
//! cluster doesn't just tolerate a provider crash; the *product can
//! reboot*: [`Deployment::restart_cluster`] kills the version manager,
//! the provider manager, and every storage node, replays every journal
//! into fresh services bound to the same nodes, as restarted processes
//! listen at the same addresses, and re-serves every acknowledged write
//! byte-identical:
//!
//! ```
//! use blobseer::{Ctx, Deployment, DeploymentConfig, Segment};
//!
//! let mut cluster = Deployment::build(DeploymentConfig::functional_mmap(4));
//! let client = cluster.client();
//! let mut ctx = Ctx::start();
//! let blob = client.alloc(&mut ctx, 1 << 20, 4096).unwrap().blob;
//! let v1 = client.write(&mut ctx, blob, 0, &vec![1u8; 8192]).unwrap();
//! let v2 = client.write(&mut ctx, blob, 4096, &vec![2u8; 4096]).unwrap();
//!
//! // Kill EVERYTHING — version manager, provider manager, every
//! // storage node — and replay the journals from disk.
//! cluster.restart_cluster().unwrap();
//!
//! // Geometry, the version map, and every snapshot survived.
//! let (old, latest) = client.read(&mut ctx, blob, Some(v1), Segment::new(4096, 4096)).unwrap();
//! assert_eq!(latest, v2);
//! assert!(old.iter().all(|&b| b == 1)); // v1 view, byte-identical
//!
//! // And the reborn cluster keeps counting where it left off.
//! let v3 = client.write(&mut ctx, blob, 0, &vec![3u8; 4096]).unwrap();
//! assert_eq!(v3, v2 + 1);
//! ```
//!
//! The memory backend is the documented negative control: nothing
//! persists, so `restart_cluster` yields a *clean, empty* cluster and
//! reads of pre-restart blobs fail with a typed
//! [`BlobError::UnknownBlob`] — never stale or torn state. Replay
//! failures (truncated journals, hostile bytes) surface as
//! [`BlobError::Recovery`] with file and offset context, never a
//! panic.
//!
//! The `{Sim, Tcp} × {Memory, Mmap}` pairings are conformance-tested as
//! a CI matrix (`crates/core/tests/matrix_e2e.rs`, including the
//! write → drop → compact → restart scenario and the whole-cluster
//! cold-restart scenario); crash recovery is
//! exercised end to end in `crates/core/tests/backend_recovery.rs` and
//! — with a real `SIGKILL` at fuzzed offsets mid-append, mid-compaction
//! and mid-publish, against single providers and the whole cluster —
//! in `crates/core/tests/crash_injection.rs`;
//! `crates/core/tests/mmap_zero_copy.rs` asserts exact copy and lock
//! counts over tcp × mmap with every journal on — concurrent writers in
//! both commit modes (buffered and fsync-on-commit), reads after
//! compaction and reads after a whole-cluster restart.
//!
//! ## Static invariant enforcement
//!
//! The meters only see paths the tests exercise, so the
//! invariants above are *also* enforced statically: `blobseer-lint`
//! (`crates/lint`, a dependency-free offline pass, gated hard in CI)
//! checks every Rust source in the workspace for unmetered
//! control-plane locks, unmetered payload copies, undocumented
//! `unsafe`, panics on serving paths, silently truncating length
//! casts, and overload errors erased behind a catch-all. Run it locally with
//! `cargo run -p blobseer-lint -- --workspace`; deliberate exceptions
//! carry a `// lint: allow(<rule>) — <rationale>` sanction at the
//! site. The rule catalog lives in the `blobseer_lint::rules` rustdoc
//! and ROADMAP.md ("Static invariant enforcement").

#![deny(unsafe_code)]

pub use blobseer_baseline as baseline;
pub use blobseer_core as core;
pub use blobseer_dht as dht;
pub use blobseer_meta as meta;
pub use blobseer_proto as proto;
pub use blobseer_provider as provider;
pub use blobseer_rpc as rpc;
pub use blobseer_simnet as simnet;
pub use blobseer_sky as sky;
pub use blobseer_util as util;
pub use blobseer_version as version;

pub use blobseer_core::{
    AdmissionMode, AdmissionOptions, BackendKind, BlobClient, ClusterHandle, Deployment,
    DeploymentConfig, FanOutOptions, RetryPolicy, TransportKind,
};
pub use blobseer_meta::ReferenceStore;
pub use blobseer_proto::{BlobError, BlobId, Geometry, PageBuf, Segment, Version};
pub use blobseer_rpc::{AggregationPolicy, Ctx, TcpOptions, TcpTransport};
pub use blobseer_simnet::{ClientCosts, CostModel, ServiceCosts};
