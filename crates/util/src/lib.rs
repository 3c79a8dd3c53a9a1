//! # blobseer-util
//!
//! Shared, dependency-light substrates used across the `blobseer-rs`
//! workspace:
//!
//! * [`fxhash`] — the rustc `FxHash` algorithm plus map/set aliases; the
//!   default hasher for every hot map in the system (tree-node keys, page
//!   keys, DHT buckets).
//! * [`sharded`] — a sharded concurrent hash map with short critical
//!   sections, used where a full lock-free map is not required and no lock
//!   is ever held across I/O.
//! * [`interval_map`] — a disjoint interval map over `u64` with
//!   monotone range-assign and range-max queries; backs the version
//!   manager's *version index* (border-link precomputation) and the GC
//!   sweep.
//! * [`stats`] — online statistics and human-readable formatting for the
//!   benchmark harnesses.
//! * [`rng`] — splitmix64 and deterministic seeding helpers so every
//!   simulation and test is reproducible.
//! * [`pagebuf`] — [`PageBuf`], the cheap-clone immutable byte buffer
//!   behind the zero-copy page path (proto → rpc → provider → client);
//!   pages are copied into the system at most once and shared by
//!   refcount everywhere else. Backed by a heap allocation or, via
//!   [`PageBuf::map_file`], a read-only mapped file region — the seam
//!   the persistent provider backend serves its page log through.
//! * [`copymeter`] — global bytes-copied accounting, so the zero-copy
//!   discipline is a measured count that tests assert exactly.
//! * [`lockmeter`] — the control-plane analogue of [`copymeter`]: global
//!   accounting of control-plane lock acquisitions by class
//!   (serializing / version-assign / sharded / shared). The
//!   zero-serialization invariant is asserted by
//!   `crates/core/tests/lock_free.rs`.
//! * [`recordlog`] — the record-then-commit append-only log engine,
//!   the one copy of the crash protocol: [`recordlog::Appender`]
//!   (bounded reserve → write → group-commit), [`recordlog::replay`]
//!   (pure, over `&[u8]`) and [`recordlog::GenerationWriter`]
//!   (stage → seal → install). The provider's mapped page log and
//!   [`recordlog::RecordLog`] — the plain-file client the durable
//!   control plane (metadata tree, version history) journals through —
//!   are both built from those three pieces.
//! * [`rcu`] — [`RcuCell`], wait-free reads of a rarely replaced
//!   snapshot (retention-based reclamation); the substrate of the
//!   provider manager's lock-free roster.
//! * [`clockcache`] — [`ClockCache`], a sharded concurrent CLOCK cache
//!   whose hits are a shard read lock plus an atomic reference bit; the
//!   substrate of the shared client metadata cache.
//! * [`combine`] — [`combine::Combiner`], flat combining: the one
//!   leader/follower mechanism, whose clients are the version
//!   manager's grant queue and the record log's group commit.
//! * [`fdlimit`] — raise the soft `RLIMIT_NOFILE` to the hard ceiling,
//!   so the C10K transport tests can hold thousands of
//!   sockets regardless of the environment's default `ulimit -n`.

#![warn(missing_docs)]

// Every workspace crate depends on this one, so the platform is declared
// here once: sockets, the page log and mapped pages are built on unix
// file descriptors, `mmap(2)` and positioned I/O.
#[cfg(not(target_family = "unix"))]
compile_error!("blobseer builds on unix only: its transport and storage use unix file descriptors");

pub mod clockcache;
pub mod combine;
pub mod copymeter;
pub mod fdlimit;
pub mod fxhash;
pub mod interval_map;
pub mod lockmeter;
pub mod pagebuf;
pub mod rcu;
pub mod recordlog;
pub mod rng;
pub mod sharded;
pub mod stats;

pub use clockcache::ClockCache;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use interval_map::IntervalMap;
pub use pagebuf::PageBuf;
pub use rcu::RcuCell;
pub use sharded::ShardedMap;
