//! The transport × backend conformance matrix: the same end-to-end
//! scenarios must pass on every `{Sim, Tcp} × {Memory, Mmap}` pairing —
//! frames either dispatch in-process or cross a real socket, pages
//! either live on the heap or in an append-only mapped page log, and
//! none of it may change observable semantics.
//!
//! The pairing is selected by environment (`BLOBSEER_TRANSPORT` =
//! `sim`|`tcp`, `BLOBSEER_BACKEND` = `memory`|`mmap`; defaults
//! `sim`/`memory`), which is how CI fans the binary out over all four
//! cells without four copies of the suite.

use blobseer_core::{BackendKind, Deployment, DeploymentConfig, TransportKind};
use blobseer_meta::ReferenceStore;
use blobseer_proto::messages::{method, MetaGetBatch, MetaGetBatchResp};
use blobseer_proto::tree::{NodeBody, NodeKey};
use blobseer_proto::{ProviderId, Segment};
use blobseer_rpc::{Ctx, RpcClient};
use blobseer_util::rng::rng_for;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const PAGE: u64 = 1024;
const PAGES: u64 = 32;
const TOTAL: u64 = PAGE * PAGES;

fn seg(o: u64, s: u64) -> Segment {
    Segment::new(o, s)
}

fn matrix_cell() -> (TransportKind, BackendKind) {
    let transport = match std::env::var("BLOBSEER_TRANSPORT").as_deref() {
        Ok("tcp") => TransportKind::Tcp,
        Ok("sim") | Err(_) => TransportKind::Sim,
        Ok(other) => panic!("unknown BLOBSEER_TRANSPORT {other:?} (want sim|tcp)"),
    };
    let backend = match std::env::var("BLOBSEER_BACKEND").as_deref() {
        Ok("mmap") => BackendKind::Mmap,
        Ok("memory") | Err(_) => BackendKind::Memory,
        Ok(other) => panic!("unknown BLOBSEER_BACKEND {other:?} (want memory|mmap)"),
    };
    (transport, backend)
}

fn cfg(providers: usize) -> DeploymentConfig {
    let (transport, backend) = matrix_cell();
    DeploymentConfig::functional(providers)
        .tune()
        .transport(transport)
        .backend(backend)
        .build()
}

#[test]
fn alloc_write_read_roundtrip() {
    let d = Deployment::build(cfg(4));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    assert_eq!(info.latest, 0);

    let data: Vec<u8> = (0..2 * PAGE).map(|i| (i % 251) as u8).collect();
    let v = c.write(&mut ctx, info.blob, PAGE, &data).unwrap();
    assert_eq!(v, 1);

    let (got, latest) = c
        .read(&mut ctx, info.blob, Some(1), seg(PAGE, 2 * PAGE))
        .unwrap();
    assert_eq!(latest, 1);
    assert_eq!(got, data);

    // Unwritten space reads as zeros (allocate-on-write).
    let (z, _) = c
        .read(&mut ctx, info.blob, Some(1), seg(4 * PAGE, PAGE))
        .unwrap();
    assert!(z.iter().all(|&b| b == 0));

    // Data and metadata really are distributed, on the right backend.
    assert_eq!(d.total_pages(), 2);
    assert!(d.total_tree_nodes() > 0);
    let (_, backend) = matrix_cell();
    assert!(d.storage.iter().all(|s| s.data().backend_kind() == backend));
}

#[test]
fn matches_reference_store_on_random_workload() {
    let d = Deployment::build(cfg(5));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let geom = info.geometry();
    let mut oracle = ReferenceStore::new(geom);
    let mut rng = rng_for(2025, 4);

    for i in 0..20u64 {
        let start = rng.gen_range(0..PAGES);
        let len = rng.gen_range(1..=(PAGES - start).min(6));
        let s = seg(start * PAGE, len * PAGE);
        let data: Vec<u8> = (0..s.size)
            .map(|j| (i as u8).wrapping_mul(43).wrapping_add(j as u8))
            .collect();
        let v1 = c.write(&mut ctx, info.blob, s.offset, &data).unwrap();
        let v2 = oracle.write(s, &data).unwrap();
        assert_eq!(v1, v2);
    }

    for v in 0..=oracle.latest() {
        let (got, _) = c.read(&mut ctx, info.blob, Some(v), seg(0, TOTAL)).unwrap();
        assert_eq!(got, oracle.read(v, seg(0, TOTAL)).unwrap(), "version {v}");
    }
    for _ in 0..25 {
        let v = rng.gen_range(0..=oracle.latest());
        let off = rng.gen_range(0..TOTAL - 1);
        let len = rng.gen_range(1..=(TOTAL - off).min(5000));
        let s = seg(off, len);
        let (got, _) = c.read(&mut ctx, info.blob, Some(v), s).unwrap();
        assert_eq!(got, oracle.read(v, s).unwrap(), "v{v} {s:?}");
    }
}

#[test]
fn page_replication_survives_provider_death() {
    let mut config = cfg(4);
    config.replication = 2;
    config.meta_replication = 2;
    let d = Deployment::build(config);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..TOTAL).map(|i| (i % 199) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // Kill each storage node in turn; the client must fail over to the
    // surviving replica.
    for i in 0..4 {
        d.kill_storage(i);
        let (got, _) = c.read(&mut ctx, info.blob, Some(1), seg(0, TOTAL)).unwrap();
        assert_eq!(got, data, "after killing storage node {i}");
        d.revive_storage(i);
    }
}

#[test]
fn a_page_failure_burns_no_version() {
    // One storage node dies and the provider manager never hears of it,
    // so plans keep placing pages there. Unreplicated pages, metadata
    // on two replicas (the tree outlives the node), a shared cache.
    let d = Deployment::build(
        cfg(4)
            .tune()
            .replication(1)
            .meta_replication(2)
            .cache_nodes(4096)
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    d.cluster.kill(d.storage_nodes[0]);
    let dead = ProviderId(d.storage_nodes[0].0);

    // 32 pages over 4 providers: some are planned onto the dead one. The
    // write re-places them before it publishes, and takes version 1.
    let data: Vec<u8> = (0..TOTAL).map(|i| (i % 241) as u8).collect();
    assert_eq!(c.write(&mut ctx, info.blob, 0, &data).unwrap(), 1);
    let (got, latest) = c.read(&mut ctx, info.blob, Some(1), seg(0, TOTAL)).unwrap();
    assert_eq!(latest, 1);
    assert!(got == data, "the write reads back byte-equal");

    // No leaf of the write names the dead node: not on any live
    // metadata replica, and not in the shared cache.
    let leaves: Vec<NodeKey> = (0..PAGES)
        .map(|i| NodeKey {
            blob: info.blob,
            version: 1,
            offset: i * PAGE,
            size: PAGE,
        })
        .collect();
    let names_dead = |body: &NodeBody| match body {
        NodeBody::Leaf { page } => page.replicas.contains(&dead),
        NodeBody::Inner { .. } => panic!("a page-sized node is a leaf"),
    };
    let rpc = RpcClient::new(d.cluster.transport(), d.cluster.add_node());
    let mut stored = 0;
    for &node in &d.storage_nodes[1..] {
        let resp: MetaGetBatchResp = rpc
            .call(
                &mut Ctx::start(),
                node,
                method::META_GET_BATCH,
                &MetaGetBatch {
                    keys: leaves.clone(),
                },
            )
            .unwrap();
        for leaf in resp.nodes.into_iter().flatten() {
            assert!(!names_dead(&leaf.body), "DHT holds {leaf:?}");
            stored += 1;
        }
    }
    assert!(stored >= PAGES, "every leaf has a live metadata replica");
    let cache = d.meta_cache.as_ref().expect("cache configured");
    for key in &leaves {
        let body = cache.get(key).expect("the writer warmed the cache");
        assert!(!names_dead(&body), "the cache holds {body:?} at {key:?}");
    }

    // No version was burned: the next write publishes version 2.
    let v2 = c.write(&mut ctx, info.blob, 0, &vec![7u8; PAGE as usize]);
    assert_eq!(v2.unwrap(), 2);
    assert_eq!(c.latest(&mut ctx, info.blob).unwrap(), 2);
}

#[test]
fn concurrent_writers_serialize_into_dense_versions() {
    let d = std::sync::Arc::new(Deployment::build(cfg(4)));
    let setup = d.client();
    let mut ctx = Ctx::start();
    let info = setup.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let blob = info.blob;

    let writers = 4;
    let per = 6;
    let handles: Vec<_> = (0..writers)
        .map(|t| {
            let d = std::sync::Arc::clone(&d);
            std::thread::spawn(move || {
                let c = d.client();
                let mut ctx = Ctx::start();
                let mut rng = rng_for(99, t as u64);
                let mut produced = Vec::new();
                for _ in 0..per {
                    let start = rng.gen_range(0..PAGES);
                    let len = rng.gen_range(1..=(PAGES - start).min(4));
                    let s = seg(start * PAGE, len * PAGE);
                    let fill: u8 = rng.gen();
                    let data: Vec<u8> = (0..s.size).map(|j| fill.wrapping_add(j as u8)).collect();
                    let v = c.write(&mut ctx, blob, s.offset, &data).unwrap();
                    produced.push((v, s, fill));
                }
                produced
            })
        })
        .collect();

    let mut all: Vec<(u64, Segment, u8)> = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    all.sort_by_key(|(v, _, _)| *v);
    for (i, (v, _, _)) in all.iter().enumerate() {
        assert_eq!(*v, i as u64 + 1, "dense unique versions");
    }

    // Global serializability: each version equals prefix application.
    let reader = d.client();
    let mut rctx = Ctx::start();
    let mut model = vec![0u8; TOTAL as usize];
    for (v, s, fill) in &all {
        let data: Vec<u8> = (0..s.size).map(|j| fill.wrapping_add(j as u8)).collect();
        model[s.offset as usize..s.end() as usize].copy_from_slice(&data);
        let (got, _) = reader
            .read(&mut rctx, blob, Some(*v), seg(0, TOTAL))
            .unwrap();
        assert_eq!(got, model, "version {v}");
    }
}

#[test]
fn shared_metadata_cache_is_prewarmed_by_writers() {
    let mut config = cfg(3);
    config.cache_nodes = 1 << 12;
    let d = Deployment::build(config);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data = vec![5u8; TOTAL as usize];
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // A fresh client reads through the cache the writer warmed.
    let c2 = d.client();
    let (_, m0) = c2.cache_stats().unwrap();
    let (r, _) = c2
        .read(&mut ctx, info.blob, Some(1), seg(0, TOTAL))
        .unwrap();
    let (_, m1) = c2.cache_stats().unwrap();
    assert_eq!(m1, m0, "shared cache is pre-warmed by the writer");
    assert_eq!(r, data);
}

#[test]
fn compaction_reclaims_dead_log_space() {
    // The PR 5 scenario cell: write several versions, drop the old ones
    // (half the pages become dead), compact every provider, restart,
    // and verify the surviving version byte-for-byte. On the memory
    // cells compaction must be the documented no-op (removes free
    // eagerly; there is nothing to rewrite); on the mmap cells it must
    // reclaim at least 90% of the dead bytes and hand back a smaller
    // generation.
    let (_, backend) = matrix_cell();
    let d = Deployment::build(cfg(3));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    for round in 0..4u8 {
        c.write(&mut ctx, info.blob, 0, &vec![round; TOTAL as usize])
            .unwrap();
    }
    // Drop versions 1–3: three quarters of all pages become dead.
    let (_, pages) = c.gc(&mut ctx, info.blob, 4).unwrap();
    assert!(pages > 0, "gc dropped the superseded versions' pages");

    for i in 0..3 {
        let before = d.storage[i].data().stats();
        let report = d.compact_storage(i).unwrap();
        let after = d.storage[i].data().stats();
        match backend {
            BackendKind::Memory => {
                assert!(report.is_none(), "memory backend has nothing to compact");
                assert_eq!(after, before, "compaction is a no-op on the heap");
                assert_eq!(after.dead_bytes, 0);
                assert_eq!(after.mapped_bytes, 0);
            }
            BackendKind::Mmap => {
                let r = report.expect("mmap backend compacts");
                assert!(before.dead_bytes > 0, "gc left dead log bytes");
                assert!(
                    r.reclaimed_bytes as f64 >= 0.9 * before.dead_bytes as f64,
                    "provider {i}: reclaimed {} of {} dead bytes",
                    r.reclaimed_bytes,
                    before.dead_bytes
                );
                assert_eq!(after.dead_bytes, 0, "fresh generation starts clean");
                assert_eq!(after.mapped_bytes, r.new_log_bytes);
                assert!(
                    after.mapped_bytes < before.mapped_bytes,
                    "the log actually shrank"
                );
                assert_eq!(
                    after.reserved_bytes(),
                    r.new_log_bytes,
                    "capacity accounting follows the surviving generation only"
                );
            }
        }
    }

    // The surviving version still reads back intact after the swap.
    let (got, _) = c.read(&mut ctx, info.blob, Some(4), seg(0, TOTAL)).unwrap();
    assert!(got.iter().all(|&b| b == 3));

    if backend == BackendKind::Mmap {
        // Restart every provider on its compacted generation: replay
        // must re-serve the live version and only the live version.
        for i in 0..3 {
            d.kill_storage(i);
            d.restart_storage(i).unwrap();
        }
        let (got, _) = c.read(&mut ctx, info.blob, Some(4), seg(0, TOTAL)).unwrap();
        assert!(
            got.iter().all(|&b| b == 3),
            "survivor byte-identical after restart on the compacted log"
        );
        assert!(
            c.read(&mut ctx, info.blob, Some(1), seg(0, TOTAL)).is_err(),
            "collected versions stay collected across the restart"
        );
    }
}

#[test]
fn gc_reclaims_dead_versions() {
    let d = Deployment::build(cfg(3));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    for round in 0..4u8 {
        c.write(&mut ctx, info.blob, 0, &vec![round; (4 * PAGE) as usize])
            .unwrap();
    }
    let pages_before = d.total_pages();
    let (nodes, pages) = c.gc(&mut ctx, info.blob, 4).unwrap();
    assert!(nodes > 0 && pages > 0, "gc reclaimed something");
    assert!(d.total_pages() < pages_before, "index entries dropped");
    // The surviving version still reads back intact.
    let (got, _) = c
        .read(&mut ctx, info.blob, Some(4), seg(0, 4 * PAGE))
        .unwrap();
    assert!(got.iter().all(|&b| b == 3));
    let res = c.read(&mut ctx, info.blob, Some(1), seg(0, 4 * PAGE));
    assert!(res.is_err(), "collected version is unreadable");
}

#[test]
fn cluster_restart_recovers_acknowledged_writes() {
    // The PR 7 scenario cell: several versions from several clients,
    // then a whole-cluster cold restart — data providers, metadata
    // providers, version manager and provider manager all killed and
    // reopened from their durable directories. On the mmap cells every
    // acknowledged write must come back byte-identical at its version
    // and the post-restart cluster must keep working (including fresh
    // writes, which must not recycle replayed write ids). On the memory
    // cells the restart is the documented negative control: the cluster
    // comes back empty, reads fail with a typed error — never a hang or
    // panic — and the cluster is immediately usable again.
    let (_, backend) = matrix_cell();
    let mut d = Deployment::build(cfg(3));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let geom = info.geometry();
    let mut oracle = ReferenceStore::new(geom);
    let mut rng = rng_for(7, 7);
    for i in 0..8u64 {
        let start = rng.gen_range(0..PAGES);
        let len = rng.gen_range(1..=(PAGES - start).min(5));
        let s = seg(start * PAGE, len * PAGE);
        let data: Vec<u8> = (0..s.size)
            .map(|j| (i as u8).wrapping_mul(37).wrapping_add(j as u8))
            .collect();
        let v1 = c.write(&mut ctx, info.blob, s.offset, &data).unwrap();
        assert_eq!(v1, oracle.write(s, &data).unwrap());
    }

    d.restart_cluster().unwrap();
    // Clients spawned before the restart keep working: node identities
    // and listeners survive, only the services' state was reopened.
    match backend {
        BackendKind::Mmap => {
            for v in 0..=oracle.latest() {
                let (got, latest) = c.read(&mut ctx, info.blob, Some(v), seg(0, TOTAL)).unwrap();
                assert_eq!(latest, oracle.latest(), "latest survives the restart");
                assert_eq!(got, oracle.read(v, seg(0, TOTAL)).unwrap(), "version {v}");
            }
            // Restarting twice is identical to restarting once.
            d.restart_cluster().unwrap();
            let (got, latest) = c.read(&mut ctx, info.blob, None, seg(0, TOTAL)).unwrap();
            assert_eq!(latest, oracle.latest());
            assert_eq!(got, oracle.read(oracle.latest(), seg(0, TOTAL)).unwrap());
            // The recovered cluster accepts new writes on dense versions
            // and reads them back.
            let data = vec![0xABu8; PAGE as usize];
            let v = c.write(&mut ctx, info.blob, 0, &data).unwrap();
            assert_eq!(v, oracle.latest() + 1);
            let (got, _) = c.read(&mut ctx, info.blob, Some(v), seg(0, PAGE)).unwrap();
            assert_eq!(got, data);
            // ...without corrupting any recovered version underneath.
            let (got, _) = c
                .read(&mut ctx, info.blob, Some(oracle.latest()), seg(0, TOTAL))
                .unwrap();
            assert_eq!(got, oracle.read(oracle.latest(), seg(0, TOTAL)).unwrap());
        }
        BackendKind::Memory => {
            // Negative control: nothing was durable, so nothing is
            // served — as a clean typed error, not a hang or panic.
            let err = c
                .read(&mut ctx, info.blob, Some(1), seg(0, PAGE))
                .unwrap_err();
            assert!(
                matches!(err, blobseer_proto::BlobError::UnknownBlob(_)),
                "got {err:?}"
            );
            // The emptied cluster is immediately usable again.
            let info2 = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
            let data = vec![9u8; PAGE as usize];
            assert_eq!(c.write(&mut ctx, info2.blob, 0, &data).unwrap(), 1);
            let (got, _) = c.read(&mut ctx, info2.blob, Some(1), seg(0, PAGE)).unwrap();
            assert_eq!(got, data);
        }
    }
}

#[test]
fn restarts_under_a_writer_lose_no_acknowledged_write() {
    // About twenty whole-cluster restarts while a writer thread keeps
    // writing: a write in flight across a restart may fail, but every
    // write acknowledged — its pages, tree and publication journaled by
    // whichever incarnation served it — must read back byte-identical at
    // its version after a final restart, and `latest` must not fall
    // below the newest of them. The version manager serves each request
    // from one incarnation, so no publication accepted by one registry
    // is journaled into the next one's log. Memory cells have nothing
    // durable to check.
    if matrix_cell().1 != BackendKind::Mmap {
        return;
    }
    let mut d = Deployment::build(cfg(3));
    let writer = d.client();
    let blob = writer.alloc(&mut Ctx::start(), TOTAL, PAGE).unwrap().blob;
    let stop = Arc::new(AtomicBool::new(false));
    let writing = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut acked = Vec::new();
            let mut ctx = Ctx::start();
            for i in 0u64.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let s = seg((i % (PAGES - 1)) * PAGE, 2 * PAGE);
                let data: Vec<u8> = (0..s.size).map(|j| (i * 31 + j) as u8).collect();
                if let Ok(v) = writer.write(&mut ctx, blob, s.offset, &data) {
                    acked.push((v, s, data));
                }
            }
            acked
        })
    };
    for _ in 0..20 {
        std::thread::sleep(std::time::Duration::from_millis(5));
        d.restart_cluster().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let acked = writing.join().unwrap();
    d.restart_cluster().unwrap();

    assert!(
        !acked.is_empty(),
        "some writes went through between restarts"
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    for (v, s, data) in &acked {
        let (got, latest) = c.read(&mut ctx, blob, Some(*v), *s).unwrap();
        assert!(got == *data, "version {v} at {s:?} did not survive");
        assert!(latest >= acked.iter().map(|(v, _, _)| *v).max().unwrap_or(0));
    }
}

#[test]
fn reads_follow_a_moving_frontier() {
    // A reader descends the newest version it has seen published and
    // asks for `latest` in the same burst. Another client's writes move
    // the frontier under it: the read must land on the newer version,
    // byte-exact, dropping only what the newer tree does not share.
    let (_, backend) = matrix_cell();
    let mut config = cfg(3);
    config.cache_nodes = 1 << 12;
    let mut d = Deployment::build(config);
    let (a, b) = (d.client(), d.client());
    let mut ctx = Ctx::start();
    let blob = b.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;
    let mut model = vec![1u8; TOTAL as usize];
    assert_eq!(b.write(&mut ctx, blob, 0, &model).unwrap(), 1);
    let span = seg(0, 4 * PAGE);
    let read_a = |ctx: &mut Ctx| a.read_with_stats(ctx, blob, None, span).unwrap();
    let page = |i: u64| (i * PAGE) as usize..((i + 1) * PAGE) as usize;
    assert_eq!(read_a(&mut ctx).1, 1, "A's first read opens the blob");

    // B writes a page A does not read: A's pages are still the newest
    // tree's leaves, so the burst's pages are all reused.
    model[page(20)].fill(2);
    assert_eq!(
        b.write(&mut ctx, blob, 20 * PAGE, &model[page(20)])
            .unwrap(),
        2
    );
    let (got, vr, stats) = read_a(&mut ctx);
    assert_eq!((vr, stats.refetched), (2, 0), "{stats:?}");
    assert_eq!(got, model[..span.size as usize]);

    // B rewrites a page A reads: exactly that page is fetched again.
    model[page(1)].fill(3);
    assert_eq!(b.write(&mut ctx, blob, PAGE, &model[page(1)]).unwrap(), 3);
    let (got, vr, stats) = read_a(&mut ctx);
    assert_eq!((vr, stats.refetched), (3, 1), "{stats:?}");
    assert_eq!(got, model[..span.size as usize], "B's bytes");

    // Confirmed: the floor is the latest version, nothing is dropped.
    let (_, vr, stats) = read_a(&mut ctx);
    assert_eq!((vr, stats.refetched), (3, 0), "{stats:?}");

    // A pinned read above `latest` surfaces nothing it fetched...
    let err = a.read(&mut ctx, blob, Some(4), span).unwrap_err();
    assert_eq!(
        err,
        blobseer_proto::BlobError::VersionNotPublished {
            requested: 4,
            latest: 3
        }
    );
    // ...and once B publishes it, A reads it, though A's floor is 3.
    model[page(2)].fill(4);
    assert_eq!(
        b.write(&mut ctx, blob, 2 * PAGE, &model[page(2)]).unwrap(),
        4
    );
    let (got, vr) = a.read(&mut ctx, blob, Some(4), span).unwrap();
    assert_eq!((got.as_slice(), vr), (&model[..span.size as usize], 4));

    // A pinned read of a collected version fails as it always has.
    b.gc(&mut ctx, blob, 3).unwrap();
    let err = a.read(&mut ctx, blob, Some(1), span).unwrap_err();
    assert!(
        matches!(err, blobseer_proto::BlobError::MissingMetadata { .. }),
        "got {err:?}"
    );

    // The version check fails the read even when the pages it rode
    // with arrived.
    d.cluster.kill(d.vm_node);
    let before = d.cluster.message_count();
    let err = a.read(&mut ctx, blob, None, span).unwrap_err();
    assert!(
        matches!(err, blobseer_proto::BlobError::Unreachable(_)),
        "got {err:?}"
    );
    assert!(d.cluster.message_count() > before, "the pages travelled");
    d.cluster.revive(d.vm_node);

    d.restart_cluster().unwrap();
    match backend {
        BackendKind::Mmap => {
            let (got, vr) = a.read(&mut ctx, blob, None, span).unwrap();
            assert_eq!((got.as_slice(), vr), (&model[..span.size as usize], 4));
        }
        BackendKind::Memory => {
            let err = a.read(&mut ctx, blob, None, span).unwrap_err();
            assert_eq!(err, blobseer_proto::BlobError::UnknownBlob(blob));
            // The emptied cluster hands the id out again. A's floor of 4,
            // left over from the old blob, would send its reads down
            // trees that do not exist: `alloc` resets the floor...
            assert_eq!(a.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob, blob);
            let sixes = vec![6u8; PAGE as usize];
            for v in 1..=2 {
                assert_eq!(a.write(&mut ctx, blob, v * PAGE, &sixes).unwrap(), v);
            }
            let (got, vr, stats) = read_a(&mut ctx);
            assert_eq!((vr, stats.refetched), (2, 0), "{stats:?}");
            assert_eq!(got[page(1)], sixes);
            assert_eq!(got[page(2)], sixes);
            // ...and so does a changed geometry in a descriptor.
            d.restart_cluster().unwrap();
            assert_eq!(b.alloc(&mut ctx, TOTAL, 2 * PAGE).unwrap().blob, blob);
            let data = vec![7u8; 2 * PAGE as usize];
            assert_eq!(b.write(&mut ctx, blob, 0, &data).unwrap(), 1);
            assert_eq!(a.info(&mut ctx, blob).unwrap().page_size, 2 * PAGE);
            let (got, vr, stats) = a
                .read_with_stats(&mut ctx, blob, None, seg(0, 2 * PAGE))
                .unwrap();
            assert_eq!((got, vr, stats.refetched), (data, 1, 0));
        }
    }
}
