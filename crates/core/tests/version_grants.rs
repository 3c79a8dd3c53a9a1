//! PR 10 end-to-end: batched version grants and the sharded version
//! manager, exercised through the whole deployment.
//!
//! Three contracts, straight from the grant protocol's design notes in
//! `blobseer-version`:
//!
//! * **Shard routing is total and durable** — with `version_shards > 1`
//!   every blob lives in exactly one residue-class registry, clients
//!   route to it transparently, and a whole-cluster cold restart
//!   replays *every* shard journal, not just shard 0's.
//! * **A grant is not an ack** — versions assigned by a grant but never
//!   published are volatile: a cold restart forgets them, reissues the
//!   same numbers, and never surfaces them to readers.
//! * **Batching preserves the total order** — 16 writers hammering one
//!   hot blob still produce the dense sequence `1..=16`, and every
//!   intermediate version equals prefix application of its
//!   predecessors.
//! * **A full publish window sheds, typed** — once
//!   `DEFAULT_WINDOW` grants are unpublished, the next writer's ticket
//!   request comes back to the client as the manager's `Overload`, hint
//!   and all.
//! * **Batching removes the per-write lock** — on a hot blob with a
//!   stressed assignment cost, 16 concurrent writers take fewer than one
//!   `VersionAssign` acquisition per write, the per-op ablation takes
//!   exactly one, and at 64 writers batching at least doubles virtual
//!   throughput.

use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_proto::{BlobError, Segment, WriteId};
use blobseer_rpc::Ctx;
use blobseer_simnet::ServiceCosts;
use blobseer_util::lockmeter;
use blobseer_version::{DEFAULT_WINDOW, WINDOW_FULL_RETRY_HINT_MS};
use std::sync::{Arc, Barrier};
use std::time::Duration;

const PAGE: u64 = 1024;
const PAGES: u64 = 32;
const TOTAL: u64 = PAGE * PAGES;

fn seg(o: u64, s: u64) -> Segment {
    Segment::new(o, s)
}

#[test]
fn sharded_deployment_routes_blobs_and_replays_every_journal() {
    const SHARDS: usize = 3;
    let mut d = Deployment::build(
        DeploymentConfig::functional_mmap(3)
            .tune()
            .version_shards(SHARDS)
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();

    // Blob creation round-robins across the shards, so six allocations
    // land two blobs in every residue class.
    let blobs: Vec<_> = (0..6)
        .map(|_| c.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob)
        .collect();
    let mut residues: Vec<u64> = blobs.iter().map(|b| b.0 % SHARDS as u64).collect();
    residues.sort_unstable();
    assert_eq!(residues, vec![0, 0, 1, 1, 2, 2], "round-robin placement");

    // White-box: each blob exists in exactly its residue-class registry.
    for b in &blobs {
        let home = (b.0 % SHARDS as u64) as usize;
        for s in 0..SHARDS {
            let found = d.registries[s].get(*b).is_ok();
            assert_eq!(found, s == home, "blob {} vs shard {s}", b.0);
        }
    }

    // Every shard has its own journal directory on disk.
    for s in 0..SHARDS {
        let dir = d.version_shard_dir(s).expect("mmap backend is durable");
        assert!(dir.is_dir(), "shard {s} journal at {}", dir.display());
    }

    // Two versions per blob, with blob-distinct payloads.
    for (i, b) in blobs.iter().enumerate() {
        for v in 1..=2u64 {
            let fill = (i as u8 + 1).wrapping_mul(v as u8).wrapping_add(13);
            let data = vec![fill; (2 * PAGE) as usize];
            assert_eq!(c.write(&mut ctx, *b, PAGE, &data).unwrap(), v);
        }
    }

    // Cold restart: every shard journal replays, nothing leaks between
    // residue classes, and all acked data reads back byte-identical.
    d.restart_cluster().unwrap();
    let c = d.client();
    for (i, b) in blobs.iter().enumerate() {
        let (got, latest) = c.read(&mut ctx, *b, None, seg(PAGE, 2 * PAGE)).unwrap();
        assert_eq!(latest, 2, "blob {} latest after restart", b.0);
        let fill = (i as u8 + 1).wrapping_mul(2).wrapping_add(13);
        assert!(got.iter().all(|&x| x == fill), "blob {} payload", b.0);
    }

    // The recovered shards keep allocating from their residue classes:
    // three more blobs extend the same 0,1,2 rotation without colliding
    // with any pre-restart id.
    let fresh: Vec<_> = (0..SHARDS)
        .map(|_| c.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob)
        .collect();
    let mut fresh_res: Vec<u64> = fresh.iter().map(|b| b.0 % SHARDS as u64).collect();
    fresh_res.sort_unstable();
    assert_eq!(fresh_res, vec![0, 1, 2]);
    for f in &fresh {
        assert!(!blobs.contains(f), "fresh id {} collides", f.0);
    }
    // And the recovered cluster still accepts writes on old blobs.
    let data = vec![0x5Au8; PAGE as usize];
    assert_eq!(c.write(&mut ctx, blobs[0], 0, &data).unwrap(), 3);
}

#[test]
fn assigned_but_unpublished_grant_tail_does_not_resurrect() {
    let mut d = Deployment::build(DeploymentConfig::functional_mmap(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let blob = info.blob;

    let page_a = vec![0x11u8; PAGE as usize];
    let page_b = vec![0x22u8; PAGE as usize];
    assert_eq!(c.write(&mut ctx, blob, 0, &page_a).unwrap(), 1);
    assert_eq!(c.write(&mut ctx, blob, PAGE, &page_b).unwrap(), 2);

    // White-box: a grant hands out versions 3, 4, 5 — but none of the
    // three writers ever publishes. Assignment is in-memory state; only
    // the publish record is write-ahead.
    let state = d.registry.get(blob).unwrap();
    for i in 0..3u64 {
        let t = state
            .request_version(WriteId(0xDEAD + i), seg(0, PAGE))
            .unwrap();
        assert_eq!(t.version, 3 + i);
    }
    assert_eq!(state.latest(), 2, "unpublished tail never moves latest");

    // Cold restart: the tail evaporates. Latest is unchanged, both
    // acked versions are byte-identical, and the abandoned numbers are
    // reissued to the next real writer instead of leaking a gap.
    d.restart_cluster().unwrap();
    let c = d.client();
    let (got, latest) = c.read(&mut ctx, blob, Some(1), seg(0, PAGE)).unwrap();
    assert_eq!((got, latest), (page_a.clone(), 2));
    let (got, _) = c.read(&mut ctx, blob, Some(2), seg(PAGE, PAGE)).unwrap();
    assert_eq!(got, page_b);
    let err = c.read(&mut ctx, blob, Some(3), seg(0, PAGE)).unwrap_err();
    assert!(
        matches!(
            err,
            BlobError::VersionNotPublished {
                requested: 3,
                latest: 2
            }
        ),
        "{err:?}"
    );
    let page_c = vec![0x33u8; PAGE as usize];
    assert_eq!(
        c.write(&mut ctx, blob, 2 * PAGE, &page_c).unwrap(),
        3,
        "abandoned ticket numbers are reused, not leaked"
    );
    let (got, _) = c
        .read(&mut ctx, blob, Some(3), seg(2 * PAGE, PAGE))
        .unwrap();
    assert_eq!(got, page_c);
}

#[test]
fn full_publish_window_reaches_the_writer_as_overload() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let blob = c.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;

    // White-box: fill the window with grants that never publish.
    let state = d.registry.get(blob).unwrap();
    for i in 0..DEFAULT_WINDOW as u64 {
        state
            .request_version(WriteId(1 << 40 | i), seg(0, PAGE))
            .unwrap();
    }
    let err = c
        .write(&mut ctx, blob, 0, &[1u8; PAGE as usize])
        .unwrap_err();
    assert_eq!(
        err,
        BlobError::Overload {
            retry_after_hint: WINDOW_FULL_RETRY_HINT_MS
        },
        "the manager's refusal arrives unchanged"
    );
    assert_eq!(state.latest(), 0, "nothing was published");
}

#[test]
fn hot_blob_sixteen_writers_keep_dense_total_order() {
    const WRITERS: usize = 16;
    // A real grant window so writers actually pile up behind a leader
    // on this host instead of each becoming a leader-of-one.
    let d = Arc::new(Deployment::build(
        DeploymentConfig::functional(4)
            .tune()
            .version_grant_window(Duration::from_millis(2))
            .build(),
    ));
    let setup = d.client();
    let mut ctx = Ctx::start();
    let info = setup.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let blob = info.blob;

    let barrier = Arc::new(Barrier::new(WRITERS));
    let handles: Vec<_> = (0..WRITERS)
        .map(|t| {
            let d = Arc::clone(&d);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let c = d.client();
                let mut ctx = Ctx::start();
                // Writer t owns page t with a distinct fill byte.
                let fill = t as u8 + 1;
                let data = vec![fill; PAGE as usize];
                barrier.wait();
                let v = c.write(&mut ctx, blob, t as u64 * PAGE, &data).unwrap();
                (v, t)
            })
        })
        .collect();

    let mut order: Vec<(u64, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    order.sort_unstable();

    // Dense total order: exactly the versions 1..=16, no gap, no dup.
    let versions: Vec<u64> = order.iter().map(|(v, _)| *v).collect();
    assert_eq!(versions, (1..=WRITERS as u64).collect::<Vec<_>>());

    // Snapshot semantics: version v shows exactly the pages of the
    // writers serialized at or before v, zeros elsewhere.
    let reader = d.client();
    let mut rctx = Ctx::start();
    for upto in 1..=WRITERS {
        let (got, latest) = reader
            .read(&mut rctx, blob, Some(upto as u64), seg(0, TOTAL))
            .unwrap();
        assert_eq!(latest, WRITERS as u64);
        let written: Vec<usize> = order[..upto].iter().map(|&(_, t)| t).collect();
        for t in 0..WRITERS {
            let page = &got[t * PAGE as usize..(t + 1) * PAGE as usize];
            let expect = if written.contains(&t) { t as u8 + 1 } else { 0 };
            assert!(
                page.iter().all(|&x| x == expect),
                "version {upto}, page {t}"
            );
        }
    }
}

/// Page size, blob size (64 pages: the whole blob is one hot spot) and
/// writes per writer of the hot-blob runs.
const HOT_PAGE: u64 = 8 * 1024;
const HOT_BLOB: u64 = 64 * HOT_PAGE;
const HOT_WRITES: u64 = 32;

/// What one hot-blob run measured, summed over its writers.
struct HotRun {
    writes: u64,
    version_assign: u64,
    serializing: u64,
    /// Virtual time from the common start to the last writer's finish.
    makespan_ns: u64,
}

/// `writers` concurrent writers, one page per write, all on one 64-page
/// blob, on the costed simulator with the assignment critical section
/// stressed to 240 µs (~3× the grid5000 calibration) and a 2 ms grant
/// window, so whether assignment is batched is what throughput measures.
///
/// The simulator dispatches handlers inline, so each writer's version
/// manager charges land on its own thread-local lock meter.
fn hot_blob(writers: usize, batched: bool) -> HotRun {
    let d = Deployment::build(
        DeploymentConfig::grid5000(40)
            .tune()
            .service_costs(ServiceCosts {
                meta_store_ns: 1_000_000,
                meta_store_cpu_ns: 30_000,
                meta_fetch_ns: 20_000,
                page_store_ns: 50_000,
                page_fetch_ns: 50_000,
                version_assign_ns: 240_000,
                manager_query_ns: 10_000,
            })
            .version_batched(batched)
            .version_grant_window(Duration::from_millis(2))
            .build(),
    );
    let mut ctx = Ctx::start();
    let blob = d.client().alloc(&mut ctx, HOT_BLOB, HOT_PAGE).unwrap().blob;
    // Warm clients: opening the blob is startup, not the per-write profile.
    let clients: Vec<_> = (0..writers)
        .map(|_| {
            let c = d.client();
            c.info(&mut ctx, blob).unwrap();
            c
        })
        .collect();

    let start_vt = d.cluster.horizon();
    let per_writer: Vec<(u64, lockmeter::LockCounts)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(t, c)| {
                scope.spawn(move || {
                    let mut ctx = Ctx::at(start_vt);
                    let data = vec![t as u8; HOT_PAGE as usize];
                    let locks = lockmeter::thread_snapshot();
                    for i in 0..HOT_WRITES {
                        let page = (t as u64 * HOT_WRITES + i) % (HOT_BLOB / HOT_PAGE);
                        c.write(&mut ctx, blob, page * HOT_PAGE, &data).unwrap();
                    }
                    (ctx.vt, locks.since())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    HotRun {
        writes: writers as u64 * HOT_WRITES,
        version_assign: per_writer.iter().map(|(_, l)| l.version_assign).sum(),
        serializing: per_writer.iter().map(|(_, l)| l.serializing).sum(),
        makespan_ns: per_writer.iter().map(|&(vt, _)| vt).max().unwrap() - start_vt,
    }
}

#[test]
fn hot_blob_grants_take_under_one_lock_per_write_and_double_throughput() {
    let batched16 = hot_blob(16, true);
    let va_per_write = batched16.version_assign as f64 / batched16.writes as f64;
    assert!(
        va_per_write < 1.0,
        "16 writers on one blob must share grants: {va_per_write:.3} VersionAssign per write"
    );

    let batched64 = hot_blob(64, true);
    let per_op64 = hot_blob(64, false);
    assert_eq!(
        per_op64.version_assign, per_op64.writes,
        "the per-op ablation takes exactly one acquisition per write"
    );
    for run in [&batched16, &batched64, &per_op64] {
        assert_eq!(run.serializing, 0, "the control plane stays lock-free");
    }
    // Same writes in both runs, so throughput is inverse makespan.
    let speedup = per_op64.makespan_ns as f64 / batched64.makespan_ns as f64;
    assert!(
        speedup >= 2.0,
        "at 64 writers batching must at least double virtual throughput, got {speedup:.2}x"
    );
}
