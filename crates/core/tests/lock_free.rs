//! End-to-end lock accounting through the full distributed stack — the
//! control-plane analogue of `zero_copy.rs`.
//!
//! Asserts PR 2's lock discipline as *measured numbers*, not claims
//! (taxonomy in `blobseer_util::lockmeter`):
//!
//! * a steady-state WRITE (geometry known, providers registered) takes
//!   **exactly one** version-assignment acquisition — the paper's
//!   sanctioned serialization point — and **zero** other serializing
//!   acquisitions: write planning is lock-free end to end;
//! * a cache-hit READ takes **zero** exclusive acquisitions of any
//!   class: the whole metadata descent runs on shard read locks and
//!   atomic reference bits — also when another writer moved the
//!   frontier, so the read re-descends and raises its floor (an atomic
//!   `fetch_max`);
//! * re-opening a known blob takes zero exclusive acquisitions, while a
//!   client's *first* open of it charges exactly one serializing
//!   acquisition (its geometry-map insert) — so the meter is live, and
//!   the zeros above are measured, not assumed.
//!
//! The same counts under concurrent tcp writers with every journal on
//! are asserted in `mmap_zero_copy.rs`, and grant batching below one
//! acquisition per write in `version_grants.rs`.
//!
//! One test function per regime on one thread, using the thread-local
//! lock meters: the simulated transports dispatch service handlers
//! inline on the calling thread, so manager-, version- and cache-side
//! acquisitions all land on this thread's meter.

use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_proto::Segment;
use blobseer_rpc::Ctx;
use blobseer_util::lockmeter;

const PAGE: u64 = 4096;
const PAGES: u64 = 8;
const TOTAL: u64 = PAGE * PAGES;

fn warm_deployment() -> (
    Deployment,
    blobseer_core::BlobClient,
    Ctx,
    blobseer_proto::BlobId,
) {
    let mut cfg = DeploymentConfig::functional(4);
    cfg.cache_nodes = 1 << 12;
    cfg.replication = 2; // replica fan-out must stay lock-free too
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let blob = info.blob;
    // Warm everything: geometry map, provider roster snapshot, metadata
    // cache (whole-blob write caches the whole latest tree).
    let data = vec![7u8; TOTAL as usize];
    c.write(&mut ctx, blob, 0, &data).unwrap();
    c.read(&mut ctx, blob, None, Segment::new(0, TOTAL))
        .unwrap();
    (d, c, ctx, blob)
}

#[test]
fn steady_state_write_serializes_only_on_version_assignment() {
    let (_d, c, mut ctx, blob) = warm_deployment();
    let data = vec![9u8; TOTAL as usize];

    let snap = lockmeter::thread_snapshot();
    c.write(&mut ctx, blob, 0, &data).unwrap();
    let locks = snap.since();

    assert_eq!(
        locks.serializing, 0,
        "write planning and geometry lookup must acquire no singleton lock: {locks:?}"
    );
    assert_eq!(
        locks.version_assign, 1,
        "exactly the paper-sanctioned version-assignment mutex: {locks:?}"
    );
    // Cache population is the only exclusive work left, and it is
    // sharded and bounded by the number of tree nodes built.
    let nodes_built = blobseer_meta::node_count_for_write(
        &blobseer_proto::Geometry::new(TOTAL, PAGE).unwrap(),
        &Segment::new(0, TOTAL),
    );
    assert!(
        locks.sharded <= nodes_built,
        "sharded acquisitions bounded by tree nodes built: {locks:?} vs {nodes_built}"
    );
}

#[test]
fn cache_hit_read_takes_zero_exclusive_locks() {
    let (_d, c, mut ctx, blob) = warm_deployment();

    let snap = lockmeter::thread_snapshot();
    let (data, _) = c
        .read(&mut ctx, blob, None, Segment::new(0, TOTAL))
        .unwrap();
    let locks = snap.since();

    assert!(data.iter().all(|&b| b == 7));
    assert_eq!(
        locks.total_exclusive(),
        0,
        "a cache-hit read is exclusive-lock-free end to end: {locks:?}"
    );
    assert!(
        locks.shared > 0,
        "the descent does probe the cache (shared acquisitions): {locks:?}"
    );
}

#[test]
fn warm_read_that_raises_the_floor_takes_zero_exclusive_locks() {
    let (d, c, mut ctx, blob) = warm_deployment();
    // Another client publishes version 2 (pre-warming the shared cache
    // with its tree); `c`'s floor is still 1.
    let data = vec![8u8; TOTAL as usize];
    d.client().write(&mut ctx, blob, 0, &data).unwrap();

    let snap = lockmeter::thread_snapshot();
    let (got, vr, stats) = c
        .read_with_stats(&mut ctx, blob, None, Segment::new(0, TOTAL))
        .unwrap();
    let locks = snap.since();

    assert_eq!((got, vr), (data, 2));
    assert_eq!(stats.refetched, PAGES, "every floor page was replaced");
    assert_eq!(
        locks.total_exclusive(),
        0,
        "re-descending and raising the floor are exclusive-lock-free: {locks:?}"
    );
    // The floor did move: the next read is confirmed, nothing dropped.
    let (_, _, stats) = c
        .read_with_stats(&mut ctx, blob, None, Segment::new(0, TOTAL))
        .unwrap();
    assert_eq!(stats.refetched, 0);
}

#[test]
fn repeated_opens_of_a_known_blob_are_lock_write_free() {
    let (d, c, mut ctx, blob) = warm_deployment();

    let snap = lockmeter::thread_snapshot();
    for _ in 0..10 {
        c.info(&mut ctx, blob).unwrap();
        c.latest(&mut ctx, blob).unwrap();
    }
    let locks = snap.since();
    assert_eq!(
        locks.total_exclusive(),
        0,
        "re-opening a known blob must not write-lock the geometry map: {locks:?}"
    );

    // A client that has never seen the blob inserts its geometry once:
    // the meter sees that serializing write lock, then nothing more.
    let fresh = d.client();
    let snap = lockmeter::thread_snapshot();
    fresh.info(&mut ctx, blob).unwrap();
    let first = snap.since();
    assert_eq!(
        first.serializing, 1,
        "a first open charges exactly the geometry-map insert: {first:?}"
    );
    let snap = lockmeter::thread_snapshot();
    for _ in 0..10 {
        fresh.info(&mut ctx, blob).unwrap();
    }
    let again = snap.since();
    assert_eq!(
        again.serializing, 0,
        "its repeat opens are lock-write-free: {again:?}"
    );
}
