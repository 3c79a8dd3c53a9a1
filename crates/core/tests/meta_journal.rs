//! The metadata journal holds the live tree plus what arrived since its
//! last rewrite: `gc` drops tree nodes, the DHT node journals their
//! removal only when it held them, and dead journal bytes compact
//! online on the page log's thresholds. Sim × mmap cells: exact and
//! deterministic.

use blobseer_core::{Deployment, DeploymentConfig, LogOptions};
use blobseer_proto::{Geometry, Segment};
use blobseer_rpc::Ctx;
use blobseer_util::recordlog::REC_HEADER;

const PAGE: u64 = 1024;
const PAGES: u64 = 64;
const TOTAL: u64 = PAGE * PAGES;

fn meta_log_bytes(d: &Deployment) -> Vec<u64> {
    d.storage.iter().map(|s| s.meta().log_bytes()).collect()
}

#[test]
fn a_gc_replanned_after_a_restart_journals_nothing() {
    // The version manager's gc floor is not journaled, so after a cold
    // restart the next gc plans every superseded node since version 1
    // again. The DHT nodes no longer hold them: that replanned gc must
    // not append a record.
    let mut d = Deployment::build(DeploymentConfig::functional_mmap(3));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    for round in 0..4u8 {
        c.write(&mut ctx, info.blob, 0, &vec![round; TOTAL as usize])
            .unwrap();
    }
    let written = meta_log_bytes(&d);
    let (nodes, _) = c.gc(&mut ctx, info.blob, 4).unwrap();
    assert!(nodes > 0, "the first gc drops the superseded trees");
    let collected = meta_log_bytes(&d);
    assert!(
        collected.iter().zip(&written).any(|(c, w)| c > w),
        "the first gc journals its removes: {written:?} -> {collected:?}"
    );

    d.restart_cluster().unwrap();
    let replayed = meta_log_bytes(&d);
    let (nodes, _) = c.gc(&mut ctx, info.blob, 4).unwrap();
    assert_eq!(nodes, 0, "nothing left to remove");
    assert_eq!(
        meta_log_bytes(&d),
        replayed,
        "a remove of a node not held journals nothing"
    );
    let (got, _) = c
        .read(&mut ctx, info.blob, Some(4), Segment::new(0, TOTAL))
        .unwrap();
    assert!(got.iter().all(|&b| b == 3));
}

/// The online trigger's dead-bytes floor in the soak (the deployment
/// default is 64 KiB; a 64-page blob would take dozens of rounds to
/// reach it).
const MIN_DEAD: u64 = 4 * 1024;
const ROUNDS: u64 = 60;

#[test]
fn overwrite_and_gc_rounds_keep_every_meta_journal_bounded() {
    let providers = 4;
    let log = LogOptions {
        compact_min_dead_bytes: MIN_DEAD,
        ..LogOptions::default()
    };
    let mut d = Deployment::build(
        DeploymentConfig::functional_mmap(providers)
            .tune()
            .log(log)
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let geom = Geometry::new(TOTAL, PAGE).unwrap();

    // One round appends at most: the new version's tree as put records
    // (a key of 32 bytes; a leaf body of one replica 37, an inner one at
    // most 2 + 8 · 32), the old version's tree as remove records, and
    // two commit markers per node (one put batch, one remove batch).
    let nodes = blobseer_meta::node_count_for_write(&geom, &Segment::new(0, TOTAL));
    let (leaf_put, inner_put) = (REC_HEADER + 32 + 37, REC_HEADER + 32 + 2 + 8 * 32);
    let remove = REC_HEADER + 32;
    let round = PAGES * (leaf_put + remove)
        + (nodes - PAGES) * (inner_put + remove)
        + 2 * REC_HEADER * providers as u64;

    let mut peaks = Vec::new();
    for r in 1..=ROUNDS {
        let fill = vec![r as u8; TOTAL as usize];
        let v = c.write(&mut ctx, info.blob, 0, &fill).unwrap();
        c.gc(&mut ctx, info.blob, v).unwrap();
        let mut peak = 0;
        for s in &d.storage {
            let meta = s.meta();
            // Between compactions the dead bytes stay under the
            // trigger: under `MIN_DEAD`, or under half the journal —
            // then no more than its live records and markers, and the
            // markers of the rounds since the last rewrite are bounded
            // by a round.
            let live = meta.live_bytes();
            let slack = MIN_DEAD.max(live + round);
            let bound = live + round + slack;
            assert!(
                meta.log_bytes() <= bound,
                "round {r}: journal {} B over its bound {bound} B (live {live} B)",
                meta.log_bytes()
            );
            peak = peak.max(meta.log_bytes());
        }
        peaks.push(peak);
    }
    let compactions: u64 = d.storage.iter().map(|s| s.meta().compactions()).sum();
    assert!(compactions > 0, "dead bytes compacted online");
    // A plateau, not a slope: the late rounds peak no higher than the
    // early ones.
    let half = peaks.len() / 2;
    let early = peaks[..half].iter().max().unwrap();
    let late = peaks[half..].iter().max().unwrap();
    assert!(late <= early, "journal peaks grew: {early} B then {late} B");

    let bounds: Vec<u64> = d
        .storage
        .iter()
        .map(|s| {
            let live = s.meta().live_bytes();
            live + round + MIN_DEAD.max(live + round)
        })
        .collect();
    d.restart_cluster().unwrap();
    for (i, s) in d.storage.iter().enumerate() {
        assert!(
            s.meta().log_bytes() <= bounds[i],
            "node {i} replays {} B, over its bound {} B",
            s.meta().log_bytes(),
            bounds[i]
        );
    }
    let (got, latest) = c
        .read(&mut ctx, info.blob, None, Segment::new(0, TOTAL))
        .unwrap();
    assert_eq!(latest, ROUNDS);
    assert!(
        got.iter().all(|&b| b == ROUNDS as u8),
        "every byte re-served"
    );
}
