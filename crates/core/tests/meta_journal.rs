//! The metadata journal holds the live tree plus what arrived since its
//! last rewrite: `gc` drops tree nodes, the DHT node journals their
//! removal only when it held them, and dead journal bytes compact
//! online on the page log's thresholds. Sim × mmap cells: exact and
//! deterministic.

use blobseer_core::{Deployment, DeploymentConfig, LogOptions};
use blobseer_dht::wal::FORMAT;
use blobseer_meta::build_write_tree;
use blobseer_proto::messages::WriteTicket;
use blobseer_proto::tree::{PageKey, PageLoc, TreeNode};
use blobseer_proto::{BlobId, Geometry, ProviderId, Segment, Version, Wire, WriteId};
use blobseer_rpc::Ctx;
use blobseer_util::recordlog::footprint;

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

/// Version `v`'s tree of the soak's blob, node for node as the client
/// builds it: a whole-blob write, so no border links; the `v`-th write,
/// so write id `v` (the provider manager counts from 1); and one replica
/// per page, on a provider whose id's varint is as wide as `replica`'s.
fn soak_tree(geom: &Geometry, blob: BlobId, v: Version, replica: ProviderId) -> Vec<TreeNode> {
    let pages: Vec<PageLoc> = (0..PAGES)
        .map(|index| PageLoc {
            key: PageKey {
                blob,
                write: WriteId(v),
                index,
            },
            replicas: vec![replica],
        })
        .collect();
    let ticket = WriteTicket {
        version: v,
        borders: vec![],
    };
    build_write_tree(geom, blob, &Segment::new(0, TOTAL), &pages, &ticket).unwrap()
}

/// Journal bytes of a record over `len` payload bytes (the metadata
/// journal's header fields are all 0).
fn record_bytes(len: usize) -> u64 {
    footprint(0, 0, 0, len as u64)
}

/// Journal bytes of the put records of `tree`.
fn put_bytes(tree: &[TreeNode]) -> u64 {
    tree.iter().map(|n| record_bytes(n.wire_hint())).sum()
}

/// Journal bytes of the remove records of `tree`'s keys.
fn remove_bytes(tree: &[TreeNode]) -> u64 {
    tree.iter().map(|n| record_bytes(n.key.wire_hint())).sum()
}

/// The widest commit marker the soak can write: a sequence number
/// below 16,384 and a coverage offset below 2 MiB, far past any journal
/// here.
fn widest_marker() -> u64 {
    footprint(1 << 14, 1 << 21, 0, 0)
}

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
    // Varints grow with the value, so the widest id bounds every replica.
    let widest = ProviderId(d.storage_nodes.iter().map(|n| n.0).max().unwrap());
    let tree = |v| soak_tree(&geom, info.blob, v, widest);

    // Round r appends at most: version r's tree as put records, version
    // r - 1's tree as remove records (gc(r) drops it), and two commit
    // markers per node (one put batch, one remove batch). Exact record
    // sizes, from the nodes' own encodings; markers at their widest.
    let round_bytes = |r: Version| {
        let removed = if r > 1 { remove_bytes(&tree(r - 1)) } else { 0 };
        put_bytes(&tree(r)) + removed + 2 * widest_marker() * providers as u64
    };
    // The growth ceiling, fixed at round 1: however the nodes of a round
    // spread over the DHT, no node holds more live records than the
    // whole tree, so no journal within the trigger's slack exceeds the
    // whole tree plus a round, twice over. Versions and write ids stay
    // one-byte varints for every round, so later rounds' records are no
    // larger than the widest round's.
    let widest_round = round_bytes(ROUNDS);
    let whole_tree = put_bytes(&tree(1));
    let ceiling = whole_tree + widest_round + MIN_DEAD.max(whole_tree + widest_round);

    let mut peaks = Vec::new();
    // Per node, what its journal holds beyond its live records right
    // after each round in which it compacted.
    let mut after_compaction: Vec<Vec<(Version, u64)>> = vec![Vec::new(); d.storage.len()];
    for r in 1..=ROUNDS {
        let compacted: Vec<u64> = d.storage.iter().map(|s| s.meta().compactions()).collect();
        let round = round_bytes(r);
        let fill = vec![r as u8; TOTAL as usize];
        let v = c.write(&mut ctx, info.blob, 0, &fill).unwrap();
        c.gc(&mut ctx, info.blob, v).unwrap();
        let mut peak = 0;
        for (i, s) in d.storage.iter().enumerate() {
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
            if meta.compactions() > compacted[i] {
                after_compaction[i].push((r, meta.log_bytes() - live));
            }
        }
        // The nodes hold exactly version r's tree, record for record.
        let live: u64 = d.storage.iter().map(|s| s.meta().live_bytes()).sum();
        assert_eq!(live, put_bytes(&tree(r)), "round {r}: live records");
        peaks.push(peak);
    }
    let compactions: u64 = d.storage.iter().map(|s| s.meta().compactions()).sum();
    assert!(compactions > 0, "dead bytes compacted online");
    // A plateau, not a slope: the late rounds peak under the ceiling
    // fixed at round 1. Which round's peak is highest depends on when
    // each node's trigger fires (a sawtooth), so peaks are compared
    // with the ceiling, not with each other.
    let late = &peaks[peaks.len() / 2..];
    let highest = late.iter().max().unwrap();
    assert!(
        *highest <= ceiling,
        "journal peaks grew past the round-1 ceiling {ceiling} B: {late:?}"
    );
    // Nor can phase flip this: every node keeps compacting through the
    // late rounds, and right after each compaction its journal is its
    // format header and its live records under one commit marker, the
    // same in every round.
    let start = FORMAT.start().durable;
    let sealed_overhead = start + footprint(0, start, 0, 0);
    for (i, rounds) in after_compaction.iter().enumerate() {
        assert!(
            rounds.iter().any(|&(r, _)| r > ROUNDS / 2),
            "node {i} stopped compacting: {rounds:?}"
        );
        assert!(
            rounds.iter().all(|&(_, extra)| extra == sealed_overhead),
            "node {i} kept more than its live records through a compaction: {rounds:?}"
        );
    }

    let bounds: Vec<u64> = d
        .storage
        .iter()
        .map(|s| {
            let live = s.meta().live_bytes();
            live + widest_round + MIN_DEAD.max(live + widest_round)
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
