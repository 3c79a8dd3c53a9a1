//! End-to-end functional tests of the full distributed stack over the
//! real TCP transport on loopback — the same scenarios `e2e.rs` runs on
//! the simulated cluster, now with every frame gather-written through a
//! socket and every payload lent out of a receive buffer.

use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_meta::ReferenceStore;
use blobseer_proto::Segment;
use blobseer_rpc::{AggregationPolicy, Ctx};
use blobseer_util::rng::rng_for;
use rand::Rng;

const PAGE: u64 = 1024;
const PAGES: u64 = 32;
const TOTAL: u64 = PAGE * PAGES;

fn seg(o: u64, s: u64) -> Segment {
    Segment::new(o, s)
}

#[test]
fn alloc_write_read_roundtrip_over_tcp() {
    let d = Deployment::build(DeploymentConfig::functional_tcp(4));
    assert!(d.cluster.tcp().is_some(), "must really run on sockets");
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

    // Data and metadata really are distributed.
    assert_eq!(d.total_pages(), 2);
    assert!(d.total_tree_nodes() > 0);
}

#[test]
fn matches_reference_store_on_random_workload_over_tcp() {
    let d = Deployment::build(DeploymentConfig::functional_tcp(5));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let geom = info.geometry();
    let mut oracle = ReferenceStore::new(geom);
    let mut rng = rng_for(2025, 0);

    for i in 0..20u64 {
        let start = rng.gen_range(0..PAGES);
        let len = rng.gen_range(1..=(PAGES - start).min(6));
        let s = seg(start * PAGE, len * PAGE);
        let data: Vec<u8> = (0..s.size)
            .map(|j| (i as u8).wrapping_mul(41).wrapping_add(j as u8))
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
fn aggregation_cuts_message_count_over_tcp() {
    let run = |policy: AggregationPolicy| -> u64 {
        let mut cfg = DeploymentConfig::functional_tcp(4);
        cfg.aggregation = policy;
        let d = Deployment::build(cfg);
        let c = d.client();
        let mut ctx = Ctx::start();
        let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
        let before = d.cluster.message_count();
        c.write(&mut ctx, info.blob, 0, &vec![1u8; (16 * PAGE) as usize])
            .unwrap();
        d.cluster.message_count() - before
    };
    let batched = run(AggregationPolicy::Batch);
    let per_call = run(AggregationPolicy::PerCall);
    assert!(
        batched * 2 <= per_call,
        "aggregation must survive the socket: batched={batched} per_call={per_call}"
    );
}

#[test]
fn page_replication_survives_provider_death_over_tcp() {
    let mut cfg = DeploymentConfig::functional_tcp(4);
    cfg.replication = 2;
    cfg.meta_replication = 2;
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..TOTAL).map(|i| (i % 199) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // Kill each storage node in turn; the client must fail over to the
    // surviving replica through real connection errors.
    for i in 0..4 {
        d.kill_storage(i);
        let (got, _) = c.read(&mut ctx, info.blob, Some(1), seg(0, TOTAL)).unwrap();
        assert_eq!(got, data, "after killing storage node {i}");
        d.revive_storage(i);
    }
}

#[test]
fn unreplicated_deployment_loses_data_on_failure_over_tcp() {
    let d = Deployment::build(DeploymentConfig::functional_tcp(3));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![3u8; TOTAL as usize])
        .unwrap();
    d.kill_storage(0);
    let res = c.read(&mut ctx, info.blob, Some(1), seg(0, TOTAL));
    assert!(res.is_err(), "some pages/metadata lived on the dead node");
}

#[test]
fn concurrent_clients_full_stack_over_tcp() {
    // Real threads, real sockets: the lock-free claims of §IV exercised
    // with genuine network interleavings.
    let d = std::sync::Arc::new(Deployment::build(DeploymentConfig::functional_tcp(4)));
    let setup = d.client();
    let mut ctx = Ctx::start();
    let info = setup.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let blob = info.blob;

    let writers = 4;
    let per = 8;
    let handles: Vec<_> = (0..writers)
        .map(|t| {
            let d = std::sync::Arc::clone(&d);
            std::thread::spawn(move || {
                let c = d.client();
                let mut ctx = Ctx::start();
                let mut rng = rng_for(77, t as u64);
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
fn shared_metadata_cache_works_over_tcp() {
    let mut cfg = DeploymentConfig::functional_tcp(3);
    cfg.cache_nodes = 1 << 12;
    let d = Deployment::build(cfg);
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
fn a_burst_sends_on_the_connections_it_holds() {
    // A write's metadata frames and page puts leave from inside its
    // version-request burst, and a read's page fetches from inside its
    // leaf burst, as late frames on the connections that burst holds:
    // one client doing one thing at a time never dials a second
    // connection to any storage node.
    const MIB: u64 = 1 << 20;
    let d = Deployment::build(DeploymentConfig::functional_tcp(8));
    let tcp = d.cluster.tcp().unwrap();
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, 64 * MIB, 256 << 10).unwrap();
    for i in 0..32u64 {
        let data = vec![i as u8; MIB as usize];
        c.write(&mut ctx, info.blob, i * MIB, &data).unwrap();
    }
    for i in 0..32u64 {
        let (got, _) = c
            .read(&mut ctx, info.blob, None, seg(i * MIB + MIB / 2, MIB))
            .unwrap();
        assert!(got[..(MIB / 2) as usize].iter().all(|&b| b == i as u8));
        // Past the last segment lies unwritten space: zeros.
        let next = if i == 31 { 0 } else { i as u8 + 1 };
        assert!(got[(MIB / 2) as usize..].iter().all(|&b| b == next));
    }
    let pools: Vec<usize> = d
        .storage_nodes
        .iter()
        .map(|&node| tcp.pooled_connections(node))
        .collect();
    assert_eq!(pools, vec![1; 8], "connections per storage node");
}
