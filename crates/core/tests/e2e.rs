//! End-to-end functional tests of the full distributed stack (zero-cost
//! transport: logic identical to the costed runs, instant).

use blobseer_core::{BlobClient, Deployment, DeploymentConfig};
use blobseer_meta::ReferenceStore;
use blobseer_proto::messages::method;
use blobseer_proto::tree::{NodeBody, NodeKey};
use blobseer_proto::{BlobError, NodeId, Segment};
use blobseer_rpc::{AggregationPolicy, Ctx, Frame, RpcClient, Transport, TransportResult};
use blobseer_simnet::ServiceCosts;
use blobseer_util::copymeter;
use blobseer_util::rng::rng_for;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const PAGE: u64 = 1024;
const PAGES: u64 = 32;
const TOTAL: u64 = PAGE * PAGES;

fn seg(o: u64, s: u64) -> Segment {
    Segment::new(o, s)
}

#[test]
fn alloc_write_read_roundtrip() {
    let d = Deployment::build(DeploymentConfig::functional(4));
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
fn matches_reference_store_on_random_workload() {
    let d = Deployment::build(DeploymentConfig::functional(5));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let geom = info.geometry();
    let mut oracle = ReferenceStore::new(geom);
    let mut rng = rng_for(2024, 0);

    for i in 0..40u64 {
        let start = rng.gen_range(0..PAGES);
        let len = rng.gen_range(1..=(PAGES - start).min(6));
        let s = seg(start * PAGE, len * PAGE);
        let data: Vec<u8> = (0..s.size)
            .map(|j| (i as u8).wrapping_mul(37).wrapping_add(j as u8))
            .collect();
        let v1 = c.write(&mut ctx, info.blob, s.offset, &data).unwrap();
        let v2 = oracle.write(s, &data).unwrap();
        assert_eq!(v1, v2);
    }

    // Every version, full-blob and random unaligned sub-reads.
    for v in 0..=oracle.latest() {
        let (got, _) = c.read(&mut ctx, info.blob, Some(v), seg(0, TOTAL)).unwrap();
        assert_eq!(got, oracle.read(v, seg(0, TOTAL)).unwrap(), "version {v}");
    }
    for _ in 0..50 {
        let v = rng.gen_range(0..=oracle.latest());
        let off = rng.gen_range(0..TOTAL - 1);
        let len = rng.gen_range(1..=(TOTAL - off).min(5000));
        let s = seg(off, len);
        let (got, _) = c.read(&mut ctx, info.blob, Some(v), s).unwrap();
        assert_eq!(got, oracle.read(v, s).unwrap(), "v{v} {s:?}");
    }
}

#[test]
fn unpublished_version_read_fails() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let err = c
        .read(&mut ctx, info.blob, Some(3), seg(0, PAGE))
        .unwrap_err();
    assert!(matches!(
        err,
        BlobError::VersionNotPublished {
            requested: 3,
            latest: 0
        }
    ));
}

#[test]
fn metadata_cache_hits_and_consistency() {
    let mut cfg = DeploymentConfig::functional(4);
    cfg.cache_nodes = 1 << 16;
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data = vec![5u8; TOTAL as usize];
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // The cache is shared across the deployment's clients: a second,
    // freshly spawned client reads through the cache the writer already
    // warmed — zero misses on its very first descent.
    let c2 = d.client();
    let (h0, m0) = c2.cache_stats().unwrap();
    let (r1, _) = c2
        .read(&mut ctx, info.blob, Some(1), seg(0, TOTAL))
        .unwrap();
    let (h1, m1) = c2.cache_stats().unwrap();
    assert_eq!(m1, m0, "shared cache is pre-warmed by the writer");
    assert!(h1 > h0, "co-located reader hits the writer's nodes");
    assert_eq!(r1, data);

    // Cold-cache behavior survives: clear the shared cache, then the
    // first descent misses and refills, and a repeat stays warm.
    d.meta_cache.as_ref().unwrap().clear();
    let (r2, _) = c2
        .read(&mut ctx, info.blob, Some(1), seg(0, TOTAL))
        .unwrap();
    let (_, m2) = c2.cache_stats().unwrap();
    assert!(m2 > m1, "cold cache must miss");
    let (h3, m3) = c2.cache_stats().unwrap();
    let (r3, _) = c2
        .read(&mut ctx, info.blob, Some(1), seg(0, TOTAL))
        .unwrap();
    let (h4, m4) = c2.cache_stats().unwrap();
    assert_eq!(m4, m3, "warm cache must not miss again");
    assert!(h4 > h3);
    assert_eq!(r1, r2);
    assert_eq!(r2, r3);

    // Writer-side caching: the writing client re-reads its own tree with
    // no new misses (every node was inserted as it was built).
    let (_, mw0) = c.cache_stats().unwrap();
    let (r5, _) = c.read(&mut ctx, info.blob, Some(1), seg(0, TOTAL)).unwrap();
    assert_eq!(r5, data);
    let (_, mw1) = c.cache_stats().unwrap();
    assert_eq!(mw1, mw0, "writer's cache serves its own tree");
}

#[test]
fn aggregation_cuts_message_count() {
    let run = |policy: AggregationPolicy| -> u64 {
        let mut cfg = DeploymentConfig::functional(4);
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
        "aggregation must at least halve messages: batched={batched} per_call={per_call}"
    );
}

#[test]
fn page_replication_survives_provider_failure() {
    let mut cfg = DeploymentConfig::functional(4);
    cfg.replication = 2;
    cfg.meta_replication = 2;
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..TOTAL).map(|i| (i % 199) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // Kill each storage node in turn; every read must still succeed.
    for i in 0..4 {
        d.kill_storage(i);
        let (got, _) = c.read(&mut ctx, info.blob, Some(1), seg(0, TOTAL)).unwrap();
        assert_eq!(got, data, "after killing storage node {i}");
        d.revive_storage(i);
    }
}

#[test]
fn unreplicated_deployment_loses_data_on_failure() {
    // Negative control: with replication=1 a dead provider must surface as
    // an error, not silent corruption.
    let d = Deployment::build(DeploymentConfig::functional(3));
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
fn gc_end_to_end() {
    let d = Deployment::build(DeploymentConfig::functional(4));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();

    // v1: full write; v2, v3: rewrite page 0.
    c.write(&mut ctx, info.blob, 0, &vec![1u8; TOTAL as usize])
        .unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![2u8; PAGE as usize])
        .unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![3u8; PAGE as usize])
        .unwrap();

    let pages_before = d.total_pages();
    let nodes_before = d.total_tree_nodes();
    let (nodes_gone, pages_gone) = c.gc(&mut ctx, info.blob, 3).unwrap();
    assert_eq!(pages_gone, 2, "page 0 of v1 and v2");
    assert!(nodes_gone > 0);
    assert_eq!(d.total_pages(), pages_before - 2);
    assert_eq!(d.total_tree_nodes(), nodes_before - nodes_gone as usize);

    // Kept version fully readable.
    let (got, _) = c.read(&mut ctx, info.blob, Some(3), seg(0, TOTAL)).unwrap();
    assert!(got[..PAGE as usize].iter().all(|&b| b == 3));
    assert!(got[PAGE as usize..].iter().all(|&b| b == 1));
    // Collected versions are no longer traversable (their superseded path
    // nodes — including the root — were reclaimed).
    assert!(c.read(&mut ctx, info.blob, Some(1), seg(0, PAGE)).is_err());
    // But v1's untouched *pages* survive, shared through v3's tree.
    let (tail, _) = c
        .read(&mut ctx, info.blob, Some(3), seg(PAGE, PAGE))
        .unwrap();
    assert!(tail.iter().all(|&b| b == 1));

    // Idempotent: second GC finds nothing.
    assert_eq!(c.gc(&mut ctx, info.blob, 3).unwrap(), (0, 0));
}

#[test]
fn concurrent_clients_full_stack() {
    // Real threads through the whole distributed stack: the lock-free
    // claims of §IV exercised end to end.
    let d = std::sync::Arc::new(Deployment::build(DeploymentConfig::functional(6)));
    let setup = d.client();
    let mut ctx = Ctx::start();
    let info = setup.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let blob = info.blob;

    let writers = 6;
    let per = 15;
    let handles: Vec<_> = (0..writers)
        .map(|t| {
            let d = std::sync::Arc::clone(&d);
            std::thread::spawn(move || {
                let c = d.client();
                let mut ctx = Ctx::start();
                let mut rng = rng_for(55, t as u64);
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
    // Dense unique versions.
    for (i, (v, _, _)) in all.iter().enumerate() {
        assert_eq!(*v, i as u64 + 1);
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
fn multiple_blobs_are_isolated() {
    let d = Deployment::build(DeploymentConfig::functional(3));
    let c = d.client();
    let mut ctx = Ctx::start();
    let a = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let b = c.alloc(&mut ctx, TOTAL, 2 * PAGE).unwrap();
    assert_ne!(a.blob, b.blob);
    c.write(&mut ctx, a.blob, 0, &vec![0xA; PAGE as usize])
        .unwrap();
    c.write(&mut ctx, b.blob, 0, &vec![0xB; (2 * PAGE) as usize])
        .unwrap();
    let (ra, _) = c.read(&mut ctx, a.blob, None, seg(0, PAGE)).unwrap();
    let (rb, _) = c.read(&mut ctx, b.blob, None, seg(0, PAGE)).unwrap();
    assert!(ra.iter().all(|&x| x == 0xA));
    assert!(rb.iter().all(|&x| x == 0xB));
}

#[test]
fn rejects_misaligned_and_oversized_segments() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    // A refused write copies nothing and sends nothing: the segment is
    // checked before the caller's buffer is touched.
    let misaligned = vec![0u8; PAGE as usize];
    let oversized = vec![0u8; (2 * PAGE) as usize];
    let refused: [(u64, &[u8]); 3] = [
        (10, &misaligned),
        (0, &[0u8; 100]),
        (TOTAL - PAGE, &oversized),
    ];
    for (offset, data) in refused {
        let copies = copymeter::thread_snapshot();
        let before = d.cluster.message_count();
        assert!(c.write(&mut ctx, info.blob, offset, data).is_err());
        assert_eq!(copies.bytes_since(), 0, "write at {offset} copied");
        assert_eq!(d.cluster.message_count(), before, "write at {offset} sent");
    }
    assert!(c.read(&mut ctx, info.blob, None, seg(TOTAL, 1)).is_err());
    // A `read_into` buffer that is not `seg.size` long is refused before
    // any message leaves.
    let before = d.cluster.message_count();
    let mut short = vec![0u8; (PAGE - 1) as usize];
    let err = c
        .read_into(&mut ctx, info.blob, None, seg(0, PAGE), &mut short)
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlobError::BadSegment {
                reason: "buffer size mismatch",
                ..
            }
        ),
        "{err:?}"
    );
    assert_eq!(d.cluster.message_count(), before);
    // Bad geometry at alloc.
    assert!(c.alloc(&mut ctx, 1000, 100).is_err());
}

#[test]
fn read_returns_latest_version_witness() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![1u8; PAGE as usize])
        .unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![2u8; PAGE as usize])
        .unwrap();
    // Reading version 1 still reports vr = 2 (paper: "vr >= v holds").
    let (_, vr) = c.read(&mut ctx, info.blob, Some(1), seg(0, PAGE)).unwrap();
    assert_eq!(vr, 2);
}

#[test]
fn the_version_check_costs_no_round_trip_of_its_own() {
    // On the costed simulator, cache off: a read asks the version
    // manager once, in the same burst as its first fetch — or, for a
    // client that has not opened the blob, through the descriptor it
    // had to fetch anyway.
    let d = Deployment::build(DeploymentConfig::grid5000(4));
    let writer = d.client();
    let mut ctx = Ctx::start();
    let info = writer.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    writer
        .write(&mut ctx, info.blob, 0, &vec![3u8; (4 * PAGE) as usize])
        .unwrap();

    let reader = d.client();
    let mut read = || {
        let before = d.cluster.message_count();
        let (data, vr, stats) = reader
            .read_with_stats(&mut ctx, info.blob, None, seg(0, 4 * PAGE))
            .unwrap();
        assert_eq!((data, vr), (vec![3u8; (4 * PAGE) as usize], 1));
        (d.cluster.message_count() - before, stats)
    };
    // First read: GET_BLOB answers the version check, no GET_LATEST.
    let (first, opened) = read();
    // Every later read: GET_LATEST rides the root fetch.
    let (later, confirmed) = read();
    assert_eq!(first, later, "one version-manager call per read");
    assert!(
        opened.latest_ns > 0,
        "the descriptor is the check: {opened:?}"
    );
    assert_eq!(confirmed.latest_ns, 0, "{confirmed:?}");
}

/// One write of `pages` pages of `page` bytes at the start of a 4 MiB
/// blob on a fresh `grid5000(providers)` cell: its stats, its virtual
/// time and the messages it sent.
fn paper_write(
    providers: usize,
    pages: u64,
    page: u64,
) -> (blobseer_core::client::WriteStats, u64, u64) {
    let d = Deployment::build(DeploymentConfig::grid5000(providers));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, 4 << 20, page).unwrap();
    let before = d.cluster.message_count();
    let t0 = ctx.vt;
    let (v, stats) = c
        .write_with_stats(&mut ctx, info.blob, 0, &vec![5u8; (pages * page) as usize])
        .unwrap();
    assert_eq!(v, 1);
    assert_eq!(stats.total_ns(), ctx.vt - t0, "{stats:?}");
    (stats, ctx.vt - t0, d.cluster.message_count() - before)
}

#[test]
fn pages_and_metadata_share_one_burst() {
    // The paper's costed cell: 1 MiB in four 256 KiB pages.
    let (stats, took, messages) = paper_write(8, 4, 256 << 10);
    // The 20 messages of the pages-first protocol, and no more: the
    // burst coalesces calls by destination *and* method, so a metadata
    // batch never merges into a page batch bound for the same node.
    assert_eq!(messages, 20);
    // A page cannot leave before its placement, so only page 0's copy
    // rides the plan, which outlasts it; the lead put (page 0 here)
    // leaves the moment the plan lands, and the leaf weave outlasts the
    // ticket.
    assert_eq!((stats.plan_ns, stats.ticket_ns), (492_136, 0), "{stats:?}");
    // The metadata share still holds the whole metadata store round ...
    assert!(
        stats.metadata_ns() >= ServiceCosts::grid5000().meta_store_ns,
        "{stats:?}"
    );
    // ... which the page leg hid: the write is shorter than its page
    // leg and its metadata back to back.
    assert!(
        stats.total_ns() < stats.pages_ns + stats.metadata_ns(),
        "{stats:?}"
    );
    // The lead page put leaves with the version request, so the upload
    // starts before the ticket returns: at least 0.5 ms off the same
    // write when every page waited for the ticket and the whole weave
    // (12,399,302 ns on this cell). Each page is copied just before its
    // put, so the lead no longer waits for the other three copies:
    // 107,864 ns off the write that copied every page under the plan
    // (11,472,899 ns).
    const PAGES_AFTER_THE_TICKET_NS: u64 = 12_399_302;
    assert!(
        took + 500_000 <= PAGES_AFTER_THE_TICKET_NS,
        "{took} ns, {stats:?}"
    );
    // Page keys travel as three varints (3 B here, 24 B fixed-width):
    // the last page put is 21 B shorter on the write's dependent path,
    // 262 ns at 12.51 ns/B (11,365,035 ns with fixed-width page keys).
    assert_eq!(took, 11_364_773, "{stats:?}");
    // One provider takes all four puts, so no destination receives
    // exactly one: the lead is page 0, split out of that provider's
    // batch. Two more messages than the ticket travelling alone, and
    // 2.7 ms faster (15,344,229 ns in 10 messages).
    // Its five tree nodes travel as varints: the metadata batch is 343 B
    // shorter, and the page puts behind it on the client's NIC leave
    // that much sooner (12,622,844 ns with fixed-width nodes). Its four
    // page puts carry 84 B less of page keys: 882 ns, 714 of them at
    // 8.51 ns/B on the client's NIC (12,619,925 ns with fixed-width page
    // keys).
    let (stats, took, messages) = paper_write(1, 4, 256 << 10);
    assert_eq!((took, messages), (12_619_043, 12), "{stats:?}");
}

#[test]
fn every_write_has_a_lead() {
    // Each cell as (providers, pages, page size, virtual ns, messages).
    // The lead is always page 0, copied under the plan, so no page copy
    // waits for the plan to land; page 0's destination may take other
    // puts, and then the lead is split out of its batch for two more
    // messages. The comments give the write whose lead was the first
    // destination taking exactly one put, when there was one.
    let cells = [
        // No destination takes exactly one put: page 0 was already the
        // lead, split out of its batch. (Each cell's page keys are 21 B
        // shorter as varints; where a page leg ends the write, its last
        // put takes 262 ns less: 11,685,021 ns with fixed-width keys.)
        (2, 4, 256 << 10, 11_684_759, 16),
        // Sixteen small pages: the lead was a later page, copied once
        // the plan landed (13,916,683 ns, 34). Sixteen page keys, 336 B
        // less on the client's NIC: 13,786,104 ns with fixed-width keys.
        (8, 16, 64 << 10, 13_783_258, 36),
        // One page: copied under the plan and the lead either way, so
        // its schedule is kept to the nanosecond. On this 64-page blob
        // the 32-way tree's ticket names 32 link versions of 8 B, where
        // the 16-way tree's named 16 links of 24 B: 8,583,307 ns then;
        // 8,581,329 ns with fixed-width tree nodes. Its metadata leg ends
        // it, so varint page keys do not move it.
        (8, 1, 64 << 10, 8_580_089, 14),
        // The lead was page 1, whose copy (150,000 ns) followed the
        // plan: 150,000 ns slower, two messages fewer (11,515,035 ns, 18).
        // 11,365,035 ns with fixed-width page keys.
        (3, 4, 256 << 10, 11_364_773, 20),
    ];
    for (providers, pages, page, ns, messages) in cells {
        let (stats, took, sent) = paper_write(providers, pages, page);
        assert_eq!(
            (took, sent),
            (ns, messages),
            "{providers} providers, {pages} × {page} B: {stats:?}"
        );
    }
}

#[test]
fn a_write_whose_ticket_fails_stores_nothing() {
    // The lead page is acknowledged while the version request fails:
    // the write takes the page back before it returns the error. Only
    // the lead's page was copied: the others wait for the ticket. On one
    // provider the lead was split out of that provider's batch. Over
    // tcp the failed ticket ends the write's burst with its lead put in
    // flight, and no call slot is left behind.
    const BIG: u64 = 256 << 10;
    let cells = [
        ("8 providers", DeploymentConfig::grid5000(8)),
        ("1 provider", DeploymentConfig::grid5000(1)),
        ("tcp", DeploymentConfig::functional_tcp(4)),
    ];
    for (cell, config) in cells {
        let d = Deployment::build(config);
        let c = d.client();
        let mut ctx = Ctx::start();
        let info = c.alloc(&mut ctx, 16 * BIG, BIG).unwrap();
        let pages = d.total_pages();
        d.cluster.kill(d.vm_node);
        let copies = copymeter::thread_snapshot();
        let err = c
            .write(&mut ctx, info.blob, 0, &vec![5u8; (4 * BIG) as usize])
            .unwrap_err();
        assert!(matches!(err, BlobError::Unreachable(_)), "{cell}: {err:?}");
        assert_eq!(copies.bytes_since(), BIG, "{cell}");
        assert_eq!(d.total_pages(), pages, "{cell}: no page is left behind");
        if let Some(tcp) = d.cluster.tcp() {
            for &node in &d.storage_nodes {
                assert_eq!(tcp.inflight_calls(node), 0, "{cell}: {node:?}");
            }
        }
    }
}

/// On a fresh `grid5000(providers)` cell, a 16-page blob of 256 KiB
/// pages holding two 4-page writes, at pages 0 and 4: a reader settles
/// its frontier floor with a 1-page read at page 0, then reads 4 pages
/// from `first_page`. That read's stats, virtual time and messages.
fn paper_read(providers: usize, first_page: u64) -> (blobseer_core::client::ReadStats, u64, u64) {
    const BIG: u64 = 256 << 10;
    let d = Deployment::build(DeploymentConfig::grid5000(providers));
    let reader = d.client();
    let mut ctx = Ctx::start();
    let info = reader.alloc(&mut ctx, 16 * BIG, BIG).unwrap();
    for (page, byte) in [(0, 1u8), (4, 2)] {
        reader
            .write(
                &mut ctx,
                info.blob,
                page * BIG,
                &vec![byte; (4 * BIG) as usize],
            )
            .unwrap();
    }
    reader.read(&mut ctx, info.blob, None, seg(0, BIG)).unwrap();
    let before = d.cluster.message_count();
    let t0 = ctx.vt;
    let (data, vr, stats) = reader
        .read_with_stats(&mut ctx, info.blob, None, seg(first_page * BIG, 4 * BIG))
        .unwrap();
    assert_eq!(vr, 2);
    let byte = |page: u64| if page < 4 { 1u8 } else { 2 };
    let want: Vec<u8> = (first_page..first_page + 4)
        .flat_map(|page| vec![byte(page); BIG as usize])
        .collect();
    assert!(data == want, "read at page {first_page}");
    (stats, ctx.vt - t0, d.cluster.message_count() - before)
}

#[test]
fn each_leaf_batch_sends_its_pages_as_it_is_decoded() {
    // Four pages from page 2 straddle the two writes, so their leaves
    // come back in several metadata messages. Each leaf's page leaves
    // the moment it is decoded, the root is decoded while `GET_LATEST`
    // is still returning, and each page is stitched as it lands: 30,000
    // ns (the check's wait) and three of the four stitches (75,000) off
    // the read that decoded each level after its whole burst and
    // stitched every page after the last (11,192,696 ns), and 0.4 ms off
    // the one that also waited for every leaf first (11,583,158 ns), for
    // the same 20 messages.
    // Varint tree nodes shorten the root's and a leaf's round trips on
    // the read's critical path (11,087,666 ns with fixed-width nodes),
    // and a varint page key the last `GET_PAGE` by 21 B: 263 ns at
    // 12.51 ns/B (11,084,699 ns with fixed-width page keys). The same
    // 263 ns comes off each read below.
    let (stats, took, messages) = paper_read(8, 2);
    assert_eq!((took, messages), (11_084_436, 20), "{stats:?}");
    // The stages still partition the read, and the read still visits
    // the root and its four leaves.
    assert_eq!(stats.total_ns(), took, "{stats:?}");
    assert_eq!(stats.nodes_visited, 5, "{stats:?}");
    assert_eq!((stats.latest_ns, stats.refetched), (0, 0), "{stats:?}");
    // From page 0 the first write's leaves share a message: decoding it
    // leaf by leaf sends the first page one leaf's decode (100,000 ns)
    // sooner (11,353,921 ns when the message's pages left together).
    // (11,148,891 ns with fixed-width nodes; 11,144,937 ns with
    // fixed-width page keys.)
    let (stats, took, messages) = paper_read(8, 0);
    assert_eq!((took, messages), (11_144_674, 18), "{stats:?}");
    assert_eq!(stats.total_ns(), took, "{stats:?}");
    assert_eq!(stats.nodes_visited, 5, "{stats:?}");
    // One provider holds every leaf: one leaf message, whose four leaves
    // each send their own `GET_PAGE` as they are decoded. Four replies of
    // 256 KiB pipeline where one 1 MiB batch reply was serialized whole
    // before it left and deserialized whole after it landed
    // (15,121,925 ns in 8 messages), for six more messages.
    // (11,271,344 ns with fixed-width nodes; 11,265,563 ns with
    // fixed-width page keys.)
    let (stats, took, messages) = paper_read(1, 2);
    assert_eq!((took, messages), (11_265_300, 14), "{stats:?}");
    assert_eq!(stats.total_ns(), took, "{stats:?}");
}

/// Forwards every call, noting when the last `GET_PAGE` reply arrived.
struct PageArrivals {
    inner: Arc<dyn Transport>,
    last: AtomicU64,
}

impl Transport for PageArrivals {
    fn call(&self, from: NodeId, to: NodeId, vt: u64, frame: Frame) -> TransportResult {
        let page = frame.method == method::GET_PAGE;
        let reply = self.inner.call(from, to, vt, frame);
        if let (true, Ok((_, at))) = (page, &reply) {
            self.last.fetch_max(*at, Ordering::Relaxed);
        }
        reply
    }
}

#[test]
fn a_read_ends_one_stitch_after_its_last_page_lands() {
    // The paper's cell, cache off: 4 × 256 KiB pages over 8 providers.
    // Every page is stitched the moment its reply lands, so the read
    // ends exactly one `page_ns` after the last page's arrival.
    const BIG: u64 = 256 << 10;
    let d = Deployment::build(DeploymentConfig::grid5000(8));
    let arrivals = Arc::new(PageArrivals {
        inner: d.cluster.transport(),
        last: AtomicU64::new(0),
    });
    let rpc = RpcClient::new(Arc::clone(&arrivals) as _, d.cluster.add_node())
        .with_aggregation(d.config.aggregation);
    let costs = d.config.client_costs;
    let reader = BlobClient::new(
        rpc,
        d.vm_node,
        d.pm_node,
        Arc::clone(&d.ring),
        costs,
        None,
        d.config.replication,
    );
    let mut ctx = Ctx::start();
    let info = reader.alloc(&mut ctx, 16 * BIG, BIG).unwrap();
    let data: Vec<u8> = (0..4 * BIG).map(|i| (i % 253) as u8).collect();
    reader.write(&mut ctx, info.blob, 0, &data).unwrap();
    let t0 = ctx.vt;
    let (got, _, stats) = reader
        .read_with_stats(&mut ctx, info.blob, None, seg(0, 4 * BIG))
        .unwrap();
    assert!(got == data);
    let last = arrivals.last.load(Ordering::Relaxed);
    assert!(last > t0, "the read fetched its pages");
    assert_eq!(ctx.vt, last + costs.page_ns, "{stats:?}");
    assert_eq!(t0 + stats.total_ns(), ctx.vt, "{stats:?}");
}

#[test]
fn a_failed_read_into_leaves_nothing_stitched_behind() {
    // Cached metadata, so the leaf burst asks for every page at once;
    // the provider of the last page is dead, so the earlier pages land
    // before the read fails on that one's every replica.
    let mut cfg = DeploymentConfig::functional(4);
    cfg.cache_nodes = 1 << 12;
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![7u8; (4 * PAGE) as usize])
        .unwrap();
    let cache = d.meta_cache.as_ref().unwrap();
    let last_leaf = NodeKey {
        blob: info.blob,
        version: 1,
        offset: 3 * PAGE,
        size: PAGE,
    };
    let Some(body) = cache.get(&last_leaf) else {
        panic!("the write warmed the cache");
    };
    let NodeBody::Leaf { page } = &*body else {
        panic!("a leaf: {body:?}");
    };
    let holder = page.replicas[0];
    let i = d
        .storage_nodes
        .iter()
        .position(|n| n.0 == holder.0)
        .unwrap();
    d.kill_storage(i);

    let mut out = vec![0xAAu8; (4 * PAGE) as usize];
    let copies = copymeter::thread_snapshot();
    let err = c
        .read_into(&mut ctx, info.blob, None, seg(0, 4 * PAGE), &mut out)
        .unwrap_err();
    assert!(matches!(err, BlobError::MissingPage { .. }), "{err:?}");
    let stitched = copies.bytes_since();
    assert!(stitched > 0 && stitched < 4 * PAGE, "{stitched} B stitched");
    assert!(out.iter().all(|&b| b == 0), "nothing stitched is left");
}

#[test]
fn a_moved_frontier_stitches_only_the_newer_version() {
    // The reader's floor is behind: its descent hits the cache, so the
    // version check rides the leaf burst, and its answer moves the
    // target. The pages that burst brought are not stitched: the newer
    // tree's are, each once, reused or fetched again.
    let mut cfg = DeploymentConfig::grid5000(4);
    cfg.cache_nodes = 1 << 12;
    let d = Deployment::build(cfg);
    let (reader, writer) = (d.client(), d.client());
    let mut ctx = Ctx::start();
    let blob = writer.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;
    let size = 8 * PAGE;
    let mut want: Vec<u8> = (0..size).map(|i| (i % 241) as u8).collect();
    writer.write(&mut ctx, blob, 0, &want).unwrap();
    reader.read(&mut ctx, blob, None, seg(0, size)).unwrap();
    // Twice, each time after a newer write: once into a buffer of the
    // read's own, once into a caller's buffer full of stale bytes.
    for (v, byte) in [(2, 3u8), (3, 4)] {
        let newer = vec![byte; (2 * PAGE) as usize];
        writer.write(&mut ctx, blob, 5 * PAGE, &newer).unwrap();
        want[(5 * PAGE) as usize..(7 * PAGE) as usize].copy_from_slice(&newer);
        let copies = copymeter::thread_snapshot();
        let got = if v == 2 {
            let (got, vr, stats) = reader
                .read_with_stats(&mut ctx, blob, None, seg(0, size))
                .unwrap();
            assert_eq!(vr, v);
            assert_eq!((stats.latest_ns, stats.refetched), (0, 2), "{stats:?}");
            got
        } else {
            let mut out = vec![0xAAu8; size as usize];
            let vr = reader
                .read_into(&mut ctx, blob, None, seg(0, size), &mut out)
                .unwrap();
            assert_eq!(vr, v);
            out
        };
        assert!(got == want, "version {v}'s bytes");
        assert_eq!(copies.bytes_since(), size, "each page stitched once");
    }
}
