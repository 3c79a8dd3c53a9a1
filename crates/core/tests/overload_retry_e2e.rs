//! End-to-end tests for the PR 9 client-side contracts, over a real
//! deployment:
//!
//! * hot-page read fan-out — repeated reads of one page promote it onto
//!   extra providers, reads stay byte-correct, and the replica cap
//!   holds;
//! * retry semantics — idempotent reads ride out an outage under a
//!   [`RetryPolicy`]; the non-idempotent version-publish legs of a
//!   write never retry, whatever policy is set;
//! * version pins — a pinned read returns exactly that snapshot, and
//!   an unpublished pin is a typed refusal;
//! * the same contracts under a skewed workload (Zipf s = 1 page
//!   popularity, 90/10 read-mostly) on the costed simulator: an
//!   open-loop storm at 10× the cluster's unloaded rate is shed typed
//!   and keeps admitted latency bounded, and fan-out lifts hot-page
//!   virtual throughput.

use blobseer_core::{
    AdmissionMode, AdmissionOptions, BlobClient, Deployment, DeploymentConfig, FanOutOptions,
};
use blobseer_proto::{BlobError, BlobId, Segment};
use blobseer_rpc::{Ctx, RetryPolicy};
use blobseer_simnet::CostModel;
use blobseer_util::rng::splitmix64;
use blobseer_util::stats::Samples;
use std::time::{Duration, Instant};

const PAGE: u64 = 1024;
const TOTAL: u64 = PAGE * 16;

fn seg(o: u64, s: u64) -> Segment {
    Segment::new(o, s)
}

/// A policy whose first backoff is far longer than any test below is
/// willing to wait — retrying under it is detectable from the clock.
fn glacial() -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::from_secs(60),
        max_backoff: Duration::from_secs(60),
        ..RetryPolicy::default()
    }
}

#[test]
fn hot_reads_promote_the_page_and_stay_correct() {
    let d = Deployment::build(
        DeploymentConfig::functional(4)
            .tune()
            .fan_out(FanOutOptions {
                promote_after_reads: 4,
                max_replicas: 3,
            })
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..PAGE).map(|i| (i % 199) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();
    let pages_before = d.total_pages();
    assert_eq!(pages_before, 1, "one page, replication 1");

    // Hammer the single page well past two promotion thresholds.
    for _ in 0..16 {
        let (got, _) = c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
        assert_eq!(got, data, "reads stay byte-correct during fan-out");
    }

    let heat = d.heat.as_ref().expect("fan-out configured");
    // 16 reads at promote_after_reads=4 cross the threshold 4 times,
    // but max_replicas=3 caps useful promotions at 2 (primary + 2).
    assert_eq!(heat.promotions(), 2, "promotions stop at the replica cap");
    // Each promotion physically stored one more copy of the page.
    assert_eq!(
        d.total_pages(),
        pages_before + 2,
        "promoted replicas land on real providers"
    );

    // A *fresh* client (fresh leaf fetch) sees the extended replica
    // list and still reads correctly through the rotation.
    let c2 = d.client();
    for _ in 0..6 {
        let (got, _) = c2.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
        assert_eq!(got, data);
    }
}

#[test]
fn fan_out_survives_losing_the_primary() {
    let d = Deployment::build(
        DeploymentConfig::functional(4)
            .tune()
            .fan_out(FanOutOptions {
                promote_after_reads: 2,
                max_replicas: 2,
            })
            // Metadata has its own replication; this test is about the
            // *data* fan-out, so keep the tree reachable past the kill.
            .meta_replication(3)
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..PAGE).map(|i| (i % 23) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // Find the primary (the only provider holding a page right now),
    // then heat the page until it fans out onto a second provider.
    let primary = d
        .storage
        .iter()
        .position(|s| s.data().page_count() > 0)
        .expect("someone stores the page");
    for _ in 0..4 {
        c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
    }
    assert_eq!(d.heat.as_ref().unwrap().promotions(), 1);

    // With the primary dead, the promoted replica serves the read via
    // the failover path — fan-out is real redundancy, not a cache.
    d.kill_storage(primary);
    let (got, _) = c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
    assert_eq!(got, data, "promoted replica serves after primary loss");
}

#[test]
fn idempotent_reads_retry_through_an_outage() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data = vec![7u8; PAGE as usize];
    c.write(&mut ctx, info.blob, 0, &data).unwrap();

    // Take the version manager down; a fail-fast read surfaces the
    // typed outage immediately.
    d.cluster.kill(d.vm_node);
    let err = c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");

    // A client with a retry policy rides the same outage out: a
    // sibling thread revives the node while the client is backing off
    // (backoff sleeps real wall time, so the revival lands mid-retry).
    let patient = d.client().with_retry_policy(RetryPolicy {
        base_backoff: Duration::from_millis(20),
        max_attempts: 10,
        ..RetryPolicy::default()
    });
    let sim = std::sync::Arc::clone(d.cluster.sim().expect("functional runs on sim"));
    let vm_node = d.vm_node;
    let reviver = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        sim.revive(vm_node);
    });
    let (got, latest) = patient
        .read(&mut ctx, info.blob, None, seg(0, PAGE))
        .unwrap();
    reviver.join().unwrap();
    assert_eq!(latest, 1);
    assert_eq!(got, data, "read is replayed whole and stays correct");
}

#[test]
fn publish_legs_never_retry_even_with_a_policy_set() {
    // Deployment-wide glacial retry policy: if any non-idempotent leg
    // consulted it, the write below would stall for a minute.
    let d = Deployment::build(
        DeploymentConfig::functional(2)
            .tune()
            .retry(glacial())
            .build(),
    );
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();

    // Kill the version manager: the write sails through its plan and
    // dies at REQUEST_VERSION — the non-idempotent leg — before any page
    // moves.
    d.cluster.kill(d.vm_node);
    let t0 = Instant::now();
    let err = c
        .write(&mut ctx, info.blob, 0, &vec![1u8; PAGE as usize])
        .unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "publish legs must fail fast, not back off ({:?})",
        t0.elapsed()
    );
}

#[test]
fn read_options_pin_versions_exactly() {
    let d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let v1 = vec![1u8; PAGE as usize];
    let v2 = vec![2u8; PAGE as usize];
    c.write(&mut ctx, info.blob, 0, &v1).unwrap();
    c.write(&mut ctx, info.blob, 0, &v2).unwrap();

    // Pinned read returns the pinned snapshot, and reports the latest.
    let (got, latest) = c.read(&mut ctx, info.blob, Some(1), seg(0, PAGE)).unwrap();
    assert_eq!((got, latest), (v1, 2));

    // No pin reads the latest snapshot.
    let (got, latest) = c.read(&mut ctx, info.blob, None, seg(0, PAGE)).unwrap();
    assert_eq!((got, latest), (v2, 2));

    // Pinning an unpublished version is a typed refusal, not a wait —
    // and it is not retryable, so a policy never spins on it.
    let err = c
        .read(&mut ctx, info.blob, Some(9), seg(0, PAGE))
        .unwrap_err();
    assert!(
        matches!(
            err,
            BlobError::VersionNotPublished {
                requested: 9,
                latest: 2
            }
        ),
        "{err:?}"
    );
}

// ---------------------------------------------------------------------------
// Skewed workload on the costed simulator
// ---------------------------------------------------------------------------

/// The skewed workload's blob: 64 pages of 4 MiB over 4 providers.
const BIG_PAGE: u64 = 4 << 20;
const BIG_PAGES: u64 = 64;
const PROVIDERS: usize = 4;
const READ_FRACTION: f64 = 0.9;
const SEED: u64 = 0x51ab;

/// One uniform draw in `[0, 1)` from a splitmix64 stream.
fn uniform(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// `n` deterministic arrivals `(is_read, page offset)`: pages drawn
/// Zipf s = 1 (page `k` with probability ∝ `1 / (k + 1)`, so page 0
/// draws ~21% of the traffic), reads with probability `READ_FRACTION`.
fn arrivals(n: usize, seed: u64) -> Vec<(bool, u64)> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..BIG_PAGES)
        .map(|k| {
            acc += 1.0 / (k + 1) as f64;
            acc
        })
        .collect();
    cdf.iter_mut().for_each(|c| *c /= acc);
    let mut zipf = seed ^ 0x51ab_7be1_c0de_f00d;
    let mut mix = seed ^ 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|_| {
            let is_read = uniform(&mut mix) < READ_FRACTION;
            let u = uniform(&mut zipf);
            let page = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
            (is_read, page as u64 * BIG_PAGE)
        })
        .collect()
}

/// Allocate and fill the blob page by page, then warm the client
/// metadata cache one page read at a time from the cluster horizon (a
/// clock behind it would queue behind the fill's virtual backlog).
fn fill(d: &Deployment) -> BlobId {
    let c = d.client();
    let mut ctx = Ctx::start();
    let blob = c
        .alloc(&mut ctx, BIG_PAGE * BIG_PAGES, BIG_PAGE)
        .unwrap()
        .blob;
    let data = vec![7u8; BIG_PAGE as usize];
    for p in 0..BIG_PAGES {
        c.write(&mut ctx, blob, p * BIG_PAGE, &data).unwrap();
    }
    let mut ctx = Ctx::at(d.cluster.horizon());
    for p in 0..BIG_PAGES {
        c.read(&mut ctx, blob, None, seg(p * BIG_PAGE, BIG_PAGE))
            .unwrap();
    }
    blob
}

/// One read or write of the skewed mix; `Ok(true)` for an admitted read.
fn skewed_op(
    c: &BlobClient,
    ctx: &mut Ctx,
    blob: BlobId,
    (is_read, off): (bool, u64),
) -> Result<bool, BlobError> {
    if is_read {
        c.read(ctx, blob, None, seg(off, BIG_PAGE)).map(|_| true)
    } else {
        c.write(ctx, blob, off, &vec![9u8; BIG_PAGE as usize])
            .map(|_| false)
    }
}

#[test]
fn open_loop_storm_is_shed_typed_and_admitted_p99_stays_bounded() {
    const STORM_ARRIVALS: usize = 4_000;
    const STORM_CLIENTS: usize = 16;
    const UNLOADED_OPS: usize = 150;
    let cost = CostModel::grid5000();
    let d = Deployment::build(
        DeploymentConfig::grid5000(PROVIDERS)
            .tune()
            .cache_nodes(4096)
            // Fail fast: the storm counts raw admission decisions, which
            // a retrying client would turn sheds into admissions.
            .retry(RetryPolicy::none())
            // Each provider gate bounds its projected virtual backlog
            // (handler CPU + response NIC time) at 15 ms, well under the
            // unloaded per-op latency.
            .admission(AdmissionOptions {
                mode: AdmissionMode::Virtual {
                    max_backlog_ns: 15_000_000,
                    resp_ns_per_kib: cost.transfer_ns(2048) - cost.transfer_ns(1024),
                },
                ..AdmissionOptions::default()
            })
            .build(),
    );
    let blob = fill(&d);

    // Closed-loop unloaded baseline, one client, virtual latencies.
    let c = d.client();
    let mut ctx = Ctx::at(d.cluster.horizon());
    c.info(&mut ctx, blob).unwrap();
    let mut unloaded_reads = Samples::new();
    let mut unloaded_all = Samples::new();
    for op in arrivals(UNLOADED_OPS, SEED) {
        let vt0 = ctx.vt;
        let is_read = skewed_op(&c, &mut ctx, blob, op).unwrap();
        let ms = (ctx.vt - vt0) as f64 / 1e6;
        if is_read {
            unloaded_reads.push(ms);
        }
        unloaded_all.push(ms);
    }
    let unloaded_p99 = unloaded_reads.percentile(99.0).unwrap();

    // Open loop at 10× the aggregate unloaded rate: one closed-loop
    // client keeps about one provider busy. Arrivals are driven in
    // schedule order, each op's clock starting at its due time, so the
    // modelled clients' concurrency lives in the virtual clock and the
    // admit/shed frontier is deterministic.
    let mean_op_ns = unloaded_all.mean().unwrap() * 1e6;
    let gap_ns = mean_op_ns / (10.0 * PROVIDERS as f64);
    let base_vt = d.cluster.horizon();
    let clients: Vec<BlobClient> = (0..STORM_CLIENTS)
        .map(|_| {
            let c = d.client();
            c.info(&mut Ctx::at(base_vt), blob).unwrap();
            c
        })
        .collect();
    let (mut admitted, mut shed) = (0u64, 0u64);
    let mut admitted_reads = Samples::new();
    for (i, op) in arrivals(STORM_ARRIVALS, SEED ^ 0xbeef)
        .into_iter()
        .enumerate()
    {
        let due = base_vt + (i as f64 * gap_ns) as u64;
        let mut ctx = Ctx::at(due);
        match skewed_op(&clients[i % STORM_CLIENTS], &mut ctx, blob, op) {
            Ok(is_read) => {
                admitted += 1;
                if is_read {
                    admitted_reads.push((ctx.vt - due) as f64 / 1e6);
                }
            }
            Err(BlobError::Overload { retry_after_hint }) => {
                assert!(retry_after_hint > 0, "a shed carries a backoff hint");
                shed += 1;
            }
            Err(other) => panic!("rejections must be typed Overload, got {other:?}"),
        }
    }
    assert_eq!(
        admitted + shed,
        STORM_ARRIVALS as u64,
        "every arrival is admitted or shed"
    );
    assert!(
        admitted > 0 && shed > 0,
        "10x offered load both admits and sheds ({admitted} admitted, {shed} shed)"
    );
    let admitted_p99 = admitted_reads.percentile(99.0).unwrap();
    assert!(
        admitted_p99 <= 5.0 * unloaded_p99,
        "the bounded queue never becomes an unbounded buffer: admitted read p99 \
         {admitted_p99:.2} ms vs unloaded {unloaded_p99:.2} ms (virtual)"
    );
}

/// Virtual read throughput (bytes per virtual second of provider busy
/// time) of 8 closed-loop clients hammering page 0.
fn hot_page_throughput(fan_out: Option<FanOutOptions>) -> f64 {
    const CLIENTS: u64 = 8;
    const OPS: u64 = 100;
    let mut cfg = DeploymentConfig::grid5000(PROVIDERS)
        .tune()
        .cache_nodes(4096);
    if let Some(opts) = fan_out {
        cfg = cfg.fan_out(opts);
    }
    let d = Deployment::build(cfg.build());
    let blob = fill(&d);

    // Heat the page past several promotion thresholds first, so both
    // runs measure their steady state. (A crossing whose placement lands
    // on an existing holder promotes nothing, hence the margin.)
    let warm = d.client();
    let mut ctx = Ctx::start();
    for _ in 0..4 * 16 * 3 {
        warm.read(&mut ctx, blob, None, seg(0, BIG_PAGE)).unwrap();
    }
    assert_eq!(
        d.heat.as_ref().map_or(0, |h| h.promotions()),
        fan_out.map_or(0, |f| f.max_replicas as u64 - 1),
        "warmup promotes the hot page to the replica cap"
    );

    let clients: Vec<BlobClient> = (0..CLIENTS)
        .map(|_| {
            let c = d.client();
            c.info(&mut Ctx::start(), blob).unwrap();
            c
        })
        .collect();
    let horizon0 = d.cluster.horizon();
    std::thread::scope(|s| {
        for c in &clients {
            s.spawn(move || {
                let mut ctx = Ctx::start();
                for _ in 0..OPS {
                    c.read(&mut ctx, blob, None, seg(0, BIG_PAGE)).unwrap();
                }
            });
        }
    });
    let busy_s = (d.cluster.horizon() - horizon0) as f64 / 1e9;
    (CLIENTS * OPS * BIG_PAGE) as f64 / busy_s
}

#[test]
fn fan_out_lifts_hot_page_virtual_throughput() {
    let off = hot_page_throughput(None);
    let on = hot_page_throughput(Some(FanOutOptions {
        promote_after_reads: 16,
        max_replicas: 3,
    }));
    let mib = (1u64 << 20) as f64;
    assert!(
        on > 1.2 * off,
        "three providers serving the hot page beat one: {:.1} vs {:.1} virtual MiB/s",
        on / mib,
        off / mib
    );
}
