//! The PR 9 overload acceptance case, at the dispatch layer: a slow
//! service behind a bounded [`AdmissionGate`] is driven **open-loop**
//! at ~10× its capacity. The contract under test is the issue's,
//! verbatim:
//!
//! - every rejection is a typed [`BlobError::Overload`] (no silent
//!   drop, no `Unreachable` masquerade),
//! - the p99 latency of *admitted* requests stays within 5× the
//!   unloaded p99 (bounded queueing, not an unbounded buffer), and
//! - nothing hangs — the whole storm resolves in test time.
//!
//! Latency is measured from each request's **scheduled** send time
//! (open-loop discipline: lateness counts against the server, not the
//! generator), exactly like the `bench` workload generator.

use blobseer_proto::BlobError;
use blobseer_rpc::{
    respond, AdmissionControlled, AdmissionGate, AdmissionOptions, Frame, ServerCtx, Service,
};
use blobseer_util::stats::Samples;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A handler with a fixed service time, so capacity is knowable:
/// `max_inflight / SERVICE_TIME` requests per second.
struct Slow;

const SERVICE_TIME: Duration = Duration::from_millis(3);

/// How long an admitted request may wait for a permit.
const QUEUE_WAIT: Duration = Duration::from_millis(6);

impl Service for Slow {
    fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        std::thread::sleep(SERVICE_TIME);
        respond(frame, |x: u64| Ok(x))
    }
}

fn p99(samples: &mut Samples) -> f64 {
    samples.percentile(99.0).expect("non-empty samples")
}

/// One admitted request's latency, split into how late the generator
/// fired it and how long it then spent inside `handle` (ms).
#[derive(Clone, Copy)]
struct Split {
    latency: f64,
    late: f64,
    in_handle: f64,
}

/// The `n` slowest admitted requests, one line each, for a failure
/// message: whether the generator (a host stall before the fire) or the
/// gate (time inside `handle`) broke the bound.
fn slowest(splits: &[Split], n: usize) -> String {
    let mut by_latency = splits.to_vec();
    by_latency.sort_by(|a, b| b.latency.total_cmp(&a.latency));
    by_latency
        .iter()
        .take(n)
        .map(|s| {
            format!(
                "\n  {:.2} ms = {:.2} ms late at fire + {:.2} ms in handle",
                s.latency, s.late, s.in_handle
            )
        })
        .collect()
}

#[test]
fn open_loop_overload_sheds_typed_and_bounds_admitted_p99() {
    let gate = Arc::new(AdmissionGate::new(AdmissionOptions {
        max_inflight: 2,
        max_queue: 4,
        queue_wait: QUEUE_WAIT,
        ..AdmissionOptions::default()
    }));
    let svc = Arc::new(AdmissionControlled::new(Slow, Arc::clone(&gate)));

    // Unloaded baseline: closed-loop, one caller, no queueing.
    let mut unloaded = Samples::new();
    for i in 0..50u64 {
        let t0 = Instant::now();
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(&mut ctx, &Frame::from_msg(1, &i));
        blobseer_rpc::parse_response::<u64>(&resp).unwrap();
        unloaded.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let unloaded_p99 = p99(&mut unloaded);

    // Open-loop storm: 10× capacity. Capacity = max_inflight (2) /
    // service time (3 ms) ≈ 667/s, so arrivals come every 150 µs.
    let interarrival = Duration::from_micros(150);
    let total: usize = 1500; // ≈ 225 ms of storm
    let next = Arc::new(AtomicUsize::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let admitted = Arc::new(Mutex::new(Samples::new()));
    let splits = Arc::new(Mutex::new(Vec::new()));
    let t0 = Instant::now();
    let started = Instant::now();
    let workers: Vec<_> = (0..16)
        .map(|_| {
            let svc = Arc::clone(&svc);
            let next = Arc::clone(&next);
            let shed = Arc::clone(&shed);
            let admitted = Arc::clone(&admitted);
            let splits = Arc::clone(&splits);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    return;
                }
                // Open-loop: fire at the scheduled time, and charge any
                // lateness to the measured latency.
                let scheduled = interarrival * i as u32;
                let now = t0.elapsed();
                if now < scheduled {
                    std::thread::sleep(scheduled - now);
                }
                let fired = t0.elapsed();
                let mut ctx = ServerCtx::new(0);
                let resp = svc.handle(&mut ctx, &Frame::from_msg(1, &(i as u64)));
                let done = t0.elapsed();
                let latency_ms = (done.saturating_sub(scheduled)).as_secs_f64() * 1e3;
                match blobseer_rpc::parse_response::<u64>(&resp) {
                    Ok(echoed) => {
                        assert_eq!(echoed, i as u64);
                        admitted.lock().unwrap().push(latency_ms);
                        splits.lock().unwrap().push(Split {
                            latency: latency_ms,
                            late: fired.saturating_sub(scheduled).as_secs_f64() * 1e3,
                            in_handle: (done - fired).as_secs_f64() * 1e3,
                        });
                    }
                    Err(BlobError::Overload { .. }) => {
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("rejections must be typed Overload, got {other:?}"),
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    // Zero hangs: a 225 ms storm with a 6 ms queue bound resolves fast.
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "storm must resolve in test time (took {:?})",
        started.elapsed()
    );

    let shed = shed.load(Ordering::Relaxed);
    let mut admitted = admitted.lock().unwrap();
    let stats = gate.stats();
    assert_eq!(
        stats.admitted + stats.shed,
        total as u64 + 50,
        "every request is either admitted or typed-shed — none vanish"
    );
    assert!(
        shed > 0 && !admitted.is_empty(),
        "10× overload must both admit and shed (admitted {}, shed {shed})",
        admitted.len()
    );
    assert!(
        shed as usize > admitted.len(),
        "at 10× offered load most requests are shed (admitted {}, shed {shed})",
        admitted.len()
    );

    let admitted_p99 = p99(&mut admitted);
    // The bounded queue is the whole point: admitted work waits at most
    // `queue_wait`, so its p99 stays within 5× of unloaded even at 10×
    // offered load. (An unbounded queue would diverge linearly with the
    // storm length.)
    // On failure, the five slowest admitted requests say whether the
    // generator fired late (a host stall) or the gate held them longer
    // than its own worst case, `queue_wait` + `SERVICE_TIME`.
    assert!(
        admitted_p99 <= 5.0 * unloaded_p99,
        "admitted p99 {admitted_p99:.2} ms must stay within 5× unloaded p99 {unloaded_p99:.2} ms \
         (queue_wait {QUEUE_WAIT:?}, SERVICE_TIME {SERVICE_TIME:?}); the five slowest admitted:{}",
        slowest(&splits.lock().unwrap(), 5)
    );
}
