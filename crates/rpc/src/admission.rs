//! Bounded admission control at the dispatch layer.
//!
//! The PR 6 reactor sheds whole *connections* past
//! [`TcpOptions::max_connections`](crate::TcpOptions::max_connections);
//! this module sheds individual *requests* past a per-service capacity,
//! with the same discipline: **bounded queue, typed rejection, never a
//! hang**. An [`AdmissionGate`] tracks requests executing right now
//! (`max_inflight`) plus a bounded set of waiters (`max_queue`); a
//! request that finds both full — or waits longer than `queue_wait` —
//! is rejected with [`BlobError::Overload`] carrying a retry-after hint
//! derived from queue occupancy, which the client-side
//! [`RetryPolicy`](crate::retry::RetryPolicy) honors.
//!
//! [`AdmissionControlled`] wraps any [`Service`] with a gate, so the
//! same bound applies on the in-process transport and on TCP — the gate
//! sits at the dispatch layer, after framing, before the handler.
//!
//! The fast path is lock-free: admission under capacity is one CAS on
//! an atomic counter. The mutex + condvar pair is touched only by
//! queued waiters and by releases that observe waiters — never on an
//! uncontended request, so steady-state locks-per-op stays unchanged.

use crate::frame::Frame;
use crate::service::{error_frame, ServerCtx, Service};
use blobseer_proto::BlobError;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which clock the gate's queue bound is measured against.
///
/// The *policy* is identical in both modes — bounded queue, typed
/// [`BlobError::Overload`], never a hang — only the notion of "queue"
/// changes with the transport underneath:
///
/// * [`Wall`](AdmissionMode::Wall) counts **occupied slots**: requests
///   resident on the server right now (executing or transmitting their
///   response — see [`OwnedPermit`]) plus a bounded set of parked
///   waiters. This is the mode for real transports, where concurrency
///   is physical.
/// * [`Virtual`](AdmissionMode::Virtual) bounds the provider's
///   **projected virtual backlog**: handlers under the simulated
///   transport execute inline and charge virtual time, so "queueing"
///   is a number, not a parked thread. The gate keeps a next-free
///   register in the same style as the simulator's resource calendars;
///   a request arriving when the projected wait exceeds `max_backlog_ns`
///   is shed. This makes open-loop overload benches deterministic: the
///   admit/shed frontier depends on virtual arrival times and modelled
///   service costs, not on how fast the host happens to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionMode {
    /// Wall-clock slot gating (`max_inflight` + `max_queue` waiters).
    Wall,
    /// Virtual-time backlog gating for simulated transports.
    Virtual {
        /// Admit while the provider's projected virtual queueing delay
        /// is at most this many nanoseconds; shed typed past it.
        max_backlog_ns: u64,
        /// Virtual NIC occupancy charged per KiB of *response* — the
        /// transmission half of a request's server residency, which the
        /// handler's CPU charges alone would miss (a page read computes
        /// for microseconds and transmits for milliseconds). Mirror of
        /// the cost model's `transfer_ns`. Request bytes are *not*
        /// charged: admission happens after the request has been
        /// received (exactly as in wall mode), and the transport's
        /// ingress register has already folded that transfer into the
        /// arrival clock.
        resp_ns_per_kib: u64,
    },
}

/// Tunables for one [`AdmissionGate`] (typically one per storage node).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionOptions {
    /// Wall-clock slots or virtual-time backlog (see [`AdmissionMode`]).
    pub mode: AdmissionMode,
    /// Requests allowed to execute concurrently (wall mode).
    pub max_inflight: usize,
    /// Waiters allowed past `max_inflight` (wall mode). A request
    /// arriving with the queue full is shed immediately; the queue is
    /// never unbounded.
    pub max_queue: usize,
    /// Longest a queued request waits for a permit before it is shed
    /// (wall mode).
    pub queue_wait: Duration,
    /// Scale for the retry-after hint: a shed response suggests roughly
    /// `base_retry_hint_ms × (waiters + 1)` milliseconds of backoff (in
    /// virtual mode, at least the projected backlog drain time).
    pub base_retry_hint_ms: u64,
}

impl Default for AdmissionOptions {
    fn default() -> Self {
        AdmissionOptions {
            mode: AdmissionMode::Wall,
            max_inflight: 64,
            max_queue: 256,
            queue_wait: Duration::from_millis(50),
            base_retry_hint_ms: 5,
        }
    }
}

/// Monotonic counters a gate exposes for benches and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests admitted (fast path or after queueing).
    pub admitted: u64,
    /// Requests rejected with [`BlobError::Overload`].
    pub shed: u64,
    /// Admitted requests that had to queue first.
    pub queued: u64,
}

/// A bounded admission queue: `max_inflight` permits, `max_queue`
/// waiters, typed [`BlobError::Overload`] past either bound.
pub struct AdmissionGate {
    opts: AdmissionOptions,
    inflight: AtomicUsize,
    waiting: AtomicUsize,
    admitted: AtomicU64,
    shed: AtomicU64,
    queued: AtomicU64,
    // Virtual mode only: the provider's next-free virtual time — the
    // same max-and-advance register discipline the simulator uses for
    // CPUs and NICs, so concurrent threads fold their charges in
    // without a lock.
    vt_backlog: AtomicU64,
    // Contended path only: waiters park here; releases that observe
    // waiters lock it to publish the freed permit (see `release`).
    lock: Mutex<()>,
    cv: Condvar,
}

/// RAII permit for one admitted request; releasing wakes one waiter.
/// It owns its gate by `Arc`, so it can outlive the dispatching stack
/// frame. This is what makes admission bound the
/// request's **full server residency**: the TCP transports park the
/// owned permit in [`ServerCtx`] and drop it only once the response has
/// left the server — a fast handler with a large response (a page read)
/// keeps its gate slot through the transmission, so the bounded queue
/// can never leak into an unbounded response-side buffer.
pub struct OwnedPermit {
    gate: Arc<AdmissionGate>,
}

impl std::fmt::Debug for OwnedPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OwnedPermit")
    }
}

impl Drop for OwnedPermit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

impl AdmissionGate {
    /// Build a gate. `max_inflight` is clamped to ≥ 1 (a zero-permit
    /// gate would shed everything, which is a misconfiguration, not a
    /// policy).
    pub fn new(opts: AdmissionOptions) -> Self {
        let opts = AdmissionOptions {
            max_inflight: opts.max_inflight.max(1),
            ..opts
        };
        AdmissionGate {
            opts,
            inflight: AtomicUsize::new(0),
            waiting: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            vt_backlog: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// The options the gate was built with.
    pub fn options(&self) -> &AdmissionOptions {
        &self.opts
    }

    /// Counters so far.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
        }
    }

    /// One CAS attempt at an execution permit.
    fn try_reserve(&self) -> bool {
        let mut cur = self.inflight.load(Ordering::Relaxed);
        loop {
            if cur >= self.opts.max_inflight {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The shed hint grows with queue depth so heavier overload asks
    /// for longer backoff.
    fn retry_hint_ms(&self) -> u64 {
        let depth = self.waiting.load(Ordering::Relaxed) as u64;
        self.opts.base_retry_hint_ms.saturating_mul(depth + 1)
    }

    /// Admit or shed. Returns the permit (held until the response has
    /// left, see [`OwnedPermit`]) or a typed [`BlobError::Overload`];
    /// blocks at most `queue_wait`, never indefinitely.
    pub fn admit_owned(self: &Arc<Self>) -> Result<OwnedPermit, BlobError> {
        self.admit_inner().map(|()| OwnedPermit {
            gate: Arc::clone(self),
        })
    }

    /// The admission state machine: reserve fast, else queue bounded,
    /// else shed typed. On `Ok` the caller owns one un-materialized
    /// permit and must wrap it in an RAII type immediately.
    fn admit_inner(&self) -> Result<(), BlobError> {
        if self.try_reserve() {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        // Full: join the bounded queue, or shed right away.
        let mut cur = self.waiting.load(Ordering::Relaxed);
        loop {
            if cur >= self.opts.max_queue {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(BlobError::Overload {
                    retry_after_hint: self.retry_hint_ms(),
                });
            }
            match self.waiting.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let got = self.wait_for_permit();
        self.waiting.fetch_sub(1, Ordering::AcqRel);
        if got {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            self.queued.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            self.shed.fetch_add(1, Ordering::Relaxed);
            Err(BlobError::Overload {
                retry_after_hint: self.retry_hint_ms(),
            })
        }
    }

    /// Park until a permit frees up (true) or the wait budget runs out
    /// (false).
    fn wait_for_permit(&self) -> bool {
        let deadline = Instant::now() + self.opts.queue_wait;
        let mut guard = self.lock.lock();
        loop {
            // Re-check under the lock: `release` publishes permits
            // under this lock whenever waiters are registered, so a
            // free permit cannot slip past a parked waiter.
            if self.try_reserve() {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.cv.wait_for(&mut guard, left).timed_out() {
                // One last try: a release may have raced the timeout.
                return self.try_reserve();
            }
        }
    }

    /// Virtual-mode admission: shed when the projected virtual queueing
    /// delay at arrival time `vt` exceeds the configured backlog bound.
    /// Never blocks — in virtual time, "waiting" is an addend on the
    /// response clock, not a parked thread.
    pub fn admit_virtual(&self, vt: u64) -> Result<(), BlobError> {
        let AdmissionMode::Virtual { max_backlog_ns, .. } = self.opts.mode else {
            return Err(BlobError::Internal("admit_virtual on a wall-mode gate"));
        };
        let wait = self.vt_backlog.load(Ordering::Relaxed).saturating_sub(vt);
        if wait > max_backlog_ns {
            self.shed.fetch_add(1, Ordering::Relaxed);
            return Err(BlobError::Overload {
                retry_after_hint: self.opts.base_retry_hint_ms.max(wait.div_ceil(1_000_000)),
            });
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if wait > 0 {
            self.queued.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Fold an admitted request's virtual occupancy (`cost_ns`, CPU plus
    /// response transmission) into the backlog register: the provider is
    /// busy until `max(backlog, vt) + cost_ns`.
    pub fn occupy_virtual(&self, vt: u64, cost_ns: u64) {
        let _ = self
            .vt_backlog
            .fetch_update(Ordering::AcqRel, Ordering::Relaxed, |end| {
                Some(end.max(vt).saturating_add(cost_ns))
            });
    }

    /// The virtual next-free time (0 on wall-mode gates).
    pub fn vt_backlog(&self) -> u64 {
        self.vt_backlog.load(Ordering::Relaxed)
    }

    /// Return a permit; wake one waiter if any are parked.
    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::Release);
        if self.waiting.load(Ordering::Acquire) > 0 {
            // Take the lock so the wake cannot land between a waiter's
            // permit check and its park (missed-wakeup race).
            let _guard = self.lock.lock();
            self.cv.notify_one();
        }
    }
}

/// A [`Service`] wrapper applying an [`AdmissionGate`] to every
/// dispatched frame: admitted requests run the inner handler (queueing
/// time is charged to the caller's virtual clock as latency), shed
/// requests answer with a typed [`BlobError::Overload`] error frame.
pub struct AdmissionControlled<S> {
    inner: S,
    gate: Arc<AdmissionGate>,
}

impl<S: Service> AdmissionControlled<S> {
    /// Wrap `inner` behind `gate`.
    pub fn new(inner: S, gate: Arc<AdmissionGate>) -> Self {
        AdmissionControlled { inner, gate }
    }

    /// The gate, for stats inspection.
    pub fn gate(&self) -> &Arc<AdmissionGate> {
        &self.gate
    }

    /// The wrapped service.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Service> Service for AdmissionControlled<S> {
    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        match self.gate.opts.mode {
            AdmissionMode::Wall => {
                let started = Instant::now();
                match self.gate.admit_owned() {
                    Ok(permit) => {
                        let waited = started.elapsed();
                        if waited > Duration::ZERO {
                            let ns = u64::try_from(waited.as_nanos()).unwrap_or(u64::MAX);
                            ctx.charge_latency(ns);
                        }
                        let resp = self.inner.handle(ctx, frame);
                        // The permit outlives the handler: it is released
                        // only when the transport has pushed the response
                        // out, so the gate bounds the request's whole
                        // server residency.
                        ctx.hold(Box::new(permit));
                        resp
                    }
                    Err(e) => error_frame(frame.method, e),
                }
            }
            AdmissionMode::Virtual {
                resp_ns_per_kib, ..
            } => {
                match self.gate.admit_virtual(ctx.vt) {
                    Ok(()) => {
                        let charged_before = ctx.charged;
                        let resp = self.inner.handle(ctx, frame);
                        // Occupancy = handler CPU + response NIC time:
                        // the virtual analogue of holding the permit
                        // through transmission.
                        let xmit = (resp.wire_size() as u64).saturating_mul(resp_ns_per_kib) / 1024;
                        self.gate
                            .occupy_virtual(ctx.vt, (ctx.charged - charged_before) + xmit);
                        resp
                    }
                    Err(e) => error_frame(frame.method, e),
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn gate(inflight: usize, queue: usize, wait_ms: u64) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate::new(AdmissionOptions {
            mode: AdmissionMode::Wall,
            max_inflight: inflight,
            max_queue: queue,
            queue_wait: Duration::from_millis(wait_ms),
            base_retry_hint_ms: 5,
        }))
    }

    fn vt_gate(max_backlog_ns: u64, resp_ns_per_kib: u64) -> AdmissionGate {
        AdmissionGate::new(AdmissionOptions {
            mode: AdmissionMode::Virtual {
                max_backlog_ns,
                resp_ns_per_kib,
            },
            ..AdmissionOptions::default()
        })
    }

    #[test]
    fn admits_under_capacity() {
        let g = gate(2, 0, 10);
        let a = g.admit_owned().unwrap();
        let b = g.admit_owned().unwrap();
        drop(a);
        drop(b);
        assert_eq!(g.stats().admitted, 2);
        assert_eq!(g.stats().shed, 0);
    }

    #[test]
    fn sheds_past_queue_with_typed_overload_and_growing_hint() {
        let g = gate(1, 0, 10);
        let held = g.admit_owned().unwrap();
        let err = g.admit_owned().unwrap_err();
        match err {
            BlobError::Overload { retry_after_hint } => assert!(retry_after_hint >= 5),
            other => panic!("expected Overload, got {other:?}"),
        }
        drop(held);
        assert_eq!(g.stats().shed, 1);
    }

    #[test]
    fn queued_request_is_admitted_when_a_permit_frees() {
        let g = gate(1, 4, 2_000);
        let held = g.admit_owned().unwrap();
        let g2 = Arc::clone(&g);
        let waiter = thread::spawn(move || g2.admit_owned().map(|_p| ()));
        // Give the waiter time to park, then free the permit.
        thread::sleep(Duration::from_millis(50));
        drop(held);
        waiter.join().unwrap().expect("queued request admitted");
        let s = g.stats();
        assert_eq!(s.admitted, 2);
        assert_eq!(s.queued, 1);
    }

    #[test]
    fn queue_wait_is_bounded() {
        let g = gate(1, 4, 20);
        let _held = g.admit_owned().unwrap();
        let t0 = Instant::now();
        let err = g.admit_owned().unwrap_err();
        assert!(matches!(err, BlobError::Overload { .. }));
        // Never a hang: the shed lands within a small multiple of the
        // configured wait.
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn virtual_mode_sheds_past_the_backlog_bound() {
        let g = vt_gate(1_000_000, 0);
        // Empty backlog: admitted, then 3 ms of occupancy lands at vt=0.
        g.admit_virtual(0).unwrap();
        g.occupy_virtual(0, 3_000_000);
        assert_eq!(g.vt_backlog(), 3_000_000);
        // A request at vt=1 ms faces a 2 ms projected wait > 1 ms bound.
        let err = g.admit_virtual(1_000_000).unwrap_err();
        match err {
            BlobError::Overload { retry_after_hint } => {
                assert!(
                    retry_after_hint >= 2,
                    "hint covers the drain: {retry_after_hint}"
                );
            }
            other => panic!("expected Overload, got {other:?}"),
        }
        // At vt=2.5 ms the backlog has drained to 0.5 ms: admitted, and
        // counted as queued (nonzero projected wait).
        g.admit_virtual(2_500_000).unwrap();
        let s = g.stats();
        assert_eq!((s.admitted, s.shed, s.queued), (2, 1, 1));
    }

    #[test]
    fn virtual_occupancy_advances_like_a_calendar() {
        let g = vt_gate(u64::MAX, 0);
        g.occupy_virtual(0, 10);
        // A later arrival starts after the earlier work drains…
        g.occupy_virtual(5, 10);
        assert_eq!(g.vt_backlog(), 20);
        // …and an idle gap resets the start to the arrival time.
        g.occupy_virtual(100, 10);
        assert_eq!(g.vt_backlog(), 110);
    }

    #[test]
    fn virtual_admit_on_wall_gate_is_a_typed_misuse() {
        let g = gate(1, 0, 10);
        assert!(matches!(g.admit_virtual(0), Err(BlobError::Internal(_))));
    }

    #[test]
    fn release_wakes_exactly_not_more_than_capacity() {
        let g = gate(2, 8, 2_000);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let g = Arc::clone(&g);
            handles.push(thread::spawn(move || {
                let permit = g.admit_owned();
                if permit.is_ok() {
                    thread::sleep(Duration::from_millis(5));
                }
                permit.map(|_p| ()).is_ok()
            }));
        }
        let admitted = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|ok| *ok)
            .count();
        // Queue is deep and waits are long relative to hold time:
        // everyone gets through, two at a time.
        assert_eq!(admitted, 8);
    }
}
