//! Per-node simulated resources.
//!
//! Each node owns five time-shared resources — egress NIC, ingress NIC,
//! send CPU, receive CPU, service work — each a [`Calendar`]: a list of
//! busy intervals in virtual time supporting *backfill*. Backfill is what
//! makes the simulation causally fair when many OS threads drive it at
//! different real-time speeds: a request from an actor whose clock is
//! behind takes the earliest free gap, instead of queueing behind
//! reservations made (in real time) by actors that raced ahead into the
//! virtual future. Without it, per-client throughput collapses with the
//! thread count — an artifact, not a result.

use blobseer_rpc::Service;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Maximum busy intervals kept per calendar before old ones are folded
/// into the floor (bounds memory on long benches).
const MAX_INTERVALS: usize = 8192;

/// A time-shared resource: busy intervals over virtual nanoseconds.
#[derive(Default)]
pub struct Calendar {
    inner: Mutex<CalInner>,
}

#[derive(Default)]
struct CalInner {
    /// Disjoint, coalesced busy intervals: start -> end.
    busy: BTreeMap<u64, u64>,
    /// Reservations may not start before this (pruned history).
    floor: u64,
    /// Latest busy end ever recorded.
    horizon: u64,
}

impl Calendar {
    /// A fresh, idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `dur` ns starting no earlier than `earliest`, taking the
    /// earliest sufficient gap (backfill). Returns the completion time.
    pub fn reserve(&self, earliest: u64, dur: u64) -> u64 {
        let mut g = self.inner.lock();
        let mut start = earliest.max(g.floor);
        if dur == 0 {
            return start.max(g.floor);
        }
        // Skip past the interval covering `start`, if any.
        if let Some((&_s, &e)) = g.busy.range(..=start).next_back() {
            if e > start {
                start = e;
            }
        }
        // Walk successors until a gap of `dur` appears.
        for (&s, &e) in g.busy.range(start..) {
            if s >= start + dur {
                break;
            }
            start = start.max(e);
        }
        let end = start + dur;
        g.busy.insert(start, end);
        // Coalesce with touching neighbours to keep the map small.
        if let Some((&ns, &ne)) = g.busy.range(end..).next() {
            if ns == end {
                g.busy.remove(&ns);
                g.busy.insert(start, ne);
            }
        }
        let cur_end = *g.busy.get(&start).expect("just inserted");
        if let Some((&ps, &pe)) = g.busy.range(..start).next_back() {
            if pe == start {
                g.busy.remove(&start);
                g.busy.insert(ps, cur_end);
            }
        }
        g.horizon = g.horizon.max(end);
        // Prune ancient history.
        if g.busy.len() > MAX_INTERVALS {
            let cut = g.busy.len() / 2;
            let keys: Vec<u64> = g.busy.keys().take(cut).copied().collect();
            let mut new_floor = g.floor;
            for k in keys {
                if let Some(e) = g.busy.remove(&k) {
                    new_floor = new_floor.max(e);
                }
            }
            g.floor = new_floor;
        }
        end
    }

    /// Latest busy end recorded so far.
    pub fn horizon(&self) -> u64 {
        self.inner.lock().horizon
    }
}

/// Traffic/usage counters for one node.
#[derive(Debug, Default)]
pub struct NodeMetrics {
    /// Messages received.
    pub msgs_in: AtomicU64,
    /// Messages sent (responses).
    pub msgs_out: AtomicU64,
    /// Payload bytes received.
    pub bytes_in: AtomicU64,
    /// Payload bytes sent.
    pub bytes_out: AtomicU64,
}

impl NodeMetrics {
    /// Snapshot `(msgs_in, msgs_out, bytes_in, bytes_out)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.msgs_in.load(Ordering::Relaxed),
            self.msgs_out.load(Ordering::Relaxed),
            self.bytes_in.load(Ordering::Relaxed),
            self.bytes_out.load(Ordering::Relaxed),
        )
    }
}

/// One simulated machine.
///
/// Endpoint CPU is modelled as three calendars — send path, receive path,
/// and service work — because the node's RPC runtime is multithreaded
/// (the paper's client "performs a large number of concurrent RPCs"):
/// a response being deserialized must not delay the next request's
/// serialization, while each individual path still serializes its own
/// work.
pub struct SimNode {
    /// Egress NIC.
    pub egress: Calendar,
    /// Ingress NIC.
    pub ingress: Calendar,
    /// Send-path CPU (request serialization, syscalls).
    pub cpu_send: Calendar,
    /// Receive-path CPU (deserialization, dispatch).
    pub cpu_recv: Calendar,
    /// Service-work CPU (handler charges).
    pub work: Calendar,
    /// Liveness flag (fault injection).
    pub alive: AtomicBool,
    /// Bound service, if any.
    pub service: OnceLock<Arc<dyn Service>>,
    /// Traffic counters.
    pub metrics: NodeMetrics,
}

impl SimNode {
    /// A fresh, alive node.
    pub(crate) fn new() -> Self {
        Self {
            egress: Calendar::new(),
            ingress: Calendar::new(),
            cpu_send: Calendar::new(),
            cpu_recv: Calendar::new(),
            work: Calendar::new(),
            alive: AtomicBool::new(true),
            service: OnceLock::new(),
            metrics: NodeMetrics::default(),
        }
    }

    /// True when the node responds to traffic.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Latest busy time across this node's resources.
    pub fn horizon(&self) -> u64 {
        self.egress
            .horizon()
            .max(self.ingress.horizon())
            .max(self.cpu_send.horizon())
            .max(self.cpu_recv.horizon())
            .max(self.work.horizon())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn calendar_serializes_overlapping_requests() {
        let c = Calendar::new();
        assert_eq!(c.reserve(0, 100), 100);
        assert_eq!(c.reserve(0, 100), 200, "queued behind the first");
        assert_eq!(c.reserve(50, 100), 300);
        assert_eq!(c.horizon(), 300);
    }

    #[test]
    fn calendar_backfills_gaps() {
        let c = Calendar::new();
        // An actor far ahead in virtual time reserves late...
        assert_eq!(c.reserve(1_000_000, 100), 1_000_100);
        // ...a causally earlier actor still gets the early gap.
        assert_eq!(c.reserve(0, 100), 100);
        assert_eq!(c.reserve(0, 100), 200);
        // A gap too small is skipped.
        let c2 = Calendar::new();
        c2.reserve(0, 100); // [0,100)
        c2.reserve(150, 100); // [150,250)
        assert_eq!(c2.reserve(0, 80), 330, "the 50-wide gap must be skipped");
    }

    #[test]
    fn calendar_exact_fit_gap() {
        let c = Calendar::new();
        c.reserve(0, 100); // [0,100)
        c.reserve(200, 100); // [200,300)
                             // A 100-ns request fits exactly in [100,200).
        assert_eq!(c.reserve(0, 100), 200);
    }

    #[test]
    fn calendar_idle_respects_earliest() {
        let c = Calendar::new();
        assert_eq!(c.reserve(1_000, 50), 1_050);
        assert_eq!(c.reserve(0, 0), 0, "zero-duration reservations are free");
    }

    #[test]
    fn concurrent_reservations_conserve_busy_time() {
        // With all requests wanting earliest=0, backfill must pack them:
        // total busy time == sum of durations, horizon == total.
        let c = Arc::new(Calendar::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.reserve(0, 7);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.horizon(), 8 * 1000 * 7);
    }

    #[test]
    fn calendar_prunes_but_stays_correct() {
        let c = Calendar::new();
        // Far more disjoint intervals than MAX_INTERVALS, spaced out.
        for i in 0..(super::MAX_INTERVALS as u64 + 100) {
            c.reserve(i * 10, 2);
        }
        // Still functional; horizon is sane.
        let h = c.horizon();
        let end = c.reserve(0, 5);
        assert!(end >= 5);
        assert!(c.horizon() >= h);
    }

    #[test]
    fn node_lifecycle() {
        let n = SimNode::new();
        assert!(n.is_alive());
        n.alive.store(false, Ordering::Release);
        assert!(!n.is_alive());
        assert_eq!(n.metrics.snapshot(), (0, 0, 0, 0));
        assert_eq!(n.horizon(), 0);
    }
}
