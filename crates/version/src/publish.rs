//! The lock-free publish window (paper §II liveness + §III.B step 7).
//!
//! WRITE completions arrive in arbitrary order (writers proceed fully in
//! parallel after version assignment), but a version may only become
//! visible when **all lower versions are complete** — that is what makes
//! the snapshots globally serializable. This module tracks completion in a
//! fixed ring of atomic flags and advances the published watermark with
//! CAS; no mutex is ever taken on this path.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

const SLOT_EMPTY: u8 = 0;
const SLOT_COMPLETE: u8 = 1;

/// Default maximum number of in-flight (assigned but unpublished) writes.
pub const DEFAULT_WINDOW: usize = 1 << 14;

/// Tracks which versions completed and what the latest published version
/// is.
pub struct PublishWindow {
    /// `published` = highest `v` such that every version `<= v` completed.
    published: AtomicU64,
    /// Ring of completion flags; slot `v % len` belongs to version `v`
    /// while `v - published <= len`.
    slots: Box<[AtomicU8]>,
}

impl PublishWindow {
    /// Create with the given in-flight capacity (rounded up to a power of
    /// two).
    pub fn new(window: usize) -> Self {
        let n = window.max(2).next_power_of_two();
        Self {
            published: AtomicU64::new(0),
            slots: (0..n).map(|_| AtomicU8::new(SLOT_EMPTY)).collect(),
        }
    }

    /// In-flight capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Latest published version.
    pub fn latest(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }

    /// True if assigning `v` now would exceed the window (the caller — the
    /// assignment path — should refuse or retry).
    pub fn would_overflow(&self, v: u64) -> bool {
        v > self.latest() + self.slots.len() as u64
    }

    #[inline]
    fn slot(&self, v: u64) -> &AtomicU8 {
        &self.slots[(v as usize) & (self.slots.len() - 1)]
    }

    /// Mark version `v` complete and advance the watermark as far as the
    /// contiguous prefix reaches. Returns the published version after this
    /// call (which may already include later completions by other
    /// threads).
    ///
    /// Lock-free: completers race on the watermark CAS; whoever wins the
    /// `p -> p+1` step owns clearing slot `p+1` for ring reuse.
    pub fn complete(&self, v: u64) -> u64 {
        debug_assert!(v >= 1);
        debug_assert!(
            !self.would_overflow(v),
            "version {v} outside publish window (published {})",
            self.latest()
        );
        self.slot(v).store(SLOT_COMPLETE, Ordering::Release);
        self.advance()
    }

    /// Try to advance the watermark over every contiguous completed
    /// version. Safe to call from any thread at any time.
    pub fn advance(&self) -> u64 {
        loop {
            let p = self.published.load(Ordering::Acquire);
            let next = p + 1;
            if self.slot(next).load(Ordering::Acquire) != SLOT_COMPLETE {
                return p;
            }
            if self
                .published
                .compare_exchange(p, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // We own the transition past `next`: release its slot for
                // version `next + len`.
                self.slot(next).store(SLOT_EMPTY, Ordering::Release);
            }
            // On CAS failure another thread advanced; re-check from the new
            // watermark either way.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn in_order_completion() {
        let w = PublishWindow::new(8);
        assert_eq!(w.latest(), 0);
        assert_eq!(w.complete(1), 1);
        assert_eq!(w.complete(2), 2);
        assert_eq!(w.complete(3), 3);
    }

    #[test]
    fn out_of_order_completion_holds_watermark() {
        let w = PublishWindow::new(8);
        assert_eq!(w.complete(2), 0, "v1 missing, nothing published");
        assert_eq!(w.complete(3), 0);
        assert_eq!(w.complete(1), 3, "v1 unlocks the whole prefix");
    }

    #[test]
    fn watermark_is_monotonic_under_races() {
        for _ in 0..20 {
            let w = Arc::new(PublishWindow::new(1 << 10));
            let n = 400u64;
            let ts: Vec<_> = (0..4)
                .map(|t| {
                    let w = Arc::clone(&w);
                    thread::spawn(move || {
                        // Each thread completes an interleaved subset.
                        let mut vs: Vec<u64> = (1..=n).filter(|v| v % 4 == t).collect();
                        // Scramble order within the thread.
                        vs.reverse();
                        for v in vs {
                            w.complete(v);
                        }
                    })
                })
                .collect();
            for t in ts {
                t.join().unwrap();
            }
            assert_eq!(w.advance(), n);
            assert_eq!(w.latest(), n);
        }
    }

    #[test]
    fn ring_reuse_across_window_wraps() {
        let w = PublishWindow::new(4); // tiny ring
        for v in 1..=100u64 {
            assert_eq!(w.complete(v), v, "in-order completion wraps cleanly");
        }
        assert_eq!(w.latest(), 100);
    }

    #[test]
    fn overflow_detection() {
        let w = PublishWindow::new(4);
        assert!(!w.would_overflow(4));
        assert!(w.would_overflow(5));
        w.complete(1);
        assert!(!w.would_overflow(5));
    }
}
