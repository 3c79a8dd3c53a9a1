//! Append-only concurrent history of write records.
//!
//! `history[v]` is filled exactly once, by whichever thread was assigned
//! version `v`, and read without blocking by the publish path, the GC
//! planner and recovery. Slots are `OnceLock`s in lazily allocated
//! doubling buckets, so neither a set, a get nor the growth of the
//! history takes a lock.

use std::sync::OnceLock;

/// Slots in the first bucket; bucket `b` holds `FIRST << b`.
const FIRST: u64 = 1024;

/// Enough buckets for every version `v` with `v - 1 + FIRST` in `u64`.
const BUCKETS: usize = 54;

/// A concurrent, append-only vector indexed by version number (1-based;
/// version 0 is the implicit initial snapshot and has no record).
pub struct ConcurrentHistory<T> {
    buckets: [OnceLock<Box<[OnceLock<T>]>>; BUCKETS],
}

impl<T> Default for ConcurrentHistory<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ConcurrentHistory<T> {
    /// Empty history.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// Version `v`'s bucket and its slot there; `None` for version 0 and
    /// for versions past the last bucket.
    fn locate(v: u64) -> Option<(usize, usize)> {
        let n = v.checked_sub(1)?.checked_add(FIRST)?;
        let top = n.ilog2();
        Some(((top - FIRST.ilog2()) as usize, (n - (1 << top)) as usize))
    }

    /// Record the entry for version `v`. Returns `false` if already set
    /// (which would indicate a duplicate assignment — a protocol bug) or
    /// if `v` has no slot.
    pub fn set(&self, v: u64, value: T) -> bool {
        let Some((b, i)) = Self::locate(v) else {
            return false;
        };
        let bucket =
            self.buckets[b].get_or_init(|| (0..FIRST << b).map(|_| OnceLock::new()).collect());
        bucket[i].set(value).is_ok()
    }

    /// Non-blocking read of version `v`'s record.
    pub fn get(&self, v: u64) -> Option<T>
    where
        T: Clone,
    {
        let (b, i) = Self::locate(v)?;
        self.buckets[b].get()?[i].get().cloned()
    }

    /// Iterate over set records in `[1, up_to]`, in version order, calling
    /// `f(v, &record)` — skips unset slots (in-flight assignments).
    pub fn for_each_up_to(&self, up_to: u64, mut f: impl FnMut(u64, &T)) {
        let mut first = 1;
        for (b, bucket) in self.buckets.iter().enumerate() {
            if first > up_to {
                break;
            }
            if let Some(slots) = bucket.get() {
                for (v, slot) in (first..=up_to).zip(slots.iter()) {
                    if let Some(rec) = slot.get() {
                        f(v, rec);
                    }
                }
            }
            first += FIRST << b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn set_and_get() {
        let h: ConcurrentHistory<u64> = ConcurrentHistory::new();
        assert_eq!(h.get(1), None);
        assert!(h.set(1, 100));
        assert!(!h.set(1, 200), "duplicate set rejected");
        assert_eq!(h.get(1), Some(100));
        assert_eq!(h.get(0), None, "version 0 has no record");
    }

    #[test]
    fn sparse_high_versions() {
        let h: ConcurrentHistory<String> = ConcurrentHistory::new();
        assert!(h.set(5000, "far".into()));
        assert_eq!(h.get(5000), Some("far".into()));
        assert_eq!(h.get(4999), None);
        assert_eq!(h.get(1), None);
    }

    #[test]
    fn for_each_skips_unset() {
        let h: ConcurrentHistory<u64> = ConcurrentHistory::new();
        h.set(1, 10);
        h.set(3, 30);
        let mut seen = Vec::new();
        h.for_each_up_to(5, |v, r| seen.push((v, *r)));
        assert_eq!(seen, vec![(1, 10), (3, 30)]);
        // Across the first bucket edge (1024 | 1025), with 1024 unset and
        // the second bucket allocated; the walk stops at `up_to`.
        h.set(1023, 10_230);
        h.set(1025, 10_250);
        h.set(1026, 10_260);
        let mut seen = Vec::new();
        h.for_each_up_to(1025, |v, r| seen.push((v, *r)));
        assert_eq!(seen, vec![(1, 10), (3, 30), (1023, 10_230), (1025, 10_250)]);
        // A bucket never allocated is skipped, not the end of the walk.
        let h: ConcurrentHistory<u64> = ConcurrentHistory::new();
        h.set(2, 20);
        h.set(3073, 30_730);
        let mut seen = Vec::new();
        h.for_each_up_to(u64::MAX, |v, r| seen.push((v, *r)));
        assert_eq!(seen, vec![(2, 20), (3073, 30_730)]);
    }

    #[test]
    fn concurrent_disjoint_sets() {
        let h: Arc<ConcurrentHistory<u64>> = Arc::new(ConcurrentHistory::new());
        // Interleaved, so every setter races the others through the
        // bucket edges at 1024, 3072 and 7168.
        let ts: Vec<_> = (0..8u64)
            .map(|t| {
                let h = Arc::clone(&h);
                thread::spawn(move || {
                    for i in 0..1000u64 {
                        let v = i * 8 + t + 1;
                        assert!(h.set(v, v * 10));
                    }
                })
            })
            .collect();
        for t in ts {
            t.join().unwrap();
        }
        for v in 1..=8000u64 {
            assert_eq!(h.get(v), Some(v * 10));
        }
    }

    #[test]
    fn chunk_boundaries() {
        let h: ConcurrentHistory<u64> = ConcurrentHistory::new();
        // The bucket edges (1024 | 1025, 3072 | 3073, 7168 | 7169), and
        // 2048 | 2049 inside the second bucket.
        let edges = [1u64, 1024, 1025, 2048, 2049, 3072, 3073, 7168, 7169];
        for v in edges {
            assert!(h.set(v, v));
            assert_eq!(h.get(v), Some(v));
        }
        for v in edges {
            assert_eq!(h.get(v), Some(v));
            assert_eq!(h.get(v + 1).is_some(), edges.contains(&(v + 1)));
        }
        let mut seen = Vec::new();
        h.for_each_up_to(u64::MAX, |v, _| seen.push(v));
        assert_eq!(seen, edges);
        // No slot past the last bucket: refused, never allocated.
        assert!(!h.set(u64::MAX, 0));
        assert_eq!(h.get(u64::MAX), None);
    }
}
