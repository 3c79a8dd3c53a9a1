//! A map from disjoint half-open `u64` intervals to values.
//!
//! This is the workhorse behind the version manager's *version index*:
//! for every byte of a blob it records the latest version that wrote it.
//! The two operations the BlobSeer protocol needs are:
//!
//! * [`IntervalMap::assign`] — range assignment (a new write stamps its
//!   segment with its version number). Values assigned over time are
//!   monotonically increasing, but the map does not require that.
//! * [`IntervalMap::range_max`] — the largest value intersecting a query
//!   interval. This answers the *missing-child link rule*: the border node
//!   child covering interval `I` links to `max{w < v : seg_w ∩ I ≠ ∅}`.
//!
//! The representation is a `BTreeMap<u64, Run>` keyed by interval start,
//! holding maximal disjoint runs. All operations are `O(log n + k)` where
//! `k` is the number of runs touched.

use std::collections::BTreeMap;
use std::fmt;

/// One stored run `[start, end) -> value`; `start` is the BTreeMap key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Run<V> {
    end: u64,
    value: V,
}

/// A map from disjoint half-open `u64` intervals to values.
///
/// Unassigned space behaves as "absent" (queries return `None` over it).
#[derive(Clone, Default)]
pub struct IntervalMap<V> {
    runs: BTreeMap<u64, Run<V>>,
}

impl<V: fmt::Debug> fmt::Debug for IntervalMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_map();
        for (s, r) in &self.runs {
            d.entry(&(s..&r.end), &r.value);
        }
        d.finish()
    }
}

impl<V: Copy + PartialEq> IntervalMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        Self {
            runs: BTreeMap::new(),
        }
    }

    /// True if nothing has ever been assigned.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total number of bytes covered by assigned runs.
    pub fn covered(&self) -> u64 {
        self.runs
            .values()
            .zip(self.runs.keys())
            .fold(0, |acc, (r, s)| acc + (r.end - s))
    }

    /// Assign `value` over `[start, end)`, overwriting anything underneath.
    ///
    /// No-op when `start >= end`.
    pub fn assign(&mut self, start: u64, end: u64, value: V) {
        if start >= end {
            return;
        }
        // Split any run straddling `start`.
        if let Some((&s, &r)) = self.runs.range(..=start).next_back() {
            if r.end > start {
                // left piece [s, start)
                self.runs.insert(
                    s,
                    Run {
                        end: start,
                        value: r.value,
                    },
                );
                if s == start {
                    self.runs.remove(&s);
                }
                // right remainder [start, r.end) — reinsert, will be
                // truncated/removed by the sweep below.
                self.runs.insert(
                    start,
                    Run {
                        end: r.end,
                        value: r.value,
                    },
                );
            }
        }
        // Remove or truncate every run beginning inside [start, end).
        let overlapping: Vec<u64> = self.runs.range(start..end).map(|(&s, _)| s).collect();
        for s in overlapping {
            // lint: allow(panic-on-serving-path) — `s` was just collected from a
            // range over this same map; the key is present
            let r = self.runs.remove(&s).unwrap();
            if r.end > end {
                // keep the tail piece [end, r.end)
                self.runs.insert(
                    end,
                    Run {
                        end: r.end,
                        value: r.value,
                    },
                );
            }
        }
        self.runs.insert(start, Run { end, value });
        self.coalesce_around(start, end);
    }

    /// Merge the run starting at `start` with equal-valued neighbours.
    fn coalesce_around(&mut self, start: u64, end: u64) {
        // Merge with successor.
        // lint: allow(panic-on-serving-path) — the caller inserted `start` one call ago
        let cur = *self.runs.get(&start).expect("run just inserted");
        if let Some((&ns, &nr)) = self.runs.range(end..).next() {
            if ns == end && nr.value == cur.value {
                self.runs.remove(&ns);
                self.runs.insert(
                    start,
                    Run {
                        end: nr.end,
                        value: cur.value,
                    },
                );
            }
        }
        // Merge with predecessor.
        // lint: allow(panic-on-serving-path) — successor merge re-inserts at
        // `start`; the run is still present
        let cur = *self.runs.get(&start).expect("run present");
        if let Some((&ps, &pr)) = self.runs.range(..start).next_back() {
            if pr.end == start && pr.value == cur.value {
                self.runs.remove(&start);
                self.runs.insert(
                    ps,
                    Run {
                        end: cur.end,
                        value: cur.value,
                    },
                );
            }
        }
    }

    /// The value at a single point, if assigned.
    pub fn get(&self, point: u64) -> Option<V> {
        let (_, r) = self.runs.range(..=point).next_back()?;
        (r.end > point).then_some(r.value)
    }

    /// Iterate `(start, end, value)` runs intersecting `[start, end)`,
    /// clipped to the query window.
    pub fn overlaps(&self, start: u64, end: u64) -> impl Iterator<Item = (u64, u64, V)> + '_ {
        // A run straddling the window begins strictly before `start`; runs
        // beginning at `start` itself are yielded by `rest`.
        let first = self
            .runs
            .range(..start)
            .next_back()
            .filter(|(_, r)| r.end > start)
            .map(|(&s, &r)| (s, r));
        let rest = self.runs.range(start..end).map(|(&s, &r)| (s, r));
        first
            .into_iter()
            .chain(rest)
            .filter(move |&(s, _)| s < end)
            .map(move |(s, r)| (s.max(start), r.end.min(end), r.value))
            .filter(|(s, e, _)| s < e)
    }

    /// Iterate all `(start, end, value)` runs in order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, V)> + '_ {
        self.runs.iter().map(|(&s, &r)| (s, r.end, r.value))
    }
}

impl<V: Copy + Ord> IntervalMap<V> {
    /// The maximum value intersecting `[start, end)`, if any byte of the
    /// query window is assigned.
    pub fn range_max(&self, start: u64, end: u64) -> Option<V> {
        self.overlaps(start, end).map(|(_, _, v)| v).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(m: &IntervalMap<u64>) -> Vec<(u64, u64, u64)> {
        m.iter().collect()
    }

    #[test]
    fn empty_map_queries() {
        let m: IntervalMap<u64> = IntervalMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(0), None);
        assert_eq!(m.range_max(0, 100), None);
        assert_eq!(m.overlaps(0, 100).count(), 0);
    }

    #[test]
    fn single_assign_and_point_queries() {
        let mut m = IntervalMap::new();
        m.assign(10, 20, 7u64);
        assert_eq!(m.get(9), None);
        assert_eq!(m.get(10), Some(7));
        assert_eq!(m.get(19), Some(7));
        assert_eq!(m.get(20), None);
        assert_eq!(m.covered(), 10);
    }

    #[test]
    fn zero_length_assign_is_noop() {
        let mut m = IntervalMap::new();
        m.assign(5, 5, 1u64);
        m.assign(7, 3, 2u64);
        assert!(m.is_empty());
    }

    #[test]
    fn overwrite_middle_splits_run() {
        let mut m = IntervalMap::new();
        m.assign(0, 100, 1u64);
        m.assign(40, 60, 2u64);
        assert_eq!(runs(&m), vec![(0, 40, 1), (40, 60, 2), (60, 100, 1)]);
        assert_eq!(m.range_max(0, 100), Some(2));
        assert_eq!(m.range_max(0, 40), Some(1));
        assert_eq!(m.range_max(60, 100), Some(1));
    }

    #[test]
    fn overwrite_prefix_and_suffix() {
        let mut m = IntervalMap::new();
        m.assign(10, 30, 1u64);
        m.assign(0, 15, 2u64);
        assert_eq!(runs(&m), vec![(0, 15, 2), (15, 30, 1)]);
        m.assign(25, 40, 3u64);
        assert_eq!(runs(&m), vec![(0, 15, 2), (15, 25, 1), (25, 40, 3)]);
    }

    #[test]
    fn exact_overwrite_replaces() {
        let mut m = IntervalMap::new();
        m.assign(5, 10, 1u64);
        m.assign(5, 10, 9u64);
        assert_eq!(runs(&m), vec![(5, 10, 9)]);
    }

    #[test]
    fn coalesce_adjacent_equal_values() {
        let mut m = IntervalMap::new();
        m.assign(0, 10, 4u64);
        m.assign(10, 20, 4u64);
        assert_eq!(runs(&m), vec![(0, 20, 4)]);
        m.assign(20, 30, 5u64);
        m.assign(30, 40, 5u64);
        assert_eq!(runs(&m), vec![(0, 20, 4), (20, 40, 5)]);
    }

    #[test]
    fn overlaps_clips_to_window() {
        let mut m = IntervalMap::new();
        m.assign(0, 100, 1u64);
        let v: Vec<_> = m.overlaps(30, 50).collect();
        assert_eq!(v, vec![(30, 50, 1)]);
    }

    #[test]
    fn range_max_sees_straddling_run() {
        let mut m = IntervalMap::new();
        m.assign(0, 1000, 3u64);
        m.assign(100, 200, 9u64);
        // Query window begins inside the straddling low-valued run.
        assert_eq!(m.range_max(50, 150), Some(9));
        assert_eq!(m.range_max(250, 300), Some(3));
        // Empty query.
        assert_eq!(m.range_max(80, 80), None);
    }

    #[test]
    fn version_index_scenario() {
        // Reproduce the paper's Figure 2(b) weaving scenario on a 4-page
        // blob: v1 writes [0,4), v2 writes [1,2), v3 writes [2,3).
        let mut m = IntervalMap::new();
        m.assign(0, 4, 1u64);
        m.assign(1, 2, 2u64);
        m.assign(2, 3, 3u64);
        // v3's border node at [0,2) needs a link for its missing left half
        // [0,1): latest intersecting writer is v1... and for [1,2): v2.
        assert_eq!(m.range_max(0, 1), Some(1));
        assert_eq!(m.range_max(1, 2), Some(2));
        // v3's root [0,4) right half [2,4): the max writer *before* v3 was
        // v1 — reconstruct by assigning in order and querying before the
        // final assign in a fresh map.
        let mut before_v3 = IntervalMap::new();
        before_v3.assign(0, 4, 1u64);
        before_v3.assign(1, 2, 2u64);
        assert_eq!(before_v3.range_max(2, 4), Some(1));
        assert_eq!(before_v3.range_max(3, 4), Some(1));
    }

    #[test]
    fn many_small_disjoint_runs() {
        let mut m = IntervalMap::new();
        for i in 0..100u64 {
            m.assign(i * 10, i * 10 + 5, i);
        }
        assert_eq!(runs(&m).len(), 100);
        assert_eq!(m.covered(), 500);
        assert_eq!(m.range_max(0, 1000), Some(99));
        assert_eq!(m.get(57), None);
        assert_eq!(m.get(52), Some(5));
    }
}
