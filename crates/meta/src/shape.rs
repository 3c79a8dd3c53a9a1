//! Interval arithmetic of the segment tree.
//!
//! All functions operate on *byte* intervals. Below the root, a tree
//! interval is `page_size · ARITY^j` bytes ([`Geometry::child_size`]);
//! the root covers the whole blob. Every offset is a multiple of its
//! interval's size (the tree is perfectly aligned).

use blobseer_proto::{Geometry, Segment};
use std::ops::Range;

/// Every child interval of tree interval `iv`, in offset order (none for
/// a leaf).
pub fn children(geom: &Geometry, iv: Segment) -> impl Iterator<Item = Segment> {
    let size = geom.child_size(iv.size);
    let count = if iv.size > geom.page_size {
        iv.size / size
    } else {
        0
    };
    (0..count).map(move |i| Segment::new(iv.offset + i * size, size))
}

/// Indices of the children of `iv` (each `child_size` bytes) that
/// intersect `seg` — always a contiguous run, found by division rather
/// than by testing every child. `seg` must intersect `iv`.
pub fn touched_children(iv: Segment, child_size: u64, seg: &Segment) -> Range<u64> {
    let start = seg.offset.max(iv.offset) - iv.offset;
    let end = seg.end().min(iv.end()) - iv.offset;
    start / child_size..end.div_ceil(child_size)
}

/// Enumerate every tree interval intersecting `seg`, parents before
/// children (pre-order). This is exactly the node set a WRITE of `seg`
/// must create (paper §III.C: "A node is visited only if its covered
/// interval intersects the segment").
///
/// Complexity: `O(pages_in_seg + tree_height)`.
pub fn write_intervals(geom: &Geometry, seg: &Segment) -> Vec<Segment> {
    let mut out = Vec::new();
    if !seg.is_empty() {
        push_intersecting(geom, geom.full_segment(), seg, &mut out);
    }
    out
}

/// Pre-order walk under `iv`, which intersects `seg`. Recursion depth is
/// one per level (at most 17 for a `u64` blob).
fn push_intersecting(geom: &Geometry, iv: Segment, seg: &Segment, out: &mut Vec<Segment>) {
    out.push(iv);
    if iv.size > geom.page_size {
        let size = geom.child_size(iv.size);
        for i in touched_children(iv, size, seg) {
            push_intersecting(geom, Segment::new(iv.offset + i * size, size), seg, out);
        }
    }
}

/// Number of nodes [`write_intervals`] would return, computed in
/// `O(tree_height)` — used by benches and capacity planning.
pub fn node_count_for_write(geom: &Geometry, seg: &Segment) -> u64 {
    if seg.is_empty() {
        return 0;
    }
    // At each tree level, the intersecting intervals form a contiguous run;
    // count them level by level from the root down.
    let mut count = 0u64;
    let mut size = geom.total_size;
    loop {
        let first = seg.offset / size;
        let last = (seg.end() - 1) / size;
        count += last - first + 1;
        if size == geom.page_size {
            break;
        }
        size = geom.child_size(size);
    }
    count
}

/// The page-aligned envelope of `seg` (smallest aligned segment containing
/// it).
pub fn align_to_pages(geom: &Geometry, seg: &Segment) -> Segment {
    if seg.is_empty() {
        return *seg;
    }
    let start = seg.offset - seg.offset % geom.page_size;
    let end = seg.end().div_ceil(geom.page_size) * geom.page_size;
    Segment::new(start, end - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if `(offset, size)` is a valid tree interval for `geom`: the
    /// whole blob, or a `page_size · ARITY^j` interval below it, size-aligned
    /// and in bounds.
    pub fn is_tree_interval(geom: &Geometry, offset: u64, size: u64) -> bool {
        let pages = size / geom.page_size;
        let level = size == geom.total_size
            || (size < geom.total_size
                && size.is_multiple_of(geom.page_size)
                && pages.is_power_of_two()
                && pages
                    .trailing_zeros()
                    .is_multiple_of(Geometry::ARITY.trailing_zeros()));
        level
            && size >= geom.page_size
            && offset.is_multiple_of(size)
            && offset
                .checked_add(size)
                .is_some_and(|end| end <= geom.total_size)
    }

    fn geom_4_pages() -> Geometry {
        // 4 pages of 1 KiB, as in the paper's Figure 2 — now one root
        // over 4 leaves (the binary tree's middle level is gone).
        Geometry::new(4096, 1024).unwrap()
    }

    #[test]
    fn tree_interval_predicate() {
        let g = geom_4_pages();
        assert!(is_tree_interval(&g, 0, 4096));
        assert!(is_tree_interval(&g, 1024, 1024));
        assert!(is_tree_interval(&g, 3072, 1024));
        assert!(
            !is_tree_interval(&g, 0, 2048),
            "the binary tree's half is no 32-way level"
        );
        assert!(!is_tree_interval(&g, 1024, 2048), "offset not size-aligned");
        assert!(!is_tree_interval(&g, 0, 512), "smaller than a page");
        assert!(
            !is_tree_interval(&g, 0, 3072),
            "not a power-of-two multiple"
        );
        assert!(!is_tree_interval(&g, 4096, 1024), "out of bounds");
        assert!(!is_tree_interval(&g, u64::MAX - 1023, 1024), "wraps");
        // 2^10 pages: levels are 1, 32 pages and the 1,024-page root.
        let g = Geometry::new(1 << 20, 1024).unwrap();
        for pages in [1u64, 32, 1024] {
            assert!(is_tree_interval(&g, 0, pages * 1024), "{pages} pages");
        }
        for pages in [2u64, 4, 8, 16, 64, 128, 256, 512] {
            assert!(!is_tree_interval(&g, 0, pages * 1024), "{pages} pages");
        }
    }

    #[test]
    fn children_split_thirty_two_ways_below_the_root() {
        let g = Geometry::new(1 << 22, 1024).unwrap();
        let root: Vec<Segment> = children(&g, g.full_segment()).collect();
        assert_eq!(root.len(), 4, "4,096 pages: the root has 4 children");
        assert_eq!(root[3], Segment::new(3 << 20, 1 << 20));
        let mid: Vec<Segment> = children(&g, root[1]).collect();
        assert_eq!(mid.len(), 32);
        assert!(mid.iter().all(|c| is_tree_interval(&g, c.offset, c.size)));
        assert_eq!(children(&g, Segment::new(0, 1024)).count(), 0, "leaf");
        // The touched run is found by division.
        let seg = Segment::new((1 << 20) + 5 * 32768 + 7, 2 * 32768);
        assert_eq!(touched_children(root[1], 32768, &seg), 5..8);
        assert_eq!(touched_children(g.full_segment(), 1 << 20, &seg), 1..2);
    }

    #[test]
    fn write_intervals_full_blob() {
        let g = geom_4_pages();
        let ivs = write_intervals(&g, &g.full_segment());
        // Root over 4 leaves: 5 nodes (the binary tree built 7).
        assert_eq!(ivs.len(), 5);
        assert_eq!(ivs[0], Segment::new(0, 4096), "root first (pre-order)");
        // Every interval is a valid tree interval.
        for iv in &ivs {
            assert!(is_tree_interval(&g, iv.offset, iv.size));
        }
    }

    #[test]
    fn write_intervals_single_page() {
        let g = geom_4_pages();
        // Page 1, the paper's Figure 2(b) "version 2" write: the root and
        // the leaf (A and E; the binary tree's B is gone).
        let ivs = write_intervals(&g, &Segment::new(1024, 1024));
        assert_eq!(
            ivs,
            vec![
                Segment::new(0, 4096),    // A
                Segment::new(1024, 1024), // E (leaf)
            ]
        );
    }

    #[test]
    fn write_intervals_figure2_example_read_set() {
        // Paper Figure 2(a): "the set of nodes explored for segment [1,2]
        // is (0,4),(0,2),(2,2),(1,1),(2,1)" — in pages. On the 32-way
        // tree the two halves disappear: (0,4),(1,1),(2,1).
        let g = geom_4_pages();
        let ivs = write_intervals(&g, &Segment::new(1024, 2048));
        let as_pages: Vec<(u64, u64)> = ivs
            .iter()
            .map(|s| (s.offset / 1024, s.size / 1024))
            .collect();
        assert_eq!(as_pages, vec![(0, 4), (1, 1), (2, 1)]);
    }

    #[test]
    fn one_page_write_on_a_million_pages_touches_five_nodes() {
        // 2^20 pages: 4 thirty-two-way levels below the root.
        let g = Geometry::new(1 << 30, 1024).unwrap();
        assert_eq!(g.tree_height(), 4);
        let seg = Segment::new(12345 * 1024, 1024);
        assert_eq!(write_intervals(&g, &seg).len(), 5);
        assert_eq!(node_count_for_write(&g, &seg), 5);
    }

    #[test]
    fn node_count_matches_enumeration() {
        for g in [
            Geometry::new(1 << 20, 4096).unwrap(), // 256 pages: root of 8
            Geometry::new(1 << 22, 4096).unwrap(), // 1,024 pages: root of 32
            Geometry::new(1 << 23, 4096).unwrap(), // 2,048 pages: root of 2
        ] {
            for (off, len) in [
                (0u64, 4096u64),
                (0, 1 << 20),
                (4096 * 3, 4096 * 5),
                (4096 * 255, 4096),
                (4096 * 100, 4096 * 56),
                (4096 * 15, 4096 * 18),
            ] {
                let seg = Segment::new(off, len);
                let ivs = write_intervals(&g, &seg);
                assert_eq!(
                    node_count_for_write(&g, &seg),
                    ivs.len() as u64,
                    "mismatch for {seg:?} in {g:?}"
                );
                assert!(ivs.iter().all(|iv| iv.intersects(&seg)));
                assert!(ivs
                    .iter()
                    .all(|iv| is_tree_interval(&g, iv.offset, iv.size)));
            }
            assert_eq!(node_count_for_write(&g, &Segment::new(0, 0)), 0);
        }
    }

    #[test]
    fn node_count_paper_scale() {
        // 1 TB blob, 64 KB pages, 16 MB aligned write: 256 leaves under
        // 8 full 32-leaf nodes under one 1,024-leaf node, plus one node on
        // each of the 3 levels above it (the root included).
        let g = Geometry::new(1 << 40, 1 << 16).unwrap();
        let seg = Segment::new(0, 16 << 20);
        assert_eq!(node_count_for_write(&g, &seg), 256 + 8 + 1 + 3);
    }

    #[test]
    fn alignment_envelope() {
        let g = geom_4_pages();
        assert_eq!(
            align_to_pages(&g, &Segment::new(100, 50)),
            Segment::new(0, 1024)
        );
        assert_eq!(
            align_to_pages(&g, &Segment::new(1000, 100)),
            Segment::new(0, 2048)
        );
        assert_eq!(
            align_to_pages(&g, &Segment::new(1024, 1024)),
            Segment::new(1024, 1024)
        );
        let empty = Segment::new(10, 0);
        assert_eq!(align_to_pages(&g, &empty), empty);
    }
}
