//! Blob geometry and segment algebra.
//!
//! Per the paper's §II: a **page** is a fixed-size substring whose offset
//! is a multiple of `page_size`; a **segment** is a concatenation of
//! consecutive pages; both the blob size and the page size are powers of
//! two. All byte arithmetic of the system funnels through this module.

use crate::error::BlobError;
use std::fmt;

/// A byte range `[offset, offset + size)` within a blob.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Byte offset of the first byte.
    pub offset: u64,
    /// Length in bytes.
    pub size: u64,
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.checked_end() {
            Some(end) => write!(f, "[{}, {})", self.offset, end),
            None => write!(f, "[{}, +{})", self.offset, self.size),
        }
    }
}

impl Segment {
    /// Construct a segment.
    pub fn new(offset: u64, size: u64) -> Self {
        Self { offset, size }
    }

    /// One-past-the-last byte offset. Unchecked: only for segments
    /// already known to lie inside a blob — a segment from the wire goes
    /// through [`checked_end`](Self::checked_end) (via
    /// [`Geometry::validate_aligned`]/[`Geometry::validate_bounds`]) first.
    pub fn end(&self) -> u64 {
        self.offset + self.size
    }

    /// One-past-the-last byte offset, or `None` if `offset + size`
    /// overflows `u64`.
    pub fn checked_end(&self) -> Option<u64> {
        self.offset.checked_add(self.size)
    }

    /// True when the segment contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// True when `self` and `other` share at least one byte.
    pub fn intersects(&self, other: &Segment) -> bool {
        self.offset < other.end() && other.offset < self.end()
    }

    /// True when `self` fully contains `other`.
    pub fn contains(&self, other: &Segment) -> bool {
        self.offset <= other.offset && other.end() <= self.end()
    }

    /// The overlapping byte range, if any.
    pub fn intersection(&self, other: &Segment) -> Option<Segment> {
        let start = self.offset.max(other.offset);
        let end = self.end().min(other.end());
        (start < end).then(|| Segment::new(start, end - start))
    }
}

/// A half-open range of page indices `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageRange {
    /// First page index.
    pub start: u64,
    /// One-past-last page index.
    pub end: u64,
}

impl fmt::Debug for PageRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pages[{}, {})", self.start, self.end)
    }
}

impl PageRange {
    /// Number of pages covered.
    pub fn count(&self) -> u64 {
        self.end - self.start
    }

    /// Iterate the page indices.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        self.start..self.end
    }

    /// True when the range covers no pages.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Static shape of a blob: total logical size and page size, both powers
/// of two (paper §II convention). The *logical* size may be enormous
/// (1 TB in the paper) — storage is allocated on write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Geometry {
    /// Total logical blob size in bytes (power of two).
    pub total_size: u64,
    /// Page size in bytes (power of two, `<= total_size`).
    pub page_size: u64,
}

impl Geometry {
    /// Validate and construct a geometry.
    pub fn new(total_size: u64, page_size: u64) -> Result<Self, BlobError> {
        if total_size == 0 || !total_size.is_power_of_two() {
            return Err(BlobError::BadSegment {
                segment: Segment::new(0, total_size),
                reason: "total_size must be a nonzero power of two",
            });
        }
        if page_size == 0 || !page_size.is_power_of_two() {
            return Err(BlobError::BadSegment {
                segment: Segment::new(0, page_size),
                reason: "page_size must be a nonzero power of two",
            });
        }
        if page_size > total_size {
            return Err(BlobError::BadSegment {
                segment: Segment::new(0, page_size),
                reason: "page_size must not exceed total_size",
            });
        }
        Ok(Self {
            total_size,
            page_size,
        })
    }

    /// Number of pages in the blob.
    pub fn page_count(&self) -> u64 {
        self.total_size / self.page_size
    }

    /// Fan-out of the metadata tree: a node of `page · ARITY^j` bytes has
    /// `ARITY` children of `page · ARITY^(j−1)` (see [`crate::tree`] for
    /// why 32 rather than the paper's 2). Only the root's fan-out varies
    /// with the page count. A measured constant, not a knob.
    pub const ARITY: u64 = 32;

    /// `log2(ARITY)`: how many binary levels one tree level spans.
    const ARITY_BITS: u32 = Self::ARITY.trailing_zeros();

    /// Height of the metadata tree: the number of [`ARITY`](Self::ARITY)-way
    /// levels below the root, `⌈log32(page_count)⌉` (0 for a one-page
    /// blob, whose root is its only leaf; 2 for the 1,024-page canonical
    /// blob, 3 at 16-way; 5 for the paper's 1 TB × 64 KB, 6 at 16-way).
    pub fn tree_height(&self) -> u32 {
        self.page_count()
            .trailing_zeros()
            .div_ceil(Self::ARITY_BITS)
    }

    /// Size of each child of a tree node of `size` bytes: the largest
    /// `page_size · ARITY^j` below `size`. Levels are sized from the
    /// leaves up, so every node but the root has exactly `ARITY`
    /// children and the root has `total_size / child_size(total_size)`
    /// (between 2 and `ARITY`). A leaf (`size <= page_size`) has no
    /// children; for it this returns `page_size`.
    pub fn child_size(&self, size: u64) -> u64 {
        let pages_log2 = (size / self.page_size).trailing_zeros();
        let child_log2 = pages_log2.saturating_sub(1) / Self::ARITY_BITS * Self::ARITY_BITS;
        self.page_size << child_log2
    }

    /// The page index containing byte `offset`.
    pub fn page_of(&self, offset: u64) -> u64 {
        offset / self.page_size
    }

    /// Byte segment covered by page `index`.
    pub fn page_segment(&self, index: u64) -> Segment {
        Segment::new(index * self.page_size, self.page_size)
    }

    /// The whole blob as a segment.
    pub fn full_segment(&self) -> Segment {
        Segment::new(0, self.total_size)
    }

    /// Page indices covered by `seg` (which need not be aligned).
    pub fn pages_touching(&self, seg: &Segment) -> PageRange {
        if seg.is_empty() {
            return PageRange { start: 0, end: 0 };
        }
        PageRange {
            start: self.page_of(seg.offset),
            end: self.page_of(seg.end() - 1) + 1,
        }
    }

    /// Validate a segment for the **aligned** fast-path API: non-empty,
    /// in-bounds, and page-aligned on both ends (paper §II: reads/writes
    /// operate on segments = whole pages).
    pub fn validate_aligned(&self, seg: &Segment) -> Result<PageRange, BlobError> {
        self.validate_bounds(seg)?;
        if !seg.offset.is_multiple_of(self.page_size) || !seg.size.is_multiple_of(self.page_size) {
            return Err(BlobError::BadSegment {
                segment: *seg,
                reason: "segment must be page-aligned",
            });
        }
        Ok(PageRange {
            start: self.page_of(seg.offset),
            end: self.page_of(seg.end() - 1) + 1,
        })
    }

    /// Validate bounds only (for the unaligned read-modify-write path).
    /// A segment whose `offset + size` overflows `u64` is out of bounds,
    /// never a wrapped end that happens to fit.
    pub fn validate_bounds(&self, seg: &Segment) -> Result<(), BlobError> {
        if seg.is_empty() {
            return Err(BlobError::BadSegment {
                segment: *seg,
                reason: "empty segment",
            });
        }
        if seg.checked_end().is_none_or(|end| end > self.total_size) {
            return Err(BlobError::BadSegment {
                segment: *seg,
                reason: "out of bounds",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KB: u64 = 1024;

    #[test]
    fn segment_basics() {
        let s = Segment::new(100, 50);
        assert_eq!(s.end(), 150);
        assert!(!s.is_empty());
        assert!(Segment::new(3, 0).is_empty());
    }

    #[test]
    fn intersects_and_contains() {
        let a = Segment::new(0, 100);
        let b = Segment::new(50, 100);
        let c = Segment::new(100, 10);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c), "half-open ranges do not touch at 100");
        assert!(a.contains(&Segment::new(0, 100)));
        assert!(a.contains(&Segment::new(10, 10)));
        assert!(!a.contains(&b));
        assert_eq!(a.intersection(&b), Some(Segment::new(50, 50)));
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn geometry_validation() {
        assert!(Geometry::new(1 << 20, 64 * KB).is_ok());
        assert!(Geometry::new(0, 64).is_err());
        assert!(Geometry::new(100, 64).is_err(), "non power of two total");
        assert!(
            Geometry::new(1 << 20, 1000).is_err(),
            "non power of two page"
        );
        assert!(Geometry::new(64, 128).is_err(), "page larger than blob");
        // page_size == total_size is legal: a single-page blob.
        let g = Geometry::new(64, 64).unwrap();
        assert_eq!(g.page_count(), 1);
        assert_eq!(g.tree_height(), 0);
    }

    #[test]
    fn page_math() {
        let g = Geometry::new(1 << 20, 64 * KB).unwrap(); // 16 pages
        assert_eq!(g.page_count(), 16);
        assert_eq!(g.tree_height(), 1, "one 32-way level: root over 16 leaves");
        assert_eq!(g.page_of(0), 0);
        assert_eq!(g.page_of(64 * KB - 1), 0);
        assert_eq!(g.page_of(64 * KB), 1);
        assert_eq!(g.page_segment(2), Segment::new(128 * KB, 64 * KB));
        assert_eq!(g.full_segment(), Segment::new(0, 1 << 20));
    }

    #[test]
    fn pages_touching_unaligned() {
        let g = Geometry::new(1 << 20, 64 * KB).unwrap();
        let r = g.pages_touching(&Segment::new(10, 64 * KB));
        assert_eq!((r.start, r.end), (0, 2));
        let r = g.pages_touching(&Segment::new(64 * KB, 64 * KB));
        assert_eq!((r.start, r.end), (1, 2));
        let r = g.pages_touching(&Segment::new(5, 0));
        assert!(r.is_empty());
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn aligned_validation() {
        let g = Geometry::new(1 << 20, 64 * KB).unwrap();
        let ok = g
            .validate_aligned(&Segment::new(64 * KB, 128 * KB))
            .unwrap();
        assert_eq!((ok.start, ok.end), (1, 3));
        assert!(g.validate_aligned(&Segment::new(1, 64 * KB)).is_err());
        assert!(g.validate_aligned(&Segment::new(0, 1)).is_err());
        assert!(g.validate_aligned(&Segment::new(0, 0)).is_err());
        assert!(
            g.validate_aligned(&Segment::new(1 << 20, 64 * KB)).is_err(),
            "out of bounds"
        );
        // Whole blob is valid.
        assert!(g.validate_aligned(&g.full_segment()).is_ok());
    }

    #[test]
    fn bounds_validation() {
        let g = Geometry::new(1 << 20, 64 * KB).unwrap();
        assert!(g.validate_bounds(&Segment::new(5, 3)).is_ok());
        assert!(g.validate_bounds(&Segment::new((1 << 20) - 1, 1)).is_ok());
        assert!(g.validate_bounds(&Segment::new((1 << 20) - 1, 2)).is_err());
        assert!(g.validate_bounds(&Segment::new(0, 0)).is_err());
    }

    #[test]
    fn wrapping_end_is_out_of_bounds() {
        // offset + size wraps to 1 MiB: the unchecked sum would "fit".
        let g = Geometry::new(1 << 30, 1 << 20).unwrap();
        let seg = Segment::new(u64::MAX - (1 << 20) + 1, 2 << 20);
        assert_eq!(seg.checked_end(), None);
        let out_of_bounds = |e: BlobError| {
            matches!(
                e,
                BlobError::BadSegment {
                    reason: "out of bounds",
                    ..
                }
            )
        };
        assert!(out_of_bounds(g.validate_aligned(&seg).unwrap_err()));
        assert!(out_of_bounds(g.validate_bounds(&seg).unwrap_err()));
        assert_eq!(
            format!("{seg:?}"),
            format!("[{}, +{})", seg.offset, 2 << 20)
        );
    }

    #[test]
    fn child_sizes_grow_from_the_leaves() {
        // 1,024 pages (sim_paper): 32 · 32 → the root has 32 children.
        let g = Geometry::new(256 << 20, 256 * KB).unwrap();
        assert_eq!(g.tree_height(), 2);
        assert_eq!(g.child_size(256 << 20), 8 << 20);
        assert_eq!(g.child_size(8 << 20), 256 * KB);
        assert_eq!(g.child_size(256 * KB), 256 * KB, "a leaf has no children");
        // Every root fan-out from 2 to 32 over 2..=32 pages.
        for pages_log2 in 1..=5u32 {
            let g = Geometry::new(KB << pages_log2, KB).unwrap();
            assert_eq!(g.tree_height(), 1);
            assert_eq!(g.total_size / g.child_size(g.total_size), 1 << pages_log2);
        }
        // 64 pages: root of 2 over 32-leaf nodes.
        let g = Geometry::new(64 * KB, KB).unwrap();
        assert_eq!((g.tree_height(), g.child_size(64 * KB)), (2, 32 * KB));
    }

    #[test]
    fn paper_scale_geometry() {
        // The paper's headline configuration: 1 TB blob, 64 KB pages —
        // 24 binary levels, 5 thirty-two-way ones (a root of 16).
        let g = Geometry::new(1 << 40, 64 * KB).unwrap();
        assert_eq!(g.page_count(), 1 << 24);
        assert_eq!(g.tree_height(), 5);
        assert_eq!(g.child_size(1 << 40), 1 << 36);
        let r = g.pages_touching(&Segment::new(123 * 64 * KB, 16 * 1024 * KB));
        assert_eq!(r.count(), 256, "16 MiB segment = 256 pages");
    }
}
