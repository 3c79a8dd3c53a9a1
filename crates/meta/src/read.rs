//! READ-side traversal (paper §III.B, §IV.A).
//!
//! Reads descend the segment tree of the requested version from the root,
//! visiting only nodes whose interval intersects the requested segment.
//! Because the client must *fetch* a node before it can descend, the
//! traversal is an interactive loop: this module provides the pure step
//! function [`expand`], and the client drives it level by level with
//! batched metadata fetches (one parallel round trip per tree level, as in
//! the paper). The leaf level's round trip also carries the page fetches:
//! the client expands each leaf as it arrives and sends its page from
//! inside that same burst, then [stitches](stitch_page) each page into the
//! read's buffer the moment its reply lands; [`zero_gaps`] zeroes what no
//! page covered.

use crate::shape::touched_children;
use blobseer_proto::tree::{NodeBody, NodeKey, PageLoc};
use blobseer_proto::{BlobError, BlobId, Geometry, PageBuf, Segment, Version};
use blobseer_util::copymeter;

/// One step outcome of the traversal.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Visit {
    /// Fetch this node next (an inner child intersecting the read).
    Descend(NodeKey),
    /// This byte range of the read is all zeros (version-0 subtree —
    /// storage was never allocated; paper: "the system allocates on
    /// write").
    Zeros(Segment),
    /// A leaf was reached: bytes `blob_range` of the blob come from
    /// `page`, at page-internal offset `blob_range.offset % page_size`.
    Page {
        /// Locator of the page holding the data.
        page: PageLoc,
        /// The byte range (clipped to the read segment) this page serves.
        blob_range: Segment,
    },
}

/// Key of the tree root for `(blob, version)`.
pub fn root_key(geom: &Geometry, blob: BlobId, version: Version) -> NodeKey {
    NodeKey {
        blob,
        version,
        offset: 0,
        size: geom.total_size,
    }
}

/// Expand one fetched node: classify every child (or the node itself, for
/// leaves) against the read segment.
///
/// Returns an error if the node shape is inconsistent with the geometry —
/// that would indicate metadata corruption.
pub fn expand(
    geom: &Geometry,
    key: &NodeKey,
    body: &NodeBody,
    read_seg: &Segment,
) -> Result<Vec<Visit>, BlobError> {
    let iv = key.segment();
    if !iv.intersects(read_seg) {
        return Err(BlobError::Internal("expanded node does not intersect read"));
    }
    match body {
        NodeBody::Leaf { page } => {
            if iv.size != geom.page_size {
                return Err(BlobError::Internal("leaf at non-page interval"));
            }
            let blob_range = iv
                .intersection(read_seg)
                .ok_or(BlobError::Internal("leaf intersection empty"))?;
            Ok(vec![Visit::Page {
                page: page.clone(),
                blob_range,
            }])
        }
        NodeBody::Inner { children } => {
            if iv.size <= geom.page_size {
                return Err(BlobError::Internal("inner node at page interval"));
            }
            let size = geom.child_size(iv.size);
            if children.as_slice().len() as u64 != iv.size / size {
                return Err(BlobError::Internal(
                    "inner node fan-out does not fit its interval",
                ));
            }
            // Only the contiguous run of children the read touches; the
            // fan-out check above keeps it inside `children`.
            let touched = touched_children(iv, size, read_seg);
            let run = &children.as_slice()[touched.start as usize..touched.end as usize];
            let mut out = Vec::with_capacity(run.len());
            for (i, &cv) in touched.zip(run) {
                if cv == 0 {
                    let child = Segment::new(iv.offset + i * size, size);
                    let overlap = child
                        .intersection(read_seg)
                        .ok_or(BlobError::Internal("zero child outside read"))?;
                    out.push(Visit::Zeros(overlap));
                } else {
                    out.push(Visit::Descend(key.child(geom, i, cv)));
                }
            }
            Ok(out)
        }
    }
}

/// Assemble a read buffer from leaf hits and zero ranges: each page
/// (shared, refcounted) is [stitched](stitch_page) once into a buffer
/// covering exactly `read_seg`, whose other bytes are zero.
pub fn assemble_read(
    geom: &Geometry,
    read_seg: &Segment,
    zeros: &[Segment],
    pages: &[(PageLoc, Segment, PageBuf)],
) -> Result<Vec<u8>, BlobError> {
    // The zero ranges are what no page covers; only their containment
    // is checked.
    if !zeros.iter().all(|z| read_seg.contains(z)) {
        return Err(BlobError::Internal("zero range outside read"));
    }
    // vec![0; n] zero-allocates lazily; no extra fill pass needed.
    let mut buf = vec![0u8; read_seg.size as usize];
    for (_, blob_range, data) in pages {
        stitch_page(geom, read_seg, blob_range, data, &mut buf)?;
    }
    Ok(buf)
}

/// Copy one fetched page's share of a read into place: the bytes
/// `blob_range` of the blob, taken from `page` at their offset within
/// it, into `buf`, which covers `read_seg`. This is the **single** copy
/// of page bytes on the read path; the client makes it the moment the
/// page's reply lands. A range outside the read or across a page
/// boundary, or a page shorter than the geometry's, is refused before
/// any byte moves.
pub fn stitch_page(
    geom: &Geometry,
    read_seg: &Segment,
    blob_range: &Segment,
    page: &[u8],
    buf: &mut [u8],
) -> Result<(), BlobError> {
    if buf.len() as u64 != read_seg.size {
        return Err(BlobError::Internal("assembly buffer size mismatch"));
    }
    if !read_seg.contains(blob_range)
        || blob_range.offset % geom.page_size + blob_range.size > geom.page_size
    {
        return Err(BlobError::Internal("page range outside read"));
    }
    if page.len() as u64 != geom.page_size {
        return Err(BlobError::Internal("short page"));
    }
    let in_page = (blob_range.offset % geom.page_size) as usize;
    let dst = (blob_range.offset - read_seg.offset) as usize;
    let len = blob_range.size as usize;
    buf[dst..dst + len].copy_from_slice(&page[in_page..in_page + len]);
    copymeter::record_copy(len);
    Ok(())
}

/// The gap pass after the stitches: zero every byte of `buf` (which
/// covers `read_seg`) that none of the `covered` blob ranges — the
/// pages stitched into it, each inside the read — covers, whatever the
/// buffer held: an explicit zero range, a hole left by metadata that
/// does not tile the segment, or a stale byte of an attempt that failed.
/// Metadata validates containment, not coverage, so the ranges may
/// overlap or leave holes, in any order.
pub fn zero_gaps(read_seg: &Segment, covered: &[Segment], buf: &mut [u8]) {
    let mut spans: Vec<(usize, usize)> = covered
        .iter()
        .map(|r| {
            let start = (r.offset - read_seg.offset) as usize;
            (start, start + r.size as usize)
        })
        .collect();
    spans.sort_unstable();
    let mut at = 0;
    for (start, end) in spans {
        if start > at {
            buf[at..start].fill(0);
        }
        at = at.max(end);
    }
    buf[at..].fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_proto::tree::{ChildVersions, PageKey};
    use blobseer_proto::{ProviderId, WriteId};

    fn geom() -> Geometry {
        Geometry::new(4096, 1024).unwrap()
    }

    fn loc(i: u64) -> PageLoc {
        PageLoc {
            key: PageKey {
                blob: BlobId(1),
                write: WriteId(1),
                index: i,
            },
            replicas: vec![ProviderId(0)],
        }
    }

    #[test]
    fn root_key_shape() {
        let k = root_key(&geom(), BlobId(5), 3);
        assert_eq!(
            k,
            NodeKey {
                blob: BlobId(5),
                version: 3,
                offset: 0,
                size: 4096
            }
        );
    }

    fn inner(versions: &[Version]) -> NodeBody {
        NodeBody::Inner {
            children: ChildVersions::new(versions).unwrap(),
        }
    }

    fn leaf_key(v: Version, page: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(1),
            version: v,
            offset: page * 1024,
            size: 1024,
        }
    }

    #[test]
    fn expand_inner_mixed_children() {
        let g = geom();
        let key = root_key(&g, BlobId(1), 2);
        // The 4-page root: pages 0 and 3 at v2, pages 1 and 2 never written.
        let body = inner(&[2, 0, 0, 2]);
        let visits = expand(&g, &key, &body, &g.full_segment()).unwrap();
        assert_eq!(
            visits,
            vec![
                Visit::Descend(leaf_key(2, 0)),
                Visit::Zeros(Segment::new(1024, 1024)),
                Visit::Zeros(Segment::new(2048, 1024)),
                Visit::Descend(leaf_key(2, 3)),
            ]
        );
    }

    #[test]
    fn expand_prunes_non_intersecting_children() {
        let g = geom();
        let key = root_key(&g, BlobId(1), 1);
        let body = inner(&[1, 1, 1, 1]);
        // Read only page 3: children 0..3 pruned.
        let visits = expand(&g, &key, &body, &Segment::new(3072, 1024)).unwrap();
        assert_eq!(visits, vec![Visit::Descend(leaf_key(1, 3))]);
        // An unaligned read clips its zero ranges.
        let body = inner(&[1, 0, 0, 1]);
        let visits = expand(&g, &key, &body, &Segment::new(1500, 1000)).unwrap();
        assert_eq!(
            visits,
            vec![
                Visit::Zeros(Segment::new(1500, 548)),
                Visit::Zeros(Segment::new(2048, 452)),
            ]
        );
    }

    #[test]
    fn expand_walks_thirty_two_children() {
        // 128 pages: root of 4 over 32-page nodes.
        let g = Geometry::new(128 * 1024, 1024).unwrap();
        let node = NodeKey {
            blob: BlobId(1),
            version: 7,
            offset: 32 * 1024,
            size: 32 * 1024,
        };
        let versions: Vec<Version> = (0..32).map(|i| i % 3).collect();
        let visits = expand(&g, &node, &inner(&versions), &node.segment()).unwrap();
        assert_eq!(visits.len(), 32);
        for (i, visit) in (0u64..).zip(&visits) {
            match (versions[i as usize], visit) {
                (0, Visit::Zeros(z)) => assert_eq!(*z, Segment::new((32 + i) * 1024, 1024)),
                (v, Visit::Descend(k)) => assert_eq!(*k, leaf_key(v, 32 + i)),
                other => panic!("child {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn expand_leaf_clips_to_read() {
        let g = geom();
        let key = NodeKey {
            blob: BlobId(1),
            version: 1,
            offset: 1024,
            size: 1024,
        };
        let body = NodeBody::Leaf { page: loc(1) };
        // Unaligned read [1500, 1800).
        let visits = expand(&g, &key, &body, &Segment::new(1500, 300)).unwrap();
        assert_eq!(
            visits,
            vec![Visit::Page {
                page: loc(1),
                blob_range: Segment::new(1500, 300)
            }]
        );
    }

    #[test]
    fn expand_detects_corrupt_shapes() {
        let g = geom();
        // Leaf body at an inner interval.
        let key = NodeKey {
            blob: BlobId(1),
            version: 1,
            offset: 0,
            size: 2048,
        };
        assert!(expand(
            &g,
            &key,
            &NodeBody::Leaf { page: loc(0) },
            &g.full_segment()
        )
        .is_err());
        // Inner body at a leaf interval.
        let key = NodeKey {
            blob: BlobId(1),
            version: 1,
            offset: 0,
            size: 1024,
        };
        assert!(expand(&g, &key, &inner(&[1, 1]), &g.full_segment()).is_err());
        // A fan-out that does not fit the interval: the 4-page root
        // claiming 2 or 32 children.
        let root = root_key(&g, BlobId(1), 1);
        assert!(expand(&g, &root, &inner(&[1, 1]), &g.full_segment()).is_err());
        assert!(expand(&g, &root, &inner(&[1; 32]), &g.full_segment()).is_err());
        // Node that does not intersect the read at all.
        let key = NodeKey {
            blob: BlobId(1),
            version: 1,
            offset: 0,
            size: 1024,
        };
        assert!(expand(
            &g,
            &key,
            &NodeBody::Leaf { page: loc(0) },
            &Segment::new(2048, 512)
        )
        .is_err());
    }

    #[test]
    fn assemble_copies_and_zero_fills() {
        let g = geom();
        let read = Segment::new(512, 2048); // spans pages 0..3 partially
        let page1 = PageBuf::from_vec(vec![7u8; 1024]);
        let buf = assemble_read(
            &g,
            &read,
            &[Segment::new(512, 512)], // tail of page 0 is zeros
            &[
                (loc(1), Segment::new(1024, 1024), page1), // full page 1
                (
                    loc(2),
                    Segment::new(2048, 512),
                    PageBuf::from_vec(vec![9u8; 1024]),
                ),
            ],
        )
        .unwrap();
        assert_eq!(buf.len(), 2048);
        assert!(buf[..512].iter().all(|&b| b == 0));
        assert!(buf[512..1536].iter().all(|&b| b == 7));
        assert!(buf[1536..].iter().all(|&b| b == 9));
    }

    #[test]
    fn stitches_and_the_gap_pass_zero_exactly_what_no_page_covers() {
        let g = geom();
        // [512, 3584): an explicit zero range, part of page 1, a hole no
        // piece covers, then the head of page 3 — landing out of order.
        let read = Segment::new(512, 3072);
        let pattern = |seed: u8| PageBuf::from_vec((0..1024).map(|i| seed ^ i as u8).collect());
        let (page1, page3) = (pattern(0x11), pattern(0x33));
        let landed = [
            (Segment::new(3072, 512), page3.clone()),
            (Segment::new(1024, 776), page1.clone()),
        ];
        let mut buf = vec![0xAAu8; 3072];
        let before = copymeter::thread_snapshot();
        for (range, page) in &landed {
            stitch_page(&g, &read, range, page, &mut buf).unwrap();
        }
        assert_eq!(before.bytes_since(), 776 + 512, "page bytes only");
        let covered: Vec<Segment> = landed.iter().map(|(r, _)| *r).collect();
        zero_gaps(&read, &covered, &mut buf);
        assert!(buf[..512].iter().all(|&b| b == 0), "explicit zero range");
        assert_eq!(&buf[512..1288], &page1[..776]);
        assert!(buf[1288..2560].iter().all(|&b| b == 0), "uncovered hole");
        assert_eq!(&buf[2560..], &page3[..512]);

        // A range outside the read or a short page moves no byte.
        let mut buf = vec![0xAAu8; 3072];
        let outside = Segment::new(4000, 96);
        assert!(stitch_page(&g, &read, &outside, &page1, &mut buf).is_err());
        let short = PageBuf::from_vec(vec![1u8; 10]);
        assert!(stitch_page(&g, &read, &Segment::new(1024, 10), &short, &mut buf).is_err());
        assert!(buf.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn assemble_rejects_out_of_range_pieces() {
        let g = geom();
        let read = Segment::new(0, 1024);
        assert!(assemble_read(&g, &read, &[Segment::new(1024, 10)], &[]).is_err());
        let short_page = PageBuf::from_vec(vec![1u8; 10]);
        assert!(
            assemble_read(&g, &read, &[], &[(loc(0), Segment::new(0, 10), short_page)]).is_err()
        );
    }
}
