//! WRITE-side tree construction: border nodes and weaving (paper §III.C,
//! §IV.C).
//!
//! A WRITE of segment `seg` producing version `v` creates a new node for
//! every tree interval intersecting `seg`. Children of those nodes that
//! *also* intersect `seg` are version-`v` nodes created by the same write;
//! children that do not are the **missing children of border nodes** and
//! must link to the newest older version that wrote them — the border
//! links precomputed by the version manager, which is what lets
//! concurrent writers weave in complete isolation. Both sides enumerate
//! those children with [`border_specs`], so a ticket carries only their
//! versions, in that order.
//!
//! In the paper's binary tree a border node misses exactly one half. In
//! the 32-way tree it misses every child outside the write's contiguous
//! run of touched children — up to 31 — and each gets its own link.

use crate::shape::{children, touched_children, write_intervals};
use blobseer_proto::messages::WriteTicket;
use blobseer_proto::tree::{ChildVersions, NodeBody, NodeKey, PageLoc, TreeNode};
use blobseer_proto::{BlobError, BlobId, Geometry, Segment, Version};
use blobseer_util::FxHashMap;

/// Enumerate every missing child of every border node of a write of
/// `seg` — the intervals the new tree must link to older versions — in
/// `O(tree_height · ARITY)`. The order is part of the protocol: a
/// [`WriteTicket`] carries one version per interval, in this order.
///
/// Walks only partially-covered intervals: a fully-covered subtree cannot
/// contain border nodes, and an untouched subtree is not created at all.
pub fn border_specs(geom: &Geometry, seg: &Segment) -> Vec<Segment> {
    let mut out = Vec::new();
    if seg.is_empty() {
        return out;
    }
    let mut stack = vec![geom.full_segment()];
    while let Some(iv) = stack.pop() {
        if iv.size == geom.page_size || seg.contains(&iv) || !iv.intersects(seg) {
            continue;
        }
        let size = geom.child_size(iv.size);
        let touched = touched_children(iv, size, seg);
        for (i, child) in (0u64..).zip(children(geom, iv)) {
            if !touched.contains(&i) {
                out.push(child);
            } else if !seg.contains(&child) {
                // Only partially-covered children can host further
                // border nodes: at most the first and the last.
                stack.push(child);
            }
        }
    }
    out
}

/// Build the complete batch of new tree nodes for a write: the leaf
/// phase ([`weave_leaves`]) then the inner phase ([`weave_inner`]).
///
/// * `pages` — the page locators, one per written page in ascending page
///   order (produced from the provider manager's
///   [`WritePlan`](blobseer_proto::messages::WritePlan)).
/// * `ticket` — the version manager's answer carrying the assigned version
///   and the border links.
///
/// Returns the nodes in pre-order (root first). Fails if the ticket does
/// not carry one border link per missing child of `seg`'s border nodes —
/// that would mean the version manager and client disagree on geometry.
pub fn build_write_tree(
    geom: &Geometry,
    blob: BlobId,
    seg: &Segment,
    pages: &[PageLoc],
    ticket: &WriteTicket,
) -> Result<Vec<TreeNode>, BlobError> {
    weave_inner(geom, seg, weave_leaves(geom, blob, seg, pages)?, ticket)
}

/// A write's new nodes before its ticket, in pre-order: the leaves are
/// woven; every key's version and the inner nodes' child versions wait
/// for the ticket, whose border links pair with `specs`.
pub struct LeafWeave {
    nodes: Vec<TreeNode>,
    specs: Vec<Segment>,
}

/// The leaf phase of the weave. A leaf names its page's replicas and
/// nothing else, so this needs only the page locators: a writer runs it
/// while its version request is in flight, and enumerates the border
/// children the ticket's links will name then too.
pub fn weave_leaves(
    geom: &Geometry,
    blob: BlobId,
    seg: &Segment,
    pages: &[PageLoc],
) -> Result<LeafWeave, BlobError> {
    let first_page = geom.page_of(seg.offset);
    let expected_pages = geom.pages_touching(seg).count();
    if pages.len() as u64 != expected_pages {
        return Err(BlobError::Internal("page locator count mismatch"));
    }
    // What an inner node holds until the inner phase links its children.
    let unlinked = ChildVersions::new(&[0, 0]).ok_or(BlobError::Internal("unlinked node"))?;
    let intervals = write_intervals(geom, seg);
    let mut nodes = Vec::with_capacity(intervals.len());
    for iv in intervals {
        let key = NodeKey {
            blob,
            version: 0,
            offset: iv.offset,
            size: iv.size,
        };
        let body = if iv.size == geom.page_size {
            let idx = geom.page_of(iv.offset) - first_page;
            NodeBody::Leaf {
                page: pages[idx as usize].clone(),
            }
        } else {
            NodeBody::Inner {
                children: unlinked.clone(),
            }
        };
        nodes.push(TreeNode { key, body });
    }
    Ok(LeafWeave {
        nodes,
        specs: border_specs(geom, seg),
    })
}

/// The inner phase of the weave, in place: the ticket's version on every
/// key, and each inner node's child versions — the ticket's version
/// where the write covers the child, its border link where it does not.
/// The ticket's links pair, in order, with the border children the leaf
/// phase enumerated; a ticket with another count is refused.
pub fn weave_inner(
    geom: &Geometry,
    seg: &Segment,
    leaves: LeafWeave,
    ticket: &WriteTicket,
) -> Result<Vec<TreeNode>, BlobError> {
    let v = ticket.version;
    if ticket.borders.len() != leaves.specs.len() {
        return Err(BlobError::Internal("border link count mismatch"));
    }
    let links: FxHashMap<(u64, u64), Version> = leaves
        .specs
        .iter()
        .zip(&ticket.borders)
        .map(|(child, &version)| ((child.offset, child.size), version))
        .collect();

    let mut nodes = leaves.nodes;
    // One scratch buffer for every inner node's child versions.
    let mut versions = Vec::with_capacity(Geometry::ARITY as usize);
    for node in &mut nodes {
        node.key.version = v;
        let NodeBody::Inner { children: linked } = &mut node.body else {
            continue;
        };
        versions.clear();
        for child in children(geom, Segment::new(node.key.offset, node.key.size)) {
            versions.push(if child.intersects(seg) {
                v
            } else {
                *links
                    .get(&(child.offset, child.size))
                    .ok_or(BlobError::Internal("missing border link"))?
            });
        }
        *linked = ChildVersions::new(&versions)
            .ok_or(BlobError::Internal("inner node fan-out out of range"))?;
    }
    Ok(nodes)
}

/// Convert border specs plus a `latest intersecting writer` oracle into
/// a ticket's border links, one version per spec in spec order. The
/// oracle is the version manager's version index
/// (`IntervalMap::range_max`); `None` means nothing wrote the interval
/// yet, which links to the implicit all-zero version 0.
pub fn borders_to_links(
    specs: &[Segment],
    mut latest_writer: impl FnMut(Segment) -> Option<Version>,
) -> Vec<Version> {
    specs
        .iter()
        .map(|&child| latest_writer(child).unwrap_or(0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_proto::tree::PageKey;
    use blobseer_proto::{ProviderId, WriteId};

    /// The paper's Figure 2 blob: 4 pages of 1 KiB — on the 32-way tree,
    /// one root over 4 leaves.
    fn geom_4_pages() -> Geometry {
        Geometry::new(4096, 1024).unwrap()
    }

    fn loc(i: u64) -> PageLoc {
        PageLoc {
            key: PageKey {
                blob: BlobId(1),
                write: WriteId(9),
                index: i,
            },
            replicas: vec![ProviderId(0)],
        }
    }

    fn inner(versions: &[Version]) -> NodeBody {
        NodeBody::Inner {
            children: ChildVersions::new(versions).unwrap(),
        }
    }

    fn pages(n: u64) -> Segment {
        Segment::new(n * 1024, 1024)
    }

    #[test]
    fn border_specs_full_write_has_none() {
        let g = geom_4_pages();
        assert!(border_specs(&g, &g.full_segment()).is_empty());
        assert!(border_specs(&g, &Segment::new(0, 0)).is_empty());
    }

    #[test]
    fn border_specs_single_page() {
        // Write page 1 (paper Figure 2(b), version 2 = grey): the root is
        // the only border node and misses pages 0, 2 and 3.
        let g = geom_4_pages();
        let specs = border_specs(&g, &pages(1));
        assert_eq!(specs, vec![pages(0), pages(2), pages(3)]);
    }

    #[test]
    fn border_specs_straddling_write() {
        // 1,024 pages of 1 KiB: root over 32 thirty-two-page nodes.
        // Pages 30..34 straddle nodes 0 and 1: each is a border node, and
        // the root misses the 30 nodes the write does not touch.
        let g = Geometry::new(1024 * 1024, 1024).unwrap();
        let mut specs = border_specs(&g, &Segment::new(30 * 1024, 4 * 1024));
        specs.sort_by_key(|s| s.offset);
        let mut expected: Vec<Segment> = (0..30).map(pages).collect();
        expected.extend((34..64).map(pages));
        expected.extend((2..32).map(|i| Segment::new(i * 32 * 1024, 32 * 1024)));
        expected.sort_by_key(|s| s.offset);
        assert_eq!(specs, expected);
    }

    #[test]
    fn border_count_is_logarithmic() {
        let g = Geometry::new(1 << 30, 4096).unwrap(); // 2^18 pages
        let seg = Segment::new(4096 * 12345, 4096 * 1000);
        let specs = border_specs(&g, &seg);
        // At most two border nodes per level, each missing at most
        // ARITY − 1 children.
        assert!(
            specs.len() as u64 <= 2 * (Geometry::ARITY - 1) * u64::from(g.tree_height()),
            "{} borders for height {}",
            specs.len(),
            g.tree_height()
        );
        // The missing children and the (aligned) write tile the blob.
        assert!(specs.iter().all(|s| !s.intersects(&seg)));
        let missing: u64 = specs.iter().map(|s| s.size).sum();
        assert_eq!(missing + seg.size, g.total_size);
    }

    #[test]
    fn weaving_matches_paper_figure2() {
        let g = geom_4_pages();
        let blob = BlobId(1);

        // Version 1 (white): full write — no borders. Root A1 over the
        // four leaves D1..G1.
        let t1 = WriteTicket {
            version: 1,
            borders: vec![],
        };
        let full = g.full_segment();
        let n1 = build_write_tree(&g, blob, &full, &[loc(0), loc(1), loc(2), loc(3)], &t1).unwrap();
        assert_eq!(n1.len(), 5);
        assert_eq!(n1[0].body, inner(&[1, 1, 1, 1]));

        // Version 2 (grey) writes page 1. The paper links B2's missing
        // child to D1 and A2's to C1; with no middle level, A2 links
        // pages 0, 2, 3 to version 1 directly.
        let seg2 = pages(1);
        let links = borders_to_links(&border_specs(&g, &seg2), |_child| Some(1));
        let t2 = WriteTicket {
            version: 2,
            borders: links,
        };
        let n2 = build_write_tree(&g, blob, &seg2, &[loc(1)], &t2).unwrap();
        assert_eq!(n2.len(), 2);
        assert_eq!(n2[0].key.size, 4096);
        assert_eq!(n2[0].body, inner(&[1, 2, 1, 1]));
        assert!(matches!(n2[1].body, NodeBody::Leaf { .. }));

        // Version 3 (black) writes page 2: page 1 links to E2 (v2 wrote
        // it), pages 0 and 3 to version 1.
        let seg3 = pages(2);
        let links = borders_to_links(&border_specs(&g, &seg3), |child| {
            Some(if child == pages(1) { 2 } else { 1 })
        });
        let t3 = WriteTicket {
            version: 3,
            borders: links,
        };
        let n3 = build_write_tree(&g, blob, &seg3, &[loc(2)], &t3).unwrap();
        assert_eq!(n3.len(), 2);
        assert_eq!(n3[0].body, inner(&[1, 2, 3, 1]));
    }

    #[test]
    fn first_write_links_to_zero_version() {
        // Writing page 0 of a fresh 64-page blob (root of 2 over 32-page
        // nodes): every missing child links to the implicit version 0.
        let g = Geometry::new(64 * 1024, 1024).unwrap();
        let seg = pages(0);
        let links = borders_to_links(&border_specs(&g, &seg), |_child| None);
        assert_eq!(links.len(), 1 + 31);
        assert!(links.iter().all(|&l| l == 0));
        let t = WriteTicket {
            version: 1,
            borders: links,
        };
        let nodes = build_write_tree(&g, BlobId(1), &seg, &[loc(0)], &t).unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[0].body, inner(&[1, 0]));
        let mut mid = [0; 32];
        mid[0] = 1;
        assert_eq!(nodes[1].body, inner(&mid));
    }

    #[test]
    fn build_rejects_wrong_page_count() {
        let g = geom_4_pages();
        let t = WriteTicket {
            version: 1,
            borders: vec![],
        };
        let err = build_write_tree(&g, BlobId(1), &g.full_segment(), &[loc(0)], &t);
        assert!(err.is_err());
    }

    #[test]
    fn build_rejects_missing_border_link() {
        let g = geom_4_pages();
        // Write page 1 but hand a ticket missing page 3's link, or with
        // one link too many: the links no longer pair with the specs.
        let links = borders_to_links(&border_specs(&g, &pages(1)), |_| Some(1));
        for borders in [links[..2].to_vec(), [&links[..], &[1]].concat()] {
            let t = WriteTicket {
                version: 2,
                borders,
            };
            let err = build_write_tree(&g, BlobId(1), &pages(1), &[loc(1)], &t);
            assert!(matches!(
                err,
                Err(BlobError::Internal("border link count mismatch"))
            ));
        }
    }

    #[test]
    fn single_page_blob_write() {
        // Degenerate geometry: the root is the only (leaf) node.
        let g = Geometry::new(1024, 1024).unwrap();
        let t = WriteTicket {
            version: 1,
            borders: vec![],
        };
        let nodes = build_write_tree(&g, BlobId(1), &g.full_segment(), &[loc(0)], &t).unwrap();
        assert_eq!(nodes.len(), 1);
        assert!(matches!(nodes[0].body, NodeBody::Leaf { .. }));
    }
}
