//! Property tests: the segment-tree engine against a flat snapshot model.
//!
//! This is the paper's core correctness claim — "all READ operations on
//! the same version v and same offset and size will yield the same
//! substring ... obtained by successively applying the first v patches to
//! the initial string" (global serializability, §II) — checked over random
//! write sequences, on every root shape the 32-way tree has: a leaf root
//! (1 page) and roots of fan-out 2, 4, 8, 16 and 32 with one or two
//! inner levels (2^1 … 2^10 pages). The geometry is a generated input.

use blobseer_meta::read::{assemble_read, expand, root_key, Visit};
use blobseer_meta::write::{border_specs, borders_to_links, build_write_tree};
use blobseer_meta::ReferenceStore;
use blobseer_proto::messages::WriteTicket;
use blobseer_proto::tree::{NodeBody, NodeKey, PageKey, PageLoc};
use blobseer_proto::{BlobError, BlobId, Geometry, PageBuf, ProviderId, Segment, WriteId};
use blobseer_util::{FxHashMap, IntervalMap};
use proptest::prelude::*;

const PAGE: u64 = 64;

/// One blob of `2^k` pages, `k` in `0..=10`.
fn geometry_strategy() -> impl Strategy<Value = Geometry> {
    (0u32..=10).prop_map(|k| Geometry::new(PAGE << k, PAGE).unwrap())
}

/// Raw draws, mapped onto a segment of the generated geometry in the
/// test body (the strategy cannot depend on another generated input).
fn raw_segment() -> impl Strategy<Value = (u64, u64)> {
    (any::<u64>(), any::<u64>())
}

/// A page-aligned segment of `geom` from two raw draws.
fn aligned(geom: &Geometry, (a, b): (u64, u64)) -> Segment {
    let pages = geom.page_count();
    let start = a % pages;
    let len = 1 + b % (pages - start);
    Segment::new(start * PAGE, len * PAGE)
}

/// An arbitrary (possibly unaligned) non-empty segment of `geom`.
fn unaligned(geom: &Geometry, (a, b): (u64, u64)) -> Segment {
    let total = geom.total_size;
    let off = a % total;
    let len = 1 + b % (total - off);
    Segment::new(off, len)
}

/// Distinct bytes per write, so aliasing bugs cannot hide.
fn pattern(seg: Segment, fill: u8, i: usize) -> Vec<u8> {
    (0..seg.size)
        .map(|j| fill.wrapping_add(j as u8).wrapping_add(i as u8))
        .collect()
}

/// Flat model: a snapshot of the whole string per version.
struct FlatModel {
    snapshots: Vec<Vec<u8>>,
}

impl FlatModel {
    fn new(geom: &Geometry) -> Self {
        Self {
            snapshots: vec![vec![0u8; geom.total_size as usize]],
        }
    }

    fn write(&mut self, seg: Segment, data: &[u8]) {
        let mut next = self.snapshots.last().unwrap().clone();
        next[seg.offset as usize..seg.end() as usize].copy_from_slice(data);
        self.snapshots.push(next);
    }

    fn read(&self, v: u64, seg: Segment) -> &[u8] {
        &self.snapshots[v as usize][seg.offset as usize..seg.end() as usize]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_version_matches_flat_model(
        geom in geometry_strategy(),
        writes in proptest::collection::vec((raw_segment(), any::<u8>()), 1..24),
        reads in proptest::collection::vec((0usize..24, raw_segment()), 1..32),
    ) {
        let mut store = ReferenceStore::new(geom);
        let mut model = FlatModel::new(&geom);

        for (i, (raw, fill)) in writes.iter().enumerate() {
            let seg = aligned(&geom, *raw);
            let data = pattern(seg, *fill, i);
            let v = store.write(seg, &data).unwrap();
            model.write(seg, &data);
            prop_assert_eq!(v, (i + 1) as u64, "versions must be dense");
        }

        // Full-blob check of every version (snapshot isolation).
        let full = geom.full_segment();
        for v in 0..=writes.len() as u64 {
            let got = store.read(v, full).unwrap();
            prop_assert_eq!(&got[..], model.read(v, full));
        }

        // Random fine-grain (possibly unaligned) reads at random versions.
        for (vi, raw) in reads {
            let v = (vi as u64) % (writes.len() as u64 + 1);
            let seg = unaligned(&geom, raw);
            let got = store.read(v, seg).unwrap();
            prop_assert_eq!(&got[..], model.read(v, seg));
        }
    }

    #[test]
    fn unaligned_writes_match_flat_model(
        geom in geometry_strategy(),
        writes in proptest::collection::vec((raw_segment(), any::<u8>()), 1..16),
    ) {
        let mut store = ReferenceStore::new(geom);
        let mut model = FlatModel::new(&geom);
        for (raw, fill) in &writes {
            let seg = unaligned(&geom, *raw);
            let data = vec![*fill; seg.size as usize];
            store.write_unaligned(seg, &data).unwrap();
            // The RMW write enlarges the physical segment, but the logical
            // effect on the latest snapshot is exactly the user's patch.
            model.write(seg, &data);
        }
        let latest = store.latest();
        let got = store.read(latest, geom.full_segment()).unwrap();
        prop_assert_eq!(&got[..], model.snapshots.last().unwrap().as_slice());
    }

    #[test]
    fn gc_preserves_kept_versions(
        geom in geometry_strategy(),
        writes in proptest::collection::vec((raw_segment(), any::<u8>()), 2..16),
        keep_quantile in 0.0f64..=1.0,
    ) {
        let mut store = ReferenceStore::new(geom);
        let mut model = FlatModel::new(&geom);
        for (i, (raw, fill)) in writes.iter().enumerate() {
            let seg = aligned(&geom, *raw);
            let data = pattern(seg, *fill, i);
            store.write(seg, &data).unwrap();
            model.write(seg, &data);
        }
        let latest = store.latest();
        let keep_from = 1 + ((latest - 1) as f64 * keep_quantile) as u64;
        store.gc(keep_from);
        // Every kept version must read back exactly.
        let full = geom.full_segment();
        for v in keep_from..=latest {
            let got = store.read(v, full).unwrap();
            prop_assert_eq!(&got[..], model.read(v, full), "version {}", v);
        }
    }

    #[test]
    fn structural_sharing_node_count_is_exact(
        geom in geometry_strategy(),
        writes in proptest::collection::vec((raw_segment(), any::<u8>()), 1..16),
    ) {
        // The number of stored nodes must equal the sum over writes of the
        // analytic per-write node count — i.e., perfect sharing, zero
        // duplication (keys are (version, interval): unique per write).
        let mut store = ReferenceStore::new(geom);
        let mut expected = 0u64;
        for (raw, fill) in &writes {
            let seg = aligned(&geom, *raw);
            store.write(seg, &vec![*fill; seg.size as usize]).unwrap();
            expected += blobseer_meta::node_count_for_write(&geom, &seg);
        }
        prop_assert_eq!(store.node_count() as u64, expected);
    }

    #[test]
    fn in_flight_tickets_publish_out_of_order(
        geom in geometry_strategy(),
        writes in proptest::collection::vec((raw_segment(), any::<u8>(), any::<u64>()), 2..12),
    ) {
        // Every ticket is granted before any write publishes, so border
        // links point at versions still in flight; the writes then land
        // in a random order. Whenever the published frontier advances,
        // every version up to it must read exactly as the flat model —
        // the 32-way generalization of the version manager's
        // `border_links_see_in_flight_writes`.
        let blob = BlobId(1);
        let mut model = FlatModel::new(&geom);
        let mut index: IntervalMap<u64> = IntervalMap::new();
        let mut pages: FxHashMap<PageKey, PageBuf> = FxHashMap::default();
        let mut trees = Vec::new();
        for (i, (raw, fill, _)) in writes.iter().enumerate() {
            let v = (i + 1) as u64;
            let seg = aligned(&geom, *raw);
            let data = pattern(seg, *fill, i);
            model.write(seg, &data);
            // The version manager's critical section: links from the
            // index as of every earlier *assignment*, then assign.
            let links = borders_to_links(&border_specs(&geom, &seg), |child| {
                index.range_max(child.offset, child.end())
            });
            index.assign(seg.offset, seg.end(), v);
            let locs: Vec<PageLoc> = geom
                .pages_touching(&seg)
                .iter()
                .enumerate()
                .map(|(j, index)| {
                    let key = PageKey { blob, write: WriteId(v), index };
                    let at = j * PAGE as usize;
                    pages.insert(key, PageBuf::from_vec(data[at..at + PAGE as usize].to_vec()));
                    PageLoc { key, replicas: vec![ProviderId(0)] }
                })
                .collect();
            let ticket = WriteTicket { version: v, borders: links };
            trees.push(build_write_tree(&geom, blob, &seg, &locs, &ticket).unwrap());
        }

        let mut order: Vec<usize> = (0..writes.len()).collect();
        order.sort_by_key(|&i| writes[i].2);
        let mut nodes: FxHashMap<NodeKey, NodeBody> = FxHashMap::default();
        let mut done = vec![false; writes.len()];
        let mut frontier = 0;
        for i in order {
            for n in &trees[i] {
                nodes.insert(n.key, n.body.clone());
            }
            done[i] = true;
            while frontier < done.len() && done[frontier] {
                frontier += 1;
                let v = frontier as u64;
                let got = read_tree(&geom, &nodes, &pages, v).unwrap();
                prop_assert_eq!(&got[..], model.read(v, geom.full_segment()), "version {}", v);
            }
        }
        prop_assert_eq!(frontier, writes.len());
    }
}

/// The client's descent over a bare node map: every node a version's
/// tree reaches must already be stored.
fn read_tree(
    geom: &Geometry,
    nodes: &FxHashMap<NodeKey, NodeBody>,
    pages: &FxHashMap<PageKey, PageBuf>,
    v: u64,
) -> Result<Vec<u8>, BlobError> {
    let seg = geom.full_segment();
    let mut frontier = vec![root_key(geom, BlobId(1), v)];
    let mut zeros = Vec::new();
    let mut hits = Vec::new();
    while let Some(key) = frontier.pop() {
        let body = nodes.get(&key).ok_or(BlobError::MissingMetadata {
            blob: key.blob,
            version: key.version,
        })?;
        for visit in expand(geom, &key, body, &seg)? {
            match visit {
                Visit::Descend(k) => frontier.push(k),
                Visit::Zeros(z) => zeros.push(z),
                Visit::Page { page, blob_range } => {
                    let data = pages[&page.key].clone();
                    hits.push((page, blob_range, data));
                }
            }
        }
    }
    assemble_read(geom, &seg, &zeros, &hits)
}

#[test]
fn generated_geometries_cover_every_root_shape() {
    // The strategy's domain: a leaf root and roots of fan-out 2, 4, 8,
    // 16 and 32, over 1 or 2 levels above the leaves.
    let mut shapes = std::collections::BTreeSet::new();
    for k in 0..=10u32 {
        let g = Geometry::new(PAGE << k, PAGE).unwrap();
        let fanout = if k == 0 {
            1
        } else {
            g.total_size / g.child_size(g.total_size)
        };
        shapes.insert((fanout, g.tree_height() + 1));
    }
    let fanouts: std::collections::BTreeSet<u64> = shapes.iter().map(|s| s.0).collect();
    let levels: std::collections::BTreeSet<u32> = shapes.iter().map(|s| s.1).collect();
    assert_eq!(
        fanouts.into_iter().collect::<Vec<_>>(),
        vec![1, 2, 4, 8, 16, 32]
    );
    assert_eq!(levels.into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
    // Both inner levels take every fan-out: 2^1 … 2^5 and 2^6 … 2^10.
    assert_eq!(shapes.len(), 11);
}
