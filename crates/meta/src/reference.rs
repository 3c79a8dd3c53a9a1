//! A single-process, in-memory reference implementation of the blob
//! engine, built directly on the pure tree algorithms.
//!
//! This serves three purposes:
//!
//! 1. **Correctness oracle** — property tests across the workspace compare
//!    the distributed implementation against this one and against a flat
//!    reference string.
//! 2. **Embedded mode** — users who want BlobSeer's versioned-snapshot
//!    semantics without a cluster can use it directly.
//! 3. **Executable specification** — the write/read cycle here is the
//!    paper's protocol with every network hop replaced by a map access,
//!    which makes the algorithmic story easy to follow.
//!
//! It is intentionally not thread-safe; the distributed engine in
//! `blobseer-core` is where concurrency lives.

use crate::read::{assemble_read, expand, root_key, Visit};
use crate::write::{border_specs, borders_to_links, build_write_tree};
use blobseer_proto::messages::WriteTicket;
use blobseer_proto::tree::{NodeBody, NodeKey, PageKey, PageLoc};
use blobseer_proto::{BlobError, BlobId, Geometry, ProviderId, Segment, Version, WriteId};
use blobseer_util::{FxHashMap, IntervalMap, PageBuf};

/// In-memory reference blob store (single blob, single thread).
pub struct ReferenceStore {
    geom: Geometry,
    blob: BlobId,
    nodes: FxHashMap<NodeKey, NodeBody>,
    pages: FxHashMap<PageKey, PageBuf>,
    index: IntervalMap<Version>,
    /// `history[v - 1]` = segment written by version `v`.
    history: Vec<Segment>,
    next_write: u64,
}

impl ReferenceStore {
    /// Create an empty store (everything reads as zeros at version 0).
    pub fn new(geom: Geometry) -> Self {
        Self {
            geom,
            blob: BlobId(1),
            nodes: FxHashMap::default(),
            pages: FxHashMap::default(),
            index: IntervalMap::new(),
            history: Vec::new(),
            next_write: 1,
        }
    }

    /// The blob's geometry.
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Latest published version (0 = pristine all-zero blob).
    pub fn latest(&self) -> Version {
        self.history.len() as Version
    }

    /// Number of stored tree nodes (for sharing/GC assertions).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of stored pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// `WRITE(id, buffer, offset, size)` — page-aligned fast path.
    ///
    /// Returns the new version number, exactly like the paper's `vw`.
    pub fn write(&mut self, seg: Segment, data: &[u8]) -> Result<Version, BlobError> {
        let pages = self.geom.validate_aligned(&seg)?;
        if data.len() as u64 != seg.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "buffer size mismatch",
            });
        }
        // Phase 1 (paper §III.B): store the pages under a fresh write id.
        let write_id = WriteId(self.next_write);
        self.next_write += 1;
        // One copy of the caller's buffer; every page is an O(1) slice of
        // that single allocation.
        let buf = PageBuf::copy_from_slice(data);
        let mut locs = Vec::with_capacity(pages.count() as usize);
        for (i, page_idx) in pages.iter().enumerate() {
            let key = PageKey {
                blob: self.blob,
                write: write_id,
                index: page_idx,
            };
            let start = i * self.geom.page_size as usize;
            let end = start + self.geom.page_size as usize;
            self.pages.insert(key, buf.slice(start..end));
            locs.push(PageLoc {
                key,
                replicas: vec![ProviderId(0)],
            });
        }
        // Phase 2: version assignment + border links (the version manager's
        // role, played here by the local version index).
        let version = self.latest() + 1;
        let specs = border_specs(&self.geom, &seg);
        let links = borders_to_links(&specs, |child| {
            self.index.range_max(child.offset, child.end())
        });
        let ticket = WriteTicket {
            version,
            borders: links,
        };
        // Phase 3: build and store the metadata tree.
        let nodes = build_write_tree(&self.geom, self.blob, &seg, &locs, &ticket)?;
        for n in nodes {
            self.nodes.insert(n.key, n.body);
        }
        // Phase 4: publish.
        self.index.assign(seg.offset, seg.end(), version);
        self.history.push(seg);
        Ok(version)
    }

    /// `WRITE` for arbitrary (unaligned) segments: read-modify-write of the
    /// boundary pages against the latest published version.
    pub fn write_unaligned(&mut self, seg: Segment, data: &[u8]) -> Result<Version, BlobError> {
        self.geom.validate_bounds(&seg)?;
        if data.len() as u64 != seg.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "buffer size mismatch",
            });
        }
        let envelope = crate::shape::align_to_pages(&self.geom, &seg);
        if envelope == seg {
            return self.write(seg, data);
        }
        let mut buf = self.read(self.latest(), envelope)?;
        let start = (seg.offset - envelope.offset) as usize;
        // lint: allow(unmetered-copy) — single-process reference oracle; the
        // distributed engine is the metered data path
        buf[start..start + data.len()].copy_from_slice(data);
        self.write(envelope, &buf)
    }

    /// `READ(id, v, buffer, offset, size)` — returns the bytes of segment
    /// `seg` at version `v`. Unaligned segments are allowed (the traversal
    /// clips at leaves).
    pub fn read(&self, v: Version, seg: Segment) -> Result<Vec<u8>, BlobError> {
        self.geom.validate_bounds(&seg)?;
        if v > self.latest() {
            return Err(BlobError::VersionNotPublished {
                requested: v,
                latest: self.latest(),
            });
        }
        if v == 0 {
            return Ok(vec![0u8; seg.size as usize]);
        }
        let mut frontier = vec![root_key(&self.geom, self.blob, v)];
        let mut zeros = Vec::new();
        let mut hits = Vec::new();
        while let Some(key) = frontier.pop() {
            let body = self.nodes.get(&key).ok_or(BlobError::MissingMetadata {
                blob: key.blob,
                version: key.version,
            })?;
            for visit in expand(&self.geom, &key, body, &seg)? {
                match visit {
                    Visit::Descend(k) => frontier.push(k),
                    Visit::Zeros(z) => zeros.push(z),
                    Visit::Page { page, blob_range } => {
                        let data = self
                            .pages
                            .get(&page.key)
                            .ok_or(BlobError::MissingPage {
                                tried: page.replicas.clone(),
                            })?
                            .clone();
                        hits.push((page, blob_range, data));
                    }
                }
            }
        }
        assemble_read(&self.geom, &seg, &zeros, &hits)
    }

    /// Garbage-collect: drop everything unreachable from versions
    /// `>= keep_from`. Returns `(nodes_removed, pages_removed)`.
    ///
    /// Rule: node `(I, w)` with `w < keep_from` is garbage
    /// iff some write in `(w, keep_from]` intersects `I` — equivalently
    /// `range_max(index at keep_from, I) > w`, where the index-at-K is
    /// reconstructed from history.
    pub fn gc(&mut self, keep_from: Version) -> (usize, usize) {
        let keep_from = keep_from.min(self.latest());
        if keep_from <= 1 {
            return (0, 0);
        }
        // Version index truncated at keep_from.
        let mut at_k: IntervalMap<Version> = IntervalMap::new();
        for (i, seg) in self.history.iter().enumerate().take(keep_from as usize) {
            at_k.assign(seg.offset, seg.end(), (i + 1) as Version);
        }
        let mut dead_nodes = Vec::new();
        for key in self.nodes.keys() {
            if key.version >= keep_from {
                continue;
            }
            if at_k
                .range_max(key.offset, key.offset + key.size)
                .unwrap_or(0)
                > key.version
            {
                dead_nodes.push(*key);
            }
        }
        // A page is dead iff its leaf is dead; collect page keys from dead
        // leaves before removing nodes.
        let mut dead_pages = Vec::new();
        for key in &dead_nodes {
            if key.size == self.geom.page_size {
                if let Some(NodeBody::Leaf { page }) = self.nodes.get(key) {
                    dead_pages.push(page.key);
                }
            }
        }
        for key in &dead_nodes {
            self.nodes.remove(key);
        }
        for pk in &dead_pages {
            self.pages.remove(pk);
        }
        (dead_nodes.len(), dead_pages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(8192, 1024).unwrap() // 8 pages
    }

    fn seg(offset: u64, size: u64) -> Segment {
        Segment::new(offset, size)
    }

    #[test]
    fn fresh_blob_reads_zeros() {
        let store = ReferenceStore::new(geom());
        assert_eq!(store.latest(), 0);
        let buf = store.read(0, seg(0, 8192)).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_unpublished_version_fails() {
        let store = ReferenceStore::new(geom());
        let err = store.read(1, seg(0, 1024)).unwrap_err();
        assert!(matches!(
            err,
            BlobError::VersionNotPublished {
                requested: 1,
                latest: 0
            }
        ));
    }

    #[test]
    fn write_then_read_back() {
        let mut store = ReferenceStore::new(geom());
        let data = vec![0xabu8; 2048];
        let v = store.write(seg(1024, 2048), &data).unwrap();
        assert_eq!(v, 1);
        assert_eq!(store.read(1, seg(1024, 2048)).unwrap(), data);
        // Rest of the blob is still zeros.
        assert!(store.read(1, seg(0, 1024)).unwrap().iter().all(|&b| b == 0));
        assert!(store
            .read(1, seg(4096, 4096))
            .unwrap()
            .iter()
            .all(|&b| b == 0));
    }

    #[test]
    fn versions_are_snapshots() {
        let mut store = ReferenceStore::new(geom());
        store.write(seg(0, 1024), &[1u8; 1024]).unwrap();
        store.write(seg(0, 1024), &[2u8; 1024]).unwrap();
        store.write(seg(1024, 1024), &[3u8; 1024]).unwrap();
        // v1 still shows the original write.
        assert_eq!(store.read(1, seg(0, 1024)).unwrap(), vec![1u8; 1024]);
        assert_eq!(store.read(2, seg(0, 1024)).unwrap(), vec![2u8; 1024]);
        // v3 = v2's page 0 + new page 1.
        assert_eq!(store.read(3, seg(0, 1024)).unwrap(), vec![2u8; 1024]);
        assert_eq!(store.read(3, seg(1024, 1024)).unwrap(), vec![3u8; 1024]);
        // v2's page 1 is still zeros.
        assert_eq!(store.read(2, seg(1024, 1024)).unwrap(), vec![0u8; 1024]);
    }

    #[test]
    fn unaligned_reads() {
        let mut store = ReferenceStore::new(geom());
        let data: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        store.write(seg(1024, 2048), &data).unwrap();
        let got = store.read(1, seg(1500, 1000)).unwrap();
        assert_eq!(&got[..], &data[476..1476]);
        // Straddling written and zero space.
        let got = store.read(1, seg(3000, 500)).unwrap();
        assert_eq!(&got[..72], &data[1976..]);
        assert!(got[72..].iter().all(|&b| b == 0));
    }

    #[test]
    fn unaligned_write_rmw() {
        let mut store = ReferenceStore::new(geom());
        store.write(seg(0, 2048), &[7u8; 2048]).unwrap();
        let v = store.write_unaligned(seg(100, 50), &[9u8; 50]).unwrap();
        assert_eq!(v, 2);
        let buf = store.read(2, seg(0, 2048)).unwrap();
        assert!(buf[..100].iter().all(|&b| b == 7));
        assert!(buf[100..150].iter().all(|&b| b == 9));
        assert!(buf[150..].iter().all(|&b| b == 7));
        // v1 untouched.
        assert!(store.read(1, seg(0, 2048)).unwrap().iter().all(|&b| b == 7));
    }

    #[test]
    fn rejects_bad_segments() {
        let mut store = ReferenceStore::new(geom());
        assert!(store.write(seg(100, 1024), &[0u8; 1024]).is_err());
        assert!(store.write(seg(0, 100), &[0u8; 100]).is_err());
        assert!(store.write(seg(0, 1024), &[0u8; 512]).is_err());
        assert!(store.read(0, seg(8192, 1)).is_err());
    }

    #[test]
    fn structural_sharing_bounds_node_growth() {
        let mut store = ReferenceStore::new(geom());
        store.write(seg(0, 8192), &[1u8; 8192]).unwrap();
        let full_tree = store.node_count(); // a root over 8 leaves
        assert_eq!(full_tree, 9);
        store.write(seg(0, 1024), &[2u8; 1024]).unwrap();
        // One-page write adds height+1 = 2 nodes, not a whole tree.
        assert_eq!(store.node_count(), full_tree + 2);
    }

    #[test]
    fn gc_removes_only_unreachable() {
        let mut store = ReferenceStore::new(geom());
        store.write(seg(0, 8192), &[1u8; 8192]).unwrap(); // v1
        store.write(seg(0, 1024), &[2u8; 1024]).unwrap(); // v2
        store.write(seg(0, 1024), &[3u8; 1024]).unwrap(); // v3
        let before_pages = store.page_count();
        // Keep v3 and later: v2's page-0 chain and v1's page-0 leaf die;
        // v1's pages 1..8 survive (still visible from v3).
        let (nodes_gone, pages_gone) = store.gc(3);
        assert!(nodes_gone > 0);
        assert_eq!(pages_gone, 2, "page 0 of v1 and of v2");
        assert_eq!(store.page_count(), before_pages - 2);
        // v3 still fully readable.
        assert_eq!(store.read(3, seg(0, 1024)).unwrap(), vec![3u8; 1024]);
        assert_eq!(store.read(3, seg(1024, 7168)).unwrap(), vec![1u8; 7168]);
        // v1/v2 are now (legitimately) partially collected; reading page 0
        // at v2 must fail with missing metadata.
        assert!(store.read(2, seg(0, 1024)).is_err());
    }

    #[test]
    fn gc_noop_cases() {
        let mut store = ReferenceStore::new(geom());
        assert_eq!(store.gc(5), (0, 0), "empty store");
        store.write(seg(0, 1024), &[1u8; 1024]).unwrap();
        assert_eq!(store.gc(1), (0, 0), "keep everything");
        // keep_from beyond latest clamps.
        let (n, p) = store.gc(99);
        assert_eq!((n, p), (0, 0));
    }

    #[test]
    fn single_page_blob() {
        let mut store = ReferenceStore::new(Geometry::new(1024, 1024).unwrap());
        store.write(seg(0, 1024), &[5u8; 1024]).unwrap();
        assert_eq!(store.read(1, seg(0, 1024)).unwrap(), vec![5u8; 1024]);
        store.write(seg(0, 1024), &[6u8; 1024]).unwrap();
        assert_eq!(store.read(1, seg(0, 1024)).unwrap(), vec![5u8; 1024]);
        assert_eq!(store.read(2, seg(0, 1024)).unwrap(), vec![6u8; 1024]);
    }
}
