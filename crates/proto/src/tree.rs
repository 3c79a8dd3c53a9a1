//! Metadata-tree node types (paper §III.C).
//!
//! Metadata is organized as a *distributed segment tree*, one per blob
//! version: a tree whose root covers the whole blob and whose leaves
//! cover single pages. A node is identified by
//! `(blob, version, offset, size)` and its body is **immutable once
//! written** — the property that makes lock-free concurrent sharing and
//! unbounded client-side caching sound.
//!
//! ## Thirty-two children, not two
//!
//! The paper's tree is binary (arity k = 2): a node of size `s` has two
//! children of `s / 2`. Ours runs the same algorithm with
//! [`Geometry::ARITY`] = 32. Levels are sized from the leaves up — a node
//! of `page · 32^j` bytes has 32 children of `page · 32^(j−1)` — so every
//! interval is still a size-aligned power of two, and only the root's
//! fan-out (2 to 32) depends on the page count. The reason is depth: a
//! read pays one dependent, batched round trip per level, and a write
//! builds one node per level on each border. For the paper's own 1 TB
//! blob of 64 KB pages the height falls from 24 to 5
//! ([`Geometry::tree_height`]); the 1,024-page canonical blob has 2
//! levels above its leaves. Everything else is the paper's scheme.
//!
//! Why 32 and not 16 or 64: each step trades depth for width. From 16 to
//! 32 the canonical blob loses a level (3 → 2), and with it one
//! dependent round trip of every read (`sim_paper` `read_p50_ms`
//! 11.959 → 11.580 ms), while a write's inner nodes only grow. A 64-way
//! tree, measured on the same cell, reads no faster (11.581 ms: 1,024
//! pages need 2 levels either way), its version ticket outlasts the leaf
//! weave (`write_ticket_vt_us` 0 → 324.4), `write_p50_ms` rises 2.7 µs,
//! and on `finegrain_mix` the metadata journal's bytes per write rise
//! 67 % (17 % at 32).
//!
//! Inner nodes store the *versions* of their children (the child
//! intervals are implied by the geometry), which is exactly how
//! "weaving" works: a border node of version `v` simply records an older
//! version number for each child interval that `v` did not rewrite.
//! Version 0 names the implicit all-zero subtree. The child versions sit
//! behind one shared allocation ([`ChildVersions`]), so a body is small
//! whatever its kind — a leaf, most of the tree, carries no child slots
//! — and cloning an inner body bumps a refcount.
//!
//! ## What a node costs on the wire
//!
//! Every integer of a node is a LEB128 varint
//! ([`WireBuf::put_varint`]): 1 byte below 128, one more per further
//! seven bits. A [`NodeKey`] is four of them (blob, version, offset,
//! size); an inner body is a tag, a fan-out byte and one varint per
//! child version; a leaf body is a tag and its [`PageLoc`] (page key
//! blob, write id and index, replica count, provider ids). So a node
//! costs what its numbers need, and [`Wire::wire_hint`] says exactly
//! how much — the DHT's journal accounting sizes every record from it.
//!
//! Why varints: metadata is the standing cost of the paper's case,
//! small writes to a huge blob, and its numbers are small. A version is
//! a count of writes; most child versions are 0 (never written) or a few
//! hundred at most; blob and provider ids and write ids are counters;
//! offsets and sizes are page multiples, at most six bytes in a 1 TiB
//! blob. In fixed width a key was 32 B, a 32-way inner body 2 + 8 · 32 B
//! whatever it held, and a one-replica leaf body 33 B. Now a leaf of the
//! canonical blob (1,024 pages of 256 KiB) costs 6–10 B of key and 6–8 B
//! of body, and a 32-way inner body of versions below 16,384 costs
//! 34–66 B. A `u64` field never costs more than 10 bytes, and each value
//! has one encoding, so a re-encoded node is byte-identical.

use crate::error::CodecError;
use crate::geometry::{Geometry, Segment};
use crate::ids::{BlobId, ProviderId, Version, WriteId};
use crate::wire::{Reader, Wire, WireBuf};
use crate::{wire_newtype, wire_struct};
use blobseer_util::varint;
use std::fmt;
use std::sync::Arc;

wire_newtype!(BlobId);
wire_newtype!(crate::ids::NodeId);
wire_newtype!(ProviderId);
wire_newtype!(WriteId);

/// Identity of one metadata tree node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeKey {
    /// Owning blob.
    pub blob: BlobId,
    /// Version whose tree this node belongs to.
    pub version: Version,
    /// Byte offset of the covered interval.
    pub offset: u64,
    /// Byte size of the covered interval (power of two multiple of the
    /// page size).
    pub size: u64,
}

impl NodeKey {
    /// The key's integers in wire order.
    fn fields(&self) -> [u64; 4] {
        [self.blob.0, self.version, self.offset, self.size]
    }
}

/// Four varints: blob, version, offset, size.
impl Wire for NodeKey {
    fn encode(&self, out: &mut WireBuf) {
        for field in self.fields() {
            out.put_varint(field);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NodeKey {
            blob: BlobId(r.take_varint()?),
            version: r.take_varint()?,
            offset: r.take_varint()?,
            size: r.take_varint()?,
        })
    }

    fn wire_hint(&self) -> usize {
        self.fields().into_iter().map(varint::len).sum()
    }
}

impl NodeKey {
    /// The covered byte interval as a [`Segment`].
    pub fn segment(&self) -> Segment {
        Segment::new(self.offset, self.size)
    }

    /// Key of child `i` (in offset order) at version `v`: the `i`-th
    /// interval of [`Geometry::child_size`] bytes inside this one.
    pub fn child(&self, geom: &Geometry, i: u64, v: Version) -> NodeKey {
        let size = geom.child_size(self.size);
        debug_assert!(size < self.size && i < self.size / size);
        NodeKey {
            blob: self.blob,
            version: v,
            offset: self.offset + i * size,
            size,
        }
    }

    /// Stable routing hash used to disperse nodes over the metadata
    /// providers (DHT key).
    pub fn routing_key(&self) -> u64 {
        use blobseer_util::fxhash::mix64;
        mix64(self.blob.0 ^ mix64(self.version) ^ mix64(self.offset) ^ mix64(self.size ^ 0xb10b))
    }
}

/// Where a page physically lives.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PageLoc {
    /// The page's storage key.
    pub key: PageKey,
    /// Providers holding a replica, in preference order. The first entry
    /// is the primary chosen by the provider manager.
    pub replicas: Vec<ProviderId>,
}

/// Varints: the page key (see [`PageKey`]'s encoding), the replica
/// count, then each replica's provider id.
impl Wire for PageLoc {
    fn encode(&self, out: &mut WireBuf) {
        self.key.encode(out);
        out.put_varint(self.replicas.len() as u64);
        for id in &self.replicas {
            out.put_varint(u64::from(id.0));
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let key = PageKey::decode(r)?;
        let count = r.take_varint_count()?;
        let mut replicas = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            let id = u32::try_from(r.take_varint()?).map_err(|_| CodecError::BadVarint {
                reason: "provider id overflows u32",
            })?;
            replicas.push(ProviderId(id));
        }
        Ok(PageLoc { key, replicas })
    }

    fn wire_hint(&self) -> usize {
        let ids: usize = self
            .replicas
            .iter()
            .map(|id| varint::len(u64::from(id.0)))
            .sum();
        self.key.wire_hint() + varint::len(self.replicas.len() as u64) + ids
    }
}

/// Storage key of one written page.
///
/// The key is `(blob, write_id, page_index)`, with `write_id` issued by
/// the provider manager's plan; the version label lives only in the
/// metadata. The paper stores pages *before* the write knows its version
/// (§III.B). Here pages travel after the version is known, in the same
/// burst as the metadata, but they are still keyed by write id: a page
/// re-placed after a failed put keeps its key, and nothing about a page
/// depends on the version it ends up in.
///
/// On the wire it is three varints — blob, write id, index — in page
/// frames (`PUT_PAGE`, `GET_PAGE`, `REMOVE_PAGE`, a gc plan's dead pages)
/// and in a leaf's [`PageLoc`] alike.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageKey {
    /// Owning blob.
    pub blob: BlobId,
    /// The WRITE operation that produced this page.
    pub write: WriteId,
    /// Page index within the blob.
    pub index: u64,
}

impl Wire for PageKey {
    fn encode(&self, out: &mut WireBuf) {
        out.put_varint(self.blob.0);
        out.put_varint(self.write.0);
        out.put_varint(self.index);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PageKey {
            blob: BlobId(r.take_varint()?),
            write: WriteId(r.take_varint()?),
            index: r.take_varint()?,
        })
    }

    fn wire_hint(&self) -> usize {
        [self.blob.0, self.write.0, self.index]
            .into_iter()
            .map(varint::len)
            .sum()
    }
}

/// The most children an inner node has: the tree's arity.
const ARITY: usize = Geometry::ARITY as usize;

/// The child versions of an inner node, in offset order: 2 to 32 of
/// them (only a root has fewer than 32), the fan-out being their count.
/// They live in one shared allocation, so a [`NodeBody`] is the size of
/// a leaf's [`PageLoc`] at most, in the DHT's maps and the client cache
/// alike, and a clone is a refcount bump.
#[derive(Clone, PartialEq, Eq)]
pub struct ChildVersions(Arc<[Version]>);

impl ChildVersions {
    /// The versions of `2..=ARITY` children; `None` for any other count.
    pub fn new(versions: &[Version]) -> Option<Self> {
        (2..=ARITY)
            .contains(&versions.len())
            .then(|| Self(Arc::from(versions)))
    }

    /// The child versions, child 0 first.
    pub fn as_slice(&self) -> &[Version] {
        &self.0
    }
}

impl fmt::Debug for ChildVersions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Body of a metadata tree node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum NodeBody {
    /// Non-leaf: the versions of its children. A version of 0 denotes
    /// the implicit all-zero subtree (nothing stored — "allocate on
    /// write").
    Inner {
        /// One version per child interval, in offset order.
        children: ChildVersions,
    },
    /// Leaf: locator of the single page this node covers.
    Leaf {
        /// Physical page location.
        page: PageLoc,
    },
}

/// Wire tag of a leaf body: its [`PageLoc`], as varints. Tag 1 was the
/// same locator in fixed width; it is refused.
const TAG_LEAF: u8 = 4;
/// Wire tag of a 32-way inner body: fan-out byte, then one varint
/// version per child. Tag 3 was the same body with each version a fixed
/// `u64`. Tag 0 was the binary tree's `{left, right}` body and tag 2 the
/// 16-way tree's (laid out as tag 3). All of them are refused rather
/// than read as this tree's nodes (see `blobseer_dht::wal`).
const TAG_INNER: u8 = 5;

impl Wire for NodeBody {
    fn encode(&self, out: &mut WireBuf) {
        match self {
            NodeBody::Inner { children } => {
                let versions = children.as_slice();
                out.push(TAG_INNER);
                // At most `ARITY` (32): `ChildVersions::new` bounds it.
                out.push(versions.len() as u8);
                for &v in versions {
                    out.put_varint(v);
                }
            }
            NodeBody::Leaf { page } => {
                out.push(TAG_LEAF);
                page.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            TAG_INNER => {
                let fanout = r.take(1)?[0];
                if !(2..=ARITY).contains(&usize::from(fanout)) {
                    return Err(CodecError::BadTag {
                        tag: fanout,
                        ty: "ChildVersions fan-out",
                    });
                }
                let mut versions = [0; ARITY];
                let versions = &mut versions[..usize::from(fanout)];
                for slot in versions.iter_mut() {
                    *slot = r.take_varint()?;
                }
                Ok(NodeBody::Inner {
                    children: ChildVersions(Arc::from(&*versions)),
                })
            }
            TAG_LEAF => Ok(NodeBody::Leaf {
                page: PageLoc::decode(r)?,
            }),
            tag => Err(CodecError::BadTag {
                tag,
                ty: "NodeBody",
            }),
        }
    }

    fn wire_hint(&self) -> usize {
        match self {
            NodeBody::Inner { children } => {
                2 + children
                    .as_slice()
                    .iter()
                    .copied()
                    .map(varint::len)
                    .sum::<usize>()
            }
            NodeBody::Leaf { page } => 1 + page.wire_hint(),
        }
    }
}

/// A fully-specified tree node ready to be stored: key plus body.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TreeNode {
    /// Node identity.
    pub key: NodeKey,
    /// Node contents.
    pub body: NodeBody,
}

wire_struct!(TreeNode { key, body });

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: Version, offset: u64, size: u64) -> NodeKey {
        NodeKey {
            blob: BlobId(3),
            version: v,
            offset,
            size,
        }
    }

    fn inner(versions: &[Version]) -> NodeBody {
        NodeBody::Inner {
            children: ChildVersions::new(versions).unwrap(),
        }
    }

    #[test]
    fn child_keys_split_interval_thirty_two_ways() {
        // 4,096 pages of 1 KiB: root of 4 children × 1 MiB, then 32s.
        let g = Geometry::new(1 << 22, 1024).unwrap();
        let root = key(5, 0, 1 << 22);
        let c3 = root.child(&g, 3, 2);
        assert_eq!((c3.offset, c3.size, c3.version), (3 << 20, 1 << 20, 2));
        let g31 = c3.child(&g, 31, 5);
        assert_eq!(
            (g31.offset, g31.size),
            ((3 << 20) + 31 * (1 << 15), 1 << 15)
        );
        assert_eq!(g31.segment(), Segment::new(g31.offset, 1 << 15));
        let leaf = g31.child(&g, 31, 5);
        assert_eq!((leaf.offset, leaf.size), (g31.offset + 31 * 1024, 1024));
    }

    #[test]
    fn child_versions_are_shared_and_bounded() {
        assert!(ChildVersions::new(&[]).is_none());
        assert!(ChildVersions::new(&[1]).is_none());
        assert!(ChildVersions::new(&[1; ARITY + 1]).is_none());
        let c = ChildVersions::new(&[4, 0, 2]).unwrap();
        assert_eq!(c.as_slice(), &[4, 0, 2][..]);
        assert_eq!(format!("{c:?}"), "[4, 0, 2]");
        // A body carries a leaf's locator at most, whatever its kind: the
        // child versions are not inline, so a leaf pays for none.
        let bound = std::mem::size_of::<PageLoc>() + 8;
        assert!(std::mem::size_of::<NodeBody>() <= bound);
        assert!(std::mem::size_of::<TreeNode>() <= std::mem::size_of::<NodeKey>() + bound);
        // An inner body's clone shares its versions.
        let body = inner(&[9; ARITY]);
        let copy = body.clone();
        let (NodeBody::Inner { children: a }, NodeBody::Inner { children: b }) = (&body, &copy)
        else {
            unreachable!()
        };
        assert!(std::ptr::eq(a.as_slice(), b.as_slice()));
    }

    #[test]
    fn routing_keys_disperse() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for v in 0..10 {
            for off in 0..10 {
                seen.insert(key(v, off * 4096, 4096).routing_key());
            }
        }
        assert_eq!(seen.len(), 100, "no collisions on a small set");
    }

    #[test]
    fn node_roundtrips() {
        // Key (3, 7, 0, 65536): three one-byte varints and a three-byte
        // size. Body: tag, fan-out, one byte per small version.
        for (versions, body_bytes) in [(&[7, 3][..], 4), (&[7, 0, 3, 1], 6), (&[9; ARITY], 34)] {
            let node = TreeNode {
                key: key(7, 0, 65536),
                body: inner(versions),
            };
            let bytes = node.to_wire();
            assert_eq!(node.key.wire_hint(), 6);
            assert_eq!(node.body.wire_hint(), body_bytes);
            assert_eq!(bytes.len(), 6 + body_bytes);
            assert_eq!(node.wire_hint(), bytes.len());
            assert_eq!(TreeNode::from_wire(&bytes).unwrap(), node);
        }
        // A version of 2^63 takes all ten bytes, 0 takes one.
        let wide = TreeNode {
            key: key(1 << 63, 0, 65536),
            body: inner(&[1 << 63, 0]),
        };
        assert_eq!(wide.key.wire_hint(), 15);
        assert_eq!(wide.body.wire_hint(), 2 + 10 + 1);
        assert_eq!(wide.to_wire().len(), wide.wire_hint());
        assert_eq!(TreeNode::from_wire(&wide.to_wire()).unwrap(), wide);

        let leaf = TreeNode {
            key: key(7, 65536, 65536),
            body: NodeBody::Leaf {
                page: PageLoc {
                    key: PageKey {
                        blob: BlobId(3),
                        write: WriteId(9),
                        index: 1,
                    },
                    replicas: vec![ProviderId(2), ProviderId(5)],
                },
            },
        };
        // Key 1 + 1 + 3 + 3 bytes; body: tag, page key 1 + 1 + 1, count 1,
        // two one-byte ids.
        assert_eq!(leaf.key.wire_hint(), 8);
        assert_eq!(leaf.body.wire_hint(), 7);
        assert_eq!(leaf.to_wire().len(), 15);
        assert_eq!(TreeNode::from_wire(&leaf.to_wire()).unwrap(), leaf);
    }

    #[test]
    fn hostile_locators_are_codec_errors() {
        // A replica count of 2^40: refused before any allocation.
        let mut out = WireBuf::new();
        out.push(TAG_LEAF);
        for field in [3, 9, 1, 1u64 << 40] {
            out.put_varint(field);
        }
        let bytes = out.finish().to_vec();
        assert_eq!(
            NodeBody::from_wire(&bytes),
            Err(CodecError::LengthOverflow { declared: 1 << 40 })
        );
        // A count under the cap with too few ids is an EOF.
        let mut out = WireBuf::new();
        out.push(TAG_LEAF);
        for field in [3, 9, 1, 1 << 20, 2] {
            out.put_varint(field);
        }
        assert!(matches!(
            NodeBody::from_wire(&out.finish().to_vec()),
            Err(CodecError::UnexpectedEof { .. })
        ));
        // A provider id past u32.
        let mut out = WireBuf::new();
        out.push(TAG_LEAF);
        for field in [3, 9, 1, 1, 1 << 32] {
            out.put_varint(field);
        }
        assert_eq!(
            NodeBody::from_wire(&out.finish().to_vec()),
            Err(CodecError::BadVarint {
                reason: "provider id overflows u32"
            })
        );
    }

    #[test]
    fn bad_body_tag_rejected() {
        let mut bytes = vec![9u8];
        bytes.extend_from_slice(&[0; 16]);
        assert!(NodeBody::from_wire(&bytes).is_err());
    }

    #[test]
    fn binary_inner_body_is_a_codec_error() {
        // The pre-16-way encoding: tag 0, left version, right version.
        let mut bytes = vec![0u8];
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(
            NodeBody::from_wire(&bytes),
            Err(CodecError::BadTag {
                tag: 0,
                ty: "NodeBody"
            })
        );
    }

    #[test]
    fn sixteen_way_inner_body_is_a_codec_error() {
        // The 16-way encoding: tag 2, fan-out, one version per child —
        // the layout of this tree's body under another tag. Its child
        // intervals are not this tree's, so it never decodes.
        for fanout in [16u8, 4] {
            let mut bytes = vec![2u8, fanout];
            for _ in 0..fanout {
                bytes.extend_from_slice(&7u64.to_le_bytes());
            }
            assert_eq!(
                NodeBody::from_wire(&bytes),
                Err(CodecError::BadTag {
                    tag: 2,
                    ty: "NodeBody"
                })
            );
        }
    }

    #[test]
    fn inner_fanout_outside_two_to_thirty_two_rejected() {
        for fanout in [0u8, 1, 33, 255] {
            let mut bytes = vec![TAG_INNER, fanout];
            bytes.extend_from_slice(&[0; 8 * 33]);
            let err = NodeBody::from_wire(&bytes).unwrap_err();
            assert!(matches!(err, CodecError::BadTag { tag, .. } if tag == fanout));
        }
        // Truncated versions are an EOF, never a short node.
        let bytes = [TAG_INNER, 4, 0, 0, 0];
        assert!(matches!(
            NodeBody::from_wire(&bytes),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }
}
