//! RPC message vocabulary for every service in the system.
//!
//! Four services exist (paper §III.A): **data provider**, **provider
//! manager**, **metadata provider** (DHT node) and **version manager**.
//! Method ids are stable `u16`s namespaced per service; request/response
//! bodies are [`Wire`] structs. The RPC layer frames `(method, seq, body)`
//! triples and batches them per destination.

use crate::error::{BlobError, CodecError};
use crate::geometry::{Geometry, Segment};
use crate::ids::{BlobId, ProviderId, Version, WriteId};
use crate::tree::{NodeKey, PageKey, TreeNode};
use crate::wire::{Reader, Wire, WireBuf};
use crate::wire_struct;
use blobseer_util::PageBuf;

// ---------------------------------------------------------------------------
// Method ids
// ---------------------------------------------------------------------------

/// Method identifiers, namespaced by service in the high byte.
pub mod method {
    /// Data provider: store a page.
    pub const PUT_PAGE: u16 = 0x0101;
    /// Data provider: fetch a page.
    pub const GET_PAGE: u16 = 0x0102;
    /// Data provider: drop a page (GC).
    pub const REMOVE_PAGE: u16 = 0x0103;
    /// Data provider: report memory usage.
    pub const PROVIDER_STATS: u16 = 0x0104;

    /// Provider manager: a provider joins the system.
    pub const REGISTER_PROVIDER: u16 = 0x0201;
    /// Provider manager: periodic load report.
    pub const HEARTBEAT: u16 = 0x0202;
    /// Provider manager: plan a write (issue write id + target providers).
    pub const PLAN_WRITE: u16 = 0x0203;

    /// Metadata provider (DHT): store one tree node.
    pub const META_PUT: u16 = 0x0301;
    /// Metadata provider (DHT): store a batch of tree nodes.
    pub const META_PUT_BATCH: u16 = 0x0303;
    /// Metadata provider (DHT): fetch a batch of tree nodes.
    pub const META_GET_BATCH: u16 = 0x0304;
    /// Metadata provider (DHT): remove nodes (GC).
    pub const META_REMOVE_BATCH: u16 = 0x0305;

    /// Version manager: create a blob (ALLOC).
    pub const CREATE_BLOB: u16 = 0x0401;
    /// Version manager: blob geometry + latest published version.
    pub const GET_BLOB: u16 = 0x0402;
    /// Version manager: latest published version only.
    pub const GET_LATEST: u16 = 0x0403;
    /// Version manager: assign a version + border links to a write.
    pub const REQUEST_VERSION: u16 = 0x0404;
    /// Version manager: a write finished storing its metadata.
    pub const COMPLETE_WRITE: u16 = 0x0405;
    /// Version manager: compute a garbage-collection plan.
    pub const GC_PLAN: u16 = 0x0406;
}

// ---------------------------------------------------------------------------
// Data provider messages
// ---------------------------------------------------------------------------

/// Store one page of data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PutPage {
    /// Storage key.
    pub key: PageKey,
    /// Page contents (exactly `page_size` bytes); cheap-clone and
    /// shared by refcount through framing, batching and storage.
    pub data: PageBuf,
}
wire_struct!(PutPage { key, data });

/// Fetch one page by key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GetPage {
    /// Storage key.
    pub key: PageKey,
}
wire_struct!(GetPage { key });

/// Remove one page (garbage collection).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RemovePage {
    /// Storage key.
    pub key: PageKey,
}
wire_struct!(RemovePage { key });

/// Data provider memory usage report.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProviderStats {
    /// Pages currently stored.
    pub pages: u64,
    /// Logical bytes currently stored (what clients asked the provider
    /// to retain; two keys sharing one allocation count twice).
    pub bytes: u64,
    /// Heap-resident backing bytes (the in-memory backend's allocation
    /// footprint; freed by removes).
    pub heap_bytes: u64,
    /// Mapped-file backing bytes (the persistent backend's page log —
    /// record headers and commit markers included — counting exactly
    /// one generation: the serving one, even while a compaction window
    /// briefly has two files on disk).
    pub mapped_bytes: u64,
    /// Log bytes owed to removed or superseded records: what the next
    /// compaction will reclaim. Always 0 for backends that free
    /// eagerly.
    pub dead_bytes: u64,
}

impl ProviderStats {
    /// Bytes that count against the provider's registered capacity: the
    /// heap footprint plus the append-only log footprint. This — not the
    /// logical `bytes` — is what the provider manager folds into its
    /// `reported` load, so capacity reservations stay truthful for a
    /// backend whose log retains removed pages.
    pub fn reserved_bytes(&self) -> u64 {
        self.heap_bytes + self.mapped_bytes
    }
}

wire_struct!(ProviderStats {
    pages,
    bytes,
    heap_bytes,
    mapped_bytes,
    dead_bytes
});

// ---------------------------------------------------------------------------
// Provider manager messages
// ---------------------------------------------------------------------------

/// A data provider announces itself (paper: "on entering the system, each
/// data provider registers with the provider manager").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RegisterProvider {
    /// The provider's id.
    pub provider: ProviderId,
    /// Capacity in bytes it is willing to store.
    pub capacity: u64,
}
wire_struct!(RegisterProvider { provider, capacity });

/// Periodic load report: the provider manager places pages by the
/// projected free capacity it derives from these.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Heartbeat {
    /// Reporting provider.
    pub provider: ProviderId,
    /// Current usage.
    pub stats: ProviderStats,
}
wire_struct!(Heartbeat { provider, stats });

/// Ask the provider manager to plan a write of `pages` pages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlanWrite {
    /// Blob being written.
    pub blob: BlobId,
    /// Number of pages the client will store.
    pub pages: u64,
    /// Desired number of replicas per page (1 = no replication).
    pub replication: u32,
    /// Providers the plan must not use: those a write's page puts just
    /// failed on, when it re-places the pages; or a page's existing
    /// holders, when a hot page fans out.
    pub exclude: Vec<ProviderId>,
}
wire_struct!(PlanWrite {
    blob,
    pages,
    replication,
    exclude
});

/// The provider manager's answer: a fresh write id and, for each page, the
/// providers that should store its replicas.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WritePlan {
    /// Unique id for this WRITE operation.
    pub write: WriteId,
    /// `pages × replication` provider assignments, page-major.
    pub targets: Vec<Vec<ProviderId>>,
}
wire_struct!(WritePlan { write, targets });

// ---------------------------------------------------------------------------
// Metadata provider (DHT) messages
// ---------------------------------------------------------------------------

/// Store one tree node.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetaPut {
    /// The node (key + body).
    pub node: TreeNode,
}
wire_struct!(MetaPut { node });

/// Store a batch of tree nodes (one aggregated RPC — paper §V.A).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetaPutBatch {
    /// Nodes to store.
    pub nodes: Vec<TreeNode>,
}
wire_struct!(MetaPutBatch { nodes });

/// Fetch a batch of tree nodes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetaGetBatch {
    /// Keys to fetch.
    pub keys: Vec<NodeKey>,
}
wire_struct!(MetaGetBatch { keys });

/// Batch response: bodies in key order (`None` = not found).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetaGetBatchResp {
    /// One entry per requested key.
    pub nodes: Vec<Option<TreeNode>>,
}
wire_struct!(MetaGetBatchResp { nodes });

/// Remove a batch of tree nodes (GC).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetaRemoveBatch {
    /// Keys to remove.
    pub keys: Vec<NodeKey>,
}
wire_struct!(MetaRemoveBatch { keys });

// ---------------------------------------------------------------------------
// Version manager messages
// ---------------------------------------------------------------------------

/// `ALLOC`: create a blob with the given geometry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CreateBlob {
    /// Total logical size (power of two).
    pub total_size: u64,
    /// Page size (power of two).
    pub page_size: u64,
}
wire_struct!(CreateBlob {
    total_size,
    page_size
});

/// Blob descriptor returned by `GET_BLOB`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlobInfo {
    /// The blob id.
    pub blob: BlobId,
    /// Its geometry.
    pub total_size: u64,
    /// Page size.
    pub page_size: u64,
    /// Latest published version.
    pub latest: Version,
}
wire_struct!(BlobInfo {
    blob,
    total_size,
    page_size,
    latest
});

impl BlobInfo {
    /// The geometry as a typed value.
    pub fn geometry(&self) -> Geometry {
        Geometry {
            total_size: self.total_size,
            page_size: self.page_size,
        }
    }
}

/// Ask for the latest published version of a blob.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GetLatest {
    /// The blob.
    pub blob: BlobId,
}
wire_struct!(GetLatest { blob });

/// A writer that has stored its pages asks for its version number
/// (paper §III.B step 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RequestVersion {
    /// Blob being written.
    pub blob: BlobId,
    /// The write id under which the pages were stored (issued by the
    /// provider manager); recorded so GC can later name dead pages.
    pub write: WriteId,
    /// Byte offset of the written segment (page aligned).
    pub offset: u64,
    /// Byte size of the written segment (page aligned).
    pub size: u64,
}
wire_struct!(RequestVersion {
    blob,
    write,
    offset,
    size
});

impl RequestVersion {
    /// The written segment.
    pub fn segment(&self) -> Segment {
        Segment::new(self.offset, self.size)
    }
}

/// The version manager's answer to [`RequestVersion`]: the assigned
/// version and every border link the writer needs to weave its subtree in
/// complete isolation from concurrent writers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WriteTicket {
    /// Version assigned to this write.
    pub version: Version,
    /// The precomputed border links (paper §IV.C): for each missing
    /// child of the write's border nodes, the older version the new tree
    /// links there (0 = never written). One per interval of
    /// `blobseer_meta::write::border_specs` of the written segment, in
    /// its order: the writer computes the same intervals from the same
    /// geometry, so only the versions travel — as an inner node stores
    /// its children's versions and not their intervals.
    pub borders: Vec<Version>,
}
wire_struct!(WriteTicket { version, borders });

/// A writer reports that all its metadata is stored (paper §III.B step 7).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompleteWrite {
    /// The blob.
    pub blob: BlobId,
    /// The version assigned earlier.
    pub version: Version,
}
wire_struct!(CompleteWrite { blob, version });

/// Response to [`CompleteWrite`]: the latest version published after this
/// completion was folded in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublishState {
    /// Latest published version.
    pub latest: Version,
}
wire_struct!(PublishState { latest });

/// Ask the version manager to plan a GC that discards all versions below
/// `keep_from` (paper §VI future work, implemented here).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GcRequest {
    /// The blob.
    pub blob: BlobId,
    /// Lowest version to keep.
    pub keep_from: Version,
}
wire_struct!(GcRequest { blob, keep_from });

/// The GC plan: everything unreachable from versions `>= keep_from`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct GcPlan {
    /// Dead tree nodes, to be removed from the metadata providers.
    pub dead_nodes: Vec<NodeKey>,
    /// Dead pages with the providers holding them.
    pub dead_pages: Vec<(PageKey, Vec<ProviderId>)>,
}
wire_struct!(GcPlan {
    dead_nodes,
    dead_pages
});

// ---------------------------------------------------------------------------
// Wire impls for cross-cutting types
// ---------------------------------------------------------------------------

impl Wire for Segment {
    fn encode(&self, out: &mut WireBuf) {
        self.offset.encode(out);
        self.size.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Segment {
            offset: u64::decode(r)?,
            size: u64::decode(r)?,
        })
    }

    fn wire_hint(&self) -> usize {
        16
    }
}

impl Wire for BlobError {
    fn encode(&self, out: &mut WireBuf) {
        match self {
            BlobError::UnknownBlob(b) => {
                out.push(0);
                b.encode(out);
            }
            BlobError::BadSegment { segment, reason } => {
                out.push(1);
                segment.encode(out);
                reason.to_string().encode(out);
            }
            BlobError::VersionNotPublished { requested, latest } => {
                out.push(2);
                requested.encode(out);
                latest.encode(out);
            }
            BlobError::MissingMetadata { blob, version } => {
                out.push(3);
                blob.encode(out);
                version.encode(out);
            }
            BlobError::MissingPage { tried } => {
                out.push(4);
                tried.encode(out);
            }
            BlobError::Unreachable(who) => {
                out.push(5);
                who.to_string().encode(out);
            }
            BlobError::Codec(_) => {
                out.push(6);
            }
            BlobError::Internal(msg) => {
                out.push(7);
                msg.to_string().encode(out);
            }
            BlobError::Recovery {
                file,
                offset,
                detail,
            } => {
                out.push(8);
                file.encode(out);
                offset.encode(out);
                detail.to_string().encode(out);
            }
            BlobError::Overload { retry_after_hint } => {
                out.push(9);
                retry_after_hint.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // `&'static str` reasons cannot round-trip through the wire; decode
        // into leaked or canned strings. Reasons are diagnostics only.
        fn intern(s: String) -> &'static str {
            Box::leak(s.into_boxed_str())
        }
        match r.take(1)?[0] {
            0 => Ok(BlobError::UnknownBlob(BlobId::decode(r)?)),
            1 => Ok(BlobError::BadSegment {
                segment: Segment::decode(r)?,
                reason: intern(String::decode(r)?),
            }),
            2 => Ok(BlobError::VersionNotPublished {
                requested: Version::decode(r)?,
                latest: Version::decode(r)?,
            }),
            3 => Ok(BlobError::MissingMetadata {
                blob: BlobId::decode(r)?,
                version: Version::decode(r)?,
            }),
            4 => Ok(BlobError::MissingPage {
                tried: Vec::decode(r)?,
            }),
            5 => Ok(BlobError::Unreachable(intern(String::decode(r)?))),
            6 => Ok(BlobError::Internal("remote codec error")),
            7 => Ok(BlobError::Internal(intern(String::decode(r)?))),
            8 => Ok(BlobError::Recovery {
                file: String::decode(r)?,
                offset: u64::decode(r)?,
                detail: intern(String::decode(r)?),
            }),
            9 => Ok(BlobError::Overload {
                retry_after_hint: u64::decode(r)?,
            }),
            tag => Err(CodecError::BadTag {
                tag,
                ty: "BlobError",
            }),
        }
    }
}

/// A wire-encodable `Result` used as the body of every RPC response.
impl<T: Wire> Wire for Result<T, BlobError> {
    fn encode(&self, out: &mut WireBuf) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(BlobError::decode(r)?)),
            tag => Err(CodecError::BadTag { tag, ty: "Result" }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{ChildVersions, NodeBody};

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::from_wire(&v.to_wire()).unwrap(), v);
    }

    #[test]
    fn provider_messages_roundtrip() {
        roundtrip(PutPage {
            key: PageKey {
                blob: BlobId(1),
                write: WriteId(2),
                index: 3,
            },
            data: PageBuf::from_vec(vec![7u8; 128]),
        });
        roundtrip(GetPage {
            key: PageKey {
                blob: BlobId(1),
                write: WriteId(2),
                index: 3,
            },
        });
        roundtrip(ProviderStats {
            pages: 10,
            bytes: 655360,
            heap_bytes: 655360,
            mapped_bytes: 1 << 20,
            dead_bytes: 4096,
        });
    }

    #[test]
    fn manager_messages_roundtrip() {
        roundtrip(RegisterProvider {
            provider: ProviderId(4),
            capacity: 1 << 30,
        });
        roundtrip(PlanWrite {
            blob: BlobId(1),
            pages: 256,
            replication: 2,
            exclude: vec![ProviderId(3), ProviderId(9)],
        });
        roundtrip(WritePlan {
            write: WriteId(77),
            targets: vec![vec![ProviderId(1), ProviderId(2)], vec![ProviderId(3)]],
        });
    }

    #[test]
    fn meta_messages_roundtrip() {
        let node = TreeNode {
            key: NodeKey {
                blob: BlobId(1),
                version: 4,
                offset: 0,
                size: 1 << 20,
            },
            body: NodeBody::Inner {
                children: ChildVersions::new(&[4, 2, 0, 4]).unwrap(),
            },
        };
        roundtrip(MetaPutBatch {
            nodes: vec![node.clone(), node.clone()],
        });
        roundtrip(MetaGetBatch {
            keys: vec![node.key],
        });
        roundtrip(MetaGetBatchResp {
            nodes: vec![Some(node), None],
        });
    }

    #[test]
    fn version_messages_roundtrip() {
        roundtrip(CreateBlob {
            total_size: 1 << 40,
            page_size: 1 << 16,
        });
        roundtrip(BlobInfo {
            blob: BlobId(9),
            total_size: 1 << 40,
            page_size: 1 << 16,
            latest: 3,
        });
        roundtrip(RequestVersion {
            blob: BlobId(9),
            write: WriteId(5),
            offset: 0,
            size: 1 << 16,
        });
        roundtrip(WriteTicket {
            version: 12,
            borders: vec![3, 0],
        });
        roundtrip(CompleteWrite {
            blob: BlobId(9),
            version: 12,
        });
        roundtrip(PublishState { latest: 12 });
        roundtrip(GcRequest {
            blob: BlobId(9),
            keep_from: 5,
        });
        roundtrip(GcPlan {
            dead_nodes: vec![NodeKey {
                blob: BlobId(9),
                version: 1,
                offset: 0,
                size: 4096,
            }],
            dead_pages: vec![(
                PageKey {
                    blob: BlobId(9),
                    write: WriteId(1),
                    index: 0,
                },
                vec![ProviderId(3)],
            )],
        });
    }

    #[test]
    fn results_roundtrip() {
        let ok: Result<u64, BlobError> = Ok(17);
        roundtrip(ok);
        let err: Result<u64, BlobError> = Err(BlobError::VersionNotPublished {
            requested: 5,
            latest: 2,
        });
        roundtrip(err);
        let err: Result<(), BlobError> = Err(BlobError::MissingPage {
            tried: vec![ProviderId(1), ProviderId(2)],
        });
        roundtrip(err);
        let err: Result<u64, BlobError> = Err(BlobError::Overload {
            retry_after_hint: 40,
        });
        roundtrip(err);
    }

    #[test]
    fn blob_info_geometry() {
        let info = BlobInfo {
            blob: BlobId(1),
            total_size: 1 << 30,
            page_size: 1 << 16,
            latest: 0,
        };
        assert_eq!(info.geometry().page_count(), 1 << 14);
    }
}
