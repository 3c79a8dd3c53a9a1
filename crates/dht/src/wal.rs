//! The metadata provider's durability seam.
//!
//! Mirrors the data provider's `StorageBackend` split: the sharded
//! in-memory index is the serving path either way; the backend behind
//! it decides whether mutations outlive the process. [`VolatileMeta`]
//! is the classic in-memory DHT node; [`WalMeta`] journals every put
//! and remove through the shared record-then-commit engine
//! ([`blobseer_util::recordlog`]) *before* the mutation is applied or
//! acknowledged — write-ahead, group-committed, so "acknowledged means
//! recoverable" holds for tree nodes exactly as it does for pages.
//!
//! ## Log format
//!
//! One generation file `meta.g<N>.log` of 48-byte-header records:
//!
//! * **put** (`BSMTPUT2`): payload is the wire-encoded [`TreeNode`].
//!   Tree nodes are immutable and content-addressed by [`NodeKey`], so
//!   replaying puts in order is idempotent — a double put (replica
//!   repair, retried write) re-inserts the same body.
//!
//!   The node encoding is part of this format. Inner bodies are 32-way
//!   (wire tag 3: fan-out, then one version per child). The binary
//!   tree's `{left, right}` body (tag 0) and the 16-way tree's body
//!   (tag 2, laid out as tag 3 but over other child intervals) are
//!   refused. So a metadata journal written before the 32-way tree does
//!   **not** reopen: its first committed inner node is a
//!   [`BlobError::Recovery`], the journal is left byte-identical, and no
//!   node of it is served — never a binary or 16-way node read as a
//!   32-way one.
//! * **remove** (`BSMTDEL2`): payload is the wire-encoded [`NodeKey`]
//!   (GC executing a plan).
//! * group-commit markers / tombstones as defined by the engine.
//!
//! A batched put (`META_PUT_BATCH`, the paper's aggregation
//! optimization) appends all its records under **one** commit marker —
//! the durability analogue of paying one RPC latency per batch.
//!
//! ## Crash model
//!
//! `SIGKILL` at any byte offset: replay surfaces exactly the committed
//! prefix. A torn tail (crash mid-append or mid-commit) is silently
//! dropped — those puts were never acknowledged. A *committed* record
//! that fails to decode is a [`BlobError::Recovery`] with file + offset
//! context, never a panic.

use blobseer_proto::tree::{NodeKey, TreeNode};
use blobseer_proto::wire::Wire;
use blobseer_proto::BlobError;
use blobseer_util::recordlog::{LogError, OwnedRecord, Record, RecordLog, RecordLogOptions};
use std::path::Path;

/// Magic of a put record ("BSMTPUT2"): payload is a wire-encoded
/// [`TreeNode`]. `BSMTPUT1` is the same record under the engine's
/// retired single-chain payload digest
/// ([`blobseer_util::recordlog::RETIRED_MAGICS`]): a journal holding it
/// is refused at open, untouched.
pub const META_PUT_MAGIC: u64 = 0x4253_4d54_5055_5432;

/// Magic of a remove record ("BSMTDEL2"): payload is a wire-encoded
/// [`NodeKey`]. `BSMTDEL1` is retired like `BSMTPUT1`.
pub const META_REMOVE_MAGIC: u64 = 0x4253_4d54_4445_4c32;

/// The durability seam of one DHT node (`StorageBackend`-style): the
/// serving index stays in memory; implementations decide whether
/// mutations are journaled before they are acknowledged.
pub trait MetaBackend: Send + Sync {
    /// Journal a batch of tree-node puts (one commit marker for the
    /// whole batch). Must return before the puts are acknowledged.
    fn persist_puts(&self, nodes: &[TreeNode]) -> Result<(), BlobError>;

    /// Journal a batch of removes (GC executing a plan).
    fn persist_removes(&self, keys: &[NodeKey]) -> Result<(), BlobError>;

    /// True when mutations survive the process (`WalMeta`).
    fn is_durable(&self) -> bool;

    /// Journal size in bytes (0 for the volatile backend).
    fn log_bytes(&self) -> u64;
}

/// The classic in-memory metadata node: nothing outlives the process.
pub struct VolatileMeta;

impl MetaBackend for VolatileMeta {
    fn persist_puts(&self, _nodes: &[TreeNode]) -> Result<(), BlobError> {
        Ok(())
    }

    fn persist_removes(&self, _keys: &[NodeKey]) -> Result<(), BlobError> {
        Ok(())
    }

    fn is_durable(&self) -> bool {
        false
    }

    fn log_bytes(&self) -> u64 {
        0
    }
}

/// One replayed metadata mutation, in append order.
#[derive(Debug)]
pub enum MetaOp {
    /// Re-insert a tree node.
    Put(TreeNode),
    /// Remove a tree node (GC replay).
    Remove(NodeKey),
}

/// Map an engine error onto the typed recovery error, carrying the log
/// file for context.
fn log_err(path: &Path, e: LogError) -> BlobError {
    BlobError::Recovery {
        file: path.display().to_string(),
        offset: e.offset(),
        detail: e.detail(),
    }
}

/// The write-ahead metadata journal.
#[derive(Debug)]
pub struct WalMeta {
    log: RecordLog,
}

impl WalMeta {
    /// Open (or create) the metadata journal under `dir` and replay it:
    /// returns the backend plus every committed mutation in append
    /// order, ready to be applied to an empty index.
    pub fn open(dir: &Path, opts: RecordLogOptions) -> Result<(Self, Vec<MetaOp>), BlobError> {
        let (log, records) = RecordLog::open(dir, "meta", opts).map_err(|e| log_err(dir, e))?;
        let mut ops = Vec::with_capacity(records.len());
        for rec in records {
            ops.push(decode_op(&rec, &log)?);
        }
        Ok((Self { log }, ops))
    }
}

/// Decode one committed record; failures carry file + offset.
fn decode_op(rec: &OwnedRecord, log: &RecordLog) -> Result<MetaOp, BlobError> {
    let recovery = |detail: &'static str| BlobError::Recovery {
        file: log.path().display().to_string(),
        offset: rec.offset,
        detail,
    };
    match rec.magic {
        META_PUT_MAGIC => Ok(MetaOp::Put(
            TreeNode::from_wire(&rec.payload).map_err(|_| recovery("undecodable tree node"))?,
        )),
        META_REMOVE_MAGIC => Ok(MetaOp::Remove(
            NodeKey::from_wire(&rec.payload).map_err(|_| recovery("undecodable node key"))?,
        )),
        _ => Err(recovery("unknown meta record magic")),
    }
}

impl MetaBackend for WalMeta {
    fn persist_puts(&self, nodes: &[TreeNode]) -> Result<(), BlobError> {
        let encoded: Vec<Vec<u8>> = nodes.iter().map(|n| n.to_wire()).collect();
        let recs: Vec<Record<'_>> = encoded
            .iter()
            .map(|payload| Record {
                magic: META_PUT_MAGIC,
                a: 0,
                b: 0,
                c: 0,
                payload,
            })
            .collect();
        self.log
            .append_batch(&recs)
            .map_err(|e| log_err(self.log.path(), e))
    }

    fn persist_removes(&self, keys: &[NodeKey]) -> Result<(), BlobError> {
        let encoded: Vec<Vec<u8>> = keys.iter().map(|k| k.to_wire()).collect();
        let recs: Vec<Record<'_>> = encoded
            .iter()
            .map(|payload| Record {
                magic: META_REMOVE_MAGIC,
                a: 0,
                b: 0,
                c: 0,
                payload,
            })
            .collect();
        self.log
            .append_batch(&recs)
            .map_err(|e| log_err(self.log.path(), e))
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn log_bytes(&self) -> u64 {
        self.log.log_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_proto::tree::{ChildVersions, NodeBody};
    use blobseer_proto::BlobId;
    use blobseer_util::recordlog::{encode_header, payload_digest, write_at, REC_HEADER};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "metawal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn node(v: u64, offset: u64) -> TreeNode {
        TreeNode {
            key: NodeKey {
                blob: BlobId(1),
                version: v,
                offset,
                size: 4096,
            },
            body: NodeBody::Inner {
                children: ChildVersions::new(&[v; 32]).unwrap(),
            },
        }
    }

    /// A put payload of `node(v, offset)`'s key over a 16-way inner body,
    /// exactly as the 16-way tree journaled it: key, tag 2, fan-out 16,
    /// sixteen versions.
    fn sixteen_way_put(v: u64, offset: u64) -> Vec<u8> {
        let mut payload = node(v, offset).key.to_wire();
        payload.extend_from_slice(&[2, 16]);
        for _ in 0..16 {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload
    }

    #[test]
    fn puts_and_removes_replay_in_order() {
        let dir = tmp_dir("order");
        {
            let (wal, ops) = WalMeta::open(&dir, RecordLogOptions::default()).unwrap();
            assert!(ops.is_empty());
            wal.persist_puts(&[node(1, 0), node(1, 4096), node(2, 0)])
                .unwrap();
            wal.persist_removes(&[node(1, 0).key]).unwrap();
            assert!(wal.is_durable() && wal.log_bytes() > 0);
        }
        let (_, ops) = WalMeta::open(&dir, RecordLogOptions::default()).unwrap();
        assert_eq!(ops.len(), 4);
        assert!(matches!(&ops[0], MetaOp::Put(n) if n.key.version == 1));
        assert!(matches!(&ops[3], MetaOp::Remove(k) if k.version == 1 && k.offset == 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_garbage_is_typed_error_not_panic() {
        let dir = tmp_dir("garbage");
        // A validly checksummed, committed record whose payload is not
        // a decodable TreeNode: replay must surface Recovery with the
        // offending offset, never panic.
        write_committed_put(&dir, b"not a tree node");
        let err = WalMeta::open(&dir, RecordLogOptions::default()).unwrap_err();
        assert!(
            matches!(err, BlobError::Recovery { offset: 0, .. }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit one put record with `payload` at the head of a fresh
    /// `meta.g0.log` under `dir`.
    fn write_committed_put(dir: &Path, payload: &[u8]) {
        std::fs::create_dir_all(dir).unwrap();
        let file = std::fs::File::create(dir.join("meta.g0.log")).unwrap();
        let header = encode_header(
            META_PUT_MAGIC,
            0,
            0,
            0,
            payload.len() as u64,
            payload_digest(payload),
        );
        write_at(&file, &header, 0).unwrap();
        write_at(&file, payload, REC_HEADER).unwrap();
        let marker_at = REC_HEADER + payload.len() as u64;
        let marker = encode_header(blobseer_util::recordlog::COMMIT_MAGIC, 0, 0, 0, 0, 0);
        write_at(&file, &marker, marker_at).unwrap();
    }

    #[test]
    fn binary_tree_journal_does_not_reopen() {
        // A committed put of a binary inner node, exactly as the
        // pre-16-way tree journaled it: key, tag 0, left, right.
        let dir = tmp_dir("binary");
        let mut payload = node(1, 0).key.to_wire();
        payload.push(0);
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        write_committed_put(&dir, &payload);
        let err = WalMeta::open(&dir, RecordLogOptions::default()).unwrap_err();
        match &err {
            BlobError::Recovery { file, offset, .. } => {
                assert!(file.ends_with("meta.g0.log"), "{file}");
                assert_eq!(*offset, 0);
            }
            other => panic!("expected Recovery, got {other:?}"),
        }
        // The node service refuses to open on it: nothing is served.
        let svc = crate::node::DhtNodeService::open_durable(
            &dir,
            RecordLogOptions::default(),
            blobseer_simnet::ServiceCosts::zero(),
        );
        assert!(matches!(svc, Err(BlobError::Recovery { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sixteen_way_journal_does_not_reopen() {
        // A committed put of a 16-way inner node: the record is intact,
        // but its body's tag is refused, never read as a 32-way node.
        let dir = tmp_dir("sixteen");
        write_committed_put(&dir, &sixteen_way_put(1, 0));
        let path = dir.join("meta.g0.log");
        let image = std::fs::read(&path).unwrap();
        let err = WalMeta::open(&dir, RecordLogOptions::default()).unwrap_err();
        assert!(
            matches!(err, BlobError::Recovery { offset: 0, .. }),
            "got {err:?}"
        );
        let svc = crate::node::DhtNodeService::open_durable(
            &dir,
            RecordLogOptions::default(),
            blobseer_simnet::ServiceCosts::zero(),
        );
        assert!(matches!(svc, Err(BlobError::Recovery { offset: 0, .. })));
        assert_eq!(std::fs::read(&path).unwrap(), image, "byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_in_a_retired_format_is_refused_untouched() {
        // The journal the retired digest leaves after one committed put
        // of a 16-way `node(1, 0)`: a `BSMTPUT1` record whose check word
        // the single-chain digest computed, then its marker.
        let dir = tmp_dir("retired");
        std::fs::create_dir_all(&dir).unwrap();
        let payload = sixteen_way_put(1, 0);
        assert_eq!(payload.len(), 162);
        let mut image: Vec<u8> = [
            0x4253_4d54_5055_5431u64,
            0,
            0,
            0,
            162,
            0x6598_839f_c33f_9f55,
        ]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
        image.extend_from_slice(&payload);
        image.extend_from_slice(&encode_header(
            blobseer_util::recordlog::COMMIT_MAGIC,
            0,
            0,
            0,
            0,
            0,
        ));
        let path = dir.join("meta.g0.log");
        std::fs::write(&path, &image).unwrap();
        let err = WalMeta::open(&dir, RecordLogOptions::default()).unwrap_err();
        assert!(
            matches!(err, BlobError::Recovery { offset: 0, .. }),
            "got {err:?}"
        );
        // Nor does the node service open on it; nothing was appended.
        let svc = crate::node::DhtNodeService::open_durable(
            &dir,
            RecordLogOptions::default(),
            blobseer_simnet::ServiceCosts::zero(),
        );
        assert!(matches!(svc, Err(BlobError::Recovery { offset: 0, .. })));
        assert_eq!(std::fs::read(&path).unwrap(), image, "byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn volatile_backend_is_a_noop() {
        let v = VolatileMeta;
        v.persist_puts(&[node(1, 0)]).unwrap();
        v.persist_removes(&[node(1, 0).key]).unwrap();
        assert!(!v.is_durable());
        assert_eq!(v.log_bytes(), 0);
    }
}
