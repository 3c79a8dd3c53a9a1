//! The metadata provider's journal.
//!
//! The sharded in-memory index is the serving path either way; a
//! durable DHT node ([`crate::DhtNodeService::open_durable`]) also
//! journals every put and remove through the shared record-then-commit
//! engine ([`blobseer_util::recordlog`]) *before* the mutation is
//! applied or acknowledged — write-ahead, group-committed, so
//! "acknowledged means recoverable" holds for tree nodes exactly as it
//! does for pages. [`WalMeta`] is that journal; a volatile node has
//! none.
//!
//! ## Log format
//!
//! One generation file `meta.g<N>.log` of 48-byte-header records:
//!
//! * **put** (`BSMTPUT3`): payload is the wire-encoded [`TreeNode`].
//!   Tree nodes are immutable and content-addressed by [`NodeKey`], so
//!   replaying puts in order is idempotent — a double put (replica
//!   repair, retried write) re-inserts the same body.
//!
//!   The node encoding is part of this format: every integer of the key
//!   and body is a varint (see [`blobseer_proto::tree`]); a leaf body is
//!   wire tag 4, a 32-way inner body tag 5 (fan-out, then one varint
//!   version per child).
//! * **remove** (`BSMTDEL3`): payload is the wire-encoded [`NodeKey`]
//!   (GC executing a plan), four varints. Only a node the index holds
//!   is journaled as removed: a remove of anything else writes nothing.
//! * group-commit markers / tombstones as defined by the engine.
//!
//! ### Earlier formats
//!
//! A journal of an earlier format does **not** reopen. It is a
//! [`BlobError::Recovery`], the file is left byte-identical, and no node
//! of it is served — never an old node read as one of this tree's.
//!
//! * `BSMTPUT2`/`BSMTDEL2` wrote every integer of a node in fixed width:
//!   a 32-byte key, a leaf body as tag 1 with a `u64` page key, a `u32`
//!   replica count and `u32` ids, an inner body as tag 3 with one `u64`
//!   per child. `BSMTPUT1`/`BSMTDEL1` were the same records under the
//!   engine's retired single-chain payload digest. All four are in
//!   [`blobseer_util::recordlog::RETIRED_MAGICS`], so the engine refuses
//!   such a journal at open, before replay or any append.
//! * Body tags 0 (the binary tree's `{left, right}`), 1 (the fixed-width
//!   leaf), 2 (the 16-way tree's inner body, laid out as tag 3 over
//!   other child intervals) and 3 (the fixed-width 32-way inner body)
//!   decode as [`blobseer_proto::CodecError::BadTag`], so a record that
//!   carries one under the current magics is refused at replay.
//!
//! A batched put (`META_PUT_BATCH`, the paper's aggregation
//! optimization) appends all its records under **one** commit marker —
//! the durability analogue of paying one RPC latency per batch.
//!
//! ## Generations and dead bytes
//!
//! The journal is append-only within a generation, so a record can
//! outlive its purpose. Its **dead bytes** ([`WalMeta::dead_bytes`])
//! are exactly the put records of nodes removed or superseded since,
//! plus every remove record; its **live bytes**
//! ([`WalMeta::live_bytes`]) are the put records of the nodes the index
//! holds. Both are counted from what the index's own insert and remove
//! return, on the serving path and identically during replay, so a
//! reopened node starts from the same figures.
//!
//! [`WalMeta::compact`] rewrites the journal as the next generation
//! `meta.g<N+1>.log`, exactly as the page log is compacted: the live
//! index is snapshotted and staged under one marker while puts and
//! removes continue; then, under the engine's generation gate (no
//! journal append in flight), whatever changed since the snapshot is
//! staged behind it — puts as put records, removals as remove records —
//! under a second marker, and the generation is installed. So a
//! compacted journal holds the live index plus what arrived since its
//! last rewrite. It is made of the same records and markers as any
//! other generation: a rewrite changes no format, and replays like one.
//! Compaction runs on request, and online when a remove or a
//! superseding put pushes dead bytes past the deployment's
//! [`CompactTrigger`] — the rule the page log runs — on the thread that
//! made them.
//!
//! ## Crash model
//!
//! `SIGKILL` at any byte offset: replay surfaces exactly the committed
//! prefix. A torn tail (crash mid-append or mid-commit) is silently
//! dropped — those puts were never acknowledged. A *committed* record
//! that fails to decode is a [`BlobError::Recovery`] with file + offset
//! context, never a panic.
//!
//! A rewrite stages `meta.g<N+1>.log.tmp`, seals and fsyncs it, renames
//! it into place, and unlinks `meta.g<N>.log`. A crash before the
//! rename leaves a `.tmp` that never wins: the old generation replays,
//! as if no rewrite had started. A crash after it leaves both
//! generations, and the newest wins — it already holds every record the
//! old one acknowledged, because the gate held appends off until the
//! catch-up was sealed. Either way the debris is removed at the next
//! open.

use blobseer_proto::tree::{NodeBody, NodeKey, TreeNode};
use blobseer_proto::wire::Wire;
use blobseer_proto::BlobError;
use blobseer_util::recordlog::{
    CompactReport, CompactTrigger, LogError, OwnedRecord, Record, RecordLog, RecordLogOptions,
    REC_HEADER,
};
use blobseer_util::ShardedMap;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Magic of a put record ("BSMTPUT3"): payload is a wire-encoded
/// [`TreeNode`], varint integers. `BSMTPUT2` (fixed-width nodes) and
/// `BSMTPUT1` (the engine's retired single-chain payload digest) are in
/// [`blobseer_util::recordlog::RETIRED_MAGICS`]: a journal holding one
/// is refused at open, untouched.
pub const META_PUT_MAGIC: u64 = 0x4253_4d54_5055_5433;

/// Magic of a remove record ("BSMTDEL3"): payload is a wire-encoded
/// [`NodeKey`], four varints. `BSMTDEL2` and `BSMTDEL1` are retired
/// like `BSMTPUT2` and `BSMTPUT1`.
pub const META_REMOVE_MAGIC: u64 = 0x4253_4d54_4445_4c33;

/// The serving index of one DHT node.
pub type NodeIndex = ShardedMap<NodeKey, NodeBody>;

/// Journal bytes of the put record of `key → body`: header, key, body.
pub(crate) fn put_record_bytes(key: &NodeKey, body: &NodeBody) -> u64 {
    REC_HEADER + (key.wire_hint() + body.wire_hint()) as u64
}

/// Journal bytes of the remove record of `key`: header and key.
pub(crate) fn remove_record_bytes(key: &NodeKey) -> u64 {
    REC_HEADER + key.wire_hint() as u64
}

/// One replayed metadata mutation.
enum MetaOp {
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

/// A record of kind `magic` (put or remove) carrying `payload`.
fn record(magic: u64, payload: &[u8]) -> Record<'_> {
    Record {
        magic,
        a: 0,
        b: 0,
        c: 0,
        payload,
    }
}

/// `payloads` as records of one kind.
fn records(magic: u64, payloads: &[Vec<u8>]) -> Vec<Record<'_>> {
    payloads.iter().map(|p| record(magic, p)).collect()
}

/// The write-ahead metadata journal of one DHT node, with its space
/// accounting and compaction (see the module docs).
#[derive(Debug)]
pub struct WalMeta {
    log: RecordLog,
    trigger: CompactTrigger,
    /// Bytes of the put records of the nodes the index holds.
    live: AtomicU64,
    /// Bytes of records no replay needs: the put records of removed or
    /// superseded nodes, and every remove record.
    dead: AtomicU64,
    /// After a failed compaction the trigger waits for this many dead
    /// bytes (0: no back-off), so a persistent failure does not turn
    /// every remove into a rewrite attempt.
    retry_floor: AtomicU64,
    /// An online compaction is running; the trigger does not queue
    /// behind it.
    compacting: AtomicBool,
    /// Rewrites completed.
    compactions: AtomicU64,
}

impl WalMeta {
    /// Open (or create) the metadata journal under `dir` and replay it
    /// into the empty `index`, counting live and dead bytes as it goes.
    /// Dead bytes past `trigger` compact online.
    pub fn open(
        dir: &Path,
        opts: RecordLogOptions,
        trigger: CompactTrigger,
        index: &NodeIndex,
    ) -> Result<Self, BlobError> {
        let (log, records) = RecordLog::open(dir, "meta", opts).map_err(|e| log_err(dir, e))?;
        let wal = Self {
            log,
            trigger,
            live: AtomicU64::new(0),
            dead: AtomicU64::new(0),
            retry_floor: AtomicU64::new(0),
            compacting: AtomicBool::new(false),
            compactions: AtomicU64::new(0),
        };
        for rec in &records {
            match wal.decode_op(rec)? {
                // Insert replaces: replaying puts in order gives
                // last-record-wins, matching live idempotent puts.
                MetaOp::Put(node) => wal.insert(index, node),
                MetaOp::Remove(key) => {
                    wal.remove(index, &key);
                }
            }
        }
        Ok(wal)
    }

    /// Decode one committed record; failures carry file + offset.
    fn decode_op(&self, rec: &OwnedRecord) -> Result<MetaOp, BlobError> {
        let recovery = |detail: &'static str| BlobError::Recovery {
            file: self.log.path().display().to_string(),
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

    fn err(&self, e: LogError) -> BlobError {
        log_err(&self.log.path(), e)
    }

    /// Insert `node` after its put record: that record is live, and the
    /// one of the node it supersedes is dead.
    fn insert(&self, index: &NodeIndex, node: TreeNode) {
        let key = node.key;
        self.live
            .fetch_add(put_record_bytes(&key, &node.body), Ordering::Relaxed);
        if let Some(old) = index.insert(key, node.body) {
            self.bury(put_record_bytes(&key, &old));
        }
    }

    /// Remove `key` after its remove record: the record is dead on
    /// arrival, and so is the put record of the node it removes.
    fn remove(&self, index: &NodeIndex, key: &NodeKey) -> bool {
        self.dead
            .fetch_add(remove_record_bytes(key), Ordering::Relaxed);
        match index.remove(key) {
            Some(old) => {
                self.bury(put_record_bytes(key, &old));
                true
            }
            None => false,
        }
    }

    /// A live put record of `bytes` became dead.
    fn bury(&self, bytes: u64) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
        self.dead.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Journal `nodes` under one commit marker, then insert them into
    /// `index` — write-ahead: an acknowledged put is recoverable.
    pub fn put_batch(&self, index: &NodeIndex, nodes: Vec<TreeNode>) -> Result<(), BlobError> {
        let encoded: Vec<Vec<u8>> = nodes.iter().map(Wire::to_wire).collect();
        self.log
            .append_batch_then(&records(META_PUT_MAGIC, &encoded), || {
                for node in nodes {
                    self.insert(index, node);
                }
            })
            .map_err(|e| self.err(e))
    }

    /// Journal the removes of the nodes among `keys` that `index` holds
    /// under one commit marker, then remove them; a key it does not
    /// hold journals nothing. Returns how many nodes were removed.
    pub fn remove_batch(&self, index: &NodeIndex, keys: &[NodeKey]) -> Result<u64, BlobError> {
        let held: Vec<NodeKey> = keys
            .iter()
            .filter(|k| index.contains_key(k))
            .copied()
            .collect();
        if held.is_empty() {
            return Ok(0);
        }
        let encoded: Vec<Vec<u8>> = held.iter().map(Wire::to_wire).collect();
        self.log
            .append_batch_then(&records(META_REMOVE_MAGIC, &encoded), || {
                held.iter().filter(|k| self.remove(index, k)).count() as u64
            })
            .map_err(|e| self.err(e))
    }

    /// Journal size in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.log.log_bytes()
    }

    /// Bytes of the put records of the nodes the index holds.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Bytes a compaction would reclaim (see the module docs).
    pub fn dead_bytes(&self) -> u64 {
        self.dead.load(Ordering::Relaxed)
    }

    /// Rewrites this journal completed since it was opened.
    pub fn compactions(&self) -> u64 {
        self.compactions.load(Ordering::Relaxed)
    }

    /// The online trigger, run after a mutation: compact when dead
    /// bytes crossed the trigger (and any back-off floor), unless a
    /// compaction is already running. Best effort — a failure leaves
    /// the current generation serving and backs the trigger off.
    pub fn maybe_compact(&self, index: &NodeIndex) {
        let dead = self.dead_bytes();
        let trigger = CompactTrigger {
            min_dead_bytes: self
                .retry_floor
                .load(Ordering::Relaxed)
                .max(self.trigger.min_dead_bytes),
            ..self.trigger
        };
        if !trigger.fires(dead, self.log_bytes()) || self.compacting.swap(true, Ordering::Acquire) {
            return;
        }
        let _ = self.compact(index);
        self.compacting.store(false, Ordering::Release);
    }

    /// Rewrite the journal as the live `index` plus whatever changed
    /// while the snapshot was written (see the module docs). `Ok(None)`
    /// when no byte is dead. Puts and removes wait only for the
    /// catch-up and the install.
    pub fn compact(&self, index: &NodeIndex) -> Result<Option<CompactReport>, BlobError> {
        match self.rewrite(index) {
            Ok(None) => Ok(None),
            Ok(Some(report)) => {
                self.retry_floor.store(0, Ordering::Relaxed);
                self.compactions.fetch_add(1, Ordering::Relaxed);
                Ok(Some(report))
            }
            Err(e) => {
                let floor = self.dead_bytes().saturating_mul(2);
                self.retry_floor.store(floor, Ordering::Relaxed);
                Err(self.err(e))
            }
        }
    }

    /// [`compact`](Self::compact)'s two phases.
    fn rewrite(&self, index: &NodeIndex) -> Result<Option<CompactReport>, LogError> {
        if self.dead_bytes() == 0 {
            return Ok(None);
        }
        let mut next = self.log.begin_rewrite()?;
        // Phase 1, appends continue: stage the live index as it stands.
        let snapshot: Vec<TreeNode> = index.fold(Vec::new(), |mut nodes, key, body| {
            nodes.push(TreeNode {
                key: *key,
                body: body.clone(),
            });
            nodes
        });
        for node in &snapshot {
            next.put(record(META_PUT_MAGIC, &node.to_wire()))?;
        }
        next.seal()?;
        // Phase 2, under the gate: stage what changed since, and swap.
        let (report, (dead_before, dead_after)) = next.install(|next| {
            let mut staged: HashMap<NodeKey, &NodeBody> =
                snapshot.iter().map(|n| (n.key, &n.body)).collect();
            let mut dead_after = 0;
            let changed = index.fold(Vec::new(), |mut changed, key, body| {
                match staged.remove(key) {
                    Some(was) if was == body => return changed,
                    Some(was) => dead_after += put_record_bytes(key, was),
                    None => {}
                }
                changed.push(TreeNode {
                    key: *key,
                    body: body.clone(),
                });
                changed
            });
            for node in &changed {
                next.put(record(META_PUT_MAGIC, &node.to_wire()))?;
            }
            // Staged nodes the index no longer holds were removed
            // during the snapshot: their put records open the new
            // generation dead, behind a remove record each.
            for (key, body) in &staged {
                next.put(record(META_REMOVE_MAGIC, &key.to_wire()))?;
                dead_after += put_record_bytes(key, body) + remove_record_bytes(key);
            }
            // Every mutation holds the gate's other side, so the count
            // is still; what lands after the swap adds to it.
            Ok((self.dead_bytes(), dead_after))
        })?;
        self.dead
            .fetch_sub(dead_before.saturating_sub(dead_after), Ordering::Relaxed);
        Ok(Some(report))
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

    /// `key` as the fixed-width formats wrote it: four `u64`s.
    fn fixed_width_key(key: &NodeKey) -> Vec<u8> {
        [key.blob.0, key.version, key.offset, key.size]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect()
    }

    /// A put payload of `node(v, offset)` over a 16-way inner body,
    /// exactly as the 16-way tree journaled it: fixed-width key, tag 2,
    /// fan-out 16, sixteen `u64` versions.
    fn sixteen_way_put(v: u64, offset: u64) -> Vec<u8> {
        let mut payload = fixed_width_key(&node(v, offset).key);
        payload.extend_from_slice(&[2, 16]);
        for _ in 0..16 {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        payload
    }

    fn open(dir: &Path) -> (WalMeta, NodeIndex) {
        let index = NodeIndex::default();
        let wal = WalMeta::open(
            dir,
            RecordLogOptions::default(),
            CompactTrigger::default(),
            &index,
        )
        .unwrap();
        (wal, index)
    }

    #[test]
    fn puts_and_removes_replay_in_order() {
        let dir = tmp_dir("order");
        {
            let (wal, index) = open(&dir);
            assert!(index.is_empty());
            wal.put_batch(&index, vec![node(1, 0), node(1, 4096), node(2, 0)])
                .unwrap();
            assert_eq!(wal.remove_batch(&index, &[node(1, 0).key]).unwrap(), 1);
            assert!(wal.log_bytes() > 0);
        }
        let (wal, index) = open(&dir);
        assert_eq!(index.len(), 2);
        assert!(!index.contains_key(&node(1, 0).key));
        assert_eq!(index.get_cloned(&node(2, 0).key), Some(node(2, 0).body));
        // The remove came after its put: replay counts that put dead.
        assert_eq!(
            wal.dead_bytes(),
            put_record_bytes(&node(1, 0).key, &node(1, 0).body)
                + remove_record_bytes(&node(1, 0).key)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_sizes_are_the_encoded_sizes() {
        let leaf = TreeNode {
            key: node(1, 0).key,
            body: NodeBody::Leaf {
                page: blobseer_proto::tree::PageLoc {
                    key: blobseer_proto::tree::PageKey {
                        blob: BlobId(1),
                        write: blobseer_proto::WriteId(7),
                        index: 3,
                    },
                    replicas: vec![blobseer_proto::ProviderId(1), blobseer_proto::ProviderId(2)],
                },
            },
        };
        for n in [node(1, 0), leaf] {
            assert_eq!(
                put_record_bytes(&n.key, &n.body),
                REC_HEADER + n.to_wire().len() as u64
            );
        }
        assert_eq!(
            remove_record_bytes(&node(1, 0).key),
            REC_HEADER + node(1, 0).key.to_wire().len() as u64
        );
    }

    #[test]
    fn committed_garbage_is_typed_error_not_panic() {
        let dir = tmp_dir("garbage");
        // A validly checksummed, committed record whose payload is not
        // a decodable TreeNode: replay must surface Recovery with the
        // offending offset, never panic.
        write_committed_put(&dir, b"not a tree node");
        let err = WalMeta::open(
            &dir,
            RecordLogOptions::default(),
            CompactTrigger::default(),
            &NodeIndex::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, BlobError::Recovery { offset: 0, .. }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit one put record with `payload` at the head of a fresh
    /// `meta.g0.log` under `dir`.
    fn write_committed_put(dir: &Path, payload: &[u8]) {
        write_committed(dir, META_PUT_MAGIC, payload);
    }

    /// Commit one record of kind `magic` with `payload`, under the
    /// engine's current digest, at the head of a fresh `meta.g0.log`.
    fn write_committed(dir: &Path, magic: u64, payload: &[u8]) {
        std::fs::create_dir_all(dir).unwrap();
        let file = std::fs::File::create(dir.join("meta.g0.log")).unwrap();
        let header = encode_header(
            magic,
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

    /// Open `dir` as a journal and as a durable node: both must refuse
    /// `meta.g0.log` as `Recovery` at offset 0 naming `reported`, and
    /// leave it as it was — nothing is served and nothing appended. A
    /// record refused in replay names the generation file; a retired
    /// magic, refused by the engine before replay, names the directory.
    fn assert_refused_untouched(dir: &Path, reported: &Path) {
        let path = dir.join("meta.g0.log");
        let image = std::fs::read(&path).unwrap();
        let err = WalMeta::open(
            dir,
            RecordLogOptions::default(),
            CompactTrigger::default(),
            &NodeIndex::default(),
        )
        .unwrap_err();
        match &err {
            BlobError::Recovery { file, offset, .. } => {
                assert_eq!(Path::new(file), reported);
                assert_eq!(*offset, 0);
            }
            other => panic!("expected Recovery, got {other:?}"),
        }
        let svc = crate::node::DhtNodeService::open_durable(
            dir,
            RecordLogOptions::default(),
            CompactTrigger::default(),
            blobseer_simnet::ServiceCosts::zero(),
        );
        assert!(matches!(svc, Err(BlobError::Recovery { offset: 0, .. })));
        assert_eq!(std::fs::read(&path).unwrap(), image, "byte-identical");
    }

    #[test]
    fn fixed_width_journal_does_not_reopen() {
        // The journal the fixed-width format leaves after one committed
        // put of a 32-way inner node: a `BSMTPUT2` record of a 32-byte
        // key, tag 3, fan-out 32 and 32 `u64` versions, then its marker.
        let dir = tmp_dir("fixed");
        let mut payload = fixed_width_key(&node(1, 0).key);
        payload.extend_from_slice(&[3, 32]);
        for _ in 0..32 {
            payload.extend_from_slice(&1u64.to_le_bytes());
        }
        assert_eq!(payload.len(), 290);
        write_committed(&dir, 0x4253_4d54_5055_5432, &payload);
        assert_refused_untouched(&dir, &dir);
        // So is a journal that opens with a fixed-width remove.
        let dir2 = tmp_dir("fixed-del");
        write_committed(
            &dir2,
            0x4253_4d54_4445_4c32,
            &fixed_width_key(&node(1, 0).key),
        );
        assert_refused_untouched(&dir2, &dir2);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn fixed_width_bodies_under_the_current_magic_do_not_reopen() {
        // A current key over the fixed-width bodies' tags — tag 1, a leaf
        // of three u64 page-key fields, a u32 count and a u32 id; tag 3,
        // an inner node of u64 versions — is a `BadTag`, so the record
        // is a `Recovery`, never a node.
        let key = node(1, 0).key.to_wire();
        let mut leaf = vec![1u8];
        for field in [1u64, 7, 3] {
            leaf.extend_from_slice(&field.to_le_bytes());
        }
        leaf.extend_from_slice(&1u32.to_le_bytes());
        leaf.extend_from_slice(&2u32.to_le_bytes());
        let mut inner = vec![3u8, 2];
        inner.extend_from_slice(&1u64.to_le_bytes());
        inner.extend_from_slice(&1u64.to_le_bytes());
        for (tag, body) in [(1u8, leaf), (3, inner)] {
            let payload = [&key[..], &body].concat();
            assert_eq!(
                TreeNode::from_wire(&payload),
                Err(blobseer_proto::CodecError::BadTag {
                    tag,
                    ty: "NodeBody"
                })
            );
            let dir = tmp_dir("old-tag");
            write_committed_put(&dir, &payload);
            assert_refused_untouched(&dir, &dir.join("meta.g0.log"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn binary_tree_journal_does_not_reopen() {
        // A committed put of a binary inner node under this format's
        // magic: key, tag 0, left, right.
        let dir = tmp_dir("binary");
        let mut payload = node(1, 0).key.to_wire();
        payload.push(0);
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        write_committed_put(&dir, &payload);
        assert_refused_untouched(&dir, &dir.join("meta.g0.log"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sixteen_way_journal_does_not_reopen() {
        // A committed put of a 16-way inner node: the record is intact,
        // but its body's tag is refused, never read as a 32-way node.
        let dir = tmp_dir("sixteen");
        let mut payload = node(1, 0).key.to_wire();
        payload.extend_from_slice(&sixteen_way_put(1, 0)[32..]);
        write_committed_put(&dir, &payload);
        assert_refused_untouched(&dir, &dir.join("meta.g0.log"));
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
        std::fs::write(dir.join("meta.g0.log"), &image).unwrap();
        assert_refused_untouched(&dir, &dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
