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
//! One generation file `meta.g<N>.log`, its format header naming the
//! metadata journal's format number ([`FORMAT`]), then records whose
//! header fields `a`, `b`, `c` are all 0 (13 B of header for a payload
//! under 128 B):
//!
//! * **put** ([`PUT_KIND`]): payload is the wire-encoded [`TreeNode`].
//!   Tree nodes are immutable and content-addressed by [`NodeKey`], so
//!   replaying puts in order is idempotent — a double put (replica
//!   repair, retried write) re-inserts the same body.
//!
//!   The node encoding is part of this format: every integer of the key
//!   and body is a varint (see [`blobseer_proto::tree`]); a leaf body is
//!   wire tag 4, a 32-way inner body tag 5 (fan-out, then one varint
//!   version per child).
//! * **remove** ([`REMOVE_KIND`]): payload is the wire-encoded [`NodeKey`]
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
//! * Every journal written before format headers — 48-byte record
//!   headers with the magics `BSMTPUT1`…`3` / `BSMTDEL1`…`3` — has
//!   something other than [`FORMAT`]'s header at its head, so the engine
//!   refuses it at open, before replay or any append. A change to what a
//!   record holds raises [`FORMAT`]'s number, and older journals are
//!   refused the same way.
//! * Body tags 0 (the binary tree's `{left, right}`), 1 (the fixed-width
//!   leaf), 2 (the 16-way tree's inner body, laid out as tag 3 over
//!   other child intervals) and 3 (the fixed-width 32-way inner body)
//!   decode as [`blobseer_proto::CodecError::BadTag`], so a record that
//!   carries one is refused at replay.
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
    self, Client, CompactReport, CompactTrigger, Format, LogError, OwnedRecord, Record, RecordLog,
    RecordLogOptions, FIRST_CLIENT_KIND,
};
use blobseer_util::ShardedMap;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The metadata journal's format: generation files `meta.g<N>.log`,
/// format number 1 (varint tree nodes, wire tags 4 and 5).
pub const FORMAT: Format = Format {
    client: Client::Metadata,
    number: 1,
};

/// Kind of a put record: payload is a wire-encoded [`TreeNode`].
pub const PUT_KIND: u8 = FIRST_CLIENT_KIND;

/// Kind of a remove record: payload is a wire-encoded [`NodeKey`],
/// four varints.
pub const REMOVE_KIND: u8 = FIRST_CLIENT_KIND + 1;

/// The serving index of one DHT node.
pub type NodeIndex = ShardedMap<NodeKey, NodeBody>;

/// Journal bytes of a record over a `len`-byte payload.
fn record_bytes(len: usize) -> u64 {
    recordlog::footprint(0, 0, 0, len as u64)
}

/// Journal bytes of the put record of `key → body`: header, key, body.
pub(crate) fn put_record_bytes(key: &NodeKey, body: &NodeBody) -> u64 {
    record_bytes(key.wire_hint() + body.wire_hint())
}

/// Journal bytes of the remove record of `key`: header and key.
pub(crate) fn remove_record_bytes(key: &NodeKey) -> u64 {
    record_bytes(key.wire_hint())
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
        offset: 0,
        detail: e.detail(),
    }
}

/// A record of `kind` (put or remove) carrying `payload`.
fn record(kind: u8, payload: &[u8]) -> Record<'_> {
    Record {
        kind,
        a: 0,
        b: 0,
        c: 0,
        payload,
    }
}

/// `payloads` as records of one kind.
fn records(kind: u8, payloads: &[Vec<u8>]) -> Vec<Record<'_>> {
    payloads.iter().map(|p| record(kind, p)).collect()
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
        let (log, records) =
            RecordLog::open(dir, FORMAT, opts).map_err(|(e, file)| log_err(&file, e))?;
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
        match rec.kind {
            PUT_KIND => Ok(MetaOp::Put(
                TreeNode::from_wire(&rec.payload).map_err(|_| recovery("undecodable tree node"))?,
            )),
            REMOVE_KIND => Ok(MetaOp::Remove(
                NodeKey::from_wire(&rec.payload).map_err(|_| recovery("undecodable node key"))?,
            )),
            _ => Err(recovery("unknown meta record kind")),
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
            .append_batch_then(&records(PUT_KIND, &encoded), || {
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
            .append_batch_then(&records(REMOVE_KIND, &encoded), || {
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
            next.put(record(PUT_KIND, &node.to_wire()))?;
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
                next.put(record(PUT_KIND, &node.to_wire()))?;
            }
            // Staged nodes the index no longer holds were removed
            // during the snapshot: their put records open the new
            // generation dead, behind a remove record each.
            for (key, body) in &staged {
                next.put(record(REMOVE_KIND, &key.to_wire()))?;
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
    use blobseer_util::recordlog::{header, payload_digest, COMMIT_KIND};
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
                recordlog::footprint(0, 0, 0, n.to_wire().len() as u64)
            );
        }
        assert_eq!(
            remove_record_bytes(&node(1, 0).key),
            recordlog::footprint(0, 0, 0, node(1, 0).key.to_wire().len() as u64)
        );
        // A 13 B header under 128 payload bytes, 14 B up to 16 KiB.
        assert_eq!(record_bytes(127), 13 + 127);
        assert_eq!(record_bytes(128), 14 + 128);
    }

    /// Where a journal's first record lands: after its format header.
    fn start() -> u64 {
        FORMAT.start().durable
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
            matches!(err, BlobError::Recovery { offset, .. } if offset == start()),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit one put record with `payload` as the first record of a
    /// fresh `meta.g0.log` under `dir`.
    fn write_committed_put(dir: &Path, payload: &[u8]) {
        std::fs::create_dir_all(dir).unwrap();
        let len = payload.len() as u64;
        let image = [
            &FORMAT.header()[..],
            &header(PUT_KIND, 0, 0, 0, len, payload_digest(payload)),
            payload,
            &header(COMMIT_KIND, 0, start(), 0, 0, 0),
        ]
        .concat();
        std::fs::write(dir.join("meta.g0.log"), image).unwrap();
    }

    /// Open `dir` as a journal and as a durable node: both must refuse
    /// `meta.g0.log` as `Recovery` at `offset` naming that file, and
    /// leave it as it was — nothing is served and nothing appended.
    fn assert_refused_untouched(dir: &Path, offset: u64) {
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
            BlobError::Recovery {
                file, offset: at, ..
            } => {
                assert_eq!(Path::new(file), path);
                assert_eq!(*at, offset);
            }
            other => panic!("expected Recovery, got {other:?}"),
        }
        let svc = crate::node::DhtNodeService::open_durable(
            dir,
            RecordLogOptions::default(),
            CompactTrigger::default(),
            blobseer_simnet::ServiceCosts::zero(),
        );
        assert!(matches!(svc, Err(BlobError::Recovery { .. })));
        assert_eq!(std::fs::read(&path).unwrap(), image, "byte-identical");
        assert_eq!(std::fs::read_dir(dir).unwrap().count(), 1, "nothing added");
    }

    #[test]
    fn journal_written_before_format_headers_is_refused_untouched() {
        // The journal the 48-byte-header format leaves after one put of
        // a leaf of blob 1, version 1, offset 0, size 4 KiB whose page
        // key is (1, 1, 0) on provider 1: a `BSMTPUT3` record of that
        // node's 11 varint bytes, then a `BSPGCMT1` marker, each header
        // six words with the check word that format computed.
        let mut image: Vec<u8> = [0x4253_4d54_5055_5433, 0, 0, 0, 11, 0xd62b_2bb1_6fbc_f12e]
            .iter()
            .flat_map(|w: &u64| w.to_le_bytes())
            .collect();
        image.extend_from_slice(&[1, 1, 0, 0x80, 0x20, 4, 1, 1, 0, 1, 1]);
        image.extend(
            [0x4253_5047_434d_5431u64, 0, 0, 0, 0, 0x4e2e_37c1_20c7_f245]
                .iter()
                .flat_map(|w| w.to_le_bytes()),
        );
        assert_eq!(image.len(), 107);
        let dir = tmp_dir("before-headers");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("meta.g0.log"), &image).unwrap();
        assert_refused_untouched(&dir, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fixed_width_bodies_do_not_reopen() {
        // A current key over the fixed-width bodies' tags — tag 1, a leaf
        // of three u64 page-key fields, a u32 count and a u32 id; tag 3,
        // an inner node of u64 versions — is a `BadTag`, so the record
        // is a `Recovery` at its offset, never a node.
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
            assert_refused_untouched(&dir, start());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn binary_tree_journal_does_not_reopen() {
        // A committed put of a binary inner node: key, tag 0, left,
        // right.
        let dir = tmp_dir("binary");
        let mut payload = node(1, 0).key.to_wire();
        payload.push(0);
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&1u64.to_le_bytes());
        write_committed_put(&dir, &payload);
        assert_refused_untouched(&dir, start());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sixteen_way_journal_does_not_reopen() {
        // A committed put of a 16-way inner node (tag 2, fan-out 16,
        // sixteen u64 versions): the record is intact, but its body's tag
        // is refused, never read as a 32-way node.
        let dir = tmp_dir("sixteen");
        let mut payload = node(1, 0).key.to_wire();
        payload.extend_from_slice(&[2, 16]);
        for _ in 0..16 {
            payload.extend_from_slice(&1u64.to_le_bytes());
        }
        write_committed_put(&dir, &payload);
        assert_refused_untouched(&dir, start());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
