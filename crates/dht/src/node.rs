//! The metadata-provider service: one DHT node.
//!
//! Stores immutable tree nodes keyed by [`NodeKey`]. Handles single and
//! batched puts, batched gets and batched removes; batch handling is
//! what the RPC aggregation optimization (paper §V.A) talks to.
//! Processing costs per node are charged through [`ServerCtx`] using
//! [`ServiceCosts`], calibrated to BambooDHT-era behaviour.
//!
//! ## Durability
//!
//! [`DhtNodeService::new`] keeps the classic volatile node;
//! [`DhtNodeService::open_durable`] journals every put/remove through
//! the shared record-then-commit log engine *before* applying or
//! acknowledging it ([`WalMeta`]), replays the journal into the serving
//! index at open, and compacts it — on request
//! ([`DhtNodeService::compact`]) and online, when a remove or a
//! superseding put leaves enough dead bytes. The log format, the space
//! accounting and the crash model are documented in [`crate::wal`].
//! Serving reads never touches the journal — the steady-state read
//! path is identical in both modes, and the journal's commit machinery
//! is durability plumbing outside the lockmeter, so the
//! zero-serialization discipline is unchanged.

use crate::wal::{NodeIndex, WalMeta};
use blobseer_proto::messages::{
    method, MetaGetBatch, MetaGetBatchResp, MetaPut, MetaPutBatch, MetaRemoveBatch,
};
use blobseer_proto::tree::{NodeKey, TreeNode};
use blobseer_proto::BlobError;
use blobseer_rpc::{error_frame, respond, Frame, ServerCtx, Service};
use blobseer_simnet::ServiceCosts;
use blobseer_util::recordlog::{CompactReport, CompactTrigger, RecordLogOptions};
use blobseer_util::ShardedMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Metadata store of one DHT node (volatile or journal-backed — see
/// the module docs).
pub struct DhtNodeService {
    store: NodeIndex,
    journal: Option<WalMeta>,
    costs: ServiceCosts,
    puts: AtomicU64,
    gets: AtomicU64,
}

impl DhtNodeService {
    /// Empty volatile node with the given processing costs.
    pub fn new(costs: ServiceCosts) -> Self {
        Self {
            store: ShardedMap::with_shards(64),
            journal: None,
            costs,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
        }
    }

    /// Open (or create) a journal-backed node under `dir`: the meta
    /// log is replayed into the serving index, every subsequent
    /// put/remove is journaled before it is acknowledged, and dead
    /// journal bytes past `trigger` compact online.
    pub fn open_durable(
        dir: &Path,
        opts: RecordLogOptions,
        trigger: CompactTrigger,
        costs: ServiceCosts,
    ) -> Result<Self, BlobError> {
        let store = ShardedMap::with_shards(64);
        let journal = WalMeta::open(dir, opts, trigger, &store)?;
        Ok(Self {
            store,
            journal: Some(journal),
            costs,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
        })
    }

    /// True when puts/removes are journaled (outlive the process).
    pub fn is_durable(&self) -> bool {
        self.journal.is_some()
    }

    /// Journal size in bytes (0 for a volatile node).
    pub fn log_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, WalMeta::log_bytes)
    }

    /// Journal bytes of the nodes stored (0 for a volatile node).
    pub fn live_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, WalMeta::live_bytes)
    }

    /// Journal bytes a compaction would reclaim (0 for a volatile
    /// node).
    pub fn dead_bytes(&self) -> u64 {
        self.journal.as_ref().map_or(0, WalMeta::dead_bytes)
    }

    /// Journal rewrites completed, on request or online (0 for a
    /// volatile node).
    pub fn compactions(&self) -> u64 {
        self.journal.as_ref().map_or(0, WalMeta::compactions)
    }

    /// Rewrite the journal as the live index, reclaiming its dead
    /// bytes. `Ok(None)` when there is nothing to reclaim — always on a
    /// volatile node. Online: gets never wait, puts and removes only
    /// for the catch-up and the swap.
    pub fn compact(&self) -> Result<Option<CompactReport>, BlobError> {
        match &self.journal {
            None => Ok(None),
            Some(journal) => journal.compact(&self.store),
        }
    }

    /// Number of stored tree nodes.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the node stores nothing.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// `(puts, gets)` op counters.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.puts.load(Ordering::Relaxed),
            self.gets.load(Ordering::Relaxed),
        )
    }

    /// Direct store access for tests/GC verification.
    pub fn contains(&self, key: &NodeKey) -> bool {
        self.store.contains_key(key)
    }

    /// Store a batch. Durable: write-ahead, the whole batch under one
    /// commit marker (the durability analogue of paying one RPC latency
    /// per batch). Tree nodes are immutable: a double put (replica
    /// repair, retried writes) is idempotent.
    fn put_batch(&self, nodes: Vec<TreeNode>) -> Result<(), BlobError> {
        self.puts.fetch_add(nodes.len() as u64, Ordering::Relaxed);
        match &self.journal {
            None => {
                for node in nodes {
                    self.store.insert(node.key, node.body);
                }
            }
            Some(journal) => {
                journal.put_batch(&self.store, nodes)?;
                journal.maybe_compact(&self.store);
            }
        }
        Ok(())
    }

    /// Remove the nodes among `keys` this node holds (GC executing a
    /// plan); returns how many it removed.
    fn remove_batch(&self, keys: &[NodeKey]) -> Result<u64, BlobError> {
        match &self.journal {
            None => Ok(keys
                .iter()
                .filter(|k| self.store.remove(k).is_some())
                .count() as u64),
            Some(journal) => {
                let removed = journal.remove_batch(&self.store, keys)?;
                if removed > 0 {
                    journal.maybe_compact(&self.store);
                }
                Ok(removed)
            }
        }
    }

    fn get(&self, key: &NodeKey) -> Option<TreeNode> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        self.store
            .get_cloned(key)
            .map(|body| TreeNode { key: *key, body })
    }
}

impl Service for DhtNodeService {
    fn name(&self) -> &'static str {
        "metadata-provider"
    }

    /// Gets probe the sharded in-memory store, journaled or not. Puts
    /// and removes are write-ahead (a journal append and its commit)
    /// and may compact the journal; they keep the pool.
    fn nonblocking(&self, method: u16) -> bool {
        method == method::META_GET_BATCH
    }

    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        match frame.method {
            method::META_PUT => {
                ctx.charge(self.costs.meta_store_cpu_ns);
                ctx.charge_latency(self.costs.meta_store_ns);
                respond(frame, |m: MetaPut| self.put_batch(vec![m.node]))
            }
            method::META_PUT_BATCH => {
                let mut n = 0u64;
                let resp = respond(frame, |m: MetaPutBatch| {
                    n = m.nodes.len() as u64;
                    self.put_batch(m.nodes)
                });
                // CPU per node serializes on this provider; the I/O
                // acknowledgement latency is paid once per message — that
                // asymmetry is the whole point of aggregation.
                ctx.charge(n.max(1) * self.costs.meta_store_cpu_ns);
                ctx.charge_latency(self.costs.meta_store_ns);
                resp
            }
            method::META_GET_BATCH => {
                let mut n = 0u64;
                let resp = respond(frame, |m: MetaGetBatch| {
                    n = m.keys.len() as u64;
                    Ok(MetaGetBatchResp {
                        nodes: m.keys.iter().map(|k| self.get(k)).collect(),
                    })
                });
                ctx.charge(n.max(1) * self.costs.meta_fetch_ns);
                resp
            }
            method::META_REMOVE_BATCH => {
                let mut n = 0u64;
                let resp = respond(frame, |m: MetaRemoveBatch| {
                    n = m.keys.len() as u64;
                    self.remove_batch(&m.keys)
                });
                ctx.charge(n.max(1) * self.costs.meta_fetch_ns);
                resp
            }
            other => error_frame(other, BlobError::Internal("unknown metadata method")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_proto::tree::{ChildVersions, NodeBody};
    use blobseer_proto::BlobId;
    use blobseer_rpc::parse_response;
    use blobseer_util::recordlog;
    use std::path::PathBuf;

    fn node(v: u64, offset: u64) -> TreeNode {
        TreeNode {
            key: NodeKey {
                blob: BlobId(1),
                version: v,
                offset,
                size: 4096,
            },
            body: NodeBody::Inner {
                children: ChildVersions::new(&[v; 16]).unwrap(),
            },
        }
    }

    fn tmp_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dht-durable-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(dir: &Path, trigger: CompactTrigger) -> DhtNodeService {
        DhtNodeService::open_durable(dir, Default::default(), trigger, ServiceCosts::zero())
            .unwrap()
    }

    /// Bytes of a fresh journal generation holding `records` bytes of
    /// records under one commit marker: format header, records, marker.
    fn sealed(records: u64) -> u64 {
        let start = crate::wal::FORMAT.start().durable;
        start + records + recordlog::footprint(0, start, 0, 0)
    }

    /// Bytes of the committed records journal generation `n` under `dir`
    /// holds, dead ones included: what a compaction can reclaim is the
    /// difference between two generations'.
    fn record_bytes(dir: &Path, n: u64) -> u64 {
        let image = std::fs::read(dir.join(format!("meta.g{n}.log"))).unwrap();
        let mut bytes = 0;
        recordlog::replay(&image, |r| {
            bytes += recordlog::footprint(r.a, r.b, r.c, r.payload.len() as u64);
        });
        bytes
    }

    /// A trigger that never fires: compaction only on request.
    const NEVER: CompactTrigger = CompactTrigger {
        dead_ratio: 0.0,
        min_dead_bytes: 0,
    };

    fn put(svc: &DhtNodeService, nodes: Vec<TreeNode>) {
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_PUT_BATCH, &MetaPutBatch { nodes }),
        );
        parse_response::<()>(&resp).unwrap();
    }

    fn remove(svc: &DhtNodeService, keys: Vec<NodeKey>) -> u64 {
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_REMOVE_BATCH, &MetaRemoveBatch { keys }),
        );
        parse_response::<u64>(&resp).unwrap()
    }

    fn get(svc: &DhtNodeService, key: NodeKey) -> Option<TreeNode> {
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_GET_BATCH, &MetaGetBatch { keys: vec![key] }),
        );
        let mut got = parse_response::<MetaGetBatchResp>(&resp).unwrap();
        got.nodes.pop().unwrap()
    }

    #[test]
    fn put_get_single() {
        let svc = DhtNodeService::new(ServiceCosts::zero());
        let mut ctx = ServerCtx::new(0);
        let n = node(1, 0);
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_PUT, &MetaPut { node: n.clone() }),
        );
        parse_response::<()>(&resp).unwrap();
        assert_eq!(get(&svc, n.key), Some(n));
        assert_eq!(svc.len(), 1);
    }

    #[test]
    fn batch_roundtrip_and_charges() {
        let costs = ServiceCosts {
            meta_store_ns: 1000,
            meta_store_cpu_ns: 100,
            meta_fetch_ns: 10,
            ..ServiceCosts::zero()
        };
        let svc = DhtNodeService::new(costs);
        let nodes: Vec<TreeNode> = (0..5).map(|i| node(1, i * 4096)).collect();
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(
                method::META_PUT_BATCH,
                &MetaPutBatch {
                    nodes: nodes.clone(),
                },
            ),
        );
        parse_response::<()>(&resp).unwrap();
        assert_eq!(ctx.charged, 500, "per-node CPU cost serializes");
        assert_eq!(
            ctx.charged_latency, 1000,
            "store latency paid once per message"
        );

        let keys: Vec<NodeKey> = nodes.iter().map(|n| n.key).collect();
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_GET_BATCH, &MetaGetBatch { keys: keys.clone() }),
        );
        let got = parse_response::<MetaGetBatchResp>(&resp).unwrap();
        assert_eq!(got.nodes.len(), 5);
        assert!(got.nodes.iter().all(|n| n.is_some()));
        assert_eq!(ctx.charged, 50, "per-node fetch cost");
    }

    #[test]
    fn batch_get_reports_missing_as_none() {
        let svc = DhtNodeService::new(ServiceCosts::zero());
        let mut ctx = ServerCtx::new(0);
        svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_PUT, &MetaPut { node: node(1, 0) }),
        );
        let keys = vec![node(1, 0).key, node(2, 0).key];
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_GET_BATCH, &MetaGetBatch { keys }),
        );
        let got = parse_response::<MetaGetBatchResp>(&resp).unwrap();
        assert!(got.nodes[0].is_some());
        assert!(got.nodes[1].is_none());
    }

    #[test]
    fn remove_batch_counts() {
        let svc = DhtNodeService::new(ServiceCosts::zero());
        put(&svc, (0..4).map(|i| node(1, i * 4096)).collect());
        let keys = vec![node(1, 0).key, node(1, 4096).key, node(9, 0).key];
        assert_eq!(remove(&svc, keys), 2);
        assert_eq!(svc.len(), 2);
    }

    #[test]
    fn double_put_is_idempotent() {
        let svc = DhtNodeService::new(ServiceCosts::zero());
        let mut ctx = ServerCtx::new(0);
        let n = node(1, 0);
        for _ in 0..3 {
            svc.handle(
                &mut ctx,
                &Frame::from_msg(method::META_PUT, &MetaPut { node: n.clone() }),
            );
        }
        assert_eq!(svc.len(), 1);
        assert_eq!(svc.op_counts().0, 3);
    }

    #[test]
    fn durable_node_replays_acknowledged_mutations() {
        let dir = tmp_dir();
        {
            let svc = durable(&dir, NEVER);
            assert!(svc.is_durable() && svc.is_empty());
            put(&svc, (0..4).map(|i| node(1, i * 4096)).collect());
            assert_eq!(remove(&svc, vec![node(1, 0).key]), 1);
            assert!(svc.log_bytes() > 0);
        }
        // A fresh node on the same dir re-serves every acknowledged put
        // minus the acknowledged remove.
        let svc = durable(&dir, NEVER);
        assert_eq!(svc.len(), 3);
        assert!(!svc.contains(&node(1, 0).key));
        assert!(svc.contains(&node(1, 4096).key));
        assert_eq!(
            get(&svc, node(1, 8192).key),
            Some(node(1, 8192)),
            "replayed node is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_remove_of_a_node_not_held_journals_nothing() {
        let dir = tmp_dir();
        let svc = durable(&dir, NEVER);
        put(&svc, vec![node(1, 0)]);
        let (bytes, dead) = (svc.log_bytes(), svc.dead_bytes());
        assert_eq!(remove(&svc, vec![node(2, 0).key, node(3, 0).key]), 0);
        assert_eq!((svc.log_bytes(), svc.dead_bytes()), (bytes, dead));
        // A held key among absent ones journals exactly its own record.
        assert_eq!(remove(&svc, vec![node(2, 0).key, node(1, 0).key]), 1);
        let record = crate::wal::remove_record_bytes(&node(1, 0).key);
        assert_eq!(
            svc.log_bytes(),
            bytes + record + recordlog::footprint(1, bytes, 0, 0),
            "one record, one marker (the second, covering from the first's end)"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_exactly_the_live_index_and_replays_the_same_counts() {
        let dir = tmp_dir();
        let svc = durable(&dir, NEVER);
        assert_eq!(svc.compact().unwrap(), None, "nothing dead, nothing to do");
        put(&svc, (0..8).map(|i| node(1, i * 4096)).collect());
        put(&svc, vec![node(1, 0)]); // a double put supersedes a record
        assert_eq!(
            remove(&svc, (4..8).map(|i| node(1, i * 4096).key).collect()),
            4
        );
        let live = svc.live_bytes();
        let dead = svc.dead_bytes();
        // Varint offsets: 0 takes one byte, 4 KiB two, 16 KiB on three.
        let record =
            |i: u64| crate::wal::put_record_bytes(&node(1, i * 4096).key, &node(1, 0).body);
        let removal = |i: u64| crate::wal::remove_record_bytes(&node(1, i * 4096).key);
        assert_eq!(live, (0..4).map(record).sum::<u64>());
        assert_eq!(
            dead,
            record(0) + (4..8).map(|i| record(i) + removal(i)).sum::<u64>()
        );
        let old_records = record_bytes(&dir, 0);
        let report = svc.compact().unwrap().expect("dead bytes compact");
        assert_eq!(report.generation, 1);
        // The dead bytes counted are exactly the record bytes the
        // compaction reclaimed (markers are the log's, not a record's).
        assert_eq!(old_records - record_bytes(&dir, 1), dead);
        assert_eq!(
            report.new_log_bytes,
            sealed(live),
            "live records, one marker"
        );
        assert_eq!(
            report.old_log_bytes - report.new_log_bytes,
            report.reclaimed_bytes
        );
        assert_eq!((svc.log_bytes(), svc.dead_bytes()), (sealed(live), 0));
        assert_eq!(svc.compactions(), 1);
        // Appends continue in the new generation.
        put(&svc, vec![node(2, 0)]);
        drop(svc);
        let svc = durable(&dir, NEVER);
        assert_eq!(svc.len(), 5);
        assert!((0..4).all(|i| get(&svc, node(1, i * 4096).key) == Some(node(1, i * 4096))));
        assert!((4..8).all(|i| !svc.contains(&node(1, i * 4096).key)));
        let added = crate::wal::put_record_bytes(&node(2, 0).key, &node(2, 0).body);
        assert_eq!(
            svc.live_bytes(),
            live + added,
            "replay counts what serving counted"
        );
        assert_eq!(svc.dead_bytes(), 0);
        assert!(dir.join("meta.g1.log").exists() && !dir.join("meta.g0.log").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_bytes_past_the_trigger_compact_online() {
        let dir = tmp_dir();
        let record =
            |i: u64| crate::wal::put_record_bytes(&node(1, i * 4096).key, &node(1, 0).body);
        let trigger = CompactTrigger {
            dead_ratio: 0.5,
            min_dead_bytes: 5 * record(0),
        };
        let svc = durable(&dir, trigger);
        put(&svc, (0..8).map(|i| node(1, i * 4096)).collect());
        // Three removes leave fewer dead bytes than the floor.
        assert_eq!(
            remove(&svc, (0..3).map(|i| node(1, i * 4096).key).collect()),
            3
        );
        assert_eq!(svc.compactions(), 0);
        // Three more cross both thresholds: the remove compacts.
        assert_eq!(
            remove(&svc, (3..6).map(|i| node(1, i * 4096).key).collect()),
            3
        );
        assert_eq!(svc.compactions(), 1);
        assert_eq!(svc.dead_bytes(), 0);
        assert_eq!(svc.log_bytes(), sealed(record(6) + record(7)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_method_rejected() {
        let svc = DhtNodeService::new(ServiceCosts::zero());
        let mut ctx = ServerCtx::new(0);
        // 0x0302 was the single-node get: no product code sent it, and
        // it is no longer served.
        for m in [0x7777, 0x0302] {
            let resp = svc.handle(&mut ctx, &Frame::from_msg(m, &0u64));
            assert!(parse_response::<u64>(&resp).is_err());
        }
    }
}
