//! The metadata-provider service: one DHT node.
//!
//! Stores immutable tree nodes keyed by [`NodeKey`]. Handles single and
//! batched puts/gets/removes; batch handling is what the RPC aggregation
//! optimization (paper §V.A) talks to. Processing costs per node are
//! charged through [`ServerCtx`] using [`ServiceCosts`], calibrated to
//! BambooDHT-era behaviour.
//!
//! ## Durability
//!
//! Since PR 7 the node has a `StorageBackend`-style durability seam
//! ([`crate::wal::MetaBackend`]): [`DhtNodeService::new`] keeps the
//! classic volatile node, [`DhtNodeService::open_durable`] journals
//! every put/remove through the shared record-then-commit log engine
//! *before* applying or acknowledging it, and replays the journal into
//! the serving index at open. The log format (put / remove records,
//! batched puts under one group-commit marker) and the crash model
//! (`SIGKILL` at any offset surfaces exactly the committed prefix,
//! committed-but-undecodable bytes are a typed
//! [`BlobError::Recovery`], never a panic) are documented in
//! [`crate::wal`]. Serving reads never touches the journal — the
//! steady-state read path is identical in both modes, and the journal's
//! commit machinery is durability plumbing outside the lockmeter, so
//! the zero-serialization discipline is unchanged.

use crate::wal::{MetaBackend, MetaOp, VolatileMeta, WalMeta};
use blobseer_proto::messages::{
    method, MetaGet, MetaGetBatch, MetaGetBatchResp, MetaPut, MetaPutBatch, MetaRemoveBatch,
};
use blobseer_proto::tree::{NodeBody, NodeKey, TreeNode};
use blobseer_proto::BlobError;
use blobseer_rpc::{error_frame, respond, Frame, ServerCtx, Service};
use blobseer_simnet::ServiceCosts;
use blobseer_util::recordlog::RecordLogOptions;
use blobseer_util::ShardedMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Metadata store of one DHT node (volatile or journal-backed — see
/// the module docs).
pub struct DhtNodeService {
    store: ShardedMap<NodeKey, NodeBody>,
    backend: Box<dyn MetaBackend>,
    costs: ServiceCosts,
    puts: AtomicU64,
    gets: AtomicU64,
}

impl DhtNodeService {
    /// Empty volatile node with the given processing costs.
    pub fn new(costs: ServiceCosts) -> Self {
        Self {
            store: ShardedMap::with_shards(64),
            backend: Box::new(VolatileMeta),
            costs,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
        }
    }

    /// Open (or create) a journal-backed node under `dir`: the meta
    /// log is replayed into the serving index, and every subsequent
    /// put/remove is journaled before it is acknowledged.
    pub fn open_durable(
        dir: &Path,
        opts: RecordLogOptions,
        costs: ServiceCosts,
    ) -> Result<Self, BlobError> {
        let (wal, ops) = WalMeta::open(dir, opts)?;
        let store = ShardedMap::with_shards(64);
        for op in ops {
            match op {
                // Insert replaces: replaying puts in order gives
                // last-record-wins, matching live idempotent puts.
                MetaOp::Put(node) => {
                    store.insert(node.key, node.body);
                }
                MetaOp::Remove(key) => {
                    store.remove(&key);
                }
            }
        }
        Ok(Self {
            store,
            backend: Box::new(wal),
            costs,
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
        })
    }

    /// True when puts/removes are journaled (outlive the process).
    pub fn is_durable(&self) -> bool {
        self.backend.is_durable()
    }

    /// Journal size in bytes (0 for a volatile node).
    pub fn log_bytes(&self) -> u64 {
        self.backend.log_bytes()
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

    /// Write-ahead: journal first, apply and acknowledge after — an
    /// acknowledged put is recoverable by replay.
    fn put(&self, node: TreeNode) -> Result<(), BlobError> {
        self.backend.persist_puts(std::slice::from_ref(&node))?;
        self.puts.fetch_add(1, Ordering::Relaxed);
        // Tree nodes are immutable: double-put (replica repair, retried
        // writes) is idempotent.
        self.store.insert(node.key, node.body);
        Ok(())
    }

    /// Batched write-ahead: the whole batch rides one commit marker
    /// (the durability analogue of paying one RPC latency per batch).
    fn put_batch(&self, nodes: Vec<TreeNode>) -> Result<(), BlobError> {
        self.backend.persist_puts(&nodes)?;
        for node in nodes {
            self.puts.fetch_add(1, Ordering::Relaxed);
            self.store.insert(node.key, node.body);
        }
        Ok(())
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
    /// and removes are write-ahead (a journal append and its commit);
    /// they keep the pool.
    fn nonblocking(&self, method: u16) -> bool {
        matches!(method, method::META_GET | method::META_GET_BATCH)
    }

    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        match frame.method {
            method::META_PUT => {
                ctx.charge(self.costs.meta_store_cpu_ns);
                ctx.charge_latency(self.costs.meta_store_ns);
                respond(frame, |m: MetaPut| self.put(m.node))
            }
            method::META_GET => {
                ctx.charge(self.costs.meta_fetch_ns);
                respond(frame, |m: MetaGet| {
                    self.get(&m.key).ok_or(BlobError::MissingMetadata {
                        blob: m.key.blob,
                        version: m.key.version,
                    })
                })
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
                    self.backend.persist_removes(&m.keys)?;
                    let mut removed = 0u64;
                    for k in &m.keys {
                        if self.store.remove(k).is_some() {
                            removed += 1;
                        }
                    }
                    Ok(removed)
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
    use blobseer_proto::tree::ChildVersions;
    use blobseer_proto::BlobId;
    use blobseer_rpc::parse_response;

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
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_GET, &MetaGet { key: n.key }),
        );
        assert_eq!(parse_response::<TreeNode>(&resp).unwrap(), n);
        assert_eq!(svc.len(), 1);
    }

    #[test]
    fn get_missing_is_error() {
        let svc = DhtNodeService::new(ServiceCosts::zero());
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(
                method::META_GET,
                &MetaGet {
                    key: node(9, 0).key,
                },
            ),
        );
        assert!(matches!(
            parse_response::<TreeNode>(&resp),
            Err(BlobError::MissingMetadata { .. })
        ));
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
        let mut ctx = ServerCtx::new(0);
        for i in 0..4 {
            svc.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::META_PUT,
                    &MetaPut {
                        node: node(1, i * 4096),
                    },
                ),
            );
        }
        let keys = vec![node(1, 0).key, node(1, 4096).key, node(9, 0).key];
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(method::META_REMOVE_BATCH, &MetaRemoveBatch { keys }),
        );
        assert_eq!(parse_response::<u64>(&resp).unwrap(), 2);
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
        use std::sync::atomic::AtomicU64;
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "dht-durable-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let svc = DhtNodeService::open_durable(&dir, Default::default(), ServiceCosts::zero())
                .unwrap();
            assert!(svc.is_durable() && svc.is_empty());
            let mut ctx = ServerCtx::new(0);
            let nodes: Vec<TreeNode> = (0..4).map(|i| node(1, i * 4096)).collect();
            let resp = svc.handle(
                &mut ctx,
                &Frame::from_msg(method::META_PUT_BATCH, &MetaPutBatch { nodes }),
            );
            parse_response::<()>(&resp).unwrap();
            let resp = svc.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::META_REMOVE_BATCH,
                    &MetaRemoveBatch {
                        keys: vec![node(1, 0).key],
                    },
                ),
            );
            assert_eq!(parse_response::<u64>(&resp).unwrap(), 1);
            assert!(svc.log_bytes() > 0);
        }
        // A fresh node on the same dir re-serves every acknowledged put
        // minus the acknowledged remove.
        let svc =
            DhtNodeService::open_durable(&dir, Default::default(), ServiceCosts::zero()).unwrap();
        assert_eq!(svc.len(), 3);
        assert!(!svc.contains(&node(1, 0).key));
        assert!(svc.contains(&node(1, 4096).key));
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(
            &mut ctx,
            &Frame::from_msg(
                method::META_GET,
                &MetaGet {
                    key: node(1, 8192).key,
                },
            ),
        );
        assert_eq!(
            parse_response::<TreeNode>(&resp).unwrap(),
            node(1, 8192),
            "replayed node is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_method_rejected() {
        let svc = DhtNodeService::new(ServiceCosts::zero());
        let mut ctx = ServerCtx::new(0);
        let resp = svc.handle(&mut ctx, &Frame::from_msg(0x7777, &0u64));
        assert!(parse_response::<u64>(&resp).is_err());
    }
}
