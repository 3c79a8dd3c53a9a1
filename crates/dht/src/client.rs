//! Client-side DHT access: routing, batching, replication, failover.
//!
//! Tree nodes are dispersed over the metadata providers by routing key
//! (paper §III.C: "the metadata tree nodes are uniformly dispersed among
//! the metadata providers through the underlying DHT"). Puts go to all
//! replicas; gets try the primary first and fail over to the remaining
//! replicas on miss or node death — the paper's §VI points at the DHT's
//! off-the-shelf fault tolerance, which this reproduces.
//!
//! The routing ring is fixed when the deployment is built, so routing
//! reads it through a plain shared pointer.

use crate::ring::Ring;
use blobseer_proto::messages::{
    method, MetaGetBatch, MetaGetBatchResp, MetaPut, MetaPutBatch, MetaRemoveBatch,
};
use blobseer_proto::tree::{NodeKey, TreeNode};
use blobseer_proto::{BlobError, NodeId};
use blobseer_rpc::{Ctx, Frame, RpcClient};
use std::sync::Arc;

/// A replicated, batching DHT client.
pub struct DhtClient {
    rpc: RpcClient,
    ring: Arc<Ring>,
}

impl DhtClient {
    /// Create a client over the deployment's ring.
    pub fn new(rpc: RpcClient, ring: Arc<Ring>) -> Self {
        Self { rpc, ring }
    }

    /// Store nodes on every replica. Succeeds if **every node** reached at
    /// least one replica; the error carries the first failure otherwise.
    /// The composition of [`DhtClient::put_frames`] and
    /// [`DhtClient::finish_put`] over a burst of its own.
    pub fn put_nodes(&self, ctx: &mut Ctx, nodes: &[TreeNode]) -> Result<(), BlobError> {
        if nodes.is_empty() {
            return Ok(());
        }
        let (put, frames) = self.put_frames(nodes);
        let replies = self.rpc.call_all(ctx, frames);
        self.finish_put(put, replies)
    }

    /// A [`DhtClient::put_nodes`] as frames. The caller sends them — in a
    /// burst of its own, if it likes — and hands their replies, in order,
    /// to [`DhtClient::finish_put`].
    ///
    /// With aggregation enabled (the default), all nodes bound for one
    /// provider travel in a single `META_PUT_BATCH` message — the paper's
    /// streamed-RPC optimization. With `AggregationPolicy::PerCall`, every
    /// (node, replica) is its own `META_PUT` message (the `ablate-agg`
    /// baseline).
    pub fn put_frames(&self, nodes: &[TreeNode]) -> (NodePut, Vec<(NodeId, Frame)>) {
        if self.rpc.aggregation() == blobseer_rpc::AggregationPolicy::PerCall {
            let mut frames = Vec::new();
            let mut replica_counts = Vec::with_capacity(nodes.len());
            for n in nodes {
                let dests = self.ring.replicas(n.key.routing_key());
                replica_counts.push(dests.len());
                let put = Frame::from_msg(method::META_PUT, &MetaPut { node: n.clone() });
                frames.extend(dests.into_iter().map(|dest| (dest, put.clone())));
            }
            return (NodePut(PutShape::PerItem(replica_counts)), frames);
        }
        // (destination, node indices) for every replica of every node.
        let mut groups = Groups::new();
        for (i, n) in nodes.iter().enumerate() {
            for dest in self.ring.replicas(n.key.routing_key()) {
                match groups.iter_mut().find(|(d, _)| *d == dest) {
                    Some((_, idxs)) => idxs.push(i),
                    None => groups.push((dest, vec![i])),
                }
            }
        }
        let frames = groups
            .iter()
            .map(|(dest, idxs)| {
                let batch = MetaPutBatch {
                    nodes: idxs.iter().map(|&i| nodes[i].clone()).collect(),
                };
                (*dest, Frame::from_msg(method::META_PUT_BATCH, &batch))
            })
            .collect();
        let put = PutShape::Batched {
            nodes: nodes.len(),
            groups,
        };
        (NodePut(put), frames)
    }

    /// Judge the replies to [`DhtClient::put_frames`]' frames: a node is
    /// stored iff at least one of its replica puts landed.
    pub fn finish_put(
        &self,
        put: NodePut,
        results: Vec<Result<(), BlobError>>,
    ) -> Result<(), BlobError> {
        let unstored = match put.0 {
            PutShape::PerItem(replica_counts) => first_unstored(&results, &replica_counts),
            PutShape::Batched { nodes, groups } => {
                let mut stored = vec![false; nodes];
                let mut first_err = None;
                for ((_, idxs), res) in groups.iter().zip(results) {
                    match res {
                        Ok(()) => idxs.iter().for_each(|&i| stored[i] = true),
                        Err(e) => first_err = Some(e),
                    }
                }
                if stored.iter().all(|&s| s) {
                    None
                } else {
                    Some(first_err.unwrap_or(BlobError::Internal("metadata put failed")))
                }
            }
        };
        unstored.map_or(Ok(()), Err)
    }

    /// Fetch nodes by key, in key order (`None` = definitely missing on
    /// every reachable replica). Fails only if some key's replicas were
    /// all unreachable.
    pub fn get_nodes(
        &self,
        ctx: &mut Ctx,
        keys: &[NodeKey],
    ) -> Result<Vec<Option<TreeNode>>, BlobError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let (mut fetch, frames) = self.fetch_frames(keys);
        for (m, reply) in self.rpc.call_all(ctx, frames).into_iter().enumerate() {
            fetch.absorb(m, reply);
        }
        self.finish_fetch(ctx, fetch)
    }

    /// The first attempt of a [`DhtClient::get_nodes`] as frames: one
    /// `META_GET_BATCH` per primary replica. The caller sends them — in a
    /// burst of its own, if it likes — hands each reply to
    /// [`NodeFetch::absorb`] as it arrives, and then the fetch to
    /// [`DhtClient::finish_fetch`].
    pub fn fetch_frames(&self, keys: &[NodeKey]) -> (NodeFetch, Vec<(NodeId, Frame)>) {
        let pending: Vec<usize> = (0..keys.len()).collect();
        let (groups, frames) = self.attempt(keys, &pending, 0);
        let fetch = NodeFetch {
            keys: keys.to_vec(),
            groups,
            out: vec![None; keys.len()],
            unresolved: Vec::new(),
            last_err: None,
        };
        (fetch, frames)
    }

    /// Fail over what the first attempt left unresolved: keys missing or
    /// unreachable on one replica are asked of the next, until every
    /// replica has been tried. Returns every node, in key order.
    pub fn finish_fetch(
        &self,
        ctx: &mut Ctx,
        fetch: NodeFetch,
    ) -> Result<Vec<Option<TreeNode>>, BlobError> {
        let NodeFetch {
            keys,
            mut out,
            unresolved: mut pending,
            mut last_err,
            ..
        } = fetch;
        for attempt in 1..self.ring.replication() {
            if pending.is_empty() {
                break;
            }
            let (groups, frames) = self.attempt(&keys, &pending, attempt);
            let replies = self.rpc.call_all(ctx, frames);
            pending.clear();
            for ((_, idxs), reply) in groups.iter().zip(replies) {
                absorb(idxs, reply, &mut out, &mut pending, &mut last_err);
            }
        }
        // Keys still pending after the last replica stay None when they
        // are simply absent — callers distinguish absence from transport
        // failure by the error. Only a replica that was unreachable or
        // shedding fails the fetch: an Overload must survive here —
        // decaying it into the caller's "missing metadata" would erase
        // the backoff hint (and lie: the node has the key, it shed us).
        match last_err {
            Some(e) if !pending.is_empty() && e.is_retryable() => Err(e),
            _ => Ok(out),
        }
    }

    /// One attempt's messages: the `pending` keys grouped by their
    /// `attempt`-th replica. A key with fewer replicas drops out.
    fn attempt(
        &self,
        keys: &[NodeKey],
        pending: &[usize],
        attempt: usize,
    ) -> (Groups, Vec<(NodeId, Frame)>) {
        let mut groups = Groups::new();
        for &i in pending {
            let reps = self.ring.replicas(keys[i].routing_key());
            let Some(&dest) = reps.get(attempt) else {
                continue;
            };
            match groups.iter_mut().find(|(d, _)| *d == dest) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((dest, vec![i])),
            }
        }
        let frames = groups
            .iter()
            .map(|(dest, idxs)| {
                let batch = MetaGetBatch {
                    keys: idxs.iter().map(|&i| keys[i]).collect(),
                };
                (*dest, Frame::from_msg(method::META_GET_BATCH, &batch))
            })
            .collect();
        (groups, frames)
    }

    /// Remove keys from every replica (best effort; returns how many
    /// removals the reachable replicas acknowledged).
    pub fn remove_nodes(&self, ctx: &mut Ctx, keys: &[NodeKey]) -> u64 {
        if keys.is_empty() {
            return 0;
        }
        let mut groups: Vec<(NodeId, Vec<NodeKey>)> = Vec::new();
        for &k in keys {
            for dest in self.ring.replicas(k.routing_key()) {
                match groups.iter_mut().find(|(d, _)| *d == dest) {
                    Some((_, ks)) => ks.push(k),
                    None => groups.push((dest, vec![k])),
                }
            }
        }
        let calls = groups
            .into_iter()
            .map(|(dest, keys)| {
                let batch = MetaRemoveBatch { keys };
                (dest, Frame::from_msg(method::META_REMOVE_BATCH, &batch))
            })
            .collect();
        self.rpc
            .call_all::<u64>(ctx, calls)
            .into_iter()
            .filter_map(|r| r.ok())
            .sum()
    }
}

/// A [`DhtClient::get_nodes`] whose first attempt is in flight: the
/// keys, which of them each first-attempt message carries, and what the
/// replies absorbed so far resolved.
pub struct NodeFetch {
    keys: Vec<NodeKey>,
    groups: Groups,
    out: Vec<Option<TreeNode>>,
    /// Key indices a reply left unresolved, for the next replica.
    unresolved: Vec<usize>,
    last_err: Option<BlobError>,
}

impl NodeFetch {
    /// Absorb the reply to first-attempt message `m` (each message
    /// once, in any order): returns the key indices it resolved, whose
    /// nodes [`NodeFetch::node`] holds. A key the message did not
    /// resolve — missing on that replica, or the message failed — is left
    /// for [`DhtClient::finish_fetch`] to ask the next replica.
    pub fn absorb(&mut self, m: usize, reply: Result<MetaGetBatchResp, BlobError>) -> Vec<usize> {
        let Some((_, idxs)) = self.groups.get(m) else {
            return Vec::new();
        };
        let (out, unresolved, last_err) = (&mut self.out, &mut self.unresolved, &mut self.last_err);
        absorb(idxs, reply, out, unresolved, last_err)
    }

    /// Key `i`'s node, once an absorbed reply resolved it.
    pub fn node(&self, i: usize) -> Option<&TreeNode> {
        self.out.get(i).and_then(Option::as_ref)
    }
}

/// A [`DhtClient::put_nodes`] whose frames are in flight: which nodes
/// each frame stores.
pub struct NodePut(PutShape);

enum PutShape {
    /// One `META_PUT_BATCH` per destination: `nodes` nodes in all, and
    /// the node indices each destination's batch carries.
    Batched { nodes: usize, groups: Groups },
    /// One `META_PUT` per (node, replica), each node's replicas back to
    /// back: how many replicas each node has.
    PerItem(Vec<usize>),
}

/// The node or key indices each message carries, by destination.
type Groups = Vec<(NodeId, Vec<usize>)>;

/// Fold the reply to one message, which carried the keys `idxs`, into
/// `out`: returns the key indices it resolved, and appends those it did
/// not (missing on that replica, or the message failed) to `unresolved`.
fn absorb(
    idxs: &[usize],
    reply: Result<MetaGetBatchResp, BlobError>,
    out: &mut [Option<TreeNode>],
    unresolved: &mut Vec<usize>,
    last_err: &mut Option<BlobError>,
) -> Vec<usize> {
    let mut resolved = Vec::with_capacity(idxs.len());
    match reply {
        Ok(resp) if resp.nodes.len() == idxs.len() => {
            for (&i, node) in idxs.iter().zip(resp.nodes) {
                match node {
                    Some(n) => {
                        out[i] = Some(n);
                        resolved.push(i);
                    }
                    // Missing on this replica: retry next.
                    None => unresolved.push(i),
                }
            }
        }
        Ok(_) => {
            *last_err = Some(BlobError::Internal("malformed batch get response"));
            unresolved.extend_from_slice(idxs);
        }
        Err(e) => {
            *last_err = Some(e);
            unresolved.extend_from_slice(idxs);
        }
    }
    resolved
}

/// Per-item put attribution: `results` holds each node's replica puts
/// back to back, `replica_counts[i]` of them for node `i`. Returns the
/// error of the first node none of whose replicas stored it.
fn first_unstored(
    results: &[Result<(), BlobError>],
    replica_counts: &[usize],
) -> Option<BlobError> {
    let mut rest = results;
    for &count in replica_counts {
        let (own, tail) = rest.split_at(count.min(rest.len()));
        rest = tail;
        if !own.iter().any(Result::is_ok) {
            let err = own.iter().find_map(|r| r.as_ref().err().cloned());
            return Some(err.unwrap_or(BlobError::Internal("metadata put had no replica")));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DhtNodeService;
    use blobseer_proto::tree::{ChildVersions, NodeBody};
    use blobseer_proto::BlobId;
    use blobseer_rpc::InProcTransport;
    use blobseer_simnet::ServiceCosts;

    fn setup(n_providers: u32, replication: usize) -> (DhtClient, Vec<Arc<DhtNodeService>>) {
        let t = Arc::new(InProcTransport::new());
        let client_node = t.add_node();
        let mut services = Vec::new();
        let mut provider_ids = Vec::new();
        for _ in 0..n_providers {
            let id = t.add_node();
            let svc = Arc::new(DhtNodeService::new(ServiceCosts::zero()));
            t.bind(id, svc.clone());
            services.push(svc);
            provider_ids.push(id);
        }
        let rpc = RpcClient::new(t, client_node);
        let ring = Arc::new(Ring::new(&provider_ids, 128, replication, 7));
        (DhtClient::new(rpc, ring), services)
    }

    fn tree_node(v: u64, offset: u64) -> TreeNode {
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
    fn put_then_get_across_providers() {
        let (client, services) = setup(4, 1);
        let nodes: Vec<TreeNode> = (0..40).map(|i| tree_node(1, i * 4096)).collect();
        let mut ctx = Ctx::start();
        client.put_nodes(&mut ctx, &nodes).unwrap();
        // Nodes dispersed over all providers.
        let counts: Vec<usize> = services.iter().map(|s| s.len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 40);
        assert!(counts.iter().all(|&c| c > 0), "dispersal: {counts:?}");

        let keys: Vec<NodeKey> = nodes.iter().map(|n| n.key).collect();
        let got = client.get_nodes(&mut ctx, &keys).unwrap();
        for (want, got) in nodes.iter().zip(got) {
            assert_eq!(got.as_ref(), Some(want));
        }
    }

    #[test]
    fn missing_keys_are_none() {
        let (client, _svcs) = setup(3, 1);
        let mut ctx = Ctx::start();
        let got = client.get_nodes(&mut ctx, &[tree_node(9, 0).key]).unwrap();
        assert_eq!(got, vec![None]);
    }

    #[test]
    fn replication_stores_copies_and_survives_failover() {
        let (client, services) = setup(3, 2);
        let nodes: Vec<TreeNode> = (0..30).map(|i| tree_node(1, i * 4096)).collect();
        let mut ctx = Ctx::start();
        client.put_nodes(&mut ctx, &nodes).unwrap();
        let total: usize = services.iter().map(|s| s.len()).sum();
        assert_eq!(total, 60, "each node stored twice");
        // Empty the primary copies by brute force: clear one provider
        // entirely; every key must still be resolvable via its other
        // replica.
        let victim = &services[0];
        let removed_any = !victim.is_empty();
        // simulate loss by removing through the service API
        let keys: Vec<NodeKey> = nodes.iter().map(|n| n.key).collect();
        for k in &keys {
            if victim.contains(k) {
                let mut ctx2 = blobseer_rpc::ServerCtx::new(0);
                blobseer_rpc::Service::handle(
                    victim.as_ref(),
                    &mut ctx2,
                    &Frame::from_msg(
                        method::META_REMOVE_BATCH,
                        &MetaRemoveBatch { keys: vec![*k] },
                    ),
                );
            }
        }
        assert!(removed_any);
        let got = client.get_nodes(&mut ctx, &keys).unwrap();
        assert!(
            got.iter().all(|g| g.is_some()),
            "failover to surviving replicas"
        );
    }

    #[test]
    fn remove_nodes_deletes_all_replicas() {
        let (client, services) = setup(3, 2);
        let nodes: Vec<TreeNode> = (0..10).map(|i| tree_node(2, i * 4096)).collect();
        let mut ctx = Ctx::start();
        client.put_nodes(&mut ctx, &nodes).unwrap();
        let keys: Vec<NodeKey> = nodes.iter().map(|n| n.key).collect();
        let removed = client.remove_nodes(&mut ctx, &keys);
        assert_eq!(removed, 20, "both replicas of each node removed");
        assert!(services.iter().all(|s| s.is_empty()));
        let got = client.get_nodes(&mut ctx, &keys).unwrap();
        assert!(got.iter().all(|g| g.is_none()));
    }

    #[test]
    fn per_item_attribution_follows_uneven_replica_counts() {
        let down = || Err(BlobError::Unreachable("down"));
        // Node 0 has three replicas, nodes 1 and 2 one each, and node 1's
        // only put failed. Fixed-width chunks of two would pair that
        // failure with a neighbour's success and call every node stored.
        let results = [Ok(()), Ok(()), Ok(()), down(), Ok(())];
        assert!(matches!(
            first_unstored(&results, &[3, 1, 1]),
            Some(BlobError::Unreachable("down"))
        ));
        // The same results attributed 2 + 2 + 1: every node has a copy.
        assert!(first_unstored(&results, &[2, 2, 1]).is_none());
        // All of one node's replicas failing is an error even when every
        // other node stored everywhere; the first such node is reported.
        let shed = || {
            Err(BlobError::Overload {
                retry_after_hint: 7,
            })
        };
        let results = [Ok(()), Ok(()), shed(), shed(), down()];
        assert!(matches!(
            first_unstored(&results, &[2, 2, 1]),
            Some(BlobError::Overload {
                retry_after_hint: 7
            })
        ));
        assert!(first_unstored(&[], &[]).is_none());
    }

    #[test]
    fn per_item_puts_store_every_replica() {
        let (client, services) = setup(3, 2);
        let client = DhtClient::new(
            client
                .rpc
                .clone()
                .with_aggregation(blobseer_rpc::AggregationPolicy::PerCall),
            Arc::clone(&client.ring),
        );
        let nodes: Vec<TreeNode> = (0..10).map(|i| tree_node(3, i * 4096)).collect();
        client.put_nodes(&mut Ctx::start(), &nodes).unwrap();
        assert_eq!(services.iter().map(|s| s.len()).sum::<usize>(), 20);
    }

    #[test]
    fn empty_batches_are_noops() {
        let (client, _svcs) = setup(2, 1);
        let mut ctx = Ctx::start();
        client.put_nodes(&mut ctx, &[]).unwrap();
        assert_eq!(client.get_nodes(&mut ctx, &[]).unwrap().len(), 0);
        assert_eq!(client.remove_nodes(&mut ctx, &[]), 0);
        assert_eq!(ctx.vt, 0, "no messages sent");
    }
}
