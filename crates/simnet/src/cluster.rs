//! The simulated cluster: an [`rpc::Transport`](blobseer_rpc::Transport)
//! whose calls cost virtual time according to the [`CostModel`].
//!
//! Handlers execute **inline on the caller's OS thread** — real
//! concurrency comes from concurrent client threads, exactly the threads
//! whose interleavings exercise the lock-free structures under test —
//! while *time* is fully simulated: every message reserves the sender CPU,
//! sender egress NIC, receiver ingress NIC and receiver CPU on their
//! calendars, so contention (the phenomenon Figure 3
//! measures) emerges from resource queueing, not wall-clock accidents.

use crate::cost::CostModel;
use crate::node::SimNode;
use blobseer_proto::{BlobError, NodeId};
use blobseer_rpc::{dispatch_frame, Frame, ServerCtx, Service, Transport, TransportResult};
use blobseer_util::{FxHashSet, ShardedMap};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated cluster of nodes on one site: one uniform latency between
/// any two distinct nodes.
pub struct SimCluster {
    nodes: RwLock<Vec<Slot>>,
    cost: CostModel,
    /// (src, dst) pairs that already paid connection setup.
    connected: ShardedMap<(u32, u32), ()>,
    /// Total messages carried (for aggregation ablations).
    messages: AtomicU64,
    /// Total payload bytes carried.
    bytes: AtomicU64,
}

/// One entry of the node table: the machine and the service bound to
/// it, if any.
struct Slot {
    node: Arc<SimNode>,
    service: Option<Arc<dyn Service>>,
}

impl SimCluster {
    /// Empty cluster with the given cost model.
    pub fn new(cost: CostModel) -> Self {
        Self {
            nodes: RwLock::new(Vec::new()),
            cost,
            connected: ShardedMap::with_shards(64),
            messages: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The paper's testbed.
    pub fn grid5000() -> Self {
        Self::new(CostModel::grid5000())
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Add a node.
    pub fn add_node(&self) -> NodeId {
        let mut g = self.nodes.write();
        g.push(Slot {
            node: Arc::new(SimNode::new()),
            service: None,
        });
        NodeId(g.len() as u32 - 1)
    }

    /// Bind a service to a node, replacing the one bound before: a
    /// restart is a fresh service at the same node. A call already
    /// dispatched finishes against the service it found; the next one
    /// reaches `svc`. Panics if the node is unknown.
    pub fn bind(&self, node: NodeId, svc: Arc<dyn Service>) {
        let mut g = self.nodes.write();
        g.get_mut(node.0 as usize)
            .expect("bind: node exists")
            .service = Some(svc);
    }

    /// Kill a node: subsequent calls to it fail with `Unreachable`.
    pub fn kill(&self, node: NodeId) {
        if let Some(n) = self.node(node) {
            n.alive.store(false, Ordering::Release);
        }
    }

    /// Revive a previously killed node. Its bound service is untouched,
    /// in-memory state included: this models a node that was cut off and
    /// comes back, not a process restart. A restart binds a fresh
    /// service first ([`SimCluster::bind`]).
    pub fn revive(&self, node: NodeId) {
        if let Some(n) = self.node(node) {
            n.alive.store(true, Ordering::Release);
        }
    }

    /// Node accessor.
    pub fn node(&self, id: NodeId) -> Option<Arc<SimNode>> {
        let g = self.nodes.read();
        g.get(id.0 as usize).map(|slot| Arc::clone(&slot.node))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total messages carried so far.
    pub fn message_count(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total payload bytes carried so far.
    pub fn byte_count(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The virtual-time horizon: the latest next-free time across every
    /// resource in the cluster. An actor that is *causally after* all
    /// prior traffic (e.g., a reader measuring a segment that a setup
    /// phase just wrote) must start its clock here, otherwise it would
    /// queue behind phantom traffic from its own past.
    pub fn horizon(&self) -> u64 {
        let g = self.nodes.read();
        g.iter().map(|slot| slot.node.horizon()).max().unwrap_or(0)
    }

    fn latency(&self, a: &SimNode, b: &SimNode) -> u64 {
        if std::ptr::eq(a, b) {
            return 0;
        }
        self.cost.latency_ns
    }

    /// One direction of a message: sender send-CPU → egress NIC → wire →
    /// ingress NIC. Returns the arrival time at the receiver.
    fn ship(&self, src: &SimNode, dst: &SimNode, vt: u64, payload: usize, setup: u64) -> u64 {
        let cpu_done = src
            .cpu_send
            .reserve(vt, self.cost.endpoint_cpu_ns(payload) + setup);
        let xfer = self.cost.transfer_ns(payload);
        let egress_done = src.egress.reserve(cpu_done, xfer);
        let latency = self.latency(src, dst);
        // The first byte reaches the receiver one latency after it left;
        // the receiving NIC is then busy for the transfer duration.
        let ingress_earliest = egress_done.saturating_sub(xfer) + latency;
        dst.ingress.reserve(ingress_earliest, xfer)
    }
}

impl Transport for SimCluster {
    fn call(&self, from: NodeId, to: NodeId, vt: u64, frame: Frame) -> TransportResult {
        let (src, dst, svc) = {
            let g = self.nodes.read();
            let src = g
                .get(from.0 as usize)
                .ok_or(BlobError::Unreachable("unknown source node"))?;
            let dst = g
                .get(to.0 as usize)
                .ok_or(BlobError::Unreachable("unknown destination node"))?;
            (
                Arc::clone(&src.node),
                Arc::clone(&dst.node),
                dst.service.clone(),
            )
        };
        if !src.is_alive() {
            return Err(BlobError::Unreachable("source node is down"));
        }
        if !dst.is_alive() {
            return Err(BlobError::Unreachable("destination node is down"));
        }
        let svc = svc.ok_or(BlobError::Unreachable("no service bound"))?;

        // First contact between this pair pays connection setup.
        let setup = if self.connected.insert((from.0, to.0), ()).is_none() {
            self.cost.connection_setup_ns
        } else {
            0
        };

        let req_bytes = frame.wire_size();
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(req_bytes as u64, Ordering::Relaxed);
        src.metrics.msgs_out.fetch_add(1, Ordering::Relaxed);
        src.metrics
            .bytes_out
            .fetch_add(req_bytes as u64, Ordering::Relaxed);
        dst.metrics.msgs_in.fetch_add(1, Ordering::Relaxed);
        dst.metrics
            .bytes_in
            .fetch_add(req_bytes as u64, Ordering::Relaxed);

        // Request: client → server.
        let arrival = self.ship(&src, &dst, vt, req_bytes, setup);

        // Server receive path, then service work: CPU charges serialize on
        // the work calendar; latency charges delay this response only.
        let recv_done = dst
            .cpu_recv
            .reserve(arrival, self.cost.endpoint_cpu_ns(req_bytes));
        let mut sctx = ServerCtx::new(recv_done);
        let resp = dispatch_frame(svc.as_ref(), &mut sctx, &frame);
        let served = dst.work.reserve(recv_done, sctx.charged) + sctx.charged_latency;

        // Check the destination survived handling (it may have been killed
        // mid-flight by fault injection).
        if !dst.is_alive() {
            return Err(BlobError::Unreachable("destination died during call"));
        }

        // Response: server → client.
        let resp_bytes = resp.wire_size();
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(resp_bytes as u64, Ordering::Relaxed);
        dst.metrics.msgs_out.fetch_add(1, Ordering::Relaxed);
        dst.metrics
            .bytes_out
            .fetch_add(resp_bytes as u64, Ordering::Relaxed);
        src.metrics.msgs_in.fetch_add(1, Ordering::Relaxed);
        src.metrics
            .bytes_in
            .fetch_add(resp_bytes as u64, Ordering::Relaxed);
        let back = self.ship(&dst, &src, served, resp_bytes, 0);

        // Client receive path.
        let done = src
            .cpu_recv
            .reserve(back, self.cost.endpoint_cpu_ns(resp_bytes));
        Ok((resp, done))
    }
}

/// Compute the set of distinct destinations a node has talked to — used by
/// tests asserting connection-setup behaviour.
pub fn distinct_peers(cluster: &SimCluster, from: NodeId) -> FxHashSet<u32> {
    let mut out = FxHashSet::default();
    for (a, b) in cluster.connected.keys() {
        if a == from.0 {
            out.insert(b);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_rpc::{respond, Ctx, RpcClient, Service};
    use std::sync::Arc;

    struct Echo;

    impl Service for Echo {
        fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
            ctx.charge(10_000);
            respond(frame, |x: u64| Ok(x))
        }
    }

    fn cluster_with_echo(n: usize) -> (Arc<SimCluster>, NodeId, Vec<NodeId>) {
        let c = Arc::new(SimCluster::grid5000());
        let client = c.add_node();
        let servers: Vec<NodeId> = (0..n)
            .map(|_| {
                let id = c.add_node();
                c.bind(id, Arc::new(Echo));
                id
            })
            .collect();
        (c, client, servers)
    }

    #[test]
    fn call_costs_are_positive_and_ordered() {
        let (c, client, servers) = cluster_with_echo(1);
        let rpc = RpcClient::new(Arc::clone(&c) as _, client);
        let mut ctx = Ctx::start();
        let _: u64 = rpc.call(&mut ctx, servers[0], 1, &7u64).unwrap();
        let first = ctx.vt;
        assert!(first > 2 * c.cost().latency_ns, "must include 2x latency");
        // Second call is cheaper: connection already set up.
        let mut ctx2 = Ctx::start();
        let _: u64 = rpc.call(&mut ctx2, servers[0], 1, &7u64).unwrap();
        // Resources are busy from the first call, so compare against a
        // fresh cluster for a clean measurement.
        let (c3, cl3, sv3) = cluster_with_echo(1);
        let rpc3 = RpcClient::new(Arc::clone(&c3) as _, cl3);
        let mut ctx3 = Ctx::start();
        let _: u64 = rpc3.call(&mut ctx3, sv3[0], 1, &7u64).unwrap();
        assert_eq!(ctx3.vt, first, "same topology, same deterministic cost");
    }

    #[test]
    fn fan_out_joins_at_max_not_sum() {
        // Measure on *warm* connections: first contact pays connection
        // setup serialized on the client CPU, which is its own effect
        // (asserted by fig3a's provider sweep), not the one under test.
        let (c, client, servers) = cluster_with_echo(8);
        let rpc = RpcClient::new(Arc::clone(&c) as _, client);
        let warm = || -> Vec<(NodeId, Frame)> {
            servers
                .iter()
                .map(|s| (*s, Frame::from_msg(1, &1u64)))
                .collect()
        };
        rpc.call_all::<u64>(&mut Ctx::start(), warm());

        // One warm call's duration, measured from a quiet start time well
        // past any residual resource occupancy.
        let quiet = 1_000_000_000;
        let mut one = Ctx::at(quiet);
        let _: u64 = rpc.call(&mut one, servers[0], 1, &1u64).unwrap();
        let one_cost = one.vt - quiet;

        // Eight warm parallel calls to eight distinct servers.
        let quiet2 = 2_000_000_000;
        let mut eight = Ctx::at(quiet2);
        let rs = rpc.call_all::<u64>(&mut eight, warm());
        assert!(rs.iter().all(|r| r.is_ok()));
        let eight_cost = eight.vt - quiet2;

        // Parallel fan-out must be far cheaper than 8 sequential calls,
        // but dearer than one call (client CPU serializes the sends).
        assert!(
            eight_cost < 6 * one_cost,
            "fan-out {eight_cost} vs one {one_cost}"
        );
        assert!(eight_cost > one_cost);
    }

    #[test]
    fn fan_out_is_the_serial_loop_on_the_virtual_clock() {
        // The cluster keeps `Transport::flight`'s default, so a burst
        // must cost exactly what one `call` per message costs: same join
        // time, same message count — cold connections, repeated
        // destinations and all.
        let calls_over = |servers: &[NodeId]| -> Vec<(NodeId, u16, u64)> {
            (0..12u64)
                .map(|i| (servers[i as usize % 4], 1, i))
                .collect()
        };
        let (c, client, servers) = cluster_with_echo(4);
        let mut want_vt = 0;
        for (to, method, x) in calls_over(&servers) {
            let (_, vt) = c.call(client, to, 0, Frame::from_msg(method, &x)).unwrap();
            want_vt = want_vt.max(vt);
        }

        let (c2, client2, servers2) = cluster_with_echo(4);
        let rpc = RpcClient::new(Arc::clone(&c2) as _, client2)
            .with_aggregation(blobseer_rpc::AggregationPolicy::PerCall);
        let mut ctx = Ctx::start();
        let frames = calls_over(&servers2)
            .into_iter()
            .map(|(to, method, x)| (to, Frame::from_msg(method, &x)))
            .collect();
        let rs = rpc.call_all::<u64>(&mut ctx, frames);
        assert!(rs.iter().all(|r| r.is_ok()));
        assert_eq!(ctx.vt, want_vt);
        assert_eq!(c2.message_count(), c.message_count());
        assert_eq!(c2.message_count(), 24);
    }

    #[test]
    fn dead_node_is_unreachable_and_revivable() {
        let (c, client, servers) = cluster_with_echo(1);
        let rpc = RpcClient::new(Arc::clone(&c) as _, client);
        c.kill(servers[0]);
        let err = rpc
            .call::<u64, u64>(&mut Ctx::start(), servers[0], 1, &1)
            .unwrap_err();
        assert!(matches!(err, BlobError::Unreachable(_)));
        c.revive(servers[0]);
        assert!(rpc
            .call::<u64, u64>(&mut Ctx::start(), servers[0], 1, &1)
            .is_ok());
    }

    /// Answers every call with its tag. With a gate, a call to method
    /// [`PARK`] meets the test at the gate on entering the handler and
    /// waits there until the test meets it again.
    struct Tagged {
        tag: u64,
        gate: Option<Arc<std::sync::Barrier>>,
    }

    const PARK: u16 = 2;

    impl Service for Tagged {
        fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
            if let (PARK, Some(gate)) = (frame.method, &self.gate) {
                gate.wait();
                gate.wait();
            }
            respond(frame, |_: u64| Ok(self.tag))
        }
    }

    #[test]
    fn a_second_bind_replaces_the_service_and_a_dispatched_call_finishes_on_the_first() {
        let c = Arc::new(SimCluster::new(CostModel::zero()));
        let client = c.add_node();
        let server = c.add_node();
        let gate = Arc::new(std::sync::Barrier::new(2));
        c.bind(
            server,
            Arc::new(Tagged {
                tag: 1,
                gate: Some(Arc::clone(&gate)),
            }),
        );
        let rpc = RpcClient::new(Arc::clone(&c) as _, client);
        let ask = |method| rpc.call::<u64, u64>(&mut Ctx::start(), server, method, &0);
        assert_eq!(ask(1).unwrap(), 1);
        std::thread::scope(|s| {
            let parked = s.spawn(|| ask(PARK));
            // Once the parked call is inside A's handler, re-bind on a
            // thread of its own, so a re-bind that panics still lets A's
            // call go.
            gate.wait();
            let to_b = s
                .spawn(|| {
                    c.bind(server, Arc::new(Tagged { tag: 2, gate: None }));
                    ask(1)
                })
                .join();
            gate.wait();
            assert_eq!(parked.join().unwrap().unwrap(), 1, "A answers its own call");
            assert_eq!(to_b.unwrap().unwrap(), 2, "the next call reaches B");
        });
        assert_eq!(ask(PARK).unwrap(), 2);
    }

    #[test]
    fn big_messages_pay_bandwidth() {
        let (c, client, servers) = cluster_with_echo(1);
        // 1 MiB payload ≈ 8.9 ms at 117.5 MB/s, dwarfing overheads.
        let frame = Frame::from_msg(1, &vec![0u8; 1 << 20]);
        let big = frame.wire_size();
        let (_resp, vt) = c.call(client, servers[0], 0, frame).unwrap();
        let floor = c.cost().transfer_ns(big);
        assert!(vt > floor, "{vt} must exceed pure transfer {floor}");
        assert!(vt < 4 * floor, "{vt} should be within 4x transfer {floor}");
    }

    #[test]
    fn nic_contention_queues_transfers() {
        // Two clients hammer one server with 1 MiB payloads; the server's
        // ingress NIC must serialize them: total time ≈ 2 transfers, not 1.
        let (c, _cl, servers) = cluster_with_echo(1);
        let c1 = c.add_node();
        let c2 = c.add_node();
        let payload = vec![0u8; 1 << 20];
        let f1 = Frame::from_msg(1, &payload);
        let f2 = Frame::from_msg(1, &payload);
        let xfer = c.cost().transfer_ns(f1.wire_size());
        let (_r1, t1) = c.call(c1, servers[0], 0, f1).unwrap();
        let (_r2, t2) = c.call(c2, servers[0], 0, f2).unwrap();
        let later = t1.max(t2);
        assert!(
            later >= 2 * xfer,
            "ingress must serialize: {later} < {}",
            2 * xfer
        );
    }

    #[test]
    fn message_and_byte_counters_track() {
        let (c, client, servers) = cluster_with_echo(2);
        let rpc = RpcClient::new(Arc::clone(&c) as _, client);
        let before = (c.message_count(), c.byte_count());
        let _: u64 = rpc.call(&mut Ctx::start(), servers[0], 1, &1u64).unwrap();
        let after = (c.message_count(), c.byte_count());
        assert_eq!(after.0 - before.0, 2, "request + response");
        assert!(after.1 > before.1);
        let n = c.node(servers[0]).unwrap();
        let (mi, mo, bi, bo) = n.metrics.snapshot();
        assert_eq!((mi, mo), (1, 1));
        assert!(bi > 0 && bo > 0);
    }
}
