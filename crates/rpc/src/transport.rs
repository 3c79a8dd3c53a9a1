//! The transport abstraction and a zero-cost in-process implementation.
//!
//! A [`Transport`] moves one frame from a source to a destination node and
//! returns the response frame together with its *virtual* arrival time.
//! `blobseer-simnet` provides the cluster transport with NIC/CPU/latency
//! modelling; [`InProcTransport`] here is the trivial implementation used
//! by unit tests and by embedded (single-process) deployments.

use crate::frame::Frame;
use crate::service::{dispatch_frame, ServerCtx, Service};
use blobseer_proto::{BlobError, NodeId};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Client-side virtual-time context. Threads one logical caller's clock
/// through its sequence of RPCs; parallel fan-outs join with `max`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ctx {
    /// Current virtual time (ns since simulation start).
    pub vt: u64,
}

impl Ctx {
    /// A context starting at virtual time zero.
    pub fn start() -> Self {
        Self { vt: 0 }
    }

    /// A context starting at a given time (e.g., forked from a parent).
    pub fn at(vt: u64) -> Self {
        Self { vt }
    }

    /// Advance the clock by `ns` (local computation).
    pub fn advance(&mut self, ns: u64) {
        self.vt += ns;
    }

    /// Join with a concurrently-executing context (parallel sections
    /// merge with `max`).
    pub fn join(&mut self, other: Ctx) {
        self.vt = self.vt.max(other.vt);
    }
}

/// Moves frames between nodes.
pub trait Transport: Send + Sync {
    /// Deliver `frame` from `from` to `to`, starting at virtual time `vt`;
    /// returns the response frame and its arrival time back at `from`.
    fn call(&self, from: NodeId, to: NodeId, vt: u64, frame: Frame) -> TransportResult;

    /// Deliver every frame of one fan-out, each starting at virtual time
    /// `vt`; results come back in input order, one per call, and one
    /// call's failure never fails another.
    ///
    /// The default is the serial loop over [`Transport::call`]: right for
    /// transports whose concurrency lives in the virtual clock (the
    /// simulator, [`InProcTransport`]) and for decorators that only wrap
    /// `call`. A transport with real wires overrides it to put every
    /// frame in flight before it waits for the first response.
    fn call_many(
        &self,
        from: NodeId,
        vt: u64,
        calls: Vec<(NodeId, Frame)>,
    ) -> Vec<TransportResult> {
        calls
            .into_iter()
            .map(|(to, frame)| self.call(from, to, vt, frame))
            .collect()
    }

    /// [`Transport::call_many`] with the caller's `work` run once between
    /// sending the burst and waiting for it, on the calling thread. The
    /// work gets the burst's [`Pending`] replies: [`Pending::wait`] yields
    /// message `i`'s reply, so the work may act on part of its burst —
    /// even start another — while the rest is still out.
    ///
    /// The default is `call_many` followed by the work over the replies
    /// it already holds: the virtual clock models the overlap itself, so
    /// the simulator, [`InProcTransport`] and any decorator that wraps
    /// only `call` keep it. A transport with real wires overrides it to
    /// put every frame in flight, run `work` (completing a message the
    /// moment `wait` asks for it), then wait for the rest — and must
    /// await every call it sent even if `work` panics.
    fn call_many_with(
        &self,
        from: NodeId,
        vt: u64,
        calls: Vec<(NodeId, Frame)>,
        work: &mut dyn FnMut(&mut Pending<'_>),
    ) -> Vec<TransportResult> {
        let mut pending = Pending::ready(self.call_many(from, vt, calls));
        work(&mut pending);
        pending.finish()
    }
}

/// The replies of a burst whose caller's work is running (see
/// [`Transport::call_many_with`]), one per message, in input order.
pub struct Pending<'a> {
    replies: Vec<Option<TransportResult>>,
    /// Waits for message `i`'s reply; called at most once per message.
    /// `None` when every reply is already held.
    complete: Option<&'a mut dyn FnMut(usize) -> TransportResult>,
}

impl Pending<'static> {
    /// A burst whose replies are all in hand.
    pub(crate) fn ready(replies: Vec<TransportResult>) -> Self {
        Self {
            replies: replies.into_iter().map(Some).collect(),
            complete: None,
        }
    }
}

impl<'a> Pending<'a> {
    /// A burst of `n` messages still in flight, whose replies `complete`
    /// waits for.
    pub(crate) fn new(n: usize, complete: &'a mut dyn FnMut(usize) -> TransportResult) -> Self {
        Self {
            replies: (0..n).map(|_| None).collect(),
            complete: Some(complete),
        }
    }

    /// Message `i`'s reply (`i` below the burst's message count),
    /// waiting for it if it is still in flight.
    pub fn wait(&mut self, i: usize) -> &TransportResult {
        let complete = &mut self.complete;
        self.replies[i].get_or_insert_with(|| match complete {
            Some(complete) => complete(i),
            None => Err(BlobError::Internal("transport dropped a reply")),
        })
    }

    /// Every reply in input order, waiting for those not yet asked for.
    pub(crate) fn finish(mut self) -> Vec<TransportResult> {
        for i in 0..self.replies.len() {
            self.wait(i);
        }
        self.replies.into_iter().flatten().collect()
    }
}

/// Result of a transport call.
pub type TransportResult = Result<(Frame, u64), BlobError>;

/// A transport with zero simulated cost: requests dispatch inline on the
/// caller thread. Virtual time still flows (handlers may charge), so code
/// written against `simnet` behaves identically here, just with free
/// networking.
pub struct InProcTransport {
    services: RwLock<Vec<Option<Arc<dyn Service>>>>,
    messages: AtomicU64,
}

impl Default for InProcTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl InProcTransport {
    /// Empty transport.
    pub fn new() -> Self {
        Self {
            services: RwLock::new(Vec::new()),
            messages: AtomicU64::new(0),
        }
    }

    /// Add a node (returns its id). Nodes without a bound service reject
    /// calls.
    pub fn add_node(&self) -> NodeId {
        let mut g = self.services.write();
        g.push(None);
        // lint: allow(truncating-cast) — node registry is deployment-scale
        // (hundreds of slots), nowhere near u32::MAX
        NodeId(g.len() as u32 - 1)
    }

    /// Bind a service to a node.
    pub fn bind(&self, node: NodeId, svc: Arc<dyn Service>) {
        self.services.write()[node.0 as usize] = Some(svc);
    }

    /// Total messages carried (for aggregation assertions).
    pub fn message_count(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }
}

impl Transport for InProcTransport {
    fn call(&self, _from: NodeId, to: NodeId, vt: u64, frame: Frame) -> TransportResult {
        let svc = {
            let g = self.services.read();
            g.get(to.0 as usize).cloned().flatten()
        };
        let Some(svc) = svc else {
            return Err(BlobError::Unreachable("no service bound"));
        };
        self.messages.fetch_add(1, Ordering::Relaxed);
        let mut sctx = ServerCtx::new(vt);
        let resp = dispatch_frame(svc.as_ref(), &mut sctx, &frame);
        Ok((resp, sctx.vt + sctx.charged + sctx.charged_latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{respond, Service};

    struct Charger;

    impl Service for Charger {
        fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
            ctx.charge(1000);
            respond(frame, |x: u64| Ok(x))
        }
    }

    #[test]
    fn ctx_arithmetic() {
        let mut c = Ctx::start();
        c.advance(10);
        assert_eq!(c.vt, 10);
        c.join(Ctx::at(5));
        assert_eq!(c.vt, 10);
        c.join(Ctx::at(50));
        assert_eq!(c.vt, 50);
    }

    #[test]
    fn inproc_charges_flow_to_vt() {
        let t = InProcTransport::new();
        let c = t.add_node();
        let s = t.add_node();
        t.bind(s, Arc::new(Charger));
        let (resp, vt) = t.call(c, s, 500, Frame::from_msg(1, &9u64)).unwrap();
        assert_eq!(vt, 1500, "arrival + charge");
        assert_eq!(crate::service::parse_response::<u64>(&resp).unwrap(), 9);
    }

    #[test]
    fn unbound_node_unreachable() {
        let t = InProcTransport::new();
        let c = t.add_node();
        let ghost = t.add_node();
        assert!(t.call(c, ghost, 0, Frame::from_msg(1, &1u64)).is_err());
    }
}
