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
    /// message `i`'s reply, so the work may act on part of its burst, and
    /// [`Pending::send`] adds a **late frame** to the burst in flight —
    /// the one way to send from inside a burst.
    ///
    /// The default is `call_many` followed by the work over the replies
    /// it already holds, a late frame going through [`Transport::call`]
    /// at the work's clock: the virtual clock models the overlap itself,
    /// so the simulator, [`InProcTransport`] and any decorator that wraps
    /// only `call` keep it. A transport with real wires overrides it to
    /// put every frame in flight, run `work` (completing a message the
    /// moment `wait` asks for it, and putting a late frame on the wire
    /// the moment it is sent), then wait for the rest — and must await
    /// every call it sent, late frames included, even if `work` panics.
    fn call_many_with(
        &self,
        from: NodeId,
        vt: u64,
        calls: Vec<(NodeId, Frame)>,
        work: &mut dyn FnMut(&mut Pending<'_>),
    ) -> Vec<TransportResult> {
        let replies = self.call_many(from, vt, calls);
        let mut calls = Calls {
            transport: self,
            from,
        };
        let mut pending = Pending::ready(replies, &mut calls);
        work(&mut pending);
        pending.finish()
    }
}

/// A burst in flight, as its [`Pending`] drives it: a transport's side
/// of [`Pending::send`] and [`Pending::wait`].
pub(crate) trait Flight {
    /// Put a late frame to `to` on the wire at virtual time `vt`: its
    /// reply, if the transport already has it, or `None` while it is in
    /// flight.
    fn send(&mut self, to: NodeId, vt: u64, frame: Frame) -> Option<TransportResult>;

    /// Wait for the reply to message `i`, one that was sent in flight;
    /// asked at most once per message.
    fn complete(&mut self, i: usize) -> TransportResult;
}

/// A burst whose replies are all in hand: a late frame goes through
/// [`Transport::call`], so its reply is in hand too.
pub(crate) struct Calls<'t, T: ?Sized> {
    pub transport: &'t T,
    pub from: NodeId,
}

impl<T: Transport + ?Sized> Flight for Calls<'_, T> {
    fn send(&mut self, to: NodeId, vt: u64, frame: Frame) -> Option<TransportResult> {
        Some(self.transport.call(self.from, to, vt, frame))
    }

    fn complete(&mut self, _: usize) -> TransportResult {
        Err(BlobError::Internal("transport dropped a reply"))
    }
}

/// The replies of a burst whose caller's work is running (see
/// [`Transport::call_many_with`]), one per message: the burst's own in
/// input order, then the work's late frames in the order it sent them.
pub struct Pending<'a> {
    replies: Vec<Option<TransportResult>>,
    flight: &'a mut dyn Flight,
}

impl<'a> Pending<'a> {
    /// A burst whose replies are all in hand.
    pub(crate) fn ready(replies: Vec<TransportResult>, flight: &'a mut dyn Flight) -> Self {
        Self {
            replies: replies.into_iter().map(Some).collect(),
            flight,
        }
    }

    /// A burst of `n` messages still in flight.
    pub(crate) fn new(n: usize, flight: &'a mut dyn Flight) -> Self {
        Self {
            replies: (0..n).map(|_| None).collect(),
            flight,
        }
    }

    /// Send a **late frame**: `frame` to `to`, leaving at virtual time
    /// `vt` — the work's clock, not the burst's start — as one more
    /// message of this burst, awaited with the rest. Returns its message
    /// index, after every message sent before it.
    pub fn send(&mut self, to: NodeId, vt: u64, frame: Frame) -> usize {
        let reply = self.flight.send(to, vt, frame);
        self.replies.push(reply);
        self.replies.len() - 1
    }

    /// Message `i`'s reply (`i` below the burst's message count, late
    /// frames included), waiting for it if it is still in flight.
    pub fn wait(&mut self, i: usize) -> &TransportResult {
        let flight = &mut self.flight;
        self.replies[i].get_or_insert_with(|| flight.complete(i))
    }

    /// Every reply in message order, waiting for those not yet asked for.
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
