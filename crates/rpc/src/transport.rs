//! The transport abstraction and a zero-cost in-process implementation.
//!
//! A [`Transport`] moves one frame from a source to a destination node and
//! returns the response frame together with its *virtual* arrival time.
//! `blobseer-simnet` provides the cluster transport with NIC/CPU/latency
//! modelling; [`InProcTransport`] here is the trivial implementation used
//! by unit tests and by embedded (single-process) deployments.
//!
//! A burst of calls ([`crate::Burst`]) reaches the transport as a
//! [`Flight`]: its messages go out one by one, each when the caller sends
//! it, and come back when the caller waits for them. The default flight
//! is [`Transport::call`] at send time, so a transport or decorator that
//! implements only `call` carries bursts unedited; a transport with real
//! wires overrides [`Transport::flight`] to keep many messages on the
//! wire at once.

use crate::frame::Frame;
use crate::service::{dispatch_frame, ServerCtx, Service};
use blobseer_proto::{BlobError, NodeId};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Client-side virtual-time context. Threads one logical caller's clock
/// through its sequence of RPCs; the calls of a burst join with `max`.
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

    /// The transport's side of one burst sent from `from`.
    ///
    /// The default sends each message through [`Transport::call`] the
    /// moment it is sent, and hands its reply over when it is waited
    /// for: right for transports whose concurrency lives in the virtual
    /// clock (the simulator, [`InProcTransport`]) — every message starts
    /// at the clock it was sent at and the caller joins with `max` — and
    /// for decorators that only wrap `call`. A transport with real wires
    /// overrides it to put each message on the wire at send time and read
    /// its reply at wait time; such a flight must await every message it
    /// sent when it is dropped, so a burst abandoned by an early return or
    /// a panic strands nothing.
    fn flight(&self, from: NodeId) -> Box<dyn Flight + '_> {
        Box::new(Serial {
            transport: self,
            from,
            replies: Vec::new(),
        })
    }
}

/// One burst's messages as a transport carries them (see
/// [`Transport::flight`]), numbered in the order they were sent.
pub trait Flight {
    /// Send `frame` to `to`, leaving at virtual time `vt`, as the burst's
    /// next message.
    fn send(&mut self, to: NodeId, vt: u64, frame: Frame);

    /// The reply to message `m`, waiting for it if it is still in flight;
    /// asked at most once per message.
    fn wait(&mut self, m: usize) -> TransportResult;
}

/// The default flight: each message is a [`Transport::call`] at send
/// time, its reply held until it is waited for.
struct Serial<'t, T: ?Sized> {
    transport: &'t T,
    from: NodeId,
    replies: Vec<Option<TransportResult>>,
}

impl<T: Transport + ?Sized> Flight for Serial<'_, T> {
    fn send(&mut self, to: NodeId, vt: u64, frame: Frame) {
        let reply = self.transport.call(self.from, to, vt, frame);
        self.replies.push(Some(reply));
    }

    fn wait(&mut self, m: usize) -> TransportResult {
        let reply = self.replies.get_mut(m).and_then(Option::take);
        reply.unwrap_or(Err(BlobError::Internal("reply completed twice")))
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
