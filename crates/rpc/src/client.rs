//! Client-side RPC: typed calls, bursts of parallel calls, and
//! per-destination aggregation.
//!
//! The original system "allows a single client to perform a large number
//! of concurrent RPCs" and its custom framework "delays RPC calls to a
//! single machine and streams all of them in a single real RPC call"
//! (§V.A). Both are first-class here:
//!
//! * [`RpcClient::call`] is one call; the caller's clock moves to its
//!   reply.
//! * [`RpcClient::burst`] opens a [`Burst`]: a value the caller holds
//!   while its calls are out and writes its op around as straight-line
//!   code. [`Burst::send`] puts calls on the wire, leaving at the
//!   caller's clock, and returns one typed [`Slot`] per call;
//!   [`Burst::wait`] yields one slot's reply and raises the clock it is
//!   given to that reply's arrival; [`Burst::finish`] joins the rest. The
//!   caller's own work between those steps rides the round trips: a
//!   write copies its first page while its plan request travels, weaves
//!   its leaves while its version request does, and sends its metadata
//!   and other pages — **late frames**, sent after its clock moved — while
//!   its first page put is still uploading; a read sends each leaf's page
//!   fetch the moment it has decoded that leaf.
//! * When [`AggregationPolicy::Batch`] is active, the calls of one send
//!   that share a method and a destination are coalesced into a single
//!   batch frame — the paper's optimization, togglable so the
//!   `ablate-agg` bench can quantify it. Calls of different methods
//!   travel apart, so a small metadata batch never rides behind a page
//!   bound for the same node, and calls of different sends never merge.
//!
//! # One path, two kinds of concurrency
//!
//! A send is group → frame → [`Flight::send`], a wait is
//! [`Flight::wait`] → scatter: one frame per real message (a lone call as
//! itself, several as one batch), each reply split back onto the calls
//! its message carried. What "on the wire" means is the transport's
//! business ([`Transport::flight`]):
//!
//! * **Virtual** on the simulator and [`crate::InProcTransport`]: they
//!   keep the default flight, a [`Transport::call`] per message at the
//!   moment it is sent. Each message starts at the clock it was sent at;
//!   the caller's clock moves only by its own work and by the replies it
//!   waits for — already there, with their arrival times — and the join
//!   is a `max` over every reply and the work, so the cost model sees a
//!   parallel burst beside the client's CPU while the host runs the
//!   handlers one after another, deterministically.
//! * **Real** on [`crate::TcpTransport`]: a message is registered and
//!   written when it is sent and read when it is waited for, so the
//!   servers work at the same time as each other and as the client, and
//!   a burst costs about its slowest call, not the sum. A late frame
//!   rides the connection the burst holds for its destination. Dropping
//!   a burst — an early `?` return, a panic — awaits every message still
//!   open, so no call slot is stranded. Pipelined, not threaded — see the
//!   [`tcp`](crate::tcp) docs.
//!
//! Failure stays per message on both: one destination's error reaches
//! exactly the calls that travelled in its message, whatever methods
//! share the burst.

use crate::frame::Frame;
use crate::service::parse_response;
use crate::transport::{Ctx, Flight, Transport};
use blobseer_proto::wire::Wire;
use blobseer_proto::{BlobError, NodeId};
use std::marker::PhantomData;
use std::sync::Arc;

/// Whether the calls of one send to one destination are coalesced.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AggregationPolicy {
    /// One real message per logical call.
    PerCall,
    /// One real message per destination and method per send (the
    /// paper's design).
    #[default]
    Batch,
}

/// A typed RPC endpoint bound to a source node.
#[derive(Clone)]
pub struct RpcClient {
    transport: Arc<dyn Transport>,
    from: NodeId,
    aggregation: AggregationPolicy,
}

impl RpcClient {
    /// Create a client sending from `from`.
    pub fn new(transport: Arc<dyn Transport>, from: NodeId) -> Self {
        Self {
            transport,
            from,
            aggregation: AggregationPolicy::default(),
        }
    }

    /// Override the aggregation policy (for ablations).
    pub fn with_aggregation(mut self, policy: AggregationPolicy) -> Self {
        self.aggregation = policy;
        self
    }

    /// The aggregation policy in force. Higher layers that batch at the
    /// application level (e.g. the DHT client) consult this so the
    /// `ablate-agg` toggle disables *every* form of aggregation at once.
    pub fn aggregation(&self) -> AggregationPolicy {
        self.aggregation
    }

    /// The underlying transport.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// One synchronous call; the context's clock advances to the response
    /// arrival.
    pub fn call<Req: Wire, Resp: Wire>(
        &self,
        ctx: &mut Ctx,
        to: NodeId,
        method: u16,
        req: &Req,
    ) -> Result<Resp, BlobError> {
        let frame = Frame::from_msg(method, req);
        let (resp, vt) = self.transport.call(self.from, to, ctx.vt, frame)?;
        ctx.vt = ctx.vt.max(vt);
        parse_response(&resp)
    }

    /// Open an empty [`Burst`]; its sends go out on this client's
    /// transport, from its node, under its aggregation policy.
    pub fn burst(&self) -> Burst<'_> {
        Burst {
            flight: self.transport.flight(self.from),
            batch: self.aggregation == AggregationPolicy::Batch,
            messages: Vec::new(),
            calls: Vec::new(),
            latest: 0,
        }
    }

    /// Send `calls` as one burst and wait for every reply: each parsed as
    /// `T`, in call order; `ctx` ends at the latest arrival.
    pub fn call_all<T: Wire>(
        &self,
        ctx: &mut Ctx,
        calls: Vec<(NodeId, Frame)>,
    ) -> Vec<Result<T, BlobError>> {
        let mut burst = self.burst();
        let slots = burst.send(ctx, calls);
        let replies = burst.wait_all(ctx, slots);
        burst.finish(ctx);
        replies
    }
}

/// One call of a [`Burst`]: its reply, parsed as `T`, is claimed once,
/// by [`Burst::wait`].
#[must_use = "a slot's reply is claimed by `Burst::wait`"]
pub struct Slot<T> {
    call: usize,
    reply: PhantomData<fn() -> T>,
}

/// A burst of calls in flight, as a value (see the module docs): sent a
/// send at a time, waited for a slot at a time, and joined by
/// [`Burst::finish`]. Dropped before it is finished, it awaits every
/// message still open on transports with real wires, and joins no clock.
pub struct Burst<'t> {
    flight: Box<dyn Flight + 't>,
    /// Whether the calls of one send coalesce by destination and method.
    batch: bool,
    /// The calls each message carries, by message, until its reply is
    /// in.
    messages: Vec<Option<Vec<usize>>>,
    /// Each call's reply, by call.
    calls: Vec<Reply>,
    /// The latest arrival of any message reply in hand.
    latest: u64,
}

/// A call's reply as its burst holds it.
enum Reply {
    /// On the wire, in message `m`.
    Flying(usize),
    /// In hand, with its message's arrival (`None` if the message
    /// failed).
    Landed(Result<Frame, BlobError>, Option<u64>),
    /// Claimed by [`Burst::wait`].
    Taken,
}

impl Burst<'_> {
    /// Send `calls`, leaving at `ctx`'s time — late frames, when the
    /// caller's clock has moved since the burst's first send: on tcp
    /// they are written now, on the connections the burst holds; on the
    /// simulator their clock starts at the caller's. The calls of one
    /// send coalesce by destination and method (with
    /// [`AggregationPolicy::Batch`]), in order of first appearance, never
    /// with another send's. Returns one slot per call, in input order.
    pub fn send<T: Wire>(&mut self, ctx: &Ctx, calls: Vec<(NodeId, Frame)>) -> Vec<Slot<T>> {
        let first = self.calls.len();
        let mut groups: Vec<(_, Vec<usize>, Vec<Frame>)> = Vec::new();
        for (i, (to, frame)) in (first..).zip(calls) {
            // Held until its message is put on the wire below.
            self.calls.push(Reply::Taken);
            let key = (to, frame.method);
            match groups.iter_mut().find(|(k, _, _)| self.batch && *k == key) {
                Some((_, idxs, frames)) => {
                    idxs.push(i);
                    frames.push(frame);
                }
                None => groups.push((key, vec![i], vec![frame])),
            }
        }
        for ((to, _), idxs, group) in groups {
            // A lone call travels as itself, several as one batch frame;
            // a batch that does not encode never reaches the transport.
            let framed = match <[Frame; 1]>::try_from(group) {
                Ok([frame]) => Ok(frame),
                Err(group) => Frame::batch(group),
            };
            match framed {
                Ok(frame) => self.put(ctx, to, frame, idxs),
                Err(e) => {
                    let e = BlobError::Codec(e);
                    for i in idxs {
                        self.calls[i] = Reply::Landed(Err(e.clone()), None);
                    }
                }
            }
        }
        (first..self.calls.len()).map(Slot::new).collect()
    }

    /// Send one call, as a message of its own (see [`Burst::send`]).
    pub fn call<T: Wire>(&mut self, ctx: &Ctx, (to, frame): (NodeId, Frame)) -> Slot<T> {
        let call = self.calls.len();
        self.calls.push(Reply::Taken);
        self.put(ctx, to, frame, vec![call]);
        Slot::new(call)
    }

    /// The reply of `slot`'s call, parsed: waits for the message that
    /// carries it if that is still in flight, and raises `ctx` to the
    /// message's arrival.
    pub fn wait<T: Wire>(&mut self, ctx: &mut Ctx, slot: Slot<T>) -> Result<T, BlobError> {
        if let Some(&Reply::Flying(m)) = self.calls.get(slot.call) {
            self.land(m);
        }
        let reply = self.calls.get_mut(slot.call);
        let Some(Reply::Landed(reply, arrival)) = reply.map(|r| std::mem::replace(r, Reply::Taken))
        else {
            return Err(BlobError::Internal("transport dropped a reply"));
        };
        if let Some(at) = arrival {
            ctx.vt = ctx.vt.max(at);
        }
        reply.and_then(|frame| parse_response(&frame))
    }

    /// [`Burst::wait`] for each of `slots`, in turn: their replies, in
    /// slot order.
    pub fn wait_all<T: Wire>(
        &mut self,
        ctx: &mut Ctx,
        slots: Vec<Slot<T>>,
    ) -> Vec<Result<T, BlobError>> {
        slots.into_iter().map(|slot| self.wait(ctx, slot)).collect()
    }

    /// Wait for every message still in flight and raise `ctx` to the
    /// latest arrival of any reply this burst received: the join.
    /// Replies no slot claimed are dropped.
    pub fn finish(mut self, ctx: &mut Ctx) {
        for m in 0..self.messages.len() {
            self.land(m);
        }
        ctx.vt = ctx.vt.max(self.latest);
    }

    /// Put one message, carrying the calls `idxs`, on the wire.
    fn put(&mut self, ctx: &Ctx, to: NodeId, frame: Frame, idxs: Vec<usize>) {
        self.flight.send(to, ctx.vt, frame);
        for &i in &idxs {
            self.calls[i] = Reply::Flying(self.messages.len());
        }
        self.messages.push(Some(idxs));
    }

    /// Wait for message `m`, unless it is already in, and scatter its
    /// reply onto the calls it carried.
    fn land(&mut self, m: usize) {
        let Some(idxs) = self.messages.get_mut(m).and_then(Option::take) else {
            return;
        };
        let (per_call, arrival) = match self.flight.wait(m) {
            Ok((resp, vt)) => {
                self.latest = self.latest.max(vt);
                (scatter(resp, idxs.len()), Some(vt))
            }
            Err(e) => (fail_all(&e, idxs.len()), None),
        };
        for (i, reply) in idxs.into_iter().zip(per_call) {
            self.calls[i] = Reply::Landed(reply, arrival);
        }
    }
}

impl<T> Slot<T> {
    fn new(call: usize) -> Self {
        Self {
            call,
            reply: PhantomData,
        }
    }
}

/// `n` copies of one error: what every call of a failed message gets.
fn fail_all<T>(e: &BlobError, n: usize) -> Vec<Result<T, BlobError>> {
    (0..n).map(|_| Err(e.clone())).collect()
}

/// Split the reply to a message that carried `n` calls into their
/// reply frames.
fn scatter(resp: Frame, n: usize) -> Vec<Result<Frame, BlobError>> {
    const MALFORMED: BlobError = BlobError::Internal("malformed batch response");
    if n == 1 {
        return vec![Ok(resp)];
    }
    match resp.unbatch() {
        Some(Ok(frames)) if frames.len() == n => frames.into_iter().map(Ok).collect(),
        // A METHOD_BATCH response that does not unbatch may be the
        // server's typed refusal (e.g. the response batch overflowed the
        // frame-body cap): surface that error, not a generic one.
        Some(Err(_)) => fail_all(&parse_response::<()>(&resp).err().unwrap_or(MALFORMED), n),
        _ => fail_all(&MALFORMED, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{respond, ServerCtx, Service};
    use crate::transport::InProcTransport;

    struct Echo;

    impl Service for Echo {
        fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
            respond(frame, |x: u64| Ok(x + 1))
        }
    }

    fn frames(calls: &[(NodeId, u16, u64)]) -> Vec<(NodeId, Frame)> {
        calls
            .iter()
            .map(|(to, method, x)| (*to, Frame::from_msg(*method, x)))
            .collect()
    }

    fn setup() -> (Arc<InProcTransport>, NodeId, NodeId, NodeId) {
        let t = Arc::new(InProcTransport::new());
        let client = t.add_node();
        let a = t.add_node();
        let b = t.add_node();
        t.bind(a, Arc::new(Echo));
        t.bind(b, Arc::new(Echo));
        (t, client, a, b)
    }

    #[test]
    fn single_call() {
        let (t, c, a, _) = setup();
        let rpc = RpcClient::new(t, c);
        let mut ctx = Ctx::start();
        let resp: u64 = rpc.call(&mut ctx, a, 1, &41u64).unwrap();
        assert_eq!(resp, 42);
    }

    #[test]
    fn fan_out_in_order_both_policies() {
        let (t, c, a, b) = setup();
        for policy in [AggregationPolicy::PerCall, AggregationPolicy::Batch] {
            let rpc = RpcClient::new(Arc::clone(&t) as _, c).with_aggregation(policy);
            let mut ctx = Ctx::start();
            let calls: Vec<(NodeId, u16, u64)> = (0..10)
                .map(|i| (if i % 2 == 0 { a } else { b }, 1, i as u64))
                .collect();
            let resps = rpc.call_all::<u64>(&mut ctx, frames(&calls));
            for (i, r) in resps.iter().enumerate() {
                assert_eq!(*r.as_ref().unwrap(), i as u64 + 1, "policy {policy:?}");
            }
        }
    }

    #[test]
    fn aggregation_reduces_message_count() {
        let (t, c, a, b) = setup();
        let calls: Vec<(NodeId, u16, u64)> = (0..8)
            .map(|i| (if i < 4 { a } else { b }, 1, i as u64))
            .collect();

        let rpc =
            RpcClient::new(Arc::clone(&t) as _, c).with_aggregation(AggregationPolicy::PerCall);
        let before = t.message_count();
        rpc.call_all::<u64>(&mut Ctx::start(), frames(&calls));
        assert_eq!(t.message_count() - before, 8);

        let rpc = RpcClient::new(Arc::clone(&t) as _, c).with_aggregation(AggregationPolicy::Batch);
        let before = t.message_count();
        rpc.call_all::<u64>(&mut Ctx::start(), frames(&calls));
        assert_eq!(t.message_count() - before, 2, "one message per destination");
    }

    #[test]
    fn one_burst_mixes_methods_and_destinations() {
        // Method 7 travels beside method 1 to `a` in one burst: with
        // aggregation each method rides its own message, and each reply
        // comes back in call order.
        let (t, c, a, b) = setup();
        let rpc = RpcClient::new(Arc::clone(&t) as _, c);
        let calls = vec![
            (a, Frame::from_msg(1, &10u64)),
            (b, Frame::from_msg(1, &20u64)),
            (a, Frame::from_msg(7, &30u64)),
        ];
        let before = t.message_count();
        let replies = rpc.call_all::<u64>(&mut Ctx::start(), calls);
        assert_eq!(
            t.message_count() - before,
            3,
            "one message per destination and method"
        );
        let got: Vec<u64> = replies.into_iter().map(Result::unwrap).collect();
        assert_eq!(got, vec![11, 21, 31]);
    }

    #[test]
    fn calls_coalesce_by_destination_and_method() {
        // Records the method of every call it handles, in handling order.
        struct Log(parking_lot::Mutex<Vec<u16>>);
        impl Service for Log {
            fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
                self.0.lock().push(frame.method);
                respond(frame, |x: u64| Ok(x + 1))
            }
        }
        let t = Arc::new(InProcTransport::new());
        let c = t.add_node();
        let a = t.add_node();
        let log = Arc::new(Log(parking_lot::Mutex::new(Vec::new())));
        t.bind(a, Arc::clone(&log) as _);
        let rpc = RpcClient::new(Arc::clone(&t) as _, c);
        // Two methods, interleaved, to one destination: the method-7
        // calls (first in the burst) share one message, the method-1
        // calls another, and the messages leave in call order.
        let calls = vec![
            (a, Frame::from_msg(7, &10u64)),
            (a, Frame::from_msg(1, &20u64)),
            (a, Frame::from_msg(7, &30u64)),
            (a, Frame::from_msg(1, &40u64)),
        ];
        let before = t.message_count();
        let replies = rpc.call_all::<u64>(&mut Ctx::start(), calls);
        assert_eq!(t.message_count() - before, 2, "one message per method");
        assert_eq!(*log.0.lock(), vec![7, 7, 1, 1], "messages in call order");
        let got: Vec<u64> = replies.into_iter().map(Result::unwrap).collect();
        assert_eq!(got, vec![11, 21, 31, 41], "replies in call order");
    }

    #[test]
    fn overflowing_batch_response_surfaces_typed_refusal() {
        use blobseer_proto::wire::ByteChain;
        use blobseer_proto::PageBuf;
        // Each response body is ~640 MiB of shared segments (cheap in
        // RAM); two of them overflow the 1 GiB rebatch cap, so the
        // server answers with a typed refusal instead of a batch.
        struct Huge;
        impl Service for Huge {
            fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
                let seg = PageBuf::from_vec(vec![0u8; 1 << 24]);
                let mut chain = ByteChain::new();
                for _ in 0..40 {
                    chain.push(seg.clone());
                }
                Frame {
                    method: frame.method,
                    body: chain,
                }
            }
        }
        let t = Arc::new(InProcTransport::new());
        let c = t.add_node();
        let s = t.add_node();
        t.bind(s, Arc::new(Huge));
        let rpc = RpcClient::new(t, c).with_aggregation(AggregationPolicy::Batch);
        let resps = rpc.call_all::<u64>(&mut Ctx::start(), frames(&[(s, 1, 1), (s, 1, 2)]));
        for r in &resps {
            let err = r.as_ref().unwrap_err();
            assert!(
                !matches!(err, BlobError::Internal("malformed batch response")),
                "the server's refusal must not be masked as malformed: {err:?}"
            );
        }
    }

    #[test]
    fn calls_to_unbound_node_fail() {
        let (t, c, _, _) = setup();
        let ghost = t.add_node(); // no service bound
        let rpc = RpcClient::new(t, c);
        let err = rpc
            .call::<u64, u64>(&mut Ctx::start(), ghost, 1, &1)
            .unwrap_err();
        assert!(matches!(err, BlobError::Unreachable(_)));
    }
}
