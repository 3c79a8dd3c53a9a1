//! Client-side RPC: typed calls, parallel fan-out, and per-destination
//! aggregation.
//!
//! The original system "allows a single client to perform a large number
//! of concurrent RPCs" and its custom framework "delays RPC calls to a
//! single machine and streams all of them in a single real RPC call"
//! (§V.A). Both are first-class here:
//!
//! * [`RpcClient::fan_out`] issues many calls that all *start* at the
//!   caller's current virtual time; the caller's clock then advances to
//!   the latest response arrival (a parallel join).
//! * [`RpcClient::fan_out_frames`] is the same fan-out over ready-made
//!   frames, so one burst may mix methods and destinations — a read
//!   sends its version check in the same burst as its first metadata or
//!   page fetch. The typed `fan_out` is a thin wrapper over it.
//! * [`RpcClient::fan_out_with`] is the one fan-out underneath both: it
//!   also runs the caller's own CPU work while the burst is in flight —
//!   a write copies its first page while its plan request travels — and
//!   reports when each reply arrived. The work may wait for some of the
//!   burst's replies ([`Replies::wait`]) and add **late frames** to the
//!   burst in flight ([`Replies::send`]), leaving at the work's clock —
//!   the one way to send from inside a burst: a write weaves its tree
//!   and sends its metadata once its version arrives, then copies and
//!   sends its other pages, while the first page put of the same burst
//!   is still uploading, and a read sends
//!   each leaf message's page fetches the moment it has decoded it.
//! * When [`AggregationPolicy::Batch`] is active, fan-out calls of one
//!   method to one destination are coalesced into a single batch frame —
//!   the paper's optimization, togglable so the `ablate-agg` bench can
//!   quantify it. Calls of different methods travel apart, so a small
//!   metadata batch never rides behind a page bound for the same node.
//!
//! # One path, two kinds of concurrency
//!
//! A fan-out is group → frame → [`Transport::call_many_with`] → scatter:
//! one frame per real message (a lone call as itself, several as one
//! batch), all handed to the transport at once with the caller's work.
//! What "at once" means is the transport's business:
//!
//! * **Virtual** on the simulator and [`crate::InProcTransport`]: they
//!   keep the defaults, the serial loop over `call` and then the work.
//!   Every call starts at the same virtual time, the work runs on a copy
//!   of the clock from that same time — a reply it waits for is already
//!   there, and moves the work's clock to its arrival; a late frame is
//!   one more `call`, starting at the work's clock — and the join is a
//!   `max` over every reply and the work, so the cost model sees a
//!   parallel fan-out beside the client's CPU while the host runs the
//!   handlers one after another, deterministically.
//! * **Real** on [`crate::TcpTransport`]: every frame is registered and
//!   written, then the work runs, before the first response is awaited,
//!   so the servers work at the same time as each other and as the
//!   client, and a fan-out costs about its slowest call, not the sum. A
//!   reply the work waits for is read then; the rest after the work. A
//!   late frame is written the moment the work sends it, on the
//!   connection the burst holds for its destination. Pipelined, not
//!   threaded — see the [`tcp`](crate::tcp) docs.
//!
//! Failure stays per message on both: one destination's error reaches
//! exactly the calls that travelled in its message, whatever methods
//! share the burst.

use crate::frame::Frame;
use crate::service::parse_response;
use crate::transport::{Calls, Ctx, Pending, Transport, TransportResult};
use blobseer_proto::wire::Wire;
use blobseer_proto::{BlobError, NodeId};
use std::ops::Range;
use std::sync::Arc;

/// Whether fan-out calls to one destination are coalesced.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AggregationPolicy {
    /// One real message per logical call.
    PerCall,
    /// One real message per destination per fan-out (the paper's design).
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

    /// Parallel fan-out: every call starts at `ctx.vt`; afterwards
    /// `ctx.vt` is the maximum response arrival (the join). Responses are
    /// returned in input order. The typed face of
    /// [`RpcClient::fan_out_frames`].
    pub fn fan_out<Req: Wire, Resp: Wire>(
        &self,
        ctx: &mut Ctx,
        calls: &[(NodeId, u16, Req)],
    ) -> Vec<Result<Resp, BlobError>> {
        let frames = calls
            .iter()
            .map(|(to, method, req)| (*to, Frame::from_msg(*method, req)))
            .collect();
        self.fan_out_frames(ctx, frames)
            .into_iter()
            .map(|reply| reply.and_then(|frame| parse_response(&frame)))
            .collect()
    }

    /// Parallel fan-out of ready-made request frames, of any methods and
    /// to any destinations; one reply frame (or error) per call, in
    /// input order. Timing as in [`RpcClient::fan_out`].
    ///
    /// With [`AggregationPolicy::Batch`], calls sharing a destination
    /// *and* a method travel in one message and their responses in one
    /// message back. Every message of the fan-out goes to the transport
    /// in **one** [`Transport::call_many_with`], so a transport with real
    /// wires has them all in flight at once (see the module docs).
    pub fn fan_out_frames(
        &self,
        ctx: &mut Ctx,
        calls: Vec<(NodeId, Frame)>,
    ) -> Vec<Result<Frame, BlobError>> {
        self.fan_out_with(ctx, calls, |_, _| ())
            .0
            .into_iter()
            .map(|reply| reply.map(|(frame, _)| frame))
            .collect()
    }

    /// [`RpcClient::fan_out_frames`] with the caller's own `work` run
    /// while the burst is in flight, and each reply's virtual arrival
    /// time: a caller whose burst carries independent legs learns when
    /// each of them finished, not just the join.
    ///
    /// Every call starts at `ctx.vt`. `work` runs once, on the calling
    /// thread, after the burst is sent and before the rest of it is
    /// awaited (see [`Transport::call_many_with`]), on a copy of the clock
    /// from the same start, so its charges overlap the round trips
    /// instead of following them. Through its [`Replies`] it may wait for
    /// some calls — on tcp that blocks until the reply is read, on the
    /// simulator the reply is already there — and raise its clock to
    /// their arrival, and it may add late frames to the burst from there
    /// ([`Replies::send`]). The replies come back by call index: the
    /// initial calls in input order, then each send's. Afterwards
    /// `ctx.vt` is the latest of every reply, late ones included, and the
    /// work's end. A transport that did not run the work (none here)
    /// leaves it to run after the burst.
    pub fn fan_out_with<T>(
        &self,
        ctx: &mut Ctx,
        calls: Vec<(NodeId, Frame)>,
        mut work: impl FnMut(&mut Ctx, &mut Replies<'_, '_>) -> T,
    ) -> (Vec<TransportResult>, T) {
        let batch = self.aggregation == AggregationPolicy::Batch;
        let mut results = Vec::new();
        let (frames, mut sent): (Vec<_>, Vec<_>) =
            group(batch, calls, &mut results).into_iter().unzip();

        // Send, work (waiting for what it asks for, sending what it
        // sends), wait for the rest; then scatter each reply back onto
        // its message's call indices.
        let mut worker = *ctx;
        let mut run = |pending: &mut Pending<'_>| {
            work(
                &mut worker,
                &mut Replies {
                    pending,
                    batch,
                    sent: &mut sent,
                    results: &mut results,
                },
            )
        };
        let mut worked = None;
        let mut replies =
            self.transport
                .call_many_with(self.from, ctx.vt, frames, &mut |pending| {
                    worked = Some(run(pending));
                });
        let worked = match worked {
            Some(worked) => worked,
            None => {
                let mut calls = Calls {
                    transport: self.transport.as_ref(),
                    from: self.from,
                };
                let mut pending = Pending::ready(replies, &mut calls);
                let worked = run(&mut pending);
                replies = pending.finish();
                worked
            }
        };
        ctx.join(worker);
        let short = || Err(BlobError::Internal("transport dropped a reply"));
        let replies = replies.into_iter().chain(std::iter::repeat_with(short));
        for (idxs, reply) in sent.iter().zip(replies) {
            if let Ok((_, vt)) = &reply {
                ctx.vt = ctx.vt.max(*vt);
            }
            place(&mut results, idxs, reply);
        }
        let results = results.into_iter().map(|r| r.unwrap_or_else(short));
        (results.collect(), worked)
    }
}

/// Group → frame: append `calls` to a fan-out whose call results are
/// `results`, and return the messages that carry them, each with its
/// call indices. Calls sharing a destination and a method travel in one
/// message when `batch`, in order of first appearance; a lone call
/// travels as itself, several as one batch frame, and a batch that does
/// not encode never reaches the transport: its calls fail here.
fn group(
    batch: bool,
    calls: Vec<(NodeId, Frame)>,
    results: &mut Vec<Option<TransportResult>>,
) -> Vec<((NodeId, Frame), Vec<usize>)> {
    let first = results.len();
    results.extend(calls.iter().map(|_| None));
    let mut groups: Vec<(_, Vec<usize>, Vec<Frame>)> = Vec::new();
    for (i, (to, frame)) in (first..).zip(calls) {
        let key = (to, frame.method);
        match groups.iter_mut().find(|(k, _, _)| batch && *k == key) {
            Some((_, idxs, frames)) => {
                idxs.push(i);
                frames.push(frame);
            }
            None => groups.push((key, vec![i], vec![frame])),
        }
    }
    let mut messages = Vec::with_capacity(groups.len());
    for ((to, _), idxs, group) in groups {
        let framed = match <[Frame; 1]>::try_from(group) {
            Ok([frame]) => Ok(frame),
            Err(group) => Frame::batch(group),
        };
        match framed {
            Ok(frame) => messages.push(((to, frame), idxs)),
            Err(e) => place(results, &idxs, Err(BlobError::Codec(e))),
        }
    }
    messages
}

/// A fan-out's replies as its work sees them while the burst is in
/// flight (see [`RpcClient::fan_out_with`]), by call index: the burst's
/// calls in input order, then the calls of each [`Replies::send`].
pub struct Replies<'r, 'p> {
    pending: &'r mut Pending<'p>,
    /// Whether calls of one send coalesce by destination and method.
    batch: bool,
    /// The call indices each message carries, by message.
    sent: &'r mut Vec<Vec<usize>>,
    results: &'r mut Vec<Option<TransportResult>>,
}

impl Replies<'_, '_> {
    /// Call `i`'s reply and its arrival time (`i` below the fan-out's
    /// call count, sent calls included). Waits for the message that
    /// carries it if it is still in flight, splits that message's reply
    /// onto its calls, and raises `ctx` to the reply's arrival.
    pub fn wait(&mut self, ctx: &mut Ctx, i: usize) -> &TransportResult {
        if self.results[i].is_none() {
            if let Some(m) = self.sent.iter().position(|idxs| idxs.contains(&i)) {
                let reply = self.pending.wait(m).clone();
                place(self.results, &self.sent[m], reply);
            }
        }
        let reply = self.results[i]
            .get_or_insert_with(|| Err(BlobError::Internal("transport dropped a reply")));
        if let Ok((_, vt)) = reply {
            ctx.vt = ctx.vt.max(*vt);
        }
        reply
    }

    /// Add `calls` to the burst in flight as late frames, leaving at
    /// `ctx`'s time: on tcp they are written now, on the connections the
    /// burst holds; on the simulator their clock starts at the work's,
    /// not the burst's. The calls of one send coalesce by destination
    /// and method exactly as a fan-out's do, never with another send's
    /// or the burst's own. Returns their call indices, in input order,
    /// after every earlier call's; the fan-out returns their replies
    /// after its initial calls', and the join covers them.
    pub fn send(&mut self, ctx: &Ctx, calls: Vec<(NodeId, Frame)>) -> Range<usize> {
        let first = self.results.len();
        for ((to, frame), idxs) in group(self.batch, calls, self.results) {
            let m = self.pending.send(to, ctx.vt, frame);
            debug_assert_eq!(m, self.sent.len(), "messages and their calls line up");
            self.sent.push(idxs);
        }
        first..self.results.len()
    }
}

/// Scatter the reply to a message onto the calls it carried, `idxs`,
/// leaving any call that already has its reply as it is.
fn place(results: &mut [Option<TransportResult>], idxs: &[usize], reply: TransportResult) {
    let per_call = match reply {
        Ok((resp, vt)) => scatter(resp, idxs.len())
            .into_iter()
            .map(|r| r.map(|frame| (frame, vt)))
            .collect(),
        Err(e) => fail_all(&e, idxs.len()),
    };
    for (&i, reply) in idxs.iter().zip(per_call) {
        results[i].get_or_insert(reply);
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
            let resps = rpc.fan_out::<u64, u64>(&mut ctx, &calls);
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
        rpc.fan_out::<u64, u64>(&mut Ctx::start(), &calls);
        assert_eq!(t.message_count() - before, 8);

        let rpc = RpcClient::new(Arc::clone(&t) as _, c).with_aggregation(AggregationPolicy::Batch);
        let before = t.message_count();
        rpc.fan_out::<u64, u64>(&mut Ctx::start(), &calls);
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
        let replies = rpc.fan_out_frames(&mut Ctx::start(), calls);
        assert_eq!(
            t.message_count() - before,
            3,
            "one message per destination and method"
        );
        let got: Vec<(u16, u64)> = replies
            .iter()
            .map(|r| {
                let f = r.as_ref().unwrap();
                (f.method, parse_response(f).unwrap())
            })
            .collect();
        assert_eq!(got, vec![(1, 11), (1, 21), (7, 31)]);
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
        let replies = rpc.fan_out_frames(&mut Ctx::start(), calls);
        assert_eq!(t.message_count() - before, 2, "one message per method");
        assert_eq!(*log.0.lock(), vec![7, 7, 1, 1], "messages in call order");
        let got: Vec<u64> = replies
            .iter()
            .map(|r| parse_response(r.as_ref().unwrap()).unwrap())
            .collect();
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
        let calls: Vec<(NodeId, u16, u64)> = vec![(s, 1, 1), (s, 1, 2)];
        let resps = rpc.fan_out::<u64, u64>(&mut Ctx::start(), &calls);
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
