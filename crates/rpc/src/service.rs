//! Server-side dispatch.
//!
//! A [`Service`] is bound to a node and handles decoded frames. The
//! [`dispatch_frame`] helper gives every service batch handling for free:
//! an aggregated frame is unpacked and its sub-frames are handled in
//! order, their responses re-batched — mirroring the original system's
//! streamed RPC.

use crate::frame::Frame;
use blobseer_proto::wire::Wire;
use blobseer_proto::BlobError;

/// Virtual-time context passed to service handlers.
///
/// `vt` is the message's arrival time at the server (nanoseconds of
/// virtual time). Handlers account their processing in two distinct
/// currencies:
///
/// * [`ServerCtx::charge`] — **CPU occupancy**: serializes against every
///   other request on this node (reserved on the node's work register);
/// * [`ServerCtx::charge_latency`] — **response delay only** (I/O wait,
///   replication acknowledgements, …): delays *this* response but
///   overlaps freely with concurrent requests — the distinction that
///   keeps a single expensive-but-pipelined service (like a DHT put)
///   from becoming a false aggregate bottleneck.
pub struct ServerCtx {
    /// Arrival virtual time (ns).
    pub vt: u64,
    /// Accumulated CPU cost (ns) charged by the handler.
    pub charged: u64,
    /// Accumulated response-latency cost (ns) charged by the handler.
    pub charged_latency: u64,
    /// Owned state pinned to this request past the handler's return
    /// (admission permits). Transports drain it with
    /// [`ServerCtx::take_held`] and drop it once the response has left
    /// the server.
    held: Vec<Box<dyn std::any::Any + Send>>,
}

impl std::fmt::Debug for ServerCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCtx")
            .field("vt", &self.vt)
            .field("charged", &self.charged)
            .field("charged_latency", &self.charged_latency)
            .field("held", &self.held.len())
            .finish()
    }
}

impl ServerCtx {
    /// Context for a message arriving at `vt`.
    pub fn new(vt: u64) -> Self {
        Self {
            vt,
            charged: 0,
            charged_latency: 0,
            held: Vec::new(),
        }
    }

    /// Pin owned state to this request: it outlives the handler and is
    /// dropped only after the transport has finished sending the
    /// response (or the connection died). Admission permits ride here,
    /// so a request occupies its gate slot for its full server
    /// residency — response transmission included — not just the
    /// handler's CPU burst.
    pub fn hold(&mut self, state: Box<dyn std::any::Any + Send>) {
        self.held.push(state);
    }

    /// Transport hook: detach the pinned state, to be dropped when the
    /// response leaves the server. Transports that deliver the response
    /// by returning (in-process, simulated) simply drop the context.
    pub fn take_held(&mut self) -> Vec<Box<dyn std::any::Any + Send>> {
        std::mem::take(&mut self.held)
    }

    /// Charge `ns` of server CPU to this request (serializing).
    pub fn charge(&mut self, ns: u64) {
        self.charged += ns;
    }

    /// Charge `ns` of non-serializing response delay to this request.
    pub fn charge_latency(&mut self, ns: u64) {
        self.charged_latency += ns;
    }
}

/// A service bound to a (simulated) node.
pub trait Service: Send + Sync {
    /// Handle one non-batch frame, returning the response frame.
    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame;

    /// Human-readable name for diagnostics.
    fn name(&self) -> &'static str {
        "service"
    }

    /// Whether the handler for `method` **cannot block**: it does no
    /// file I/O, waits on no condvar, sleeps on nothing, and takes no
    /// lock that another thread may hold across any of those — a map
    /// probe, an atomic read, a refcount. A transport with an event loop
    /// ([`crate::TcpTransport`]'s reactor) answers such a method on the
    /// loop itself instead of handing it to a worker thread, which saves
    /// two thread wake-ups per call; while it runs, every other
    /// connection that loop owns waits, which is why the promise matters.
    ///
    /// The default is `false` — the safe side: the handler runs on the
    /// dispatch pool, where it may take as long as it likes. A decorator
    /// that forwards only [`Service::handle`] therefore keeps the pool,
    /// whatever the service inside it says; one that adds blocking of
    /// its own (an admission gate that can wait for a permit) must.
    /// Answer `true` only after reading the handler, and move the method
    /// back in the same change that teaches it to append, commit or wait.
    fn nonblocking(&self, _method: u16) -> bool {
        false
    }
}

/// Shared services dispatch through the pointer, so wrappers like
/// [`crate::AdmissionControlled`] can gate an `Arc`'d service while the
/// owner keeps its white-box handle.
impl<S: Service + ?Sized> Service for std::sync::Arc<S> {
    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        (**self).handle(ctx, frame)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn nonblocking(&self, method: u16) -> bool {
        (**self).nonblocking(method)
    }
}

/// Dispatch a frame, transparently unpacking batches.
pub fn dispatch_frame(svc: &dyn Service, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
    match frame.unbatch() {
        None => svc.handle(ctx, frame),
        Some(Ok(subframes)) => {
            let responses: Vec<Frame> = subframes
                .iter()
                .map(|f| dispatch_frame(svc, ctx, f))
                .collect();
            Frame::batch(responses)
                .unwrap_or_else(|e| error_frame(frame.method, BlobError::Codec(e)))
        }
        Some(Err(_)) => error_frame(frame.method, BlobError::Internal("corrupt batch frame")),
    }
}

/// Build a response frame carrying `Ok(value)`.
pub fn ok_frame<T: Wire>(method: u16, value: &T) -> Frame {
    // Result<T, E> encodes by reference via a manual tag to avoid
    // cloning; payload segments inside `value` stay shared.
    let mut out = blobseer_proto::wire::WireBuf::with_capacity(1 + value.wire_hint());
    out.push(0u8);
    value.encode(&mut out);
    Frame {
        method,
        body: out.finish(),
    }
}

/// Build a response frame carrying `Err(err)`.
pub fn error_frame(method: u16, err: BlobError) -> Frame {
    let body: Result<(), BlobError> = Err(err);
    Frame {
        method,
        body: body.to_chain(),
    }
}

/// Decode a response frame into `Result<T, BlobError>`.
pub fn parse_response<T: Wire>(frame: &Frame) -> Result<T, BlobError> {
    let res: Result<T, BlobError> = Wire::from_chain(&frame.body).map_err(BlobError::Codec)?;
    res
}

/// Convenience: decode a request body, run the handler, encode the
/// `Result` response — the body of every typed service method.
pub fn respond<Req: Wire, Resp: Wire>(
    frame: &Frame,
    handler: impl FnOnce(Req) -> Result<Resp, BlobError>,
) -> Frame {
    match frame.parse::<Req>() {
        Ok(req) => match handler(req) {
            Ok(resp) => ok_frame(frame.method, &resp),
            Err(e) => error_frame(frame.method, e),
        },
        Err(e) => error_frame(frame.method, BlobError::Codec(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles u64 requests; method 9 fails.
    struct Doubler;

    impl Service for Doubler {
        fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
            ctx.charge(100);
            if frame.method == 9 {
                return error_frame(9, BlobError::Internal("nope"));
            }
            respond(frame, |x: u64| Ok(x * 2))
        }
    }

    #[test]
    fn roundtrip_ok_and_err() {
        let svc = Doubler;
        let mut ctx = ServerCtx::new(0);
        let resp = dispatch_frame(&svc, &mut ctx, &Frame::from_msg(1, &21u64));
        assert_eq!(parse_response::<u64>(&resp).unwrap(), 42);
        let resp = dispatch_frame(&svc, &mut ctx, &Frame::from_msg(9, &21u64));
        assert!(parse_response::<u64>(&resp).is_err());
        assert_eq!(ctx.charged, 200);
    }

    #[test]
    fn batches_dispatch_elementwise() {
        let svc = Doubler;
        let mut ctx = ServerCtx::new(5);
        let batch = Frame::batch(vec![
            Frame::from_msg(1, &1u64),
            Frame::from_msg(1, &2u64),
            Frame::from_msg(9, &3u64),
        ])
        .unwrap();
        let resp = dispatch_frame(&svc, &mut ctx, &batch);
        let frames = resp.unbatch().unwrap().unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(parse_response::<u64>(&frames[0]).unwrap(), 2);
        assert_eq!(parse_response::<u64>(&frames[1]).unwrap(), 4);
        assert!(parse_response::<u64>(&frames[2]).is_err());
        assert_eq!(ctx.charged, 300, "each sub-frame charges");
    }

    #[test]
    fn bad_request_body_is_codec_error() {
        let svc = Doubler;
        let mut ctx = ServerCtx::new(0);
        let resp = dispatch_frame(
            &svc,
            &mut ctx,
            &Frame {
                method: 1,
                body: vec![1, 2].into(),
            },
        );
        let err = parse_response::<u64>(&resp).unwrap_err();
        // The codec error is carried as a diagnostic: the wire encoding of
        // `BlobError::Codec` intentionally decodes to `Internal`.
        assert!(
            matches!(err, BlobError::Codec(_) | BlobError::Internal(_)),
            "{err:?}"
        );
    }

    #[test]
    fn ok_frame_matches_result_encoding() {
        // ok_frame must produce exactly what Result::encode would.
        let direct: Result<u64, BlobError> = Ok(7);
        assert_eq!(ok_frame(1, &7u64).body.to_vec(), direct.to_wire());
    }
}
