//! Transport fault injection for [`TcpTransport`]: every failure mode a
//! real peer can inflict — connect refused, close mid-frame, reset under
//! a large write, accept-then-silence, hostile length prefixes, byte-at-
//! a-time slow-loris trickles, stray correlation ids, overload shedding
//! — must surface as a clean `TransportResult` error with no hang and no
//! leaked pooled connection. The provider-death paths simnet already
//! exercises (kill/revive) ride on the same machinery and are covered in
//! `crates/rpc/src/tcp.rs` and the core `tcp_e2e` suite.

use blobseer_proto::{BlobError, PageBuf};
use blobseer_rpc::{
    encode_wire_frame, read_wire_frame, Ctx, Frame, RpcClient, TcpOptions, TcpTransport, Transport,
    CTRL_CORR, CTRL_SHED,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A transport with short timeouts so fault paths resolve in test time.
fn transport() -> Arc<TcpTransport> {
    Arc::new(TcpTransport::with_options(TcpOptions {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_millis(500)),
        max_pooled_per_peer: 8,
        ..TcpOptions::default()
    }))
}

/// One unaggregated burst of `calls` from `client`, every reply awaited:
/// one `u64` reply (or error) per call, in call order.
fn burst_of(
    t: &Arc<TcpTransport>,
    client: blobseer_proto::NodeId,
    calls: Vec<(blobseer_proto::NodeId, Frame)>,
) -> Vec<Result<u64, BlobError>> {
    RpcClient::new(Arc::clone(t) as _, client)
        .with_aggregation(blobseer_rpc::AggregationPolicy::PerCall)
        .call_all(&mut Ctx::start(), calls)
}

/// Bind a loopback port, return its address, and close the listener so
/// connects are refused.
fn refused_addr() -> SocketAddr {
    let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    l.local_addr().unwrap()
}

/// Spawn a misbehaving peer; `evil` receives each accepted connection.
fn evil_peer(
    evil: impl Fn(std::net::TcpStream) + Send + 'static,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = l.local_addr().unwrap();
    let h = std::thread::spawn(move || {
        if let Ok((s, _)) = l.accept() {
            evil(s);
        }
    });
    (addr, h)
}

/// An echo service used by the server-side fault tests.
struct Echo;
impl blobseer_rpc::Service for Echo {
    fn handle(&self, _ctx: &mut blobseer_rpc::ServerCtx, frame: &Frame) -> Frame {
        blobseer_rpc::respond(frame, |x: u64| Ok(x))
    }
}

#[test]
fn connect_refused_is_a_clean_error() {
    let t = transport();
    let c = t.add_node();
    let dead = t.register_remote(refused_addr());
    let err = t.call(c, dead, 0, Frame::from_msg(1, &1u64)).unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");
    assert_eq!(t.pooled_connections(dead), 0);
}

#[test]
fn peer_closing_mid_response_is_a_clean_error() {
    // The peer reads the whole request, then sends a response envelope
    // that promises more bytes than it delivers and closes.
    let (addr, h) = evil_peer(|mut s| {
        let mut sink = [0u8; 4096];
        let _ = s.read(&mut sink);
        let mut partial = Vec::new();
        partial.extend_from_slice(&100u32.to_le_bytes()); // promises 100
        partial.extend_from_slice(&[7u8; 10]); // delivers 10
        let _ = s.write_all(&partial);
        // drop: close mid-frame
    });
    let t = transport();
    let c = t.add_node();
    let peer = t.register_remote(addr);
    let err = t.call(c, peer, 0, Frame::from_msg(1, &1u64)).unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");
    assert_eq!(
        t.pooled_connections(peer),
        0,
        "a half-dead connection must not be pooled"
    );
    h.join().unwrap();
}

#[test]
fn peer_resetting_under_a_large_write_is_a_clean_error() {
    // The peer reads a few bytes and drops the socket with unread data
    // queued — the kernel turns the client's in-flight gather write into
    // EPIPE/ECONNRESET partway through.
    let (addr, h) = evil_peer(|mut s| {
        let mut sink = [0u8; 16];
        let _ = s.read_exact(&mut sink);
        // drop with megabytes still inbound → RST
    });
    let t = transport();
    let c = t.add_node();
    let peer = t.register_remote(addr);
    // A body far beyond socket buffers guarantees the write is split.
    let big = PageBuf::from_vec(vec![0x5A; 16 << 20]);
    let err = t.call(c, peer, 0, Frame::from_msg(1, &big)).unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");
    assert_eq!(t.pooled_connections(peer), 0);
    h.join().unwrap();
}

#[test]
fn silent_peer_times_out_instead_of_hanging() {
    // The peer accepts, reads the request, and never answers. The
    // configured io timeout must bound the call.
    let (addr, h) = evil_peer(|mut s| {
        let mut sink = [0u8; 4096];
        let _ = s.read(&mut sink);
        std::thread::sleep(Duration::from_secs(2));
    });
    let t = transport();
    let c = t.add_node();
    let peer = t.register_remote(addr);
    let start = Instant::now();
    let err = t.call(c, peer, 0, Frame::from_msg(1, &1u64)).unwrap_err();
    assert!(matches!(err, BlobError::Unreachable(_)), "{err:?}");
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "the io timeout must fire well before the peer wakes"
    );
    assert_eq!(t.pooled_connections(peer), 0);
    h.join().unwrap();
}

#[test]
fn hostile_response_length_prefix_is_codec_error_not_allocation() {
    // The peer answers with a 4 GiB envelope length. The client must
    // reject it before allocating, as a typed codec error.
    let (addr, h) = evil_peer(|mut s| {
        let mut sink = [0u8; 4096];
        let _ = s.read(&mut sink);
        let _ = s.write_all(&u32::MAX.to_le_bytes());
        let _ = s.write_all(&[0u8; 64]);
    });
    let t = transport();
    let c = t.add_node();
    let peer = t.register_remote(addr);
    let err = t.call(c, peer, 0, Frame::from_msg(1, &1u64)).unwrap_err();
    assert!(matches!(err, BlobError::Codec(_)), "{err:?}");
    assert_eq!(t.pooled_connections(peer), 0);
    h.join().unwrap();
}

#[test]
fn garbage_response_bytes_are_codec_error() {
    // A well-sized envelope whose contents don't decode as a frame.
    let (addr, h) = evil_peer(|mut s| {
        let mut sink = [0u8; 4096];
        let _ = s.read(&mut sink);
        // Envelope v2: len=28 (fixed 22 + 6 body), correlation id 1 (the
        // first call on a fresh connection), then a frame whose
        // body-length prefix claims more than remains.
        let mut resp = Vec::new();
        resp.extend_from_slice(&28u32.to_le_bytes());
        resp.extend_from_slice(&1u64.to_le_bytes()); // corr
        resp.extend_from_slice(&0u64.to_le_bytes()); // vt
        resp.extend_from_slice(&1u16.to_le_bytes()); // method
        resp.extend_from_slice(&1000u32.to_le_bytes()); // lies: body_len
        resp.extend_from_slice(&[0u8; 6]);
        let _ = s.write_all(&resp);
    });
    let t = transport();
    let c = t.add_node();
    let peer = t.register_remote(addr);
    let err = t.call(c, peer, 0, Frame::from_msg(1, &1u64)).unwrap_err();
    assert!(matches!(err, BlobError::Codec(_)), "{err:?}");
    h.join().unwrap();
}

#[test]
fn stray_correlation_id_is_codec_error_and_kills_the_connection() {
    // The peer answers with a perfectly well-formed frame — for a call
    // nobody made. Once the correlation stream lies, nothing on the
    // connection can be trusted: typed codec error, connection dropped.
    let (addr, h) = evil_peer(|mut s| {
        let mut sink = [0u8; 4096];
        let _ = s.read(&mut sink);
        let resp = encode_wire_frame(999, 0, &Frame::from_msg(1, &42u64)).unwrap();
        let _ = s.write_all(&resp);
    });
    let t = transport();
    let c = t.add_node();
    let peer = t.register_remote(addr);
    let err = t.call(c, peer, 0, Frame::from_msg(1, &1u64)).unwrap_err();
    assert!(matches!(err, BlobError::Codec(_)), "{err:?}");
    assert_eq!(
        t.pooled_connections(peer),
        0,
        "a connection with broken correlation framing must be dropped"
    );
    h.join().unwrap();
}

/// Byte-at-a-time slow loris: a client that trickles a *valid* request
/// one byte at a time must still be served — each byte is activity, so
/// the io timeout never fires — and the response must come back intact.
#[test]
fn slow_loris_request_is_served_by_the_reactor() {
    let t = transport();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let addr = t.addr(server).unwrap();

    let req = encode_wire_frame(5, 0, &Frame::from_msg(1, &7u64)).unwrap();
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_nodelay(true).unwrap();
    for b in &req {
        s.write_all(std::slice::from_ref(b)).unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let (corr, _vt, resp) = read_wire_frame(&mut s).unwrap();
    assert_eq!(corr, 5, "response must carry the request's correlation id");
    let x: u64 = blobseer_rpc::parse_response(&resp).unwrap();
    assert_eq!(x, 7);
}

/// Echoes a byte payload back.
struct EchoBytes;
impl blobseer_rpc::Service for EchoBytes {
    fn handle(&self, _ctx: &mut blobseer_rpc::ServerCtx, frame: &Frame) -> Frame {
        blobseer_rpc::respond(frame, |x: PageBuf| Ok(x))
    }
}

/// 256 KiB of a pattern that repeats at no power of two.
fn odd_pattern() -> PageBuf {
    PageBuf::from_vec((0..256usize << 10).map(|i| (i % 251) as u8).collect())
}

/// Write `bytes` in uneven chunks — the first ones split the length
/// prefix — pausing after each, so the reader receives one frame across
/// many reads and readiness events.
fn trickle(s: &mut TcpStream, bytes: &[u8]) {
    s.set_nodelay(true).unwrap();
    let chunks = [1usize, 3, 17, 4093, 65_537, 9, 100_000];
    let mut at = 0;
    for size in chunks.into_iter().cycle() {
        if at == bytes.len() {
            break;
        }
        let end = (at + size).min(bytes.len());
        s.write_all(&bytes[at..end]).unwrap();
        at = end;
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn a_trickled_256k_request_is_echoed_byte_identical_by_the_reactor() {
    let t = transport();
    let server = t.add_node();
    t.bind(server, Arc::new(EchoBytes));
    let addr = t.addr(server).unwrap();
    let body = odd_pattern();
    let mut s = TcpStream::connect(addr).unwrap();
    trickle(
        &mut s,
        &encode_wire_frame(9, 0, &Frame::from_msg(1, &body)).unwrap(),
    );
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let (corr, _vt, resp) = read_wire_frame(&mut s).unwrap();
    assert_eq!(corr, 9);
    let echoed: PageBuf = blobseer_rpc::parse_response(&resp).unwrap();
    assert_eq!(echoed, body);
}

#[test]
fn a_trickled_256k_response_is_read_byte_identical_by_the_client() {
    let body = odd_pattern();
    let sent = body.clone();
    let (addr, h) = evil_peer(move |mut s| {
        let (corr, vt, frame) = read_wire_frame(&mut s).unwrap();
        let resp = blobseer_rpc::ok_frame(frame.method, &sent);
        trickle(&mut s, &encode_wire_frame(corr, vt, &resp).unwrap());
    });
    let t = transport();
    let c = t.add_node();
    let peer = t.register_remote(addr);
    let rpc = RpcClient::new(Arc::clone(&t) as _, c);
    let got: PageBuf = rpc.call(&mut Ctx::start(), peer, 1, &1u64).unwrap();
    assert_eq!(got, body);
    h.join().unwrap();
}

#[test]
fn stalled_client_is_timed_out_by_the_server_but_idle_pools_survive() {
    let t = transport(); // io timeout: 500 ms, applied server-side too
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let addr = t.addr(server).unwrap();

    // A client that sends two bytes of envelope and stalls must be
    // closed by the server's io timeout, not parked forever.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&[1, 2]).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 8];
    let start = Instant::now();
    let n = s.read(&mut buf).unwrap();
    assert_eq!(n, 0, "server must close a mid-frame staller");
    assert!(start.elapsed() < Duration::from_secs(3));

    // But an *idle* pooled connection (timeout at a frame boundary)
    // stays open: a call after more than one io-timeout still reuses it.
    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    let mut ctx = Ctx::start();
    let _: u64 = rpc.call(&mut ctx, server, 1, &7u64).unwrap();
    assert_eq!(t.pooled_connections(server), 1);
    std::thread::sleep(Duration::from_millis(1200));
    let r: u64 = rpc.call(&mut ctx, server, 1, &8u64).unwrap();
    assert_eq!(r, 8);
    assert_eq!(
        t.pooled_connections(server),
        1,
        "idle pooled connections must outlive the io timeout"
    );
}

#[test]
fn half_readable_frame_then_stall_only_costs_that_connection() {
    // A client delivers the envelope head and half the body, then goes
    // quiet: the server must reap exactly that connection while a
    // well-behaved caller sharing the same server stays serviced.
    let t = transport();
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let addr = t.addr(server).unwrap();

    let req = encode_wire_frame(1, 0, &Frame::from_msg(1, &9u64)).unwrap();
    let mut staller = TcpStream::connect(addr).unwrap();
    staller.write_all(&req[..req.len() / 2]).unwrap();

    // While the staller is mid-frame, a real call must go through.
    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    let mut ctx = Ctx::start();
    let r: u64 = rpc.call(&mut ctx, server, 1, &11u64).unwrap();
    assert_eq!(r, 11);

    // The staller is closed by the io timeout (EOF on its next read).
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 8];
    let n = staller.read(&mut buf).unwrap();
    assert_eq!(n, 0, "server must close a half-frame staller");
}

#[test]
fn interleaved_responses_share_one_multiplexed_socket() {
    use blobseer_rpc::{respond, ServerCtx, Service};
    // A service whose latency depends on the request: big values sleep.
    struct SkewEcho;
    impl Service for SkewEcho {
        fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
            respond(frame, |x: u64| {
                if x >= 100 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(x)
            })
        }
    }
    // One connection only: both calls MUST multiplex over it, and the
    // reactor + dispatch pool must let the fast response overtake the
    // slow one on the same socket.
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_secs(5)),
        max_pooled_per_peer: 1,
        ..TcpOptions::default()
    }));
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(SkewEcho));

    let t_slow = Arc::clone(&t);
    let slow = std::thread::spawn(move || {
        let started = Instant::now();
        let (resp, _) = t_slow
            .call(client, server, 0, Frame::from_msg(1, &100u64))
            .unwrap();
        let x: u64 = blobseer_rpc::parse_response(&resp).unwrap();
        (x, started.elapsed())
    });
    // Let the slow call win the race into the socket.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    let (resp, _) = t
        .call(client, server, 0, Frame::from_msg(1, &1u64))
        .unwrap();
    let fast_elapsed = started.elapsed();
    let x: u64 = blobseer_rpc::parse_response(&resp).unwrap();
    assert_eq!(x, 1);
    let (slow_x, slow_elapsed) = slow.join().unwrap();
    assert_eq!(slow_x, 100);
    assert_eq!(
        t.pooled_connections(server),
        1,
        "both calls must share the single pooled connection"
    );
    assert!(
        fast_elapsed < Duration::from_millis(300),
        "the fast response must not queue behind the slow handler \
         (took {fast_elapsed:?})"
    );
    assert!(slow_elapsed >= Duration::from_millis(300));
}

#[test]
fn overloaded_server_sheds_newest_connections_with_a_typed_close() {
    // Cap the server at 2 established connections. The shed path is the
    // same one the EMFILE accept branch takes: accept, write a CTRL_SHED
    // control frame, close — never silence, never a sleep-loop.
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_millis(500)),
        max_connections: 2,
        ..TcpOptions::default()
    }));
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let addr = t.addr(server).unwrap();

    // Fill the cap with idle raw connections and give the server time to
    // install them.
    let _held: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
    let deadline = Instant::now() + Duration::from_secs(2);
    while t.active_connections() < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(t.active_connections(), 2);

    // The next raw connection is shed: it receives exactly one control
    // frame on the reserved correlation id, then EOF.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let (corr, vt, frame) = read_wire_frame(&mut extra).unwrap();
    assert_eq!(corr, CTRL_CORR, "shed notice rides the control channel");
    assert_eq!(frame.method, CTRL_SHED);
    assert_eq!(
        vt,
        blobseer_rpc::SHED_RETRY_HINT_MS,
        "the shed notice carries a retry-after hint in its vt field"
    );
    let mut buf = [0u8; 8];
    assert_eq!(extra.read(&mut buf).unwrap(), 0, "shed ends in EOF");
    assert!(t.shed_count() > 0);

    // Through the client stack the shed surfaces as a typed Overload
    // carrying the server's hint, never a hang.
    let t2 = transport();
    let c2 = t2.add_node();
    let peer = t2.register_remote(addr);
    let start = Instant::now();
    let err = t2.call(c2, peer, 0, Frame::from_msg(1, &1u64)).unwrap_err();
    assert!(
        matches!(
            err,
            BlobError::Overload {
                retry_after_hint: blobseer_rpc::SHED_RETRY_HINT_MS
            }
        ),
        "{err:?}"
    );
    assert!(start.elapsed() < Duration::from_secs(3));
    assert_eq!(t2.pooled_connections(peer), 0);
}

#[test]
fn server_survives_corrupt_and_half_open_clients() {
    // The *server* side of the same coin: a client that sends garbage or
    // disconnects mid-frame must only cost its own connection; the
    // service keeps serving well-behaved callers.
    let t = transport();
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let addr = t.addr(server).unwrap();

    // Garbage envelope length.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.write_all(&[0xFF; 32]).unwrap();
    drop(s);
    // Half a frame, then disconnect.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&100u32.to_le_bytes()).unwrap();
    s.write_all(&[1u8; 20]).unwrap();
    drop(s);

    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    let mut ctx = Ctx::start();
    for i in 0..5u64 {
        let r: u64 = rpc.call(&mut ctx, server, 1, &i).unwrap();
        assert_eq!(r, i, "service must keep serving after hostile clients");
    }
}

#[test]
fn shed_then_backoff_then_admitted_succeeds_under_retry_policy() {
    // The client half of the overload contract end to end: a
    // connection-capped server sheds the first attempt with a typed
    // `Overload` carrying its retry hint; the retry policy backs off;
    // by the retry the congestion has cleared and the call succeeds.
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_millis(500)),
        max_connections: 1,
        ..TcpOptions::default()
    }));
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let addr = t.addr(server).unwrap();

    // Occupy the single connection slot so the next caller is shed.
    let held = TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while t.active_connections() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(t.active_connections(), 1);

    let t2 = transport();
    let c2 = t2.add_node();
    let peer = t2.register_remote(addr);

    let policy = blobseer_rpc::RetryPolicy::default();
    let mut held = Some(held);
    let sheds = std::cell::Cell::new(0u32);
    let t_sleep = Arc::clone(&t);
    let result = policy.run_with(
        |d| {
            std::thread::sleep(d);
            // Congestion clears during the backoff: wait for the server
            // to reap the closed connection before the retry lands.
            let deadline = Instant::now() + Duration::from_secs(2);
            while t_sleep.active_connections() > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        },
        |_attempt| {
            let r = t2.call(c2, peer, 0, Frame::from_msg(1, &7u64));
            if let Err(BlobError::Overload { retry_after_hint }) = &r {
                assert_eq!(*retry_after_hint, blobseer_rpc::SHED_RETRY_HINT_MS);
                sheds.set(sheds.get() + 1);
                // Free the slot so the retry can be admitted.
                held.take();
            }
            let (frame, _vt) = r?;
            blobseer_rpc::parse_response::<u64>(&frame)
        },
    );
    assert_eq!(result.unwrap(), 7, "retry after shed must succeed");
    assert!(sheds.get() >= 1, "the first attempt was shed");
}

// ---- the read role: waiters read, hand over, and fail together -------------
//
// All on `max_pooled_per_peer: 1`, so the callers *must* share one socket.

/// Sleeps `x` milliseconds on its dispatch worker, then echoes `x`.
struct Napper;
impl blobseer_rpc::Service for Napper {
    fn handle(&self, _ctx: &mut blobseer_rpc::ServerCtx, frame: &Frame) -> Frame {
        blobseer_rpc::respond(frame, |x: u64| {
            std::thread::sleep(Duration::from_millis(x));
            Ok(x)
        })
    }
}

fn one_socket_transport() -> Arc<TcpTransport> {
    Arc::new(TcpTransport::with_options(TcpOptions {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_secs(5)),
        max_pooled_per_peer: 1,
        dispatch_threads: 8,
        ..TcpOptions::default()
    }))
}

/// One napping call on its own thread: `(echoed, elapsed)`.
fn nap_call(
    t: &Arc<TcpTransport>,
    from: blobseer_proto::NodeId,
    to: blobseer_proto::NodeId,
    ms: u64,
) -> std::thread::JoinHandle<(u64, Duration)> {
    let t = Arc::clone(t);
    std::thread::spawn(move || {
        let started = Instant::now();
        let (resp, _) = t.call(from, to, 0, Frame::from_msg(1, &ms)).unwrap();
        let x: u64 = blobseer_rpc::parse_response(&resp).unwrap();
        (x, started.elapsed())
    })
}

#[test]
fn a_departing_reader_hands_the_read_role_to_the_waiter_behind_it() {
    // The mirror of `interleaved_responses_share_one_multiplexed_socket`:
    // the *fast* caller is first onto the socket, so it holds the read
    // role; the slow caller parks behind it. When the fast response
    // arrives its reader leaves — and the slow caller must take the role
    // over and read its own reply, or it waits for ever.
    let t = one_socket_transport();
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Napper));
    t.call(client, server, 0, Frame::from_msg(1, &0u64))
        .unwrap();

    let fast = nap_call(&t, client, server, 150);
    std::thread::sleep(Duration::from_millis(50));
    let slow = nap_call(&t, client, server, 400);
    let (x, fast_elapsed) = fast.join().unwrap();
    assert_eq!(x, 150);
    assert!(
        fast_elapsed < Duration::from_millis(350),
        "the role holder leaves as soon as its own reply is in ({fast_elapsed:?})"
    );
    let (x, slow_elapsed) = slow.join().unwrap();
    assert_eq!(x, 400);
    assert!(
        slow_elapsed < Duration::from_secs(2),
        "the parked caller took over and finished ({slow_elapsed:?})"
    );
    assert_eq!(t.pooled_connections(server), 1, "one socket throughout");
    assert_eq!(t.inflight_calls(server), 0);
}

#[test]
fn a_free_read_role_never_strands_a_parked_waiter() {
    // Three callers on the shared socket. One is a fan-out whose *first*
    // destination naps 400 ms, so its slot on the shared socket is
    // registered but its thread is not parked there — it is reading
    // another connection. If the departing reader woke only that slot,
    // the third caller would sit parked beside a free read role until the
    // fan-out came back. It must not: its 200 ms call takes 200 ms.
    let t = one_socket_transport();
    let client = t.add_node();
    let shared = t.add_node();
    t.bind(shared, Arc::new(Napper));
    let other = t.add_node();
    t.bind(other, Arc::new(Napper));
    for n in [shared, other] {
        t.call(client, n, 0, Frame::from_msg(1, &0u64)).unwrap();
    }

    let t_burst = Arc::clone(&t);
    let burst = std::thread::spawn(move || {
        burst_of(
            &t_burst,
            client,
            vec![
                (other, Frame::from_msg(1, &400u64)),
                (shared, Frame::from_msg(1, &300u64)),
            ],
        )
    });
    std::thread::sleep(Duration::from_millis(20));
    let reader = nap_call(&t, client, shared, 100); // takes the read role
    std::thread::sleep(Duration::from_millis(20));
    let third = nap_call(&t, client, shared, 200); // parks behind it

    let (x, _) = reader.join().unwrap();
    assert_eq!(x, 100);
    let (x, third_elapsed) = third.join().unwrap();
    assert_eq!(x, 200);
    assert!(
        third_elapsed < Duration::from_millis(300),
        "a parked waiter next to a free read role ({third_elapsed:?})"
    );
    assert_eq!(burst.join().unwrap(), vec![Ok(400), Ok(300)]);
    assert_eq!(t.pooled_connections(shared), 1);
    assert_eq!(t.inflight_calls(shared), 0);
}

#[test]
fn a_reader_losing_its_peer_mid_frame_fails_every_waiter_the_same_way() {
    // Three calls in flight on one socket, one of their threads reading.
    // The peer has all three requests, starts a response and closes
    // mid-frame: the reader's error is every waiter's error.
    const REQ: usize = 26 + 8; // wire head + a u64 body
    let (first_seen_tx, first_seen) = std::sync::mpsc::channel();
    let (addr, h) = evil_peer(move |mut s| {
        let mut req = [0u8; REQ];
        s.read_exact(&mut req).unwrap();
        first_seen_tx.send(()).unwrap();
        s.read_exact(&mut req).unwrap();
        s.read_exact(&mut req).unwrap();
        // Let the last caller reach its wait, then die mid-frame.
        std::thread::sleep(Duration::from_millis(50));
        let mut partial = Vec::new();
        partial.extend_from_slice(&100u32.to_le_bytes()); // promises 100
        partial.extend_from_slice(&[7u8; 10]); // delivers 10
        let _ = s.write_all(&partial);
    });
    let t = one_socket_transport();
    let client = t.add_node();
    let peer = t.register_remote(addr);
    let call = |x: u64| {
        let t = Arc::clone(&t);
        std::thread::spawn(move || t.call(client, peer, 0, Frame::from_msg(1, &x)).unwrap_err())
    };
    let start = Instant::now();
    let mut callers = vec![call(1)];
    // The connection is dialed and pooled once the first request is in;
    // the other two can only multiplex onto it.
    first_seen.recv().unwrap();
    callers.push(call(2));
    callers.push(call(3));
    let errors: Vec<BlobError> = callers.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(start.elapsed() < Duration::from_secs(3), "nobody hangs");
    for e in &errors {
        assert!(matches!(e, BlobError::Unreachable(_)), "{e:?}");
        assert_eq!(e, &errors[0], "one death, one error");
    }
    assert_eq!(t.pooled_connections(peer), 0);
    assert_eq!(t.inflight_calls(peer), 0);
    h.join().unwrap();
}

#[test]
fn a_burst_of_64_is_read_by_its_own_caller_in_input_order() {
    // One thread, one socket, 64 unaggregated calls: the caller is the
    // only reader there is. Responses for later slots arrive while it
    // waits on the first; it files them and finds them filled.
    let t = one_socket_transport();
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let calls = (0..64u64)
        .map(|i| (server, Frame::from_msg(1, &i)))
        .collect();
    let results = burst_of(&t, client, calls);
    assert_eq!(results.len(), 64);
    for (i, r) in results.into_iter().enumerate() {
        assert_eq!(r.unwrap(), i as u64);
    }
    assert_eq!(t.pooled_connections(server), 1);
    assert_eq!(t.inflight_calls(server), 0);
}

/// A hand-rolled peer that accepts two connections in turn. On each it
/// echoes one call; after the first it runs `then` on the still-open
/// stream, reports on the channel, and holds the stream until the test
/// is over.
fn two_connection_peer(
    then: impl FnOnce(&mut TcpStream) -> bool + Send + 'static,
) -> (
    SocketAddr,
    std::sync::mpsc::Receiver<()>,
    std::thread::JoinHandle<()>,
) {
    let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = l.local_addr().unwrap();
    let (done_tx, done) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        let echo_one = |s: &mut TcpStream| {
            let (corr, vt, frame) = read_wire_frame(s).unwrap();
            let x: u64 = frame.parse().unwrap();
            let resp = blobseer_rpc::ok_frame(frame.method, &x);
            s.write_all(&encode_wire_frame(corr, vt, &resp).unwrap())
                .unwrap();
        };
        let (mut first, _) = l.accept().unwrap();
        echo_one(&mut first);
        let keep_open = then(&mut first);
        let _held = keep_open.then_some(first);
        done_tx.send(()).unwrap();
        let (mut second, _) = l.accept().unwrap();
        echo_one(&mut second);
    });
    (addr, done, h)
}

/// First call on one connection, second call after the peer misbehaved on
/// it while it sat idle in the pool: both succeed, the second on a fresh
/// dial.
fn second_call_redials(addr: SocketAddr, misbehaved: std::sync::mpsc::Receiver<()>) {
    let t = transport();
    let c = t.add_node();
    let peer = t.register_remote(addr);
    let rpc = RpcClient::new(Arc::clone(&t) as _, c);
    let mut ctx = Ctx::start();
    let r: u64 = rpc.call(&mut ctx, peer, 1, &7u64).unwrap();
    assert_eq!(r, 7);
    assert_eq!(t.pooled_connections(peer), 1);
    misbehaved.recv().unwrap();
    // Loopback delivers the FIN / the frame within the kernel, but not
    // within the peer's syscall: give it a moment.
    std::thread::sleep(Duration::from_millis(50));
    let r: u64 = rpc
        .call(&mut ctx, peer, 1, &8u64)
        .expect("a stale pooled connection is found at checkout, not by the call");
    assert_eq!(r, 8);
    assert_eq!(t.pooled_connections(peer), 1, "the fresh dial is pooled");
}

#[test]
fn a_connection_closed_while_idle_is_replaced_at_checkout() {
    // Nobody reads an idle connection any more, so nobody sees the EOF
    // when it arrives. The next checkout must: the call dials afresh and
    // no error surfaces.
    let (addr, closed, h) = two_connection_peer(|_| false);
    second_call_redials(addr, closed);
    h.join().unwrap();
}

#[test]
fn a_shed_notice_on_an_idle_connection_is_found_at_checkout() {
    // CTRL_SHED written to a connection with nothing in flight, and the
    // connection left open: the notice sits unread in the socket. It is
    // the connection's death, not the next call's failure.
    let (addr, shed, h) = two_connection_peer(|s| {
        let notice = Frame {
            method: CTRL_SHED,
            body: Vec::new().into(),
        };
        s.write_all(&encode_wire_frame(CTRL_CORR, 20, &notice).unwrap())
            .unwrap();
        true
    });
    second_call_redials(addr, shed);
    h.join().unwrap();
}

// ---- fan-out: fault semantics stay per call -------------------------------

/// Four echo nodes on one transport, each warmed so its connection is
/// pooled before the fault is injected.
fn four_echoes(t: &Arc<TcpTransport>) -> (blobseer_proto::NodeId, Vec<blobseer_proto::NodeId>) {
    let client = t.add_node();
    let servers: Vec<_> = (0..4)
        .map(|_| {
            let s = t.add_node();
            t.bind(s, Arc::new(Echo));
            t.call(client, s, 0, Frame::from_msg(1, &0u64)).unwrap();
            s
        })
        .collect();
    (client, servers)
}

/// Every connection a burst touched and left alive must hold no
/// registered slot afterwards: each submitted call was either awaited or
/// deregistered.
fn assert_no_slot_left(t: &TcpTransport, nodes: &[blobseer_proto::NodeId]) {
    for n in nodes {
        assert_eq!(t.inflight_calls(*n), 0, "slot stranded on {n:?}");
    }
}

#[test]
fn fan_out_with_a_killed_node_fails_only_that_destination() {
    use blobseer_rpc::AggregationPolicy;
    for policy in [AggregationPolicy::PerCall, AggregationPolicy::Batch] {
        let t = transport();
        let (client, servers) = four_echoes(&t);
        let dead = servers[1];
        t.kill(dead);
        let rpc = RpcClient::new(Arc::clone(&t) as _, client).with_aggregation(policy);
        // Two calls per node, destinations interleaved.
        let calls: Vec<_> = (0..8u64).map(|i| (servers[i as usize % 4], i)).collect();
        let frames = calls
            .iter()
            .map(|(to, x)| (*to, Frame::from_msg(1, x)))
            .collect();
        let start = Instant::now();
        let results = rpc.call_all::<u64>(&mut Ctx::start(), frames);
        assert!(start.elapsed() < Duration::from_secs(3), "nothing hangs");
        for ((to, x), r) in calls.iter().zip(&results) {
            if *to == dead {
                assert!(
                    matches!(r, Err(BlobError::Unreachable(_))),
                    "{policy:?}: {r:?}"
                );
            } else {
                assert_eq!(r.as_ref().unwrap(), x, "{policy:?}: survivors succeed");
            }
        }
        assert_eq!(t.pooled_connections(dead), 0);
        assert_no_slot_left(&t, &servers);
    }
}

#[test]
fn fan_out_with_a_peer_resetting_mid_frame_fails_only_that_call() {
    let (addr, h) = evil_peer(|mut s| {
        let mut sink = [0u8; 16];
        let _ = s.read_exact(&mut sink);
        // drop with megabytes still inbound → RST under the gather write
    });
    let t = transport();
    let (client, servers) = four_echoes(&t);
    let evil = t.register_remote(addr);
    let big = PageBuf::from_vec(vec![0x5A; 16 << 20]);
    // The doomed frame goes out second: one frame is already on the wire
    // when its send fails, two more follow it.
    let results = burst_of(
        &t,
        client,
        vec![
            (servers[0], Frame::from_msg(1, &10u64)),
            (evil, Frame::from_msg(1, &big)),
            (servers[1], Frame::from_msg(1, &11u64)),
            (servers[2], Frame::from_msg(1, &12u64)),
        ],
    );
    assert!(
        matches!(results[1], Err(BlobError::Unreachable(_))),
        "{:?}",
        results[1].as_ref().err()
    );
    for (i, want) in [(0usize, 10u64), (2, 11), (3, 12)] {
        assert_eq!(results[i], Ok(want));
    }
    assert_eq!(t.pooled_connections(evil), 0);
    assert_no_slot_left(&t, &servers);
    h.join().unwrap();
}

#[test]
fn fan_out_with_a_shedding_node_keeps_its_typed_overload() {
    // A server transport capped at one connection, the slot occupied: the
    // fan-out's call to it is shed with CTRL_SHED.
    let shedding = Arc::new(TcpTransport::with_options(TcpOptions {
        max_connections: 1,
        ..TcpOptions::default()
    }));
    let node = shedding.add_node();
    shedding.bind(node, Arc::new(Echo));
    let addr = shedding.addr(node).unwrap();
    let _held = TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(2);
    while shedding.active_connections() < 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(shedding.active_connections(), 1);

    let t = transport();
    let (client, servers) = four_echoes(&t);
    let shed = t.register_remote(addr);
    let results = burst_of(
        &t,
        client,
        vec![
            (servers[0], Frame::from_msg(1, &10u64)),
            (shed, Frame::from_msg(1, &1u64)),
            (servers[1], Frame::from_msg(1, &11u64)),
            (servers[2], Frame::from_msg(1, &12u64)),
        ],
    );
    assert!(
        matches!(
            results[1],
            Err(BlobError::Overload {
                retry_after_hint: blobseer_rpc::SHED_RETRY_HINT_MS
            })
        ),
        "the shed's hint must survive the fan-out: {:?}",
        results[1].as_ref().err()
    );
    for i in [0, 2, 3] {
        assert!(
            results[i].is_ok(),
            "call {i}: {:?}",
            results[i].as_ref().err()
        );
    }
    assert_eq!(t.pooled_connections(shed), 0);
    assert_no_slot_left(&t, &servers);
}

#[test]
fn fan_out_send_side_codec_error_does_not_strand_frames_already_sent() {
    // A body over MAX_FRAME_BODY, built from refcount clones of one
    // segment (gigabytes on the wire, megabytes in RAM): refused before a
    // byte of it is written.
    let seg = PageBuf::from_vec(vec![0xEE; 1 << 24]);
    let mut body = blobseer_proto::wire::ByteChain::new();
    while body.len() as u64 <= blobseer_rpc::MAX_FRAME_BODY {
        body.push(seg.clone());
    }
    let t = transport();
    let (client, servers) = four_echoes(&t);
    let results = burst_of(
        &t,
        client,
        vec![
            (servers[0], Frame::from_msg(1, &10u64)),
            (servers[1], Frame { method: 1, body }),
            (servers[2], Frame::from_msg(1, &12u64)),
        ],
    );
    assert!(
        matches!(results[1], Err(BlobError::Codec(_))),
        "{:?}",
        results[1].as_ref().err()
    );
    for (i, want) in [(0usize, 10u64), (2, 12)] {
        assert_eq!(results[i], Ok(want));
    }
    assert_eq!(
        t.pooled_connections(servers[1]),
        1,
        "nothing hit the wire: the connection stays usable"
    );
    assert_no_slot_left(&t, &servers);
}
