//! Where a handler runs, and what a handler may do to the thread it runs
//! on.
//!
//! The reactor answers a method its service declares
//! [`Service::nonblocking`] on the event loop, in the readiness event
//! that brought the request; everything else goes to the dispatch pool.
//! Both kinds share sockets, the kill switch and the `held`-until-written
//! rule — and neither may lose its thread to a panicking handler.

use blobseer_proto::{BlobError, NodeId, PageBuf};
use blobseer_rpc::{
    encode_wire_frame, error_frame, parse_response, respond, Frame, ServerCtx, Service, TcpOptions,
    TcpTransport, Transport,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const INLINE: u16 = 1;
const POOLED: u16 = 2;
const INLINE_HOLDING: u16 = 3;
const PANIC_INLINE: u16 = 8;
const PANIC_POOLED: u16 = 9;

const BOOM: &str = "boom (expected by the test)";

/// Methods 1, 3 and 8 declare themselves non-blocking; 2 and 9 do not.
/// Every call records the thread it ran on; `POOLED` sleeps its argument
/// in milliseconds; the panicking pair panics.
#[derive(Default)]
struct Mixed {
    ran_on: Mutex<Vec<(u16, ThreadId)>>,
    /// Set when the state `INLINE_HOLDING` pinned to its request drops.
    released: Arc<AtomicBool>,
    big: Option<PageBuf>,
}

struct SetOnDrop(Arc<AtomicBool>);
impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Service for Mixed {
    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        self.ran_on
            .lock()
            .unwrap()
            .push((frame.method, std::thread::current().id()));
        match frame.method {
            INLINE => respond(frame, |x: u64| Ok(x)),
            POOLED => respond(frame, |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                Ok(ms)
            }),
            INLINE_HOLDING => {
                ctx.hold(Box::new(SetOnDrop(Arc::clone(&self.released))));
                respond(frame, |_: u64| Ok(self.big.clone().expect("big response")))
            }
            PANIC_INLINE | PANIC_POOLED => panic!("{BOOM}"),
            other => error_frame(other, BlobError::Internal("unknown method")),
        }
    }

    fn nonblocking(&self, method: u16) -> bool {
        matches!(method, INLINE | INLINE_HOLDING | PANIC_INLINE)
    }
}

impl Mixed {
    fn threads_of(&self, method: u16) -> Vec<ThreadId> {
        let ran = self.ran_on.lock().unwrap();
        ran.iter()
            .filter(|(m, _)| *m == method)
            .map(|(_, t)| *t)
            .collect()
    }
}

/// The handlers' deliberate panics would otherwise each print a
/// backtrace banner from a server thread; any other panic still does.
fn quiet_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let expected =
                info.payload().downcast_ref::<String>().map(String::as_str) == Some(BOOM);
            if !expected {
                default(info);
            }
        }));
    });
}

fn bound(svc: Mixed) -> (Arc<TcpTransport>, NodeId, NodeId, Arc<Mixed>) {
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_secs(5)),
        max_pooled_per_peer: 1,
        dispatch_threads: 2,
        ..TcpOptions::default()
    }));
    let client = t.add_node();
    let server = t.add_node();
    let svc = Arc::new(svc);
    t.bind(server, Arc::clone(&svc) as Arc<dyn Service>);
    (t, client, server, svc)
}

fn call(t: &TcpTransport, from: NodeId, to: NodeId, method: u16, x: u64) -> Result<u64, BlobError> {
    let (resp, _) = t.call(from, to, 0, Frame::from_msg(method, &x))?;
    parse_response::<u64>(&resp)
}

#[test]
fn an_inline_call_issued_second_returns_first_on_the_same_socket() {
    let (t, client, server, svc) = bound(Mixed::default());
    call(&t, client, server, INLINE, 0).unwrap();

    let t_slow = Arc::clone(&t);
    let slow = std::thread::spawn(move || {
        let started = Instant::now();
        let x = call(&t_slow, client, server, POOLED, 400).unwrap();
        (x, started.elapsed())
    });
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    assert_eq!(call(&t, client, server, INLINE, 7).unwrap(), 7);
    let inline_elapsed = started.elapsed();
    let (x, slow_elapsed) = slow.join().unwrap();
    assert_eq!(x, 400);
    assert_eq!(t.pooled_connections(server), 1, "both rode one socket");
    assert!(
        inline_elapsed < Duration::from_millis(250),
        "the event loop answers while the worker sleeps ({inline_elapsed:?})"
    );
    assert!(slow_elapsed >= Duration::from_millis(350));

    // And they really ran in different places: every inline call on the
    // one loop that owns the listener, the pooled call somewhere else.
    let loops = svc.threads_of(INLINE);
    assert!(loops.iter().all(|id| *id == loops[0]), "{loops:?}");
    assert_ne!(svc.threads_of(POOLED)[0], loops[0]);
}

#[test]
fn a_batch_with_one_blocking_sub_call_goes_to_the_pool_whole() {
    let (t, client, server, svc) = bound(Mixed::default());
    call(&t, client, server, INLINE, 0).unwrap();
    let event_loop = svc.threads_of(INLINE)[0];

    let batch = |methods: &[u16]| {
        let subs = methods.iter().map(|m| Frame::from_msg(*m, &1u64)).collect();
        let (resp, _) = t
            .call(client, server, 0, Frame::batch(subs).unwrap())
            .unwrap();
        let subs = resp.unbatch().unwrap().unwrap();
        assert_eq!(subs.len(), methods.len());
        for sub in &subs {
            assert_eq!(parse_response::<u64>(sub).unwrap(), 1);
        }
    };

    // All non-blocking: the whole batch is answered on the loop.
    svc.ran_on.lock().unwrap().clear();
    batch(&[INLINE, INLINE, INLINE]);
    assert_eq!(svc.threads_of(INLINE), vec![event_loop; 3]);

    // One blocking sub-call: nothing of the batch runs on the loop.
    svc.ran_on.lock().unwrap().clear();
    batch(&[INLINE, POOLED, INLINE]);
    let worker = svc.threads_of(POOLED)[0];
    assert_ne!(worker, event_loop);
    assert_eq!(svc.threads_of(INLINE), vec![worker; 2]);
}

#[test]
fn a_killed_node_closes_at_the_next_inline_frame_like_at_a_pooled_one() {
    for method in [INLINE, POOLED] {
        let (t, client, server, svc) = bound(Mixed::default());
        call(&t, client, server, method, 0).unwrap();
        assert_eq!(t.pooled_connections(server), 1);
        let served = svc.threads_of(method).len();

        t.kill(server);
        let start = Instant::now();
        let err = call(&t, client, server, method, 0).unwrap_err();
        assert!(
            matches!(err, BlobError::Unreachable(_)),
            "{method}: {err:?}"
        );
        assert!(start.elapsed() < Duration::from_secs(2));
        assert_eq!(t.pooled_connections(server), 0, "{method}");
        assert_eq!(t.inflight_calls(server), 0, "{method}");
        assert_eq!(
            svc.threads_of(method).len(),
            served,
            "{method}: a dead node runs no handler"
        );

        t.revive(server);
        assert_eq!(call(&t, client, server, method, 5).unwrap(), 5);
    }
}

#[test]
fn an_inline_response_holds_its_request_state_until_it_is_written() {
    // 32 MiB cannot fit the loopback socket buffers, so while the client
    // does not read, the response is queued but not written — and what the
    // handler pinned to the request (an admission permit, in production)
    // must still be held. Reading the response through releases it.
    const BIG: usize = 32 << 20;
    let svc = Mixed {
        big: Some(PageBuf::from_vec(vec![0xC3; BIG])),
        ..Mixed::default()
    };
    let (t, _client, server, svc) = bound(svc);
    let mut s = TcpStream::connect(t.addr(server).unwrap()).unwrap();
    let req = encode_wire_frame(1, 0, &Frame::from_msg(INLINE_HOLDING, &0u64)).unwrap();
    s.write_all(&req).unwrap();

    let deadline = Instant::now() + Duration::from_secs(5);
    while svc.threads_of(INLINE_HOLDING).is_empty() {
        assert!(Instant::now() < deadline, "handler never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200));
    assert!(
        !svc.released.load(Ordering::SeqCst),
        "held state dropped with the response still unwritten"
    );

    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sink = vec![0u8; 1 << 20];
    let mut got = 0usize;
    while got < BIG {
        let n = s.read(&mut sink).unwrap();
        assert!(n > 0, "connection closed after {got} bytes");
        got += n;
    }
    while !svc.released.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline + Duration::from_secs(10));
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_pipelined_inline_burst_deeper_than_one_readiness_event_is_all_answered() {
    // The loop answers at most `max_conn_inflight` frames of one
    // connection per readiness event and then turns to the others; the
    // rest of what is already in the socket must be picked up again, in
    // order, without the client sending another byte.
    const DEPTH: u64 = 200;
    let (t, _client, server, _svc) = bound(Mixed::default());
    let mut s = TcpStream::connect(t.addr(server).unwrap()).unwrap();
    let mut burst = Vec::new();
    for corr in 1..=DEPTH {
        burst.extend(encode_wire_frame(corr, 0, &Frame::from_msg(INLINE, &corr)).unwrap());
    }
    s.write_all(&burst).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    for want in 1..=DEPTH {
        let (corr, _, resp) = blobseer_rpc::read_wire_frame(&mut s).unwrap();
        assert_eq!(corr, want, "inline answers keep request order");
        assert_eq!(parse_response::<u64>(&resp).unwrap(), want);
    }
}

/// `dispatch_threads + 1` panics in a row, each answered at once with the
/// typed error; then the same connection serves an ordinary call.
fn panics_cost_only_their_own_call(panicking: u16, ordinary: u16) {
    quiet_expected_panics();
    let (t, client, server, _svc) = bound(Mixed::default());
    assert_eq!(call(&t, client, server, ordinary, 1).unwrap(), 1);
    for round in 0..3 {
        let start = Instant::now();
        let err = call(&t, client, server, panicking, 0).unwrap_err();
        assert_eq!(
            err,
            BlobError::Internal("handler panicked"),
            "method {panicking} round {round}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "method {panicking} round {round}: the caller must not wait out the io timeout"
        );
    }
    assert_eq!(call(&t, client, server, ordinary, 2).unwrap(), 2);
    assert_eq!(
        t.pooled_connections(server),
        1,
        "method {panicking}: a handler's panic is not a connection error"
    );
}

#[test]
fn a_panicking_pooled_handler_does_not_take_its_worker_with_it() {
    // Two workers, three panics: at the parent the third call found no
    // worker left and hung until the io timeout.
    panics_cost_only_their_own_call(PANIC_POOLED, POOLED);
}

#[test]
fn a_panicking_inline_handler_does_not_take_the_event_loop_with_it() {
    panics_cost_only_their_own_call(PANIC_INLINE, INLINE);
}

#[test]
fn a_panic_inside_a_batch_fails_the_batch_not_the_server() {
    quiet_expected_panics();
    let (t, client, server, _svc) = bound(Mixed::default());
    let subs = vec![
        Frame::from_msg(INLINE, &1u64),
        Frame::from_msg(PANIC_INLINE, &0u64),
    ];
    let (resp, _) = t
        .call(client, server, 0, Frame::batch(subs).unwrap())
        .unwrap();
    assert_eq!(
        parse_response::<u64>(&resp).unwrap_err(),
        BlobError::Internal("handler panicked")
    );
    assert_eq!(call(&t, client, server, INLINE, 3).unwrap(), 3);
}
