//! Responses that mix heap and mapped segments leave the server
//! byte-identical however the client drains them. A mapped segment of at
//! least 128 KiB goes by `sendfile(2)`, the rest by `writev`; a client
//! that reads in uneven chunks with pauses makes the server stop
//! mid-segment (a short `sendfile`, a `WouldBlock`) and resume from its
//! cursor. A client that resets while a response is still being sent
//! costs only its own connection, and the response's held state drops.

use blobseer_proto::wire::ByteChain;
use blobseer_proto::PageBuf;
use blobseer_rpc::{encode_wire_frame, Frame, ServerCtx, Service, TcpOptions, TcpTransport};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const KIB: usize = 1024;

/// Answers every request with the same body and holds a token until the
/// response has left the server.
struct Mixed {
    body: ByteChain,
    held: Arc<()>,
}

impl Service for Mixed {
    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        ctx.hold(Box::new(Arc::clone(&self.held)));
        Frame {
            method: frame.method,
            body: self.body.clone(),
        }
    }
}

/// In order: heap bytes, a mapped 256 KiB slice, heap bytes, a mapped
/// 64 KiB slice (below the `sendfile` floor), a mapped 256 KiB slice.
/// The mapped slices start off page boundaries of one file.
fn mixed_body(name: &str) -> ByteChain {
    let path =
        std::env::temp_dir().join(format!("blobseer-sendfile-{}-{name}", std::process::id()));
    let bytes: Vec<u8> = (0..700_000u32).map(|i| (i % 251) as u8).collect();
    std::fs::write(&path, &bytes).unwrap();
    let map = PageBuf::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(map.is_mapped());
    let heap = |n: usize, seed: u8| PageBuf::from_vec((0..n).map(|i| seed ^ i as u8).collect());
    let mut body = ByteChain::new();
    body.push(heap(700, 0x11));
    body.push(map.slice(1000..1000 + 256 * KIB));
    body.push(heap(3, 0x22));
    body.push(map.slice(300_001..300_001 + 64 * KIB));
    body.push(map.slice(400_003..400_003 + 256 * KIB));
    body
}

fn serve(name: &str) -> (Arc<TcpTransport>, SocketAddr, ByteChain, Arc<()>) {
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        io_timeout: Some(Duration::from_secs(5)),
        ..TcpOptions::default()
    }));
    let server = t.add_node();
    let body = mixed_body(name);
    let held = Arc::new(());
    t.bind(
        server,
        Arc::new(Mixed {
            body: body.clone(),
            held: Arc::clone(&held),
        }),
    );
    let addr = t.addr(server).unwrap();
    (t, addr, body, held)
}

fn request(corr: u64) -> Vec<u8> {
    encode_wire_frame(corr, 0, &Frame::from_msg(1, &corr)).unwrap()
}

/// The exact wire bytes of the response to `request(corr)`.
fn response(corr: u64, body: &ByteChain) -> Vec<u8> {
    let frame = Frame {
        method: 1,
        body: body.clone(),
    };
    encode_wire_frame(corr, 0, &frame).unwrap()
}

/// Read `len` bytes in uneven chunks, pausing after each.
fn read_trickled(s: &mut TcpStream, len: usize) -> Vec<u8> {
    let chunks = [1usize, 3, 17, 4093, 65_537, 9, 100_000];
    let mut out = vec![0u8; len];
    let mut at = 0;
    for size in chunks.into_iter().cycle() {
        if at == len {
            break;
        }
        let end = (at + size).min(len);
        s.read_exact(&mut out[at..end]).unwrap();
        at = end;
        std::thread::sleep(Duration::from_millis(2));
    }
    out
}

/// Responses whose held state is still alive: every token beyond the
/// test's own handle and the service's.
fn held_responses(held: &Arc<()>) -> usize {
    Arc::strong_count(held) - 2
}

fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Pipeline calls on `s` without reading any response until the server
/// holds one it cannot finish — both socket buffers are full, whatever
/// size the host gives them — and return how many calls were made.
fn call_until_the_server_stalls(s: &mut TcpStream, held: &Arc<()>) -> u64 {
    for corr in 1..=500 {
        s.write_all(&request(corr)).unwrap();
        // Ample time to push a response into buffers with room for it.
        std::thread::sleep(Duration::from_millis(40));
        if held_responses(held) > 0 {
            return corr;
        }
    }
    panic!("500 unread responses (~290 MB) never filled the socket buffers");
}

#[test]
fn trickled_mixed_responses_arrive_byte_identical_from_the_reactor() {
    let (_t, addr, body, held) = serve("trickle");
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The server is stopped mid-response before the first read, then
    // stops and resumes many times as the client trickles; each response
    // starts from a fresh cursor after the one before it.
    let calls = 1..=call_until_the_server_stalls(&mut s, &held);
    let want: Vec<u8> = calls.flat_map(|corr| response(corr, &body)).collect();
    let got = read_trickled(&mut s, want.len());
    assert!(got == want, "responses must arrive byte-identical");
    wait_for("held state released", || held_responses(&held) == 0);
}

#[test]
fn a_reset_mid_send_costs_only_that_connection_on_the_reactor() {
    let (t, addr, body, held) = serve("reset");
    let mut bystander = TcpStream::connect(addr).unwrap();
    bystander
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // The server is stopped inside a response — most of whose bytes are
    // `sendfile` pages — when the client goes away.
    let mut quitter = TcpStream::connect(addr).unwrap();
    call_until_the_server_stalls(&mut quitter, &held);
    drop(quitter); // unread bytes queued: the kernel sends a reset

    wait_for("held state released", || held_responses(&held) == 0);
    wait_for("the reset connection closed", || {
        t.active_connections() == 1
    });

    // The server keeps serving the other connection.
    bystander.write_all(&request(9)).unwrap();
    let want = response(9, &body);
    let got = read_trickled(&mut bystander, want.len());
    assert!(got == want, "the bystander's response is byte-identical");
}
