//! C10K acceptance: ten thousand concurrent established connections
//! served by a **fixed** number of threads, each idle connection adding
//! a bounded number of resident bytes.
//!
//! A thread per connection would need ten thousand stacks for this
//! load; the reactor serves it from `event_loops + dispatch_threads`
//! threads, period, and holds each idle connection in a slab entry. The
//! client swarm runs in a re-executed child process (this test binary,
//! filtered to [`c10k_client_swarm`]) so the parent's fd budget and
//! resident set are spent only on the server side of each connection.
//!
//! Linux-only: the assertions read `/proc/self/status`.

#![cfg(target_os = "linux")]

mod common;

use blobseer_rpc::{Frame, TcpTransport, Transport};
use blobseer_util::fdlimit;
use common::{rss_bytes, thread_count};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resident bytes one idle connection may add to the serving process:
/// several times what the reactor costs, a fraction of a thread stack.
const RSS_PER_CONN_BOUND: f64 = 2048.0;

struct Echo;
impl blobseer_rpc::Service for Echo {
    fn handle(&self, _ctx: &mut blobseer_rpc::ServerCtx, frame: &Frame) -> Frame {
        blobseer_rpc::respond(frame, |x: u64| Ok(x))
    }
}

/// Child entry point: dial the address in `BLOBSEER_C10K_ADDR` the
/// requested number of times, hold every connection idle, report READY
/// on stdout, and keep holding until stdin reaches EOF. A no-op in the
/// normal test run (the env var is unset).
#[test]
fn c10k_client_swarm() {
    let Ok(addr) = std::env::var("BLOBSEER_C10K_ADDR") else {
        return;
    };
    let want: usize = std::env::var("BLOBSEER_C10K_CONNS")
        .expect("conn count")
        .parse()
        .expect("numeric conn count");
    let _ = fdlimit::raise_soft_to_hard();
    let mut held: Vec<TcpStream> = Vec::with_capacity(want);
    let deadline = Instant::now() + Duration::from_secs(120);
    while held.len() < want {
        match TcpStream::connect(&addr) {
            Ok(s) => held.push(s),
            Err(e) => {
                // Transient listen-backlog overflow: let the server
                // drain its accept queue and retry.
                assert!(
                    Instant::now() < deadline,
                    "swarm stalled at {} conns: {e}",
                    held.len()
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    println!("READY {}", held.len());
    // Hold every connection until the parent closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    drop(held);
}

#[test]
fn ten_thousand_connections_on_a_fixed_thread_count() {
    let hard = fdlimit::raise_soft_to_hard().expect("raise fd limit");
    // The parent holds only the server side of every connection (the
    // swarm child owns the client side under its own fd budget); leave
    // headroom for the harness's own fds.
    let conns: usize = std::cmp::min(10_000, (hard as usize).saturating_sub(2_000));
    assert!(
        conns >= 1_000,
        "fd hard limit {hard} too small to exercise connection scaling"
    );

    let t = Arc::new(TcpTransport::new());
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let addr = t.addr(server).unwrap();

    // Warm the client path (dial the mux connection), then let the
    // harness's sibling-test threads wind down before the thread-count
    // baseline.
    let (resp, _) = t
        .call(client, server, 0, Frame::from_msg(1, &1u64))
        .unwrap();
    let x: u64 = blobseer_rpc::parse_response(&resp).unwrap();
    assert_eq!(x, 1);
    std::thread::sleep(Duration::from_millis(200));
    let baseline = thread_count();
    let rss_before = rss_bytes();

    let exe = std::env::current_exe().expect("own test binary");
    let mut child = std::process::Command::new(exe)
        .args([
            "c10k_client_swarm",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("BLOBSEER_C10K_ADDR", addr.to_string())
        .env("BLOBSEER_C10K_CONNS", conns.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn client swarm");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    loop {
        line.clear();
        let n = child_out.read_line(&mut line).expect("child stdout line");
        assert!(n > 0, "swarm exited before READY");
        // The harness prints "test c10k_client_swarm ... " on the same
        // line, so match anywhere in it.
        if line.contains("READY") {
            break;
        }
    }

    // Every swarm connection must be *established server-side* (the
    // gauge counts installed connections, not SYN backlog).
    let deadline = Instant::now() + Duration::from_secs(60);
    while t.active_connections() < conns {
        assert!(
            Instant::now() < deadline,
            "only {}/{conns} connections installed",
            t.active_connections()
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    // The load is ten thousand connections; the thread count is the
    // same fixed handful it was at one connection.
    let under_load = thread_count();
    assert_eq!(
        under_load, baseline,
        "thread count must not scale with connections \
         ({baseline} threads before, {under_load} at {conns} connections)"
    );

    // And an idle connection costs a slab entry (~280 B measured on
    // x86_64 Linux), not a thread stack (~9.4 KiB).
    let rss_per_conn = rss_bytes().saturating_sub(rss_before) as f64 / conns as f64;
    println!("c10k: {rss_per_conn:.0} resident bytes per idle connection");
    assert!(
        rss_per_conn <= RSS_PER_CONN_BOUND,
        "an idle connection must cost a slab entry, not a thread stack: \
         {rss_per_conn:.0} B/conn (bound {RSS_PER_CONN_BOUND} B)"
    );

    // And the server still *serves* under that load.
    let start = Instant::now();
    let (resp, _) = t
        .call(client, server, 0, Frame::from_msg(1, &99u64))
        .unwrap();
    let x: u64 = blobseer_rpc::parse_response(&resp).unwrap();
    assert_eq!(x, 99);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "a call under C10K load must not crawl"
    );

    // Release the swarm.
    if let Some(stdin) = child.stdin.take() {
        let mut stdin = stdin;
        let _ = stdin.write_all(b"done\n");
        drop(stdin);
    }
    let status = child.wait().expect("reap swarm");
    assert!(status.success(), "swarm child failed: {status}");
}
