//! Thread hand-offs per call, counted — the deterministic half of the
//! "two wake-ups per RPC" claim.
//!
//! A call whose handler cannot block blocks two threads once each: the
//! caller in `recv` on its own socket, and the event loop in the
//! poller; the loop answers in the readiness event that brought the
//! request. Every other call adds the dispatch worker's wake-up and the
//! loop's second one for the completion: four. (With a reader thread per
//! client connection and every handler on the pool it was five for
//! both.) The kernel keeps the count: `voluntary_ctxt_switches`, summed
//! over every thread of the process.
//!
//! One `#[test]` only, so nothing else runs in the process while it
//! counts. Linux-only: it reads `/proc`.

#![cfg(target_os = "linux")]

mod common;

use blobseer_proto::NodeId;
use blobseer_rpc::{respond, Frame, ServerCtx, Service, TcpTransport, Transport};
use common::{thread_count, voluntary_switches};
use std::sync::Arc;

/// Echo that answers on the event loop or on the dispatch pool.
struct Echo {
    inline: bool,
}
impl Service for Echo {
    fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        respond(frame, |x: u64| Ok(x))
    }
    fn nonblocking(&self, _method: u16) -> bool {
        self.inline
    }
}

fn echo(t: &TcpTransport, client: NodeId, to: NodeId, x: u64) {
    let (resp, _) = t.call(client, to, 0, Frame::from_msg(1, &x)).unwrap();
    assert_eq!(blobseer_rpc::parse_response::<u64>(&resp).unwrap(), x);
}

/// Voluntary context switches per call over `CALLS` sequential small
/// calls, after a warm-up that dials the connection.
fn switches_per_call(t: &TcpTransport, client: NodeId, to: NodeId) -> f64 {
    const WARM_UP: u64 = 200;
    const CALLS: u64 = 2_000;
    for x in 0..WARM_UP {
        echo(t, client, to, x);
    }
    let before = voluntary_switches();
    for x in 0..CALLS {
        echo(t, client, to, x);
    }
    (voluntary_switches() - before) as f64 / CALLS as f64
}

#[test]
fn a_call_is_two_wake_ups_inline_four_pooled_and_no_thread_per_connection() {
    let t = Arc::new(TcpTransport::new()); // default options
    let client = t.add_node();
    let inline_node = t.add_node();
    t.bind(inline_node, Arc::new(Echo { inline: true }));
    let pooled_node = t.add_node();
    t.bind(pooled_node, Arc::new(Echo { inline: false }));

    let inline = switches_per_call(&t, client, inline_node);
    let pooled = switches_per_call(&t, client, pooled_node);
    println!("handoffs: {inline:.2} voluntary switches per inline call (bound 2.5)");
    println!("handoffs: {pooled:.2} voluntary switches per pooled call (bound 4.5)");
    assert!(
        inline <= 2.5,
        "a non-blocking handler is one loop wake-up and one caller wake-up, got {inline:.2}"
    );
    assert!(
        pooled <= 4.5,
        "a pooled handler adds the worker and the completion, got {pooled:.2}"
    );

    // Thread census: the server threads exist from the first bind; eight
    // fresh connections to eight nodes add none.
    let nodes: Vec<NodeId> = (0..8)
        .map(|i| {
            let n = t.add_node();
            t.bind(n, Arc::new(Echo { inline: i % 2 == 0 }));
            n
        })
        .collect();
    let before = thread_count();
    for (x, n) in nodes.iter().enumerate() {
        echo(&t, client, *n, x as u64);
        assert_eq!(t.pooled_connections(*n), 1);
    }
    let after = thread_count();
    println!("handoffs: {before} threads before the first dial, {after} after 8 connections");
    assert_eq!(
        after, before,
        "a client connection must not cost a thread ({before} before, {after} after)"
    );
}
