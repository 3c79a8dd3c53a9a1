//! A burst is pipelined, not threaded: on tcp every call of a burst is
//! on the wire before the first response is awaited, so the calls overlap
//! in **wall-clock** time; on the virtual-clock transports a burst is
//! still the serial loop a fan-out always was, to the last tick and
//! message.

use blobseer_proto::NodeId;
use blobseer_rpc::{
    respond, AggregationPolicy, Ctx, Frame, InProcTransport, RpcClient, ServerCtx, Service,
    TcpOptions, TcpTransport, Transport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAP: Duration = Duration::from_millis(20);

/// Typed calls as the frames a burst sends.
fn frames(calls: &[(NodeId, u16, u64)]) -> Vec<(NodeId, Frame)> {
    calls
        .iter()
        .map(|(to, method, x)| (*to, Frame::from_msg(*method, x)))
        .collect()
}

/// Echo whose handler holds its dispatch thread for `nap` and charges the
/// virtual clock 1000 ns per call.
struct Echo {
    nap: Duration,
}
impl Service for Echo {
    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        ctx.charge(1000);
        std::thread::sleep(self.nap);
        respond(frame, |x: u64| Ok(x))
    }
}

#[test]
fn a_tcp_fan_out_of_eight_takes_about_one_call_not_eight() {
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        dispatch_threads: 8,
        ..TcpOptions::default()
    }));
    let client = t.add_node();
    let calls: Vec<(NodeId, u16, u64)> = (0..8u64)
        .map(|i| {
            let s = t.add_node();
            t.bind(s, Arc::new(Echo { nap: NAP }));
            (s, 1, i)
        })
        .collect();
    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    // Warm: dial every connection outside the timed fan-out.
    rpc.call_all::<u64>(&mut Ctx::start(), frames(&calls));

    let started = Instant::now();
    let _: u64 = rpc.call(&mut Ctx::start(), calls[0].0, 1, &0u64).unwrap();
    let one = started.elapsed();

    let started = Instant::now();
    let results = rpc.call_all::<u64>(&mut Ctx::start(), frames(&calls));
    let eight = started.elapsed();
    for ((_, _, x), r) in calls.iter().zip(&results) {
        assert_eq!(r.as_ref().unwrap(), x);
    }
    assert!(one >= NAP);
    assert!(
        eight < 3 * one,
        "eight {NAP:?} handlers must overlap: one call {one:?}, fan-out {eight:?}"
    );
}

#[test]
fn a_per_call_burst_to_one_node_pipelines_on_one_connection() {
    let t = Arc::new(TcpTransport::new());
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo { nap: NAP }));
    let rpc =
        RpcClient::new(Arc::clone(&t) as _, client).with_aggregation(AggregationPolicy::PerCall);
    let calls: Vec<(NodeId, u16, u64)> = (0..16u64).map(|i| (server, 1, i)).collect();
    let before = t.message_count();
    let results = rpc.call_all::<u64>(&mut Ctx::start(), frames(&calls));
    for ((_, _, x), r) in calls.iter().zip(&results) {
        assert_eq!(r.as_ref().unwrap(), x);
    }
    assert_eq!(t.message_count() - before, 32, "16 real messages each way");
    assert_eq!(
        t.pooled_connections(server),
        1,
        "the burst's own calls must not count as busy and dial 15 more sockets"
    );
}

#[test]
fn an_in_process_fan_out_is_still_the_serial_loop() {
    let build = || {
        let t = Arc::new(InProcTransport::new());
        let client = t.add_node();
        let servers: Vec<NodeId> = (0..3)
            .map(|_| {
                let s = t.add_node();
                t.bind(
                    s,
                    Arc::new(Echo {
                        nap: Duration::ZERO,
                    }),
                );
                s
            })
            .collect();
        (t, client, servers)
    };
    let calls_over = |servers: &[NodeId]| -> Vec<(NodeId, u16, u64)> {
        (0..6u64).map(|i| (servers[i as usize % 3], 1, i)).collect()
    };

    // One `call` per message, each starting at the caller's clock,
    // joined with `max`.
    let (t, client, servers) = build();
    let start = 500;
    let mut want_vt = start;
    for (to, method, x) in calls_over(&servers) {
        let (_, vt) = t
            .call(client, to, start, Frame::from_msg(method, &x))
            .unwrap();
        want_vt = want_vt.max(vt);
    }
    let want_messages = t.message_count();
    assert_eq!((want_vt, want_messages), (1500, 6));

    let (t, client, servers) = build();
    let rpc =
        RpcClient::new(Arc::clone(&t) as _, client).with_aggregation(AggregationPolicy::PerCall);
    let mut ctx = Ctx::at(start);
    let results = rpc.call_all::<u64>(&mut ctx, frames(&calls_over(&servers)));
    assert!(results.iter().all(Result::is_ok));
    assert_eq!((ctx.vt, t.message_count()), (want_vt, want_messages));

    // Aggregated: one message per destination, charges add up inside it.
    let (t, client, servers) = build();
    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    let mut ctx = Ctx::at(start);
    let results = rpc.call_all::<u64>(&mut ctx, frames(&calls_over(&servers)));
    assert!(results.iter().all(Result::is_ok));
    assert_eq!((ctx.vt, t.message_count()), (2500, 3));
}
