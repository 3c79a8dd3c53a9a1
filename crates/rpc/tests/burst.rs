//! A burst is a value (`RpcClient::burst`): the caller's own work
//! between its sends and its waits rides the round trips. On tcp that
//! work runs in wall-clock time while the calls are on the wire, and
//! waiting for one call does not wait for the rest; on the simulator the
//! caller's clock moves to a reply it waits for, a burst it opens leaves
//! from there, and `finish` ends at the latest of every reply and the
//! work; and no failure while a burst is open — a panic, an early
//! return, or a destination resetting, even under a nested burst —
//! strands a call slot: dropping the burst awaits what it sent.

use blobseer_proto::{BlobError, NodeId};
use blobseer_rpc::{
    encode_wire_frame, ok_frame, read_wire_frame, respond, Ctx, Frame, InProcTransport, RpcClient,
    ServerCtx, Service, TcpOptions, TcpTransport,
};
use blobseer_simnet::SimCluster;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const NAP: Duration = Duration::from_millis(20);

/// Echo whose handler holds a dispatch-pool thread for `nap` and charges
/// the virtual clock 1000 ns per call.
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

/// Echo that fires `go` as a call arrives, then holds its dispatch-pool
/// thread for [`NAP`].
struct Trigger {
    go: Mutex<mpsc::Sender<()>>,
}
impl Service for Trigger {
    fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        let _ = self.go.lock().unwrap().send(());
        std::thread::sleep(NAP);
        respond(frame, |x: u64| Ok(x))
    }
}

/// A tcp transport with a client node and one echo server per nap,
/// every connection already dialled.
fn napping_echoes(naps: &[Duration]) -> (Arc<TcpTransport>, RpcClient, Vec<NodeId>) {
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        io_timeout: Some(Duration::from_secs(2)),
        ..TcpOptions::default()
    }));
    let client = t.add_node();
    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    let servers = naps
        .iter()
        .map(|&nap| {
            let server = t.add_node();
            t.bind(server, Arc::new(Echo { nap }));
            let _: u64 = rpc.call(&mut Ctx::start(), server, 1, &0u64).unwrap();
            server
        })
        .collect();
    (t, rpc, servers)
}

/// A hand-rolled peer: on its first connection it reads part of the
/// request and, once `go` fires, drops the socket with the rest unread
/// (a reset) and says so on the returned channel; then it echoes one
/// call on a second connection.
fn resetting_peer(go: mpsc::Receiver<()>) -> (SocketAddr, mpsc::Receiver<()>, JoinHandle<()>) {
    let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = l.local_addr().unwrap();
    let (reset_tx, reset) = mpsc::channel();
    let peer = std::thread::spawn(move || {
        let (mut first, _) = l.accept().unwrap();
        let mut part = [0u8; 16];
        first.read_exact(&mut part).unwrap();
        go.recv().unwrap();
        drop(first);
        reset_tx.send(()).unwrap();
        let (mut second, _) = l.accept().unwrap();
        let (corr, vt, frame) = read_wire_frame(&mut second).unwrap();
        let x: u64 = frame.parse().unwrap();
        second
            .write_all(&encode_wire_frame(corr, vt, &ok_frame(frame.method, &x)).unwrap())
            .unwrap();
    });
    (addr, reset, peer)
}

#[test]
fn tcp_work_overlaps_the_round_trip() {
    // A 20 ms handler and 20 ms of caller work: one after the other they
    // take at least 40 ms; overlapped, about 20. Best of three, so one
    // descheduled run on a busy host does not decide it.
    let (_t, rpc, servers) = napping_echoes(&[NAP]);
    let best = (0..3)
        .map(|i| {
            let started = Instant::now();
            let mut ctx = Ctx::start();
            let mut burst = rpc.burst();
            let slot = burst.call::<u64>(&ctx, (servers[0], Frame::from_msg(1, &i)));
            std::thread::sleep(NAP);
            assert_eq!(burst.wait(&mut ctx, slot).unwrap(), i);
            burst.finish(&mut ctx);
            started.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        best < Duration::from_millis(35),
        "a {NAP:?} handler and {NAP:?} of work must overlap: {best:?}"
    );
}

#[test]
fn tcp_work_waits_for_one_call_not_the_burst() {
    // Call 0 answers at once, call 1's handler naps 40 ms: the work has
    // call 0's reply long before call 1's, and the burst still costs
    // about its slowest call.
    let slow = Duration::from_millis(40);
    let (t, rpc, servers) = napping_echoes(&[Duration::ZERO, slow]);
    let started = Instant::now();
    let calls = vec![
        (servers[0], Frame::from_msg(1, &10u64)),
        (servers[1], Frame::from_msg(1, &11u64)),
    ];
    let mut ctx = Ctx::start();
    let mut burst = rpc.burst();
    let mut slots = burst.send::<u64>(&ctx, calls).into_iter();
    assert_eq!(burst.wait(&mut ctx, slots.next().unwrap()).unwrap(), 10);
    let waited = started.elapsed();
    assert_eq!(burst.wait(&mut ctx, slots.next().unwrap()).unwrap(), 11);
    burst.finish(&mut ctx);
    let took = started.elapsed();
    assert!(
        waited < Duration::from_millis(20),
        "wait(0) took {waited:?}"
    );
    assert!(took < Duration::from_millis(60), "the burst took {took:?}");
    assert_eq!(
        t.inflight_calls(servers[0]) + t.inflight_calls(servers[1]),
        0
    );
}

#[test]
fn sim_clock_ends_at_the_later_of_reply_and_work() {
    // Two identical fresh clusters per case, so each burst pays the same
    // connection setup and meets idle resources: one measures the reply
    // alone, the other runs the same burst with work beside it.
    let cluster = || {
        let c = Arc::new(SimCluster::grid5000());
        let client = c.add_node();
        let server = c.add_node();
        c.bind(
            server,
            Arc::new(Echo {
                nap: Duration::ZERO,
            }),
        );
        (RpcClient::new(c as _, client), server)
    };
    let start = 1_000_000;
    let (rpc, server) = cluster();
    let mut alone = Ctx::at(start);
    rpc.call_all::<u64>(&mut alone, vec![(server, Frame::from_msg(1, &7u64))]);
    let arrival = alone.vt;
    let trip = arrival - start;
    assert!(trip > 0);

    for work in [trip / 2, trip, 2 * trip] {
        let (rpc, server) = cluster();
        let mut ctx = Ctx::at(start);
        let mut burst = rpc.burst();
        let slot = burst.call::<u64>(&ctx, (server, Frame::from_msg(1, &7u64)));
        ctx.advance(work);
        let mut reply = Ctx::at(start);
        assert_eq!(burst.wait(&mut reply, slot).unwrap(), 7);
        assert_eq!(
            reply.vt, arrival,
            "work {work}: the reply does not wait for the work"
        );
        burst.finish(&mut ctx);
        assert_eq!(ctx.vt, arrival.max(start + work), "work {work}");
    }
}

#[test]
fn sim_work_waits_to_a_reply_and_nests_a_burst_there() {
    // Servers a and b take the first burst; c takes the one opened once
    // the caller has a's reply. Each case runs on a fresh cluster whose
    // connections were dialled long before `start`, so no send queues
    // behind another's connection setup.
    let start = 10_000_000;
    let call = |to: NodeId, x: u64| vec![(to, Frame::from_msg(1, &x))];
    // c's round trip alone, from an idle client.
    let (rpc, s) = dialled_cluster(3);
    let mut alone = Ctx::at(start);
    rpc.call_all::<u64>(&mut alone, call(s[2], 3));
    let trip = alone.vt - start;

    let (rpc, s) = dialled_cluster(3);
    let mut ctx = Ctx::at(start);
    let mut burst = rpc.burst();
    let mut calls = call(s[0], 1);
    calls.extend(call(s[1], 2));
    let mut slots = burst.send::<u64>(&ctx, calls).into_iter();
    let (a, b) = (slots.next().unwrap(), slots.next().unwrap());
    assert_eq!(burst.wait(&mut ctx, a).unwrap(), 1);
    let waited = ctx.vt;
    assert!(
        waited > start,
        "wait moves the clock to the reply's arrival"
    );
    let mut b_arrived = Ctx::at(start);
    assert_eq!(burst.wait(&mut b_arrived, b).unwrap(), 2);
    rpc.call_all::<u64>(&mut ctx, call(s[2], 3));
    let nested = ctx.vt;
    let work = 500_000;
    ctx.advance(work);
    burst.finish(&mut ctx);
    assert_eq!(nested, waited + trip, "the nested burst leaves at reply a");
    assert_eq!(ctx.vt, b_arrived.vt.max(nested + work));
    assert_eq!(ctx.vt, nested + work, "here the work ends last");
}

#[test]
fn a_panicking_work_strands_no_slot() {
    // The caller has call 0's reply and panics while call 1's is still
    // 20 ms away: unwinding drops the burst, which awaits call 1 before
    // the panic reaches the caller, so nothing is left registered on
    // either connection, and both serve the next call.
    let (t, rpc, servers) = napping_echoes(&[Duration::ZERO, NAP]);
    let calls = servers
        .iter()
        .map(|&s| (s, Frame::from_msg(1, &1u64)))
        .collect();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = Ctx::start();
        let mut burst = rpc.burst();
        let mut slots = burst.send::<u64>(&ctx, calls).into_iter();
        assert!(burst.wait(&mut ctx, slots.next().unwrap()).is_ok());
        panic!("work failed")
    }));
    assert!(panicked.is_err(), "the panic reaches the caller");
    for &server in &servers {
        assert_eq!(t.inflight_calls(server), 0);
        assert_eq!(t.pooled_connections(server), 1, "the connection survives");
        let r: u64 = rpc.call(&mut Ctx::start(), server, 1, &2u64).unwrap();
        assert_eq!(r, 2);
    }
}

#[test]
fn a_burst_dropped_by_an_early_return_strands_no_slot() {
    // An op sends a call, then late frames to a server 20 ms away, and
    // returns early with `?` on the first reply before it waits for the
    // late ones: dropping the burst awaits them, so no slot stays
    // registered and no connection is dialled or lost.
    let (t, rpc, servers) = napping_echoes(&[Duration::ZERO, NAP]);
    let pooled: Vec<usize> = servers.iter().map(|&s| t.pooled_connections(s)).collect();
    let refuse = |x: u64| match x {
        0 => Ok(x),
        _ => Err(BlobError::Internal("the op refused its first reply")),
    };
    let op = || -> Result<u64, BlobError> {
        let mut ctx = Ctx::start();
        let mut burst = rpc.burst();
        let first = burst.call::<u64>(&ctx, (servers[0], Frame::from_msg(1, &1u64)));
        ctx.advance(1_000);
        let late = burst.send::<u64>(
            &ctx,
            vec![
                (servers[1], Frame::from_msg(1, &2u64)),
                (servers[1], Frame::from_msg(7, &3u64)),
            ],
        );
        assert_eq!(t.inflight_calls(servers[1]), 2, "both on the wire");
        let mut sum = refuse(burst.wait(&mut ctx, first)?)?;
        for slot in late {
            sum += burst.wait(&mut ctx, slot)?;
        }
        burst.finish(&mut ctx);
        Ok(sum)
    };
    assert_eq!(
        op(),
        Err(BlobError::Internal("the op refused its first reply"))
    );
    for (&server, &before) in servers.iter().zip(&pooled) {
        assert_eq!(t.inflight_calls(server), 0, "nothing stranded");
        assert_eq!(
            t.pooled_connections(server),
            before,
            "the pool is as it was"
        );
        let r: u64 = rpc.call(&mut Ctx::start(), server, 1, &4u64).unwrap();
        assert_eq!(r, 4);
    }
}

#[test]
fn a_destination_resetting_while_work_runs_is_a_typed_error() {
    let (go_tx, go) = mpsc::channel();
    go_tx.send(()).unwrap();
    let (addr, reset, peer) = resetting_peer(go);
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        io_timeout: Some(Duration::from_secs(2)),
        ..TcpOptions::default()
    }));
    let client = t.add_node();
    let dest = t.register_remote(addr);
    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    let mut ctx = Ctx::start();
    let mut burst = rpc.burst();
    let slot = burst.call::<u64>(&ctx, (dest, Frame::from_msg(1, &1u64)));
    reset.recv().unwrap();
    // Loopback delivers the reset within the kernel, not within the
    // peer's syscall: give it a moment.
    std::thread::sleep(Duration::from_millis(20));
    let reply = burst.wait(&mut ctx, slot);
    burst.finish(&mut ctx);
    assert!(matches!(reply, Err(BlobError::Unreachable(_))), "{reply:?}");
    assert_eq!(t.inflight_calls(dest), 0);
    assert_eq!(t.pooled_connections(dest), 0, "the dead connection is gone");
    let r: u64 = rpc.call(&mut Ctx::start(), dest, 1, &9u64).unwrap();
    assert_eq!(r, 9, "the next call dials afresh");
    peer.join().unwrap();
}

#[test]
fn a_destination_resetting_under_a_nested_burst_is_a_typed_error() {
    // The caller waits for call 0, then waits on a burst of its own whose
    // handler has call 1's destination reset the connection: the reset
    // lands while nobody reads that connection, and is found when the
    // outer burst awaits call 1.
    let (t, rpc, echo) = napping_echoes(&[Duration::ZERO]);
    let (go_tx, go) = mpsc::channel();
    let (addr, reset, peer) = resetting_peer(go);
    let dest = t.register_remote(addr);
    let trigger = t.add_node();
    t.bind(
        trigger,
        Arc::new(Trigger {
            go: Mutex::new(go_tx),
        }),
    );
    let calls = vec![
        (echo[0], Frame::from_msg(1, &1u64)),
        (dest, Frame::from_msg(1, &2u64)),
    ];
    let mut ctx = Ctx::start();
    let mut burst = rpc.burst();
    let mut slots = burst.send::<u64>(&ctx, calls).into_iter();
    assert!(burst.wait(&mut ctx, slots.next().unwrap()).is_ok());
    let nested = rpc.call_all::<u64>(&mut ctx, vec![(trigger, Frame::from_msg(1, &3u64))]);
    reset.recv().unwrap();
    assert_eq!(nested, vec![Ok(3)], "the nested burst completes");
    let reply = burst.wait(&mut ctx, slots.next().unwrap());
    burst.finish(&mut ctx);
    assert!(matches!(reply, Err(BlobError::Unreachable(_))), "{reply:?}");
    for node in [echo[0], dest, trigger] {
        assert_eq!(t.inflight_calls(node), 0);
    }
    assert_eq!(t.pooled_connections(dest), 0, "the dead connection is gone");
    let r: u64 = rpc.call(&mut Ctx::start(), dest, 1, &9u64).unwrap();
    assert_eq!(r, 9, "the next call dials afresh");
    peer.join().unwrap();
}

/// A costed cluster of a client and `n` echo servers, every connection
/// dialled long before any test's `start`, so no send queues behind
/// another's connection setup.
fn dialled_cluster(n: usize) -> (RpcClient, Vec<NodeId>) {
    let c = Arc::new(SimCluster::grid5000());
    let client = c.add_node();
    let servers: Vec<NodeId> = (0..n)
        .map(|_| {
            let s = c.add_node();
            c.bind(
                s,
                Arc::new(Echo {
                    nap: Duration::ZERO,
                }),
            );
            s
        })
        .collect();
    let rpc = RpcClient::new(c as _, client);
    for &s in &servers {
        rpc.call_all::<u64>(&mut Ctx::start(), vec![(s, Frame::from_msg(1, &0u64))]);
    }
    (rpc, servers)
}

#[test]
fn sim_late_frame_leaves_at_the_work_clock() {
    // Servers a and b take the burst's first send; c takes a late frame
    // sent once the caller's clock reaches `start + work`, without
    // waiting for anything first.
    let start = 10_000_000;
    let work = 700_000;
    let call = |to: NodeId, x: u64| vec![(to, Frame::from_msg(1, &x))];
    // c's round trip alone, from an idle client.
    let (rpc, s) = dialled_cluster(3);
    let mut alone = Ctx::at(start);
    rpc.call_all::<u64>(&mut alone, call(s[2], 3));
    let trip = alone.vt - start;

    let (rpc, s) = dialled_cluster(3);
    let mut ctx = Ctx::at(start);
    let mut burst = rpc.burst();
    let mut calls = call(s[0], 1);
    calls.extend(call(s[1], 2));
    let first = burst.send::<u64>(&ctx, calls);
    ctx.advance(work);
    let late = burst.send::<u64>(&ctx, call(s[2], 3));
    assert_eq!(ctx.vt, start + work, "sending does not move the clock");
    let late_reply = late.into_iter().map(|slot| burst.wait(&mut ctx, slot));
    assert_eq!(late_reply.collect::<Vec<_>>(), vec![Ok(3)]);
    let late_arrival = ctx.vt;
    assert_eq!(
        late_arrival - trip,
        start + work,
        "the late frame left at the caller's clock"
    );
    ctx.advance(work);
    let mut first_arrival = Ctx::at(start);
    let got: Vec<_> = first
        .into_iter()
        .map(|slot| burst.wait(&mut first_arrival, slot))
        .collect();
    assert_eq!(got, vec![Ok(1), Ok(2)]);
    burst.finish(&mut ctx);
    assert_eq!(ctx.vt, first_arrival.vt.max(late_arrival + work));
    assert_eq!(ctx.vt, late_arrival + work, "here the work ends last");

    // When the late reply ends last, the join waits for it.
    let (rpc, s) = dialled_cluster(3);
    let mut ctx = Ctx::at(start);
    let mut burst = rpc.burst();
    let _ = burst.send::<u64>(&ctx, call(s[0], 1));
    ctx.advance(work);
    let _ = burst.send::<u64>(&ctx, call(s[2], 3));
    burst.finish(&mut ctx);
    assert_eq!(ctx.vt, start + work + trip);
}

#[test]
fn one_send_is_one_message_and_sends_never_merge() {
    // Every call goes to one node, by one method: each send's two calls
    // share a message, and nothing merges across sends.
    let t = Arc::new(InProcTransport::new());
    let client = t.add_node();
    let server = t.add_node();
    t.bind(
        server,
        Arc::new(Echo {
            nap: Duration::ZERO,
        }),
    );
    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    let calls = |xs: [u64; 2]| -> Vec<(NodeId, Frame)> {
        xs.iter().map(|x| (server, Frame::from_msg(1, x))).collect()
    };
    let before = t.message_count();
    let mut ctx = Ctx::start();
    let mut burst = rpc.burst();
    let mut slots = burst.send::<u64>(&ctx, calls([1, 2]));
    slots.extend(burst.send(&ctx, calls([3, 4])));
    slots.extend(burst.send(&ctx, calls([5, 6])));
    assert_eq!(t.message_count() - before, 3, "one message per send");
    let got: Vec<u64> = slots
        .into_iter()
        .map(|slot| burst.wait(&mut ctx, slot).unwrap())
        .collect();
    burst.finish(&mut ctx);
    assert_eq!(got, vec![1, 2, 3, 4, 5, 6], "each slot gets its own reply");
}

#[test]
fn tcp_late_frames_ride_the_burst_connections() {
    // Call 0 is in flight on the burst's connection to servers[0] when
    // a late frame is sent there: it pipelines on that connection
    // instead of dialing beside it. A late frame to servers[1], which
    // the burst does not hold, takes the idle pooled connection.
    let (t, rpc, servers) = napping_echoes(&[NAP, Duration::ZERO]);
    let mut ctx = Ctx::start();
    let mut burst = rpc.burst();
    let mut slots = vec![burst.call::<u64>(&ctx, (servers[0], Frame::from_msg(1, &1u64)))];
    slots.extend(burst.send(
        &ctx,
        vec![
            (servers[0], Frame::from_msg(1, &2u64)),
            (servers[1], Frame::from_msg(7, &3u64)),
        ],
    ));
    assert_eq!(
        t.inflight_calls(servers[0]),
        2,
        "both on the held connection"
    );
    let got: Vec<u64> = slots
        .into_iter()
        .map(|slot| burst.wait(&mut ctx, slot).unwrap())
        .collect();
    burst.finish(&mut ctx);
    assert_eq!(got, vec![1, 2, 3]);
    for &server in &servers {
        assert_eq!(t.pooled_connections(server), 1, "no connection dialled");
        assert_eq!(t.inflight_calls(server), 0);
    }
}

#[test]
fn a_work_panicking_after_a_late_send_strands_no_slot() {
    // A late frame to a server 20 ms away, then a panic: unwinding drops
    // the burst, which awaits that late call before the panic reaches
    // the caller.
    let (t, rpc, servers) = napping_echoes(&[Duration::ZERO, NAP]);
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = Ctx::start();
        let mut burst = rpc.burst();
        let _ = burst.call::<u64>(&ctx, (servers[0], Frame::from_msg(1, &1u64)));
        ctx.advance(1_000);
        let _ = burst.call::<u64>(&ctx, (servers[1], Frame::from_msg(1, &2u64)));
        panic!("work failed")
    }));
    assert!(panicked.is_err(), "the panic reaches the caller");
    for &server in &servers {
        assert_eq!(t.inflight_calls(server), 0);
        assert_eq!(t.pooled_connections(server), 1, "the connection survives");
        let r: u64 = rpc.call(&mut Ctx::start(), server, 1, &3u64).unwrap();
        assert_eq!(r, 3);
    }
}

#[test]
fn a_destination_resetting_under_a_late_frame_fails_that_call_alone() {
    // Late frames to the resetting peer and to an echo; the peer drops
    // the connection with the late request half read.
    let (t, rpc, echo) = napping_echoes(&[Duration::ZERO]);
    let (go_tx, go) = mpsc::channel();
    let (addr, reset, peer) = resetting_peer(go);
    let dest = t.register_remote(addr);
    let mut ctx = Ctx::start();
    let mut burst = rpc.burst();
    let mut slots = vec![burst.call::<u64>(&ctx, (echo[0], Frame::from_msg(1, &1u64)))];
    slots.extend(burst.send(
        &ctx,
        vec![
            (dest, Frame::from_msg(1, &2u64)),
            (echo[0], Frame::from_msg(7, &3u64)),
        ],
    ));
    go_tx.send(()).unwrap();
    reset.recv().unwrap();
    // Loopback delivers the reset within the kernel, not within the
    // peer's syscall: give it a moment.
    std::thread::sleep(Duration::from_millis(20));
    let replies: Vec<_> = slots
        .into_iter()
        .map(|slot| burst.wait(&mut ctx, slot))
        .collect();
    burst.finish(&mut ctx);
    assert!(replies[0].is_ok() && replies[2].is_ok(), "{replies:?}");
    assert!(
        matches!(replies[1], Err(BlobError::Unreachable(_))),
        "{:?}",
        replies[1]
    );
    for node in [echo[0], dest] {
        assert_eq!(t.inflight_calls(node), 0);
    }
    assert_eq!(t.pooled_connections(dest), 0, "the dead connection is gone");
    let r: u64 = rpc.call(&mut Ctx::start(), dest, 1, &9u64).unwrap();
    assert_eq!(r, 9, "the next call dials afresh");
    peer.join().unwrap();
}
