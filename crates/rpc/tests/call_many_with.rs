//! The caller's own work rides a burst's round trips
//! (`Transport::call_many_with`, `RpcClient::fan_out_with`): on tcp it
//! runs in wall-clock time while the calls are on the wire, and waiting
//! for one call does not wait for the rest; on the simulator the work's
//! clock moves to a reply it waits for, a burst it starts leaves from
//! there, and the caller ends at the latest of every reply and the work;
//! and no failure while the work runs — its own panic, or a destination
//! resetting, even under a nested burst — strands a call slot.

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
            let (replies, ()) = rpc.fan_out_with(
                &mut Ctx::start(),
                vec![(servers[0], Frame::from_msg(1, &i))],
                |_, _| std::thread::sleep(NAP),
            );
            let took = started.elapsed();
            let (frame, _) = replies[0].as_ref().unwrap();
            assert_eq!(blobseer_rpc::parse_response::<u64>(frame).unwrap(), i);
            took
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
    let (replies, waited) = rpc.fan_out_with(&mut Ctx::start(), calls, |c, replies| {
        let (frame, _) = replies.wait(c, 0).as_ref().unwrap();
        assert_eq!(blobseer_rpc::parse_response::<u64>(frame).unwrap(), 10);
        started.elapsed()
    });
    let took = started.elapsed();
    assert!(
        waited < Duration::from_millis(20),
        "wait(0) took {waited:?}"
    );
    assert!(took < Duration::from_millis(60), "the burst took {took:?}");
    let got: Vec<u64> = replies
        .iter()
        .map(|r| blobseer_rpc::parse_response(&r.as_ref().unwrap().0).unwrap())
        .collect();
    assert_eq!(got, vec![10, 11]);
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
    let (replies, ()) = rpc.fan_out_with(
        &mut Ctx::at(start),
        vec![(server, Frame::from_msg(1, &7u64))],
        |_, _| (),
    );
    let arrival = replies[0].as_ref().unwrap().1;
    let trip = arrival - start;
    assert!(trip > 0);

    for work in [trip / 2, trip, 2 * trip] {
        let (rpc, server) = cluster();
        let mut ctx = Ctx::at(start);
        let (replies, worked) = rpc.fan_out_with(
            &mut ctx,
            vec![(server, Frame::from_msg(1, &7u64))],
            |c, _| {
                assert_eq!(c.vt, start, "the work starts with the burst");
                c.advance(work);
                c.vt
            },
        );
        assert_eq!(worked, start + work);
        assert_eq!(
            replies[0].as_ref().unwrap().1,
            arrival,
            "work {work}: the reply does not wait for the work"
        );
        assert_eq!(ctx.vt, arrival.max(start + work), "work {work}");
    }
}

#[test]
fn sim_work_waits_to_a_reply_and_nests_a_burst_there() {
    // Servers a and b take the first burst; c takes the one the work
    // starts once it has a's reply. Each case runs on a fresh cluster
    // whose connections were dialled long before `start`, so no send
    // queues behind another's connection setup.
    let start = 10_000_000;
    let call = |to: NodeId, x: u64| vec![(to, Frame::from_msg(1, &x))];
    let cluster = || {
        let c = Arc::new(SimCluster::grid5000());
        let client = c.add_node();
        let servers: Vec<NodeId> = (0..3)
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
            rpc.fan_out_with(&mut Ctx::start(), call(s, 0), |_, _| ());
        }
        (rpc, servers)
    };
    // c's round trip alone, from an idle client.
    let (rpc, s) = cluster();
    let (alone, ()) = rpc.fan_out_with(&mut Ctx::at(start), call(s[2], 3), |_, _| ());
    let trip = alone[0].as_ref().unwrap().1 - start;

    let (rpc, s) = cluster();
    let mut ctx = Ctx::at(start);
    let mut burst = call(s[0], 1);
    burst.extend(call(s[1], 2));
    let work = 500_000;
    let (replies, (waited, nested)) = rpc.fan_out_with(&mut ctx, burst, |c, replies| {
        assert_eq!(c.vt, start, "the work starts with the burst");
        let (_, at) = replies.wait(c, 0).as_ref().unwrap();
        assert_eq!(c.vt, *at, "wait(0) moves the clock to reply 0's arrival");
        let waited = c.vt;
        let (nested, ()) = rpc.fan_out_with(c, call(s[2], 3), |_, _| ());
        let nested = nested[0].as_ref().unwrap().1;
        assert_eq!(c.vt, nested);
        c.advance(work);
        (waited, nested)
    });
    assert_eq!(replies[0].as_ref().unwrap().1, waited);
    assert_eq!(nested, waited + trip, "the nested burst leaves at reply 0");
    let last_reply = replies.iter().map(|r| r.as_ref().unwrap().1).max().unwrap();
    assert_eq!(ctx.vt, last_reply.max(nested + work));
    assert_eq!(ctx.vt, nested + work, "here the work ends last");
}

#[test]
fn a_panicking_work_strands_no_slot() {
    // The work has call 0's reply and panics while call 1's is still
    // 20 ms away: the panic reaches the caller only after call 1 was
    // awaited, so nothing is left registered on either connection, and
    // both serve the next call.
    let (t, rpc, servers) = napping_echoes(&[Duration::ZERO, NAP]);
    let calls = servers
        .iter()
        .map(|&s| (s, Frame::from_msg(1, &1u64)))
        .collect();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        rpc.fan_out_with(&mut Ctx::start(), calls, |c, replies| {
            assert!(replies.wait(c, 0).is_ok());
            panic!("work failed")
        })
    }));
    assert!(panicked.is_err(), "the work's panic reaches the caller");
    for &server in &servers {
        assert_eq!(t.inflight_calls(server), 0);
        assert_eq!(t.pooled_connections(server), 1, "the connection survives");
        let r: u64 = rpc.call(&mut Ctx::start(), server, 1, &2u64).unwrap();
        assert_eq!(r, 2);
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
    let (replies, ()) = rpc.fan_out_with(
        &mut Ctx::start(),
        vec![(dest, Frame::from_msg(1, &1u64))],
        |_, _| {
            reset.recv().unwrap();
            // Loopback delivers the reset within the kernel, not within
            // the peer's syscall: give it a moment.
            std::thread::sleep(Duration::from_millis(20));
        },
    );
    assert!(
        matches!(replies[0], Err(BlobError::Unreachable(_))),
        "{:?}",
        replies[0].as_ref().err()
    );
    assert_eq!(t.inflight_calls(dest), 0);
    assert_eq!(t.pooled_connections(dest), 0, "the dead connection is gone");
    let r: u64 = rpc.call(&mut Ctx::start(), dest, 1, &9u64).unwrap();
    assert_eq!(r, 9, "the next call dials afresh");
    peer.join().unwrap();
}

#[test]
fn a_destination_resetting_under_a_nested_burst_is_a_typed_error() {
    // The work waits for call 0, then waits on a burst of its own whose
    // handler has call 1's destination reset the connection: the reset
    // lands while nobody reads that connection, and is found when the
    // outer burst awaits call 1 after the work.
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
    let (replies, nested) = rpc.fan_out_with(&mut Ctx::start(), calls, |c, replies| {
        assert!(replies.wait(c, 0).is_ok());
        let (nested, ()) =
            rpc.fan_out_with(c, vec![(trigger, Frame::from_msg(1, &3u64))], |_, _| ());
        reset.recv().unwrap();
        nested
    });
    let r: u64 = blobseer_rpc::parse_response(&nested[0].as_ref().unwrap().0).unwrap();
    assert_eq!(r, 3, "the nested burst completes");
    assert!(replies[0].is_ok());
    assert!(
        matches!(replies[1], Err(BlobError::Unreachable(_))),
        "{:?}",
        replies[1].as_ref().err()
    );
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
        rpc.fan_out_with(
            &mut Ctx::start(),
            vec![(s, Frame::from_msg(1, &0u64))],
            |_, _| (),
        );
    }
    (rpc, servers)
}

#[test]
fn sim_late_frame_leaves_at_the_work_clock() {
    // Servers a and b take the burst; c takes a late frame the work
    // sends once its clock reaches `start + work`, without waiting for
    // anything first.
    let start = 10_000_000;
    let work = 700_000;
    let call = |to: NodeId, x: u64| vec![(to, Frame::from_msg(1, &x))];
    // c's round trip alone, from an idle client.
    let (rpc, s) = dialled_cluster(3);
    let (alone, ()) = rpc.fan_out_with(&mut Ctx::at(start), call(s[2], 3), |_, _| ());
    let trip = alone[0].as_ref().unwrap().1 - start;

    let (rpc, s) = dialled_cluster(3);
    let mut ctx = Ctx::at(start);
    let mut burst = call(s[0], 1);
    burst.extend(call(s[1], 2));
    let (replies, (late, sent_at)) = rpc.fan_out_with(&mut ctx, burst, |c, replies| {
        c.advance(work);
        let late = replies.send(c, call(s[2], 3));
        assert_eq!(late, 2..3, "late calls follow the burst's");
        assert_eq!(c.vt, start + work, "sending does not move the clock");
        let (_, at) = replies.wait(c, late.start).as_ref().unwrap();
        assert_eq!(c.vt, *at, "waiting moves it to the reply");
        c.advance(work);
        (late.start, *at - trip)
    });
    assert_eq!(
        sent_at,
        start + work,
        "the late frame left at the work's clock"
    );
    let got: Vec<u64> = replies
        .iter()
        .map(|r| blobseer_rpc::parse_response(&r.as_ref().unwrap().0).unwrap())
        .collect();
    assert_eq!(
        got,
        vec![1, 2, 3],
        "late replies come back after the burst's"
    );
    let last_reply = replies.iter().map(|r| r.as_ref().unwrap().1).max().unwrap();
    let work_end = replies[late].as_ref().unwrap().1 + work;
    assert_eq!(ctx.vt, last_reply.max(work_end));
    assert_eq!(ctx.vt, work_end, "here the work ends last");

    // When the late reply ends last, the join waits for it.
    let (rpc, s) = dialled_cluster(3);
    let mut ctx = Ctx::at(start);
    let (replies, ()) = rpc.fan_out_with(&mut ctx, call(s[0], 1), |c, replies| {
        c.advance(work);
        replies.send(c, call(s[2], 3));
    });
    assert_eq!(ctx.vt, replies[1].as_ref().unwrap().1);
    assert_eq!(ctx.vt, start + work + trip);
}

#[test]
fn one_send_is_one_message_and_sends_never_merge() {
    // Every call goes to one node, by one method: the burst's two calls
    // share a message, each send's two calls share one of their own,
    // and nothing merges across the burst and the sends.
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
    let (replies, sends) = rpc.fan_out_with(&mut Ctx::start(), calls([1, 2]), |c, replies| {
        (
            replies.send(c, calls([3, 4])),
            replies.send(c, calls([5, 6])),
        )
    });
    assert_eq!(t.message_count() - before, 3, "one message per send");
    assert_eq!(sends, (2..4, 4..6));
    let got: Vec<u64> = replies
        .iter()
        .map(|r| blobseer_rpc::parse_response(&r.as_ref().unwrap().0).unwrap())
        .collect();
    assert_eq!(got, vec![1, 2, 3, 4, 5, 6], "replies in call order");
}

#[test]
fn tcp_late_frames_ride_the_burst_connections() {
    // Call 0 is in flight on the burst's connection to servers[0] when
    // the work sends a late frame there: it pipelines on that connection
    // instead of dialing beside it. A late frame to servers[1], which
    // the burst does not hold, takes the idle pooled connection.
    let (t, rpc, servers) = napping_echoes(&[NAP, Duration::ZERO]);
    let (replies, late) = rpc.fan_out_with(
        &mut Ctx::start(),
        vec![(servers[0], Frame::from_msg(1, &1u64))],
        |c, replies| {
            let late = replies.send(
                c,
                vec![
                    (servers[0], Frame::from_msg(1, &2u64)),
                    (servers[1], Frame::from_msg(7, &3u64)),
                ],
            );
            assert_eq!(
                t.inflight_calls(servers[0]),
                2,
                "both on the held connection"
            );
            late
        },
    );
    assert_eq!(late, 1..3);
    let got: Vec<u64> = replies
        .iter()
        .map(|r| blobseer_rpc::parse_response(&r.as_ref().unwrap().0).unwrap())
        .collect();
    assert_eq!(got, vec![1, 2, 3]);
    for &server in &servers {
        assert_eq!(t.pooled_connections(server), 1, "no connection dialled");
        assert_eq!(t.inflight_calls(server), 0);
    }
}

#[test]
fn a_work_panicking_after_a_late_send_strands_no_slot() {
    // The work sends a late frame to a server 20 ms away and panics: the
    // panic reaches the caller only after that late call was awaited.
    let (t, rpc, servers) = napping_echoes(&[Duration::ZERO, NAP]);
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        rpc.fan_out_with(
            &mut Ctx::start(),
            vec![(servers[0], Frame::from_msg(1, &1u64))],
            |c, replies| {
                replies.send(c, vec![(servers[1], Frame::from_msg(1, &2u64))]);
                panic!("work failed")
            },
        )
    }));
    assert!(panicked.is_err(), "the work's panic reaches the caller");
    for &server in &servers {
        assert_eq!(t.inflight_calls(server), 0);
        assert_eq!(t.pooled_connections(server), 1, "the connection survives");
        let r: u64 = rpc.call(&mut Ctx::start(), server, 1, &3u64).unwrap();
        assert_eq!(r, 3);
    }
}

#[test]
fn a_destination_resetting_under_a_late_frame_fails_that_call_alone() {
    // The work sends late frames to the resetting peer and to an echo;
    // the peer drops the connection with the late request half read.
    let (t, rpc, echo) = napping_echoes(&[Duration::ZERO]);
    let (go_tx, go) = mpsc::channel();
    let (addr, reset, peer) = resetting_peer(go);
    let dest = t.register_remote(addr);
    let (replies, ()) = rpc.fan_out_with(
        &mut Ctx::start(),
        vec![(echo[0], Frame::from_msg(1, &1u64))],
        |c, replies| {
            replies.send(
                c,
                vec![
                    (dest, Frame::from_msg(1, &2u64)),
                    (echo[0], Frame::from_msg(7, &3u64)),
                ],
            );
            go_tx.send(()).unwrap();
            reset.recv().unwrap();
            // Loopback delivers the reset within the kernel, not within
            // the peer's syscall: give it a moment.
            std::thread::sleep(Duration::from_millis(20));
        },
    );
    assert!(replies[0].is_ok() && replies[2].is_ok(), "{replies:?}");
    assert!(
        matches!(replies[1], Err(BlobError::Unreachable(_))),
        "{:?}",
        replies[1].as_ref().err()
    );
    for node in [echo[0], dest] {
        assert_eq!(t.inflight_calls(node), 0);
    }
    assert_eq!(t.pooled_connections(dest), 0, "the dead connection is gone");
    let r: u64 = rpc.call(&mut Ctx::start(), dest, 1, &9u64).unwrap();
    assert_eq!(r, 9, "the next call dials afresh");
    peer.join().unwrap();
}
