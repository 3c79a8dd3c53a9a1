//! The caller's own work rides a burst's round trips
//! (`Transport::call_many_with`, `RpcClient::fan_out_with`): on tcp it
//! runs in wall-clock time while the calls are on the wire; on the
//! simulator the clock ends at the later of the last reply and the
//! work; and no failure while the work runs — its own panic, or the
//! destination resetting — strands a call slot.

use blobseer_proto::{BlobError, NodeId};
use blobseer_rpc::{
    encode_wire_frame, ok_frame, read_wire_frame, respond, Ctx, Frame, RpcClient, ServerCtx,
    Service, TcpOptions, TcpTransport,
};
use blobseer_simnet::SimCluster;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
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

/// A tcp transport with a client node and one napping echo server,
/// its connection already dialled.
fn napping_echo() -> (Arc<TcpTransport>, RpcClient, NodeId) {
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        io_timeout: Some(Duration::from_secs(2)),
        ..TcpOptions::default()
    }));
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo { nap: NAP }));
    let rpc = RpcClient::new(Arc::clone(&t) as _, client);
    let _: u64 = rpc.call(&mut Ctx::start(), server, 1, &0u64).unwrap();
    (t, rpc, server)
}

#[test]
fn tcp_work_overlaps_the_round_trip() {
    // A 20 ms handler and 20 ms of caller work: one after the other they
    // take at least 40 ms; overlapped, about 20. Best of three, so one
    // descheduled run on a busy host does not decide it.
    let (_t, rpc, server) = napping_echo();
    let best = (0..3)
        .map(|i| {
            let started = Instant::now();
            let (replies, ()) = rpc.fan_out_with(
                &mut Ctx::start(),
                vec![(server, Frame::from_msg(1, &i))],
                |_| std::thread::sleep(NAP),
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
        |_| (),
    );
    let arrival = replies[0].as_ref().unwrap().1;
    let trip = arrival - start;
    assert!(trip > 0);

    for work in [trip / 2, trip, 2 * trip] {
        let (rpc, server) = cluster();
        let mut ctx = Ctx::at(start);
        let (replies, worked) =
            rpc.fan_out_with(&mut ctx, vec![(server, Frame::from_msg(1, &7u64))], |c| {
                assert_eq!(c.vt, start, "the work starts with the burst");
                c.advance(work);
                c.vt
            });
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
fn a_panicking_work_strands_no_slot() {
    // The reply is still 20 ms away when the work panics: the panic
    // reaches the caller only after the call was awaited, so nothing is
    // left registered on the connection, which serves the next call.
    let (t, rpc, server) = napping_echo();
    let panicked = catch_unwind(AssertUnwindSafe(|| {
        rpc.fan_out_with(
            &mut Ctx::start(),
            vec![(server, Frame::from_msg(1, &1u64))],
            |_| panic!("work failed"),
        )
    }));
    assert!(panicked.is_err(), "the work's panic reaches the caller");
    assert_eq!(t.inflight_calls(server), 0);
    assert_eq!(t.pooled_connections(server), 1, "the connection survives");
    let r: u64 = rpc.call(&mut Ctx::start(), server, 1, &2u64).unwrap();
    assert_eq!(r, 2);
}

#[test]
fn a_destination_resetting_while_work_runs_is_a_typed_error() {
    // A hand-rolled peer: on its first connection it reads part of the
    // request and drops the socket with the rest unread (a reset), then
    // it echoes one call on a second connection.
    let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = l.local_addr().unwrap();
    let (reset_tx, reset) = mpsc::channel();
    let peer = std::thread::spawn(move || {
        let (mut first, _) = l.accept().unwrap();
        let mut part = [0u8; 16];
        first.read_exact(&mut part).unwrap();
        drop(first);
        reset_tx.send(()).unwrap();
        let (mut second, _) = l.accept().unwrap();
        let (corr, vt, frame) = read_wire_frame(&mut second).unwrap();
        let x: u64 = frame.parse().unwrap();
        second
            .write_all(&encode_wire_frame(corr, vt, &ok_frame(frame.method, &x)).unwrap())
            .unwrap();
    });

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
        |_| {
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
