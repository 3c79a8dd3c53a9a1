//! Copy-accounting parity between the in-process transport and the real
//! TCP transport: the payload leg must meter the **same byte counts**
//! over a socket as it does in process — send side gather-writes with
//! zero flatten copies, receive side lends payloads out of the receive
//! buffer by refcount. Both are exact counts, so an extra body copy on
//! either side of the socket fails them.
//!
//! Lives in its own test binary because TCP dispatch happens on server
//! worker threads, so the measurements use the process-global copy
//! meters (thread-local meters, which `zero_copy.rs` uses for the
//! inline-dispatch transports, cannot see the worker side).

use blobseer_core::{Deployment, DeploymentConfig, TransportKind};
use blobseer_proto::Segment;
use blobseer_rpc::Ctx;
use blobseer_util::copymeter;

const PAGE: u64 = 4096;
const PAGES: u64 = 16;
const TOTAL: u64 = PAGE * PAGES;
const SEG: u64 = 8 * PAGE;

/// Run the canonical write / read / aligned-read_buf workload on the
/// given transport and return the global bytes-copied of each leg.
fn measure(kind: TransportKind) -> (u64, u64, u64) {
    let mut cfg = DeploymentConfig::functional(4);
    cfg.transport = kind;
    cfg.replication = 2; // replica fan-out shares one buffer on both paths
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();

    let data: Vec<u8> = (0..SEG).map(|i| (i % 251) as u8).collect();
    let before = copymeter::snapshot();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();
    let write_copied = before.bytes_since();

    let mut out = vec![0u8; SEG as usize];
    let before = copymeter::snapshot();
    c.read_into(&mut ctx, info.blob, Some(1), Segment::new(0, SEG), &mut out)
        .unwrap();
    let read_copied = before.bytes_since();
    assert_eq!(out, data);

    let before = copymeter::snapshot();
    let (page, _) = c
        .read_buf(&mut ctx, info.blob, Some(1), Segment::new(0, PAGE))
        .unwrap();
    let read_buf_copied = before.bytes_since();
    assert_eq!(&page[..], &data[..PAGE as usize]);

    (write_copied, read_copied, read_buf_copied)
}

#[test]
fn tcp_payload_leg_meters_identically_to_in_process() {
    // Single test function: the global meter must not see traffic from
    // sibling tests, so this binary holds exactly one.
    let (sim_w, sim_r, sim_rb) = measure(TransportKind::Sim);
    let (tcp_w, tcp_r, tcp_rb) = measure(TransportKind::Tcp);

    assert_eq!(
        (tcp_w, tcp_r, tcp_rb),
        (sim_w, sim_r, sim_rb),
        "the payload leg must copy the same byte counts over a socket \
         (sim: w={sim_w} r={sim_r} rb={sim_rb})"
    );
    assert_eq!(
        tcp_w, SEG,
        "a write copies the caller's buffer exactly once; gather-write \
         adds zero flatten copies"
    );
    assert_eq!(tcp_r, SEG, "a read copies each page exactly once");
    assert_eq!(
        tcp_rb, 0,
        "an aligned single-page read_buf is zero-copy: the page is lent \
         from the receive buffer"
    );
}
