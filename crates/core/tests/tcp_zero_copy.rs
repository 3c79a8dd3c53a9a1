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

/// Bytes copied by each leg of [`measure`]: write, read, aligned
/// single-page `read_buf`, then the read and the `read_buf` again after
/// another writer moved the frontier (each reusing burst pages).
type Legs = (u64, u64, u64, u64, u64);

/// Run the canonical write / read / aligned-read_buf workload on the
/// given transport and return the global bytes-copied of each leg.
fn measure(kind: TransportKind) -> Legs {
    let mut cfg = DeploymentConfig::functional(4);
    cfg.transport = kind;
    cfg.replication = 2; // replica fan-out shares one buffer on both paths
    cfg.cache_nodes = 1 << 12; // warm descents: first bursts carry pages
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

    // Another writer replaces a page the reader holds (its floor is 1):
    // the read drops that burst page, reuses the other seven.
    let writer = d.client();
    let fresh = vec![9u8; PAGE as usize];
    writer.write(&mut ctx, info.blob, 3 * PAGE, &fresh).unwrap();
    let before = copymeter::snapshot();
    let (got, vr, stats) = c
        .read_with_stats(&mut ctx, info.blob, None, Segment::new(0, SEG))
        .unwrap();
    let moved_read_copied = before.bytes_since();
    assert_eq!((vr, stats.refetched), (2, 1));
    assert_eq!(&got[3 * PAGE as usize..4 * PAGE as usize], &fresh[..]);

    // ...and past one more write, page 0 still arrives by the burst.
    writer.write(&mut ctx, info.blob, 5 * PAGE, &fresh).unwrap();
    let before = copymeter::snapshot();
    let (page, vr) = c
        .read_buf(&mut ctx, info.blob, None, Segment::new(0, PAGE))
        .unwrap();
    let moved_read_buf_copied = before.bytes_since();
    assert_eq!((&page[..], vr), (&data[..PAGE as usize], 3));

    (
        write_copied,
        read_copied,
        read_buf_copied,
        moved_read_copied,
        moved_read_buf_copied,
    )
}

#[test]
fn tcp_payload_leg_meters_identically_to_in_process() {
    // Single test function: the global meter must not see traffic from
    // sibling tests, so this binary holds exactly one.
    let sim = measure(TransportKind::Sim);
    let tcp = measure(TransportKind::Tcp);
    assert_eq!(
        tcp, sim,
        "the payload leg must copy the same byte counts over a socket"
    );
    let (tcp_w, tcp_r, tcp_rb, tcp_moved_r, tcp_moved_rb) = tcp;
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
    assert_eq!(
        (tcp_moved_r, tcp_moved_rb),
        (SEG, 0),
        "reusing burst pages after the frontier moved copies nothing extra"
    );
}
