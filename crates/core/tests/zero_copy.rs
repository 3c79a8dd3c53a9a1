//! End-to-end copy accounting through the full distributed stack.
//!
//! Asserts the PR's copy discipline as *measured numbers*, not claims:
//!
//! * WRITE copies the caller's buffer exactly once, no matter how many
//!   replicas fan out (they share one `PageBuf`);
//! * `write_buf` copies nothing at all;
//! * READ copies each page exactly once, into the result buffer;
//! * `read_into` copies straight into the caller's buffer;
//! * a single-page aligned `read_buf` copies **zero** bytes — the caller
//!   receives a refcount borrow of the provider's stored page;
//! * all of the above still hold when another writer moved the frontier
//!   under the reader, so its read re-descends the newer tree and reuses
//!   the pages its first burst fetched.
//!
//! One test function on one thread, using the thread-local copy meters:
//! the simulated transports dispatch handlers inline on the calling
//! thread, so every hop's copies land on this thread's meter.

use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_proto::{PageBuf, Segment};
use blobseer_rpc::Ctx;
use blobseer_util::copymeter;

const PAGE: u64 = 4096;
const PAGES: u64 = 16;
const TOTAL: u64 = PAGE * PAGES;

#[test]
fn copies_are_counted_and_minimal() {
    let mut cfg = DeploymentConfig::functional(4);
    cfg.replication = 3; // make per-replica copying impossible to miss
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();

    // WRITE from a borrowed slice: exactly one copy of the segment
    // (slice → shared PageBuf), despite 8 pages × 3 replicas = 24 puts.
    let seg_bytes = 8 * PAGE;
    let data: Vec<u8> = (0..seg_bytes).map(|i| (i % 251) as u8).collect();
    let before = copymeter::thread_snapshot();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();
    assert_eq!(
        before.bytes_since(),
        seg_bytes,
        "write must copy the caller's buffer exactly once across all replicas"
    );

    // Zero-copy WRITE: the caller's PageBuf is shared, never copied.
    let buf = PageBuf::from_vec(vec![7u8; (2 * PAGE) as usize]);
    let before = copymeter::thread_snapshot();
    let (v2, _) = c
        .write_buf(&mut ctx, info.blob, 8 * PAGE, buf.clone())
        .unwrap();
    assert_eq!(before.bytes_since(), 0, "write_buf must copy nothing");

    // All three replicas of a write_buf page are the caller's allocation.
    let stored: usize = d.storage.iter().map(|s| s.data().page_count()).sum();
    assert!(stored >= 24 + 6, "replicated pages stored: {stored}");

    // READ: each page copied exactly once into the result.
    let before = copymeter::thread_snapshot();
    let (got, _) = c
        .read(&mut ctx, info.blob, None, Segment::new(0, seg_bytes))
        .unwrap();
    assert_eq!(got, data);
    assert_eq!(
        before.bytes_since(),
        seg_bytes,
        "read must copy each page exactly once into the result"
    );

    // read_into: same copy count, caller-owned destination.
    let mut out = vec![0u8; (2 * PAGE) as usize];
    let before = copymeter::thread_snapshot();
    let latest = c
        .read_into(
            &mut ctx,
            info.blob,
            Some(v2),
            Segment::new(8 * PAGE, 2 * PAGE),
            &mut out,
        )
        .unwrap();
    assert_eq!(latest, v2);
    assert_eq!(out, &buf[..]);
    assert_eq!(
        before.bytes_since(),
        2 * PAGE,
        "read_into copies each page once"
    );

    // Single-page aligned read_buf: zero copies end to end; the result
    // shares the allocation the writer handed in (stored by the
    // provider, lent through the RPC response).
    let before = copymeter::thread_snapshot();
    let (page, _) = c
        .read_buf(&mut ctx, info.blob, Some(v2), Segment::new(8 * PAGE, PAGE))
        .unwrap();
    assert_eq!(
        before.bytes_since(),
        0,
        "aligned single-page read_buf must be zero-copy"
    );
    assert!(
        page.same_allocation(&buf),
        "the read page must be the very allocation the writer stored"
    );
    assert_eq!(&page[..], &buf[..PAGE as usize]);

    // Unaligned read_buf still works (one copy per touched page).
    let before = copymeter::thread_snapshot();
    let (span, _) = c
        .read_buf(&mut ctx, info.blob, None, Segment::new(PAGE / 2, PAGE))
        .unwrap();
    assert_eq!(
        &span[..],
        &data[(PAGE / 2) as usize..(3 * PAGE / 2) as usize]
    );
    assert_eq!(
        before.bytes_since(),
        PAGE,
        "a straddling read copies exactly the requested bytes (each byte once)"
    );
}

#[test]
fn a_read_that_reuses_burst_pages_still_copies_each_page_once() {
    let mut cfg = DeploymentConfig::functional(4);
    cfg.cache_nodes = 1 << 12; // the descent hits: the first burst carries pages
    let d = Deployment::build(cfg);
    let (reader, writer) = (d.client(), d.client());
    let mut ctx = Ctx::start();
    let blob = writer.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;
    let seg_bytes = 8 * PAGE;
    let mut data: Vec<u8> = (0..seg_bytes).map(|i| (i % 251) as u8).collect();
    writer.write(&mut ctx, blob, 0, &data).unwrap();
    reader
        .read(&mut ctx, blob, None, Segment::new(0, seg_bytes))
        .unwrap();

    // The writer replaces one of the reader's pages: seven burst pages
    // are reused, one is fetched again, and each is copied once.
    let page = vec![9u8; PAGE as usize];
    writer.write(&mut ctx, blob, 3 * PAGE, &page).unwrap();
    data[(3 * PAGE) as usize..(4 * PAGE) as usize].copy_from_slice(&page);
    let before = copymeter::thread_snapshot();
    let (got, vr, stats) = reader
        .read_with_stats(&mut ctx, blob, None, Segment::new(0, seg_bytes))
        .unwrap();
    assert_eq!((got, vr, stats.refetched), (data, 2, 1));
    assert_eq!(
        before.bytes_since(),
        seg_bytes,
        "a re-descended read copies each page exactly once"
    );

    // An aligned single-page read_buf whose burst page is reused after
    // the frontier moved is still a refcount borrow.
    let buf = PageBuf::from_vec(vec![4u8; PAGE as usize]);
    writer.write_buf(&mut ctx, blob, 0, buf.clone()).unwrap();
    reader
        .read_buf(&mut ctx, blob, None, Segment::new(0, PAGE))
        .unwrap();
    writer.write(&mut ctx, blob, 5 * PAGE, &page).unwrap();
    let before = copymeter::thread_snapshot();
    let (got, vr) = reader
        .read_buf(&mut ctx, blob, None, Segment::new(0, PAGE))
        .unwrap();
    assert_eq!(vr, 4);
    assert_eq!(before.bytes_since(), 0, "reused burst page, zero copies");
    assert!(got.same_allocation(&buf));
}
