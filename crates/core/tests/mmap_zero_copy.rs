//! Copy-accounting parity for the persistent provider backend: with
//! `BackendKind::Mmap` over `TransportKind::Tcp`, the payload leg must
//! meter **exactly** what the in-memory backend meters — write = 1 copy
//! of the caller's slice (the sanctioned client-side copy; appending to
//! the page log is positioned kernel I/O, not a memcpy), read = 1 copy
//! per page into the result, aligned single-page `read_buf` = 0 extra.
//! Serving a page out of the mapped log is a refcount bump on the
//! mapping — if the provider copied, the read legs would show it.
//!
//! Durability adds no steady-state cost either. With every journal on
//! (page log, metadata journal, version journal), concurrent writers
//! meter exactly one copy of their slice per write, zero `Serializing`
//! locks and at most one `VersionAssign` per write, in both commit modes
//! (buffered and `fsync_on_commit`); reads after a compaction and after
//! a whole-cluster restart meter exactly one copy per page again.
//!
//! Lives in its own test binary because TCP dispatch happens on server
//! worker threads, so the measurements use the process-global copy and
//! lock meters (one test function, nothing else to pollute them).

use blobseer_core::{BackendKind, BlobClient, Deployment, DeploymentConfig, TransportKind};
use blobseer_proto::{BlobId, Segment};
use blobseer_rpc::Ctx;
use blobseer_util::{copymeter, lockmeter};

const PAGE: u64 = 4096;
const PAGES: u64 = 16;
const TOTAL: u64 = PAGE * PAGES;
const SEG: u64 = 8 * PAGE;

/// Concurrent clients in the durable legs, and operations each.
const CLIENTS: usize = 4;
const OPS_PER_CLIENT: u64 = 4;
/// The durable legs' blob: one disjoint region of segments per client.
const REGION: u64 = SEG * OPS_PER_CLIENT * CLIENTS as u64;

/// Run the canonical write / read / aligned-read_buf workload on the
/// given transport × backend and return the global bytes-copied of each
/// leg.
fn measure(transport: TransportKind, backend: BackendKind) -> (u64, u64, u64) {
    let mut cfg = DeploymentConfig::functional(4)
        .tune()
        .transport(transport)
        .backend(backend)
        .build();
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

/// tcp × mmap with every journal on, in the given commit mode.
fn durable_cluster(fsync: bool) -> Deployment {
    let mut cfg = DeploymentConfig::functional_tcp(4)
        .tune()
        .backend(BackendKind::Mmap)
        .fsync_on_commit(fsync)
        .build();
    // Compaction runs only when the test asks for it, never under a
    // measured leg.
    cfg.log.compact_dead_ratio = 0.0;
    Deployment::build(cfg)
}

/// `CLIENTS` clients that already know `blob`: the first open of a blob
/// is startup (geometry and roster loads), not the per-op profile.
fn warm_clients(d: &Deployment, blob: BlobId) -> Vec<BlobClient> {
    let mut ctx = Ctx::start();
    (0..CLIENTS)
        .map(|_| {
            let c = d.client();
            c.info(&mut ctx, blob).unwrap();
            c
        })
        .collect()
}

/// Run `op(client index, op index, client, ctx)` `OPS_PER_CLIENT` times
/// on each client, all clients concurrently; return the global bytes
/// copied and locks taken meanwhile.
fn concurrently(
    clients: &[BlobClient],
    op: impl Fn(u64, u64, &BlobClient, &mut Ctx) + Sync,
) -> (u64, lockmeter::LockCounts) {
    let copies = copymeter::snapshot();
    let locks = lockmeter::snapshot();
    std::thread::scope(|scope| {
        for (t, c) in clients.iter().enumerate() {
            let op = &op;
            scope.spawn(move || {
                let mut ctx = Ctx::start();
                for i in 0..OPS_PER_CLIENT {
                    op(t as u64, i, c, &mut ctx);
                }
            });
        }
    });
    (copies.bytes_since(), locks.since())
}

/// Concurrent writers, disjoint segments: one copy of the caller's
/// slice per write, no serializing lock, at most one version-assignment
/// acquisition per write (grants may batch below one, never above).
fn assert_write_parity(fsync: bool) {
    let d = durable_cluster(fsync);
    let mut ctx = Ctx::start();
    let blob = d.client().alloc(&mut ctx, REGION, PAGE).unwrap().blob;
    let clients = warm_clients(&d, blob);
    let (copied, locks) = concurrently(&clients, |t, i, c, ctx| {
        let data = vec![t as u8 + 1; SEG as usize];
        let off = (t * OPS_PER_CLIENT + i) * SEG;
        c.write(ctx, blob, off, &data).unwrap();
    });
    let writes = CLIENTS as u64 * OPS_PER_CLIENT;
    assert_eq!(
        copied,
        writes * SEG,
        "fsync={fsync}: each journaled write copies the caller's slice exactly once"
    );
    assert_eq!(
        locks.serializing, 0,
        "fsync={fsync}: journal appends take no control-plane lock: {locks:?}"
    );
    assert!(
        locks.version_assign > 0 && locks.version_assign <= writes,
        "fsync={fsync}: {} VersionAssign acquisitions for {writes} writes",
        locks.version_assign
    );
}

/// Concurrent readers of the latest version: one copy per page read,
/// no serializing lock.
fn assert_read_parity(d: &Deployment, blob: BlobId, leg: &str) {
    let clients = warm_clients(d, blob);
    let (copied, locks) = concurrently(&clients, |t, i, c, ctx| {
        let mut out = vec![0u8; SEG as usize];
        let off = ((t + i * CLIENTS as u64) * SEG) % REGION;
        c.read_into(ctx, blob, None, Segment::new(off, SEG), &mut out)
            .unwrap();
        assert!(out.iter().all(|&b| b == 4), "{leg}: latest pass reads back");
    });
    assert_eq!(
        copied,
        CLIENTS as u64 * OPS_PER_CLIENT * SEG,
        "{leg}: a read copies each page exactly once"
    );
    assert_eq!(locks.serializing, 0, "{leg}: {locks:?}");
}

/// Four passes over the region, GC of the three superseded ones,
/// compaction of every provider, then a whole-cluster restart: reads
/// meter exactly as before after each.
fn assert_reads_after_compaction_and_restart() {
    let mut d = durable_cluster(false);
    let c = d.client();
    let mut ctx = Ctx::start();
    let blob = c.alloc(&mut ctx, REGION, PAGE).unwrap().blob;
    let mut latest = 0;
    for pass in 1..=4u8 {
        for off in (0..REGION).step_by(SEG as usize) {
            latest = c
                .write(&mut ctx, blob, off, &vec![pass; SEG as usize])
                .unwrap();
        }
    }
    c.gc(&mut ctx, blob, latest).unwrap();
    for i in 0..d.storage.len() {
        let report = d.compact_storage(i).unwrap();
        assert!(report.is_some(), "the mmap backend compacts");
    }
    assert_read_parity(&d, blob, "after compaction");

    d.restart_cluster().unwrap();
    assert_read_parity(&d, blob, "after restart");
}

#[test]
fn mmap_backend_meters_identically_to_memory() {
    // Single test function: the global meter must not see traffic from
    // sibling tests, so this binary holds exactly one.
    let (mem_w, mem_r, mem_rb) = measure(TransportKind::Tcp, BackendKind::Memory);
    let (map_w, map_r, map_rb) = measure(TransportKind::Tcp, BackendKind::Mmap);

    assert_eq!(
        (map_w, map_r, map_rb),
        (mem_w, mem_r, mem_rb),
        "the mmap backend must copy the same byte counts as memory \
         (memory: w={mem_w} r={mem_r} rb={mem_rb})"
    );
    assert_eq!(
        map_w, SEG,
        "a write copies the caller's buffer exactly once; appending to \
         the page log adds zero metered copies"
    );
    assert_eq!(
        map_r, SEG,
        "a read copies each page exactly once, straight off the mapping"
    );
    assert_eq!(
        map_rb, 0,
        "an aligned single-page read_buf is zero-copy end to end"
    );

    // White-box on the in-process transport: the page a client gets from
    // read_buf *is* a slice of the provider's log mapping — the whole
    // data path from file to client is one refcount chain.
    let mut cfg = DeploymentConfig::functional_mmap(4);
    cfg.replication = 2;
    let d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    let data: Vec<u8> = (0..SEG).map(|i| (i % 239) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data).unwrap();
    let (page, _) = c
        .read_buf(&mut ctx, info.blob, Some(1), Segment::new(0, PAGE))
        .unwrap();
    assert_eq!(&page[..], &data[..PAGE as usize]);
    assert!(
        page.is_mapped(),
        "over the in-process transport the served page is lent straight \
         from the provider's log mapping"
    );

    // Durable steady state: the same counts under concurrency, with
    // every journal on, in both commit modes and across a compaction
    // and a whole-cluster restart.
    assert_write_parity(false);
    assert_write_parity(true);
    assert_reads_after_compaction_and_restart();
}
