//! Versioned analytics: many analysts pin different snapshots of a live
//! dataset and all read at full speed while a writer keeps publishing —
//! the databases / data-mining use case of the paper's §I, and a direct
//! demonstration of read/read + read/write concurrency.
//!
//! ```sh
//! cargo run --release --example versioned_analytics
//! ```

use blobseer::{Ctx, Deployment, DeploymentConfig, Segment};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PAGE: u64 = 16 << 10;
const PAGES: u64 = 512;
const TOTAL: u64 = PAGE * PAGES; // 8 MiB dataset

fn main() {
    // A 4-provider deployment on the zero-cost in-process transport;
    // every actor below gets its own client.
    let d = Deployment::build(DeploymentConfig::functional(4));
    let client = d.client();
    let mut ctx = Ctx::start();
    let blob = client.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;

    // Ingest the base dataset: 8 MiB of "records" (version 1).
    let base: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8).collect();
    client.write(&mut ctx, blob, 0, &base).unwrap();
    println!("base dataset ingested as version 1 ({} pages)", PAGES);

    let stop = Arc::new(AtomicBool::new(false));
    let updates = Arc::new(AtomicU64::new(0));

    // A writer continuously patches random pages (new versions).
    let writer = {
        let c = d.client();
        let stop = Arc::clone(&stop);
        let updates = Arc::clone(&updates);
        std::thread::spawn(move || {
            let mut ctx = Ctx::start();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let off = (i * 37 % PAGES) * PAGE;
                let fill = vec![(i % 250) as u8 + 1; PAGE as usize];
                c.write(&mut ctx, blob, off, &fill).unwrap();
                updates.fetch_add(1, Ordering::Relaxed);
                i += 1;
            }
        })
    };

    // Analysts: each pins version 1 and computes a full-scan checksum
    // repeatedly. Because snapshots are immutable, every scan of v1 must
    // produce the identical answer no matter how fast the writer runs.
    let t0 = Instant::now();
    let analysts: Vec<_> = (0..4)
        .map(|id| {
            let c = d.client();
            std::thread::spawn(move || {
                let mut ctx = Ctx::start();
                let mut scans = 0u64;
                let mut checksum0 = None;
                for _ in 0..30 {
                    let (buf, _) = c
                        .read(&mut ctx, blob, Some(1), Segment::new(0, TOTAL))
                        .unwrap();
                    let sum: u64 = buf.iter().map(|&b| b as u64).sum();
                    match checksum0 {
                        None => checksum0 = Some(sum),
                        Some(c) => assert_eq!(c, sum, "analyst {id}: snapshot must be stable"),
                    }
                    scans += 1;
                }
                (scans, checksum0.unwrap())
            })
        })
        .collect();

    let mut total_scans = 0;
    let mut checksums = Vec::new();
    for a in analysts {
        let (scans, sum) = a.join().unwrap();
        total_scans += scans;
        checksums.push(sum);
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();

    assert!(checksums.windows(2).all(|w| w[0] == w[1]));
    let scanned = total_scans * TOTAL;
    println!(
        "4 analysts scanned v1 {} times ({}) in {:.2?} — {:.0} MB/s aggregate",
        total_scans,
        blobseer::util::stats::fmt_bytes(scanned),
        elapsed,
        scanned as f64 / 1e6 / elapsed.as_secs_f64()
    );
    println!(
        "writer published {} new versions concurrently (latest = {})",
        updates.load(Ordering::Relaxed),
        client.latest(&mut ctx, blob).unwrap()
    );

    // Time travel: compare the base snapshot with the live head.
    let (v1_page, _) = client
        .read(&mut ctx, blob, Some(1), Segment::new(0, PAGE))
        .unwrap();
    let (head_page, latest) = client
        .read(&mut ctx, blob, None, Segment::new(0, PAGE))
        .unwrap();
    println!(
        "page 0 at v1 starts with {:?}, at v{} with {:?}",
        &v1_page[..4],
        latest,
        &head_page[..4]
    );

    // Retention: collect everything older than the last 10 versions.
    let keep_from = latest.saturating_sub(10).max(1);
    let (nodes, pages) = client.gc(&mut ctx, blob, keep_from).unwrap();
    println!(
        "GC (keep >= v{keep_from}): reclaimed {nodes} tree nodes and {pages} pages; \
         the cluster now holds {} pages",
        d.total_pages()
    );
}
