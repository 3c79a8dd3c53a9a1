//! **Figure 3(c)** — Throughput under concurrency.
//!
//! "We measure the average bandwidth per client for READ (respectively
//! WRITE) requests when increasing the number of simultaneous readers
//! (respectively writers)": 20 storage nodes, clients on their own nodes,
//! each client looping over disjoint segments of a large prefilled region
//! (paper §V.D; 16 iterations of 2 MiB segments per client instead
//! of the paper's longer runs — the shape is what is reproduced, not the
//! absolute MB/s).
//!
//! Expected shape: per-client bandwidth declines only slightly from 1 to
//! 20 clients; Read > Write; Read with cached metadata > Read.

use blobseer_bench::*;
use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_proto::BlobId;
use blobseer_rpc::Ctx;
use blobseer_util::stats::{mbps, OnlineStats, Table};
use std::sync::Arc;

const STORAGE_NODES: usize = 20;
/// The paper's "1 GB interval of the data string".
const REGION: u64 = 1024 * MB;
const SEG: u64 = 2 * MB;
const ITERS: u64 = 16;

fn client_counts() -> Vec<usize> {
    vec![1, 2, 4, 8, 12, 16, 20]
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Read,
    Write,
    ReadCached,
}

fn run_mode(mode: Mode, n_clients: usize) -> f64 {
    let mut cfg = DeploymentConfig::grid5000(STORAGE_NODES);
    if mode == Mode::ReadCached {
        cfg.cache_nodes = 1 << 20; // the paper's cache size
    }
    let d = Arc::new(Deployment::build(cfg));

    // Allocate + prefill (reads need data; writers start on a blank
    // region of the same blob).
    let setup = d.client();
    let mut sctx = Ctx::start();
    let info = setup.alloc(&mut sctx, PAPER_BLOB, PAPER_PAGE).unwrap();
    let blob: BlobId = info.blob;
    if mode != Mode::Write {
        prefill(&d, blob, 0, REGION, 8 * MB);
    }

    // All measured clients are causally after the setup phase and start
    // together at the horizon.
    let base_vt = d.cluster.horizon();
    let handles: Vec<_> = (0..n_clients)
        .map(|k| {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let client = d.client();
                let mut ctx = Ctx::at(base_vt);
                // Warm-up round (connection setup), then measured loop.
                let warm = disjoint_segment(0, REGION, SEG, (k as u64) * ITERS);
                match mode {
                    Mode::Write => {
                        let data = payload(SEG, k as u64);
                        client.write(&mut ctx, blob, warm.offset, &data).unwrap();
                    }
                    _ => {
                        client.read(&mut ctx, blob, None, warm).unwrap();
                    }
                }
                let t0 = ctx.vt;
                for i in 0..ITERS {
                    let seg = disjoint_segment(0, REGION, SEG, (k as u64) * ITERS + i);
                    match mode {
                        Mode::Write => {
                            let data = payload(SEG, (k as u64) << 32 | i);
                            client.write(&mut ctx, blob, seg.offset, &data).unwrap();
                        }
                        _ => {
                            client.read(&mut ctx, blob, None, seg).unwrap();
                        }
                    }
                }
                mbps(ITERS * SEG, ctx.vt - t0)
            })
        })
        .collect();

    let mut stats = OnlineStats::new();
    for h in handles {
        stats.push(h.join().unwrap());
    }
    stats.mean()
}

fn main() {
    let mut table = Table::new(&[
        "clients",
        "Read (MB/s)",
        "Write (MB/s)",
        "Read cached (MB/s)",
    ]);
    for &n in &client_counts() {
        let read = run_mode(Mode::Read, n);
        let write = run_mode(Mode::Write, n);
        let cached = run_mode(Mode::ReadCached, n);
        table.row(&[
            n.to_string(),
            format!("{read:.1}"),
            format!("{write:.1}"),
            format!("{cached:.1}"),
        ]);
        println!(
            "clients={n}: read {read:.1} MB/s, write {write:.1} MB/s, cached {cached:.1} MB/s"
        );
    }
    emit(
        "fig3c",
        "Fig. 3(c): average bandwidth per client under concurrency",
        &table,
    );
    println!("shape checks: gentle decline with client count; Read > Write; cached Read > Read");
}
