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
    let mut rows = Rows::new();
    for &n in &client_counts() {
        let read = run_mode(Mode::Read, n);
        let write = run_mode(Mode::Write, n);
        let cached = run_mode(Mode::ReadCached, n);
        let cells = [read, write, cached].map(|v| format!("{v:.1}"));
        table.row(&[&[n.to_string()], &cells[..]].concat());
        rows.push((
            format!("clients={n}"),
            cells.iter().map(|c| shown(c)).collect(),
        ));
        println!(
            "clients={n}: read {read:.1} MB/s, write {write:.1} MB/s, cached {cached:.1} MB/s"
        );
    }
    emit(
        "fig3c",
        "Fig. 3(c): average bandwidth per client under concurrency",
        &table,
    );
    check_shape(
        "decline with client count (no column rises)",
        &rows,
        |above, row| above.is_none_or(|a| a.iter().zip(row).all(|(a, r)| r <= a)),
    );
    let (first, last) = (&rows[0].1, &rows[rows.len() - 1].1);
    let drop = |c: usize| 100.0 * (1.0 - last[c] / first[c]);
    println!(
        "  per-client drop from {} to {}: read {:.0} %, write {:.0} %, cached {:.0} %",
        rows[0].0,
        rows[rows.len() - 1].0,
        drop(0),
        drop(1),
        drop(2)
    );
    check_shape("Read > Write", &rows, |_, row| row[0] > row[1]);
    check_shape("cached Read > Read", &rows, |_, row| row[2] > row[0]);
}
