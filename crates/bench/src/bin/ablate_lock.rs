//! **Ablation: lock-free vs lock-based** — quantifies the paper's central
//! motivation ("enable the clients to access the data string as
//! concurrently as possible, without locking the string itself", §I).
//!
//! Wall-clock stress: `R` reader threads scan random segments while `W`
//! writer threads patch random pages, over three stores in one process:
//! the shipped versioned client on a functional deployment (frames and
//! metadata hops included), a global-RwLock string, and a
//! per-page-RwLock string. Reported: aggregate reader and writer
//! throughput.

use blobseer_baseline::{ConcurrentBlob, GlobalLockStore, LockFreeStore, ShardedLockStore};
use blobseer_bench::*;
use blobseer_proto::Segment;
use blobseer_util::rng::rng_for;
use blobseer_util::stats::Table;
use rand::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: u64 = 64 * KB;
const TOTAL: u64 = 64 * MB;
const READ_SEG: u64 = 8 * MB;
const WRITE_SEG: u64 = 4 * MB;
const RUN: Duration = Duration::from_millis(400);

struct Outcome {
    read_mbps: f64,
    write_mbps: f64,
    /// Worst single-operation latencies observed (µs).
    max_read_us: u64,
    max_write_us: u64,
}

fn stress(store: Arc<dyn ConcurrentBlob>, readers: usize, writers: usize) -> Outcome {
    // Seed the whole region so reads return real data.
    store.write(0, &payload(TOTAL, 1)).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let read_bytes = Arc::new(AtomicU64::new(0));
    let write_bytes = Arc::new(AtomicU64::new(0));
    let max_read_us = Arc::new(AtomicU64::new(0));
    let max_write_us = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for r in 0..readers {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let read_bytes = Arc::clone(&read_bytes);
        let max_read_us = Arc::clone(&max_read_us);
        handles.push(std::thread::spawn(move || {
            let mut rng = rng_for(17, r as u64);
            while !stop.load(Ordering::Relaxed) {
                let off = rng.gen_range(0..(TOTAL - READ_SEG) / PAGE) * PAGE;
                let t = Instant::now();
                let buf = store.read(None, Segment::new(off, READ_SEG)).unwrap();
                max_read_us.fetch_max(t.elapsed().as_micros() as u64, Ordering::Relaxed);
                read_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
            }
        }));
    }
    for w in 0..writers {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        let write_bytes = Arc::clone(&write_bytes);
        let max_write_us = Arc::clone(&max_write_us);
        handles.push(std::thread::spawn(move || {
            let mut rng = rng_for(9_000, w as u64);
            let data = payload(WRITE_SEG, w as u64);
            while !stop.load(Ordering::Relaxed) {
                let off = rng.gen_range(0..(TOTAL - WRITE_SEG) / PAGE) * PAGE;
                let t = Instant::now();
                store.write(off, &data).unwrap();
                max_write_us.fetch_max(t.elapsed().as_micros() as u64, Ordering::Relaxed);
                write_bytes.fetch_add(WRITE_SEG, Ordering::Relaxed);
                // Writers pace themselves (telescope cadence), so the
                // comparison isolates interference rather than raw memcpy.
                std::thread::sleep(Duration::from_millis(2));
            }
        }));
    }

    let t0 = Instant::now();
    std::thread::sleep(RUN);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let dt = t0.elapsed().as_secs_f64();
    Outcome {
        read_mbps: read_bytes.load(Ordering::Relaxed) as f64 / 1e6 / dt,
        write_mbps: write_bytes.load(Ordering::Relaxed) as f64 / 1e6 / dt,
        max_read_us: max_read_us.load(Ordering::Relaxed),
        max_write_us: max_write_us.load(Ordering::Relaxed),
    }
}

fn main() {
    let configs = [(4usize, 0usize), (4, 2), (8, 4)];
    let mut table = Table::new(&[
        "readers+writers",
        "store",
        "read MB/s",
        "write MB/s",
        "max read (µs)",
        "max write (µs)",
        "snapshots",
    ]);
    for &(r, w) in &configs {
        let stores: Vec<Arc<dyn ConcurrentBlob>> = vec![
            Arc::new(LockFreeStore::new(TOTAL, PAGE)),
            Arc::new(GlobalLockStore::new(TOTAL)),
            Arc::new(ShardedLockStore::new(TOTAL, PAGE)),
        ];
        for store in stores {
            let name = store.name();
            let o = stress(store, r, w);
            table.row(&[
                format!("{r}r+{w}w"),
                name.to_string(),
                format!("{:.0}", o.read_mbps),
                format!("{:.0}", o.write_mbps),
                o.max_read_us.to_string(),
                o.max_write_us.to_string(),
                if name == "blobseer-lockfree" {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ]);
            println!(
                "{r}r+{w}w {name}: read {:.0} MB/s (max {} µs), write {:.0} MB/s (max {} µs)",
                o.read_mbps, o.max_read_us, o.write_mbps, o.max_write_us
            );
        }
    }
    emit(
        "ablate_lock",
        "Ablation: lock-free vs lock-based stores (wall clock)",
        &table,
    );
    println!(
        "\nwhat the table compares: the shipped versioned protocol (every op framed and sent \
         over the simulated network, tree nodes fetched and stored through DHT hops) against \
         two in-process maps behind a global or a per-page RwLock, which pay no frame or hop. \
         It compares a protocol with a data structure, so it does not test the paper's \
         lock-free claim; a like-for-like lock-based deployment is ROADMAP item 2. Only the \
         versioned store serves stable snapshots (its readers pin a version)."
    );
}
