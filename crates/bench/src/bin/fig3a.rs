//! **Figure 3(a)** — Metadata overhead, single client: READS.
//!
//! "We measure the time it takes for metadata to be completely read for a
//! READ, for a 1 TB string, using 64 KB pages", segment sizes 64 KB →
//! 16 MB, with 10/20/40 nodes each hosting one data and one metadata
//! provider (paper §V.C).
//!
//! Expected shape: time grows with segment size; near-insensitive to the
//! provider count, *slightly worse* with more providers at small segments
//! (the client manages more connections).

use blobseer_bench::*;
use blobseer_rpc::Ctx;
use blobseer_util::stats::{OnlineStats, Table};

fn main() {
    let iters = 5;
    let mut table = Table::new(&[
        "segment",
        "10 providers (s)",
        "20 providers (s)",
        "40 providers (s)",
    ]);
    let mut rows: Rows = fig3ab_segments()
        .iter()
        .map(|s| (format!("{} KiB", s / KB), Vec::new()))
        .collect();

    for &providers in &fig3ab_providers() {
        let d = paper_deployment(providers);
        let writer = d.client();
        let mut wctx = Ctx::start();
        let info = writer.alloc(&mut wctx, PAPER_BLOB, PAPER_PAGE).unwrap();

        for (row, &seg_size) in fig3ab_segments().iter().enumerate() {
            // The segment must exist before it can be read; each (size,
            // iteration) pair gets its own region so caching effects on
            // the *data path* cannot leak between runs.
            let mut stats = OnlineStats::new();
            for i in 0..iters {
                let offset = (row as u64 * iters + i) * (16 * MB) + (1 << 30);
                writer
                    .write(&mut wctx, info.blob, offset, &payload(seg_size, i))
                    .unwrap();

                // Fresh client per measurement: cold connections and no
                // metadata cache — the paper's worst case. The reader is
                // causally after the setup write, so its clock starts at
                // the cluster's virtual-time horizon.
                let reader = d.client();
                let mut ctx = Ctx::at(d.cluster.horizon());
                let (_, _, rstats) = reader
                    .read_with_stats(
                        &mut ctx,
                        info.blob,
                        None,
                        blobseer_proto::Segment::new(offset, seg_size),
                    )
                    .unwrap();
                stats.push(rstats.metadata_ns() as f64);
            }
            rows[row].1.push(shown(&secs(stats.mean() as u64)));
        }
    }

    for (label, values) in &rows {
        let mut cells = vec![label.clone()];
        cells.extend(values.iter().map(|v| format!("{v:.4}")));
        table.row(&cells);
    }
    emit(
        "fig3a",
        "Fig. 3(a): metadata overhead, single client — reads",
        &table,
    );
    check_shape("rising with segment size", &rows, rises_from);
    check_shape(
        "flat-to-slightly-rising with provider count (never faster with more)",
        &rows,
        |_, row| row.windows(2).all(|w| w[1] >= w[0]),
    );
}
