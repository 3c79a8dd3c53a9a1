//! **Figure 3(b)** — Metadata overhead, single client: WRITES.
//!
//! Same sweep as Fig. 3(a) but measuring the metadata share of WRITEs:
//! `WriteStats::metadata_ns`, the metadata leg plus the publish. The
//! leg holds the version ticket's round trip once — overlapped with the
//! leaf weave that rides it, so the longer of the two — then the inner
//! weave and the metadata puts, whether or not the page leg hid them;
//! the puts may queue on the client's NIC behind the lead page that
//! left with the version request.
//!
//! Expected shape: "using a larger number of metadata providers improves
//! the cost of writing the overall metadata ... explained by our
//! optimized RPC mechanism, which aggregates requests for storage sent to
//! the same remote process. This is more visible when writing larger
//! segments" (§V.C).

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

        for (row, &seg_size) in fig3ab_segments().iter().enumerate() {
            let mut stats = OnlineStats::new();
            for i in 0..iters {
                // Fresh client per measurement (cold connections), own
                // region per iteration; starts at the causal horizon.
                let client = d.client();
                let mut ctx = Ctx::at(d.cluster.horizon());
                let info = if i == 0 && row == 0 {
                    client.alloc(&mut ctx, PAPER_BLOB, PAPER_PAGE).unwrap()
                } else {
                    // Reuse the first blob of this deployment.
                    client.info(&mut ctx, blobseer_proto::BlobId(1)).unwrap()
                };
                let offset = (row as u64 * iters + i) * (16 * MB);
                // Warm connections with a 1-page write so that
                // connection setup (measured by fig3a's read side too)
                // does not dominate the metadata phase under test. It
                // warms only the nodes that write reached: the measured
                // write's metadata frames lead its burst, so they pay
                // first contact with every other storage node.
                client
                    .write(
                        &mut ctx,
                        info.blob,
                        offset + (1 << 35),
                        &payload(PAPER_PAGE, 9),
                    )
                    .unwrap();
                let (_, wstats) = client
                    .write_with_stats(&mut ctx, info.blob, offset, &payload(seg_size, i))
                    .unwrap();
                stats.push(wstats.metadata_ns() as f64);
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
        "fig3b",
        "Fig. 3(b): metadata overhead, single client — writes",
        &table,
    );
    check_shape("rising with segment size", &rows, rises_from);
    check_shape(
        "improving with provider count (faster at each step up)",
        &rows,
        |_, row| row.windows(2).all(|w| w[1] < w[0]),
    );
}
