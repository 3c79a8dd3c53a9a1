//! Shared harness utilities for the figure-regeneration binaries.

use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_proto::Segment;
use blobseer_rpc::Ctx;
use blobseer_util::stats::Table;
use std::path::Path;

/// KiB.
pub const KB: u64 = 1024;
/// MiB.
pub const MB: u64 = 1024 * 1024;

/// The paper's blob configuration: 1 TB logical blob, 64 KB pages.
pub const PAPER_BLOB: u64 = 1 << 40;
/// The paper's page size.
pub const PAPER_PAGE: u64 = 64 * KB;

/// The paper's Fig. 3(a)/(b) segment sweep: 64 KB → 16 MB, ×4 steps.
pub fn fig3ab_segments() -> Vec<u64> {
    vec![64 * KB, 256 * KB, 1024 * KB, 4096 * KB, 16384 * KB]
}

/// The paper's provider counts for Fig. 3(a)/(b).
pub fn fig3ab_providers() -> Vec<usize> {
    vec![10, 20, 40]
}

/// Build the paper's deployment with `n` storage nodes.
pub fn paper_deployment(n: usize) -> Deployment {
    Deployment::build(DeploymentConfig::grid5000(n))
}

/// Write a table to stdout and to `results/<name>.csv`.
pub fn emit(name: &str, title: &str, table: &Table) {
    println!("\n== {title} ==\n");
    println!("{}", table.render());
    let dir = Path::new("results");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.csv"));
    match std::fs::write(&path, table.to_csv()) {
        Ok(()) => println!("(csv written to {})", path.display()),
        Err(e) => println!("(csv write failed: {e})"),
    }
}

/// A sweep's rows as printed: each row's label, and each column's value
/// read back from its printed cell, so a shape check judges exactly what
/// the table shows.
pub type Rows = Vec<(String, Vec<f64>)>;

/// The value a printed table cell shows (NaN, which holds no shape, if
/// it shows none).
pub fn shown(cell: &str) -> f64 {
    cell.trim().parse().unwrap_or(f64::NAN)
}

/// Print whether this run's `rows` hold `shape`, naming the rows that
/// do not. `holds(above, row)` judges one row, given the row above it
/// (`None` for the first). It only reports: a binary exits 0 either way.
pub fn check_shape(shape: &str, rows: &Rows, holds: impl Fn(Option<&[f64]>, &[f64]) -> bool) {
    let mut above = None;
    let mut failing = Vec::new();
    for (label, row) in rows {
        if !holds(above, row) {
            failing.push(label.as_str());
        }
        above = Some(row.as_slice());
    }
    if failing.is_empty() {
        println!("shape check: {shape}: holds");
    } else {
        println!("shape check: {shape}: fails at {}", failing.join(", "));
    }
}

/// Every column of `row` is above the same column of the row above (a
/// first row holds).
pub fn rises_from(above: Option<&[f64]>, row: &[f64]) -> bool {
    above.is_none_or(|above| above.iter().zip(row).all(|(a, r)| r > a))
}

/// Format virtual nanoseconds as seconds with 4 decimals (the paper's
/// figures are in seconds).
pub fn secs(ns: u64) -> String {
    format!("{:.4}", ns as f64 / 1e9)
}

/// Disjoint segment walker: iteration `i` of a client gets segment
/// `[(base + i*size) % region, size)` aligned to `size` — "various
/// disjoint segments within a 1 GB interval" (§V.D).
pub fn disjoint_segment(region_off: u64, region_len: u64, seg_size: u64, i: u64) -> Segment {
    let slots = region_len / seg_size;
    let slot = i % slots;
    Segment::new(region_off + slot * seg_size, seg_size)
}

/// Deterministic payload for write workloads.
pub fn payload(size: u64, salt: u64) -> Vec<u8> {
    (0..size)
        .map(|i| ((i ^ salt).wrapping_mul(31) % 251) as u8)
        .collect()
}

/// Pre-populate `region_len` bytes at `region_off` so reads have data,
/// using whole-region writes of `chunk` bytes.
pub fn prefill(
    d: &Deployment,
    blob: blobseer_proto::BlobId,
    region_off: u64,
    region_len: u64,
    chunk: u64,
) {
    let client = d.client();
    let mut ctx = Ctx::start();
    let data = payload(chunk, 7);
    let mut off = region_off;
    while off < region_off + region_len {
        client
            .write(&mut ctx, blob, off, &data)
            .expect("prefill write");
        off += chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_sweep_matches_paper() {
        let s = fig3ab_segments();
        assert_eq!(s.first(), Some(&(64 * KB)));
        assert_eq!(s.last(), Some(&(16384 * KB)));
        for w in s.windows(2) {
            assert_eq!(w[1] / w[0], 4, "x4 steps like the paper's axis");
        }
    }

    #[test]
    fn disjoint_segments_do_not_overlap_within_region() {
        let region = 64 * MB;
        let size = 4 * MB;
        let mut seen = std::collections::HashSet::new();
        for i in 0..(region / size) {
            let s = disjoint_segment(0, region, size, i);
            assert!(s.end() <= region);
            assert!(seen.insert(s.offset), "offset reused too early");
        }
    }

    #[test]
    fn shape_checks_read_the_printed_cells() {
        assert_eq!(shown(" 0.0049"), 0.0049);
        assert!(shown("n/a").is_nan());
        assert!(rises_from(None, &[1.0]));
        assert!(rises_from(Some(&[1.0, 2.0]), &[1.5, 2.5]));
        assert!(!rises_from(Some(&[1.0, 2.0]), &[1.5, 2.0]));
        assert!(!rises_from(Some(&[1.0]), &[f64::NAN]));
    }

    #[test]
    fn secs_format() {
        assert_eq!(secs(1_500_000_000), "1.5000");
        assert_eq!(secs(12_300_000), "0.0123");
    }
}
