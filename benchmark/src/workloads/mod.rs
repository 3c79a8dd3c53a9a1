//! The six workloads. Each is a loop of *reps*: a rep sets up a fresh
//! deployment (timed as `setup_s`), runs a fixed amount of seeded work
//! against it, checks every output, and tears it down. Reps repeat until
//! the run's measuring time is used up, so a longer run pools more
//! samples of the same work.

use crate::harness::{Counters, Recorder, RegionTotals, RunCfg, PAGE};
use blobseer_proto::Geometry;

pub mod finegrain_mix;
pub mod ingest;
pub mod lifecycle;
pub mod scan;
pub mod sim_paper;
pub mod sky_survey;

/// Run workload `name` (one of [`crate::spec::WORKLOADS`]).
pub fn run(name: &str, cfg: &RunCfg, rec: &mut Recorder) -> Result<(), String> {
    match name {
        "ingest" => ingest::run(cfg, rec),
        "scan" => scan::run(cfg, rec),
        "finegrain_mix" => finegrain_mix::run(cfg, rec),
        "lifecycle" => lifecycle::run(cfg, rec),
        "sky_survey" => sky_survey::run(cfg, rec),
        "sim_paper" => sim_paper::run(cfg, rec),
        other => return Err(format!("unknown workload `{other}`")),
    }
    Ok(())
}

/// Geometry of a canonical-cell blob of `total` bytes.
pub fn canonical_geometry(total: u64) -> Geometry {
    Geometry::new(total, PAGE).expect("power-of-two blob of canonical pages")
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Instrument I3 for one measured region: turn the growth of the
/// product's public counters into per-op layer metrics.
pub fn record_region(rec: &mut Recorder, grown: &Counters, totals: &RegionTotals) {
    let ops = totals.writes + totals.reads;
    rec.put("core.copied_bytes_per_op", ratio(grown.copied_bytes, ops));
    rec.put(
        "util.serializing_locks_per_op",
        ratio(grown.serializing_locks, ops),
    );
    rec.put(
        "rpc.wire_bytes_per_user_byte",
        ratio(
            grown.wire_bytes,
            totals.sums.write_bytes + totals.sums.read_bytes,
        ),
    );
    let probes = grown.cache_hits + grown.cache_misses;
    if probes > 0 {
        rec.put("util.cache_hit_ratio", ratio(grown.cache_hits, probes));
    }
    if totals.writes > 0 {
        rec.put(
            "version.assign_locks_per_op",
            ratio(grown.version_assign_locks, totals.writes),
        );
        rec.put(
            "meta.nodes_per_write",
            ratio(totals.sums.nodes_built, totals.writes),
        );
        rec.put(
            "dht.journal_bytes_per_write",
            ratio(grown.meta_journal_bytes, totals.writes),
        );
        rec.put(
            "version.journal_bytes_per_write",
            ratio(grown.version_journal_bytes, totals.writes),
        );
        rec.put(
            "provider.log_bytes_per_user_byte",
            ratio(grown.page_log_bytes, totals.sums.write_bytes),
        );
    }
    if totals.reads > 0 {
        // With a cache every visited node is one probe; without one the
        // client's own `ReadStats` count them.
        let visited = if probes > 0 {
            probes
        } else {
            totals.sums.nodes_visited
        };
        rec.put("meta.nodes_per_read", ratio(visited, totals.reads));
    }
}

/// Bytes held per live user byte at the end of a rep (`space_amp`), and
/// bytes appended to logs and journals per user byte written during it
/// (`core.write_amp`).
pub fn record_space(
    rec: &mut Recorder,
    end: &Counters,
    live_user_bytes: u64,
    appended: u64,
    written: u64,
) {
    rec.put("space_amp", ratio(end.stored_bytes(), live_user_bytes));
    rec.put("core.write_amp", ratio(appended, written));
    rec.put("dht.journal_bytes", end.meta_journal_bytes as f64);
    rec.put("version.journal_bytes", end.version_journal_bytes as f64);
}
