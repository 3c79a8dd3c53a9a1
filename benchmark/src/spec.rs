//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this table printed (`benchmark --emit-spec`); a unit test
//! fails when the two disagree.

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ingest",
        why: "telescope ingest (Fig. 3c write regime): bulk 1 MiB writes, rpc send path and provider append/commit dominate, metadata does little",
    },
    Workload {
        name: "scan",
        why: "detector reads of 1 MiB over a prefilled blob, cold then warm cache: rpc receive, page fetch and assembly dominate; a write-path change must not move the reads",
    },
    Workload {
        name: "finegrain_mix",
        why: "the title case: Zipf single-page 70/30 read/write on a 1 TiB blob of 64 KiB pages, cache smaller than the tree: dht, version, meta and per-RPC latency dominate, bytes barely matter",
    },
    Workload {
        name: "lifecycle",
        why: "read cost, write cost and space over a blob's life: overwrites, cold restarts, verify, gc, compaction, restart; journals and dead bytes must stay bounded",
    },
    Workload {
        name: "sky_survey",
        why: "the supernova survey itself on the canonical cell: telescopes ingest, detectors scan, recall must be 1.0; the only workload where sky compute shares the cores",
    },
    Workload {
        name: "sim_paper",
        why: "the same cell on the costed simulator, timed on its virtual clock (the paper's cost model): exact for a seed, moved only by protocol changes (messages, aggregation), never by host noise",
    },
];

/// Whether a larger or a smaller value is the better one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one:
/// all six both write and read (for `scan` the writes are its prefill,
/// for `ingest` and `lifecycle` the reads are their read-back passes).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "write_mib_s",
        unit: "MiB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_mib_s",
        unit: "MiB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "space_amp",
        unit: "B/B",
        better: Better::Lower,
        bound: 0.02,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Single-layer numbers from the traced run. A metric a workload does
/// not exercise reads 0 there. Prefixes are the repository's crates.
pub const PER_LAYER: &[PerLayer] = &[
    // core: the client library and the deployment's lifecycle.
    layer("core.write_self_us", "us", Lower),
    layer("core.read_self_us", "us", Lower),
    layer("core.rpc_overlap", "ratio", Higher),
    layer("core.trace_overhead", "ratio", Lower),
    layer("core.copied_bytes_per_op", "B", Lower),
    layer("core.write_p99_ms", "ms", Lower),
    layer("core.read_p99_ms", "ms", Lower),
    layer("core.read_cold_p50_ms", "ms", Lower),
    layer("core.restart_s", "s", Lower),
    layer("core.restart_compacted_s", "s", Lower),
    layer("core.gc_s", "s", Lower),
    layer("core.write_amp", "B/B", Lower),
    // util: meters and the shared metadata cache.
    layer("util.serializing_locks_per_op", "count", Lower),
    layer("util.cache_hit_ratio", "ratio", Higher),
    // version: the version manager.
    layer("version.assign_locks_per_op", "count", Lower),
    layer("version.ticket_rpc_us", "us", Lower),
    layer("version.publish_rpc_us", "us", Lower),
    layer("version.latest_rpc_us", "us", Lower),
    layer("version.assign_us", "us", Lower),
    layer("version.publish_us", "us", Lower),
    layer("version.journal_bytes", "B", Lower),
    layer("version.journal_bytes_per_write", "B", Lower),
    // rpc: framing and the transport.
    layer("rpc.calls_per_write", "count", Lower),
    layer("rpc.calls_per_read", "count", Lower),
    layer("rpc.wire_bytes_per_user_byte", "B/B", Lower),
    layer("rpc.echo_small_rtt_us", "us", Lower),
    layer("rpc.echo_put256k_rtt_us", "us", Lower),
    layer("rpc.echo_get256k_rtt_us", "us", Lower),
    // provider: the provider manager and the data providers.
    layer("provider.plan_rpc_us", "us", Lower),
    layer("provider.put_rpc_us", "us", Lower),
    layer("provider.get_rpc_us", "us", Lower),
    layer("provider.plan_us", "us", Lower),
    layer("provider.put_handle_us", "us", Lower),
    layer("provider.get_handle_us", "us", Lower),
    layer("provider.log_bytes_per_user_byte", "B/B", Lower),
    layer("provider.compact_s", "s", Lower),
    layer("provider.dead_bytes_ratio", "ratio", Lower),
    layer("provider.compactions", "count", Lower),
    // dht: the metadata providers.
    layer("dht.put_rpc_us", "us", Lower),
    layer("dht.get_rpc_us", "us", Lower),
    layer("dht.round_trips_per_read", "count", Lower),
    layer("dht.put_handle_us", "us", Lower),
    layer("dht.get_handle_us", "us", Lower),
    layer("dht.journal_bytes", "B", Lower),
    layer("dht.journal_bytes_per_write", "B", Lower),
    // meta: the segment tree.
    layer("meta.build_tree_us", "us", Lower),
    layer("meta.assemble_us", "us", Lower),
    layer("meta.nodes_per_write", "count", Lower),
    layer("meta.nodes_per_read", "count", Lower),
    // proto: the wire codec.
    layer("proto.encode_put_us", "us", Lower),
    layer("proto.decode_put_us", "us", Lower),
    // simnet: the paper's cost model (virtual time, exact).
    layer("simnet.write_vt_ms", "vt_ms", Lower),
    layer("simnet.read_vt_ms", "vt_ms", Lower),
    layer("simnet.write_plan_vt_us", "vt_us", Lower),
    layer("simnet.write_pages_vt_us", "vt_us", Lower),
    layer("simnet.write_ticket_vt_us", "vt_us", Lower),
    layer("simnet.write_meta_vt_us", "vt_us", Lower),
    layer("simnet.write_publish_vt_us", "vt_us", Lower),
    layer("simnet.read_latest_vt_us", "vt_us", Lower),
    layer("simnet.read_meta_vt_us", "vt_us", Lower),
    layer("simnet.read_data_vt_us", "vt_us", Lower),
    layer("simnet.msgs_per_write", "count", Lower),
    layer("simnet.msgs_per_read", "count", Lower),
    // sky: the application.
    layer("sky.survey_s", "s", Lower),
    layer("sky.ingest_s", "s", Lower),
    layer("sky.scan_s", "s", Lower),
    layer("sky.storage_s", "s", Lower),
    layer("sky.compute_s", "s", Lower),
    layer("sky.recall", "ratio", Higher),
];

/// Whether `name` is one of the metrics above.
pub fn names_metric(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// `BENCHMARK.json`, exactly.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn table_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)), "bad name in {names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark --emit-spec > BENCHMARK.json`"
        );
    }
}
