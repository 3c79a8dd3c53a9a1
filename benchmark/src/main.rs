//! The canonical benchmark: six named workloads on one fixed rig, every
//! output checked, every metric printed by name with its unit.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace <0|1>] [--out <file>]
//! benchmark --compare <a.jsonl> <b.jsonl>
//! benchmark --stability [--runs <n>]
//! benchmark --emit-spec
//! ```
//!
//! A run prints a table and, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! separate traced pass with `--trace 1`. It exits non-zero when any
//! output check failed. See `README.md` beside this package.

mod compare;
mod gen;
mod harness;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{Recorder, RunCfg, MIB};
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::OpKind;

/// One finished run, ready to print.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, unit), in `spec` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl RunResult {
    /// The contract's result object.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The same plus what identifies the run, one line of a set file.
    fn set_line(&self) -> String {
        let body = self.json();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            &body[1..]
        )
    }
}

fn p(samples_ns: &[u64], q: f64) -> Option<f64> {
    stats::percentile(&mut stats::ns_to_ms(samples_ns), q)
}

/// Per-layer numbers of instrument I1, from the spans of the traced reps.
fn record_trace(rec: &mut Recorder, notes: &mut Vec<String>) -> bool {
    let analysis = trace::analyse(&rec.spans);
    for v in &analysis.violations {
        notes.push(format!("trace self-check: {v}"));
    }
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let per_call = |k: &trace::KindAgg, methods: &[u16]| {
        let all: Vec<f64> = methods
            .iter()
            .filter_map(|m| k.methods.get(m))
            .flat_map(|a| a.per_call_us.iter().copied())
            .collect();
        med(&all)
    };
    let (mut child_sum, mut child_union) = (0u64, 0u64);
    for (kind, k) in &analysis.kinds {
        child_sum += k.child_sum_ns;
        child_union += k.child_union_ns;
        let self_us = med(&stats::ns_to_us(&k.self_ns));
        let calls = k.calls as f64 / k.ops.max(1) as f64;
        match kind {
            OpKind::Write => {
                rec.put("core.write_self_us", self_us);
                rec.put("rpc.calls_per_write", calls);
                rec.put("provider.plan_rpc_us", per_call(k, &[0x0203]));
                rec.put("provider.put_rpc_us", per_call(k, &[0x0101]));
                rec.put("dht.put_rpc_us", per_call(k, &[0x0301, 0x0303]));
                rec.put("version.ticket_rpc_us", per_call(k, &[0x0404]));
                rec.put("version.publish_rpc_us", per_call(k, &[0x0405]));
            }
            OpKind::Read => {
                rec.put("core.read_self_us", self_us);
                rec.put("rpc.calls_per_read", calls);
                rec.put("provider.get_rpc_us", per_call(k, &[0x0102]));
                rec.put("dht.get_rpc_us", per_call(k, &[0x0302, 0x0304]));
                rec.put("dht.round_trips_per_read", k.family_calls_per_op(0x03));
                rec.put("version.latest_rpc_us", per_call(k, &[0x0403]));
            }
        }
    }
    if child_union > 0 {
        rec.put("core.rpc_overlap", child_sum as f64 / child_union as f64);
    }
    // Tracing overhead: traced over untraced median latency of the op
    // kind this workload does most.
    let pairs = [
        (&rec.traced_write_ns, &rec.write_ns),
        (&rec.traced_read_ns, &rec.read_ns),
    ];
    let (traced, plain) = pairs
        .into_iter()
        .max_by_key(|(_, plain)| plain.len())
        .expect("two op kinds");
    if let (Some(t), Some(u)) = (p(traced, 0.5), p(plain, 0.5)) {
        rec.put("core.trace_overhead", t / u);
    }
    analysis.violations.is_empty()
}

/// Run one workload and turn what it gathered into named metrics.
fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let cfg = RunCfg::new(seed, seconds, trace);
    let mut rec = Recorder::default();
    workloads::run(name, &cfg, &mut rec)?;
    let mut notes = Vec::new();
    let mut correct = rec.failed == 0 && rec.attempted > 0;
    for e in &rec.errors {
        notes.push(format!("failed check: {e}"));
    }

    let mut metrics = Vec::new();
    if trace {
        correct &= record_trace(&mut rec, &mut notes);
        if let Some(v) = p(&rec.write_ns, 0.99) {
            rec.put("core.write_p99_ms", v);
        }
        if let Some(v) = p(&rec.read_ns, 0.99) {
            rec.put("core.read_p99_ms", v);
        }
        let path = harness::trace_path(name);
        trace::write_jsonl(&path, &rec.spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        notes.push(format!("{} spans in {}", rec.spans.len(), path.display()));
        for m in spec::PER_LAYER {
            // A layer this workload does not exercise reads 0.
            metrics.push((m.name, rec.median(m.name).unwrap_or(0.0), m.unit));
        }
    } else {
        if let Some(v) = p(&rec.write_ns, 0.5) {
            rec.put("write_p50_ms", v);
        }
        if let Some(v) = p(&rec.read_ns, 0.5) {
            rec.put("read_p50_ms", v);
        }
        for m in spec::END_TO_END {
            match rec.median(m.name) {
                Some(v) if v.is_finite() && v > 0.0 => metrics.push((m.name, v, m.unit)),
                other => {
                    correct = false;
                    notes.push(format!("{} was not measured ({other:?})", m.name));
                    metrics.push((m.name, 0.0, m.unit));
                }
            }
        }
    }
    for name in ["setup_s", "write_mib_s", "read_mib_s"] {
        if let Some(values) = rec.per_rep.get(name) {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            notes.push(format!("{name} samples: {}", shown.join(" ")));
        }
    }
    notes.push(format!(
        "{} reps, {} writes + {} reads timed{}",
        rec.reps,
        rec.write_ns.len() + rec.traced_write_ns.len(),
        rec.read_ns.len() + rec.traced_read_ns.len(),
        if trace { " (odd reps traced)" } else { "" }
    ));
    debug_assert!(
        rec.per_rep.keys().all(|k| spec::names_metric(k)),
        "a workload recorded a metric the spec does not name: {:?}",
        rec.per_rep.keys().collect::<Vec<_>>()
    );
    Ok(RunResult {
        workload: name.to_string(),
        seed,
        trace,
        correct,
        attempted: rec.attempted.max(1),
        failed: rec.failed,
        metrics,
        notes,
    })
}

fn print_table(r: &RunResult) {
    let why = spec::WORKLOADS
        .iter()
        .find(|w| w.name == r.workload)
        .map_or("", |w| w.why);
    println!("== {} (seed {}) — {}", r.workload, r.seed, why);
    println!(
        "   rig: 1 process, closed loop, {} client threads max, {} cores; tcp loopback x mmap x \
         fsync-off, {} providers, {} MiB page logs, 256 KiB pages, 1 MiB ops unless the workload \
         says otherwise",
        harness::CLIENTS,
        std::thread::available_parallelism().map_or(0, usize::from),
        harness::PROVIDERS,
        harness::log_capacity().unwrap_or(0) / MIB
    );
    for (name, value, unit) in &r.metrics {
        println!("   {name:<36} {value:>16.4} {unit}");
    }
    for note in &r.notes {
        println!("   note: {note}");
    }
    println!(
        "   {} of {} checks and ops failed: {}",
        r.failed,
        r.attempted,
        if r.correct { "correct" } else { "INCORRECT" }
    );
}

struct Args {
    flags: BTreeMap<String, Vec<String>>,
}

impl Args {
    /// `--flag value…` pairs; a flag's values run to the next `--flag`.
    fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut current: Option<String> = None;
        for arg in argv {
            if let Some(flag) = arg.strip_prefix("--") {
                flags.entry(flag.to_string()).or_default();
                current = Some(flag.to_string());
            } else {
                let flag = current
                    .as_ref()
                    .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
                flags.get_mut(flag).expect("flag was inserted").push(arg);
            }
        }
        Ok(Self { flags })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn one<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.flags.get(flag).map(Vec::as_slice) {
            None => Ok(None),
            Some([v]) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{flag}: cannot read `{v}`")),
            Some(_) => Err(format!("--{flag} takes one value")),
        }
    }
}

const USAGE: &str = "usage: benchmark --workload <name|all> --seed <n> [--seconds <s>] \
[--trace <0|1>] [--out <file>] | --compare <a.jsonl> <b.jsonl> | --stability [--runs <n>] | \
--emit-spec";

fn real_main() -> Result<bool, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    if args.has("emit-spec") {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    if let Some(files) = args.flags.get("compare") {
        let [a, b] = files.as_slice() else {
            return Err("--compare takes two set files".into());
        };
        return compare::compare_files(a, b);
    }
    if args.has("stability") {
        let runs = args.one::<u32>("runs")?.unwrap_or(10);
        let seconds = args
            .one::<f64>("seconds")?
            .unwrap_or(spec::RUN_SECONDS as f64);
        return compare::stability(runs, seconds);
    }

    let workload: String = args.one("workload")?.ok_or(USAGE)?;
    let seed: u64 = args.one("seed")?.unwrap_or(1);
    let seconds: f64 = args.one("seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    let trace = match args.one::<u8>("trace")? {
        // A bare `--trace` means the traced pass too.
        None => args.has("trace"),
        Some(v) => v != 0,
    };
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let names: Vec<&str> = if workload == "all" {
        spec::WORKLOADS.iter().map(|w| w.name).collect()
    } else if spec::WORKLOADS.iter().any(|w| w.name == workload) {
        vec![workload.as_str()]
    } else {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    };
    harness::check_free_space(2048 * MIB)?;
    harness::log_capacity()?;

    let mut all_correct = true;
    let mut lines = Vec::new();
    for name in names {
        let result = run_workload(name, seed, seconds, trace)?;
        print_table(&result);
        all_correct &= result.correct;
        lines.push(result.set_line());
        if workload != "all" {
            println!("{}", result.json());
        }
    }
    if let Some(out) = args.one::<String>("out")? {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .map_err(|e| format!("open {out}: {e}"))?;
        for line in &lines {
            writeln!(f, "{line}").map_err(|e| format!("write {out}: {e}"))?;
        }
    }
    if workload == "all" {
        for line in &lines {
            println!("{line}");
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}
