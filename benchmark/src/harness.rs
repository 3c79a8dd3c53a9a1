//! The fixed rig and the measuring loop shared by every workload.
//!
//! Rig (recorded in every result): one load-generator process, closed
//! loop — each client thread sends its next operation only after the
//! previous one returned, because `BlobClient` calls are synchronous.
//! The canonical cell is loopback TCP × mmap page logs × fsync off,
//! 8 storage nodes, 256 MiB page logs, default `TcpOptions`; `cache_nodes`
//! is per workload.

use crate::stats;
use crate::trace::{OpKind, Span, Tracer, TracingTransport};
use blobseer_core::{BackendKind, BlobClient, Deployment, DeploymentConfig, TransportKind};
use blobseer_proto::{BlobError, BlobId, Segment, Version};
use blobseer_rpc::{Ctx, RpcClient};
use blobseer_util::{copymeter, lockmeter};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Storage nodes of the canonical cell.
pub const PROVIDERS: usize = 8;
/// Closed-loop client threads (this box has 2 cores).
pub const CLIENTS: usize = 2;
pub const KIB: u64 = 1024;
pub const MIB: u64 = 1024 * 1024;
/// Page size of the canonical cell.
pub const PAGE: u64 = 256 * KIB;
/// Operation size of the canonical cell.
pub const SEG: u64 = MIB;

/// Where run outputs (durable roots while a rep runs, trace files) go:
/// `results/benchmark/` under the working directory, which the
/// repository's `.gitignore` already names.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results").join("benchmark")
}

/// Refuse to start when the file system under the results directory
/// cannot hold a rep's page logs (each rep writes well under 1 GiB and
/// removes it when it ends).
pub fn check_free_space(min_bytes: u64) -> Result<(), String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let out = match std::process::Command::new("df")
        .arg("-Pk")
        .arg(&dir)
        .output()
    {
        Ok(out) if out.status.success() => out,
        // No `df` here: the first write reports a full disk instead.
        _ => return Ok(()),
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let avail_kib = text
        .lines()
        .nth(1)
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|f| f.parse::<u64>().ok());
    match avail_kib {
        Some(kib) if kib * KIB < min_bytes => Err(format!(
            "{} has {} MiB free; the benchmark needs {} MiB for its page logs",
            dir.display(),
            kib / KIB,
            min_bytes / MIB
        )),
        _ => Ok(()),
    }
}

/// Capacity of one provider's page log. The product extends every log
/// file sparsely to its capacity up front, and the `functional_*` default
/// is 4 GiB — which a host with a file-size limit (`ulimit -f`) answers
/// with SIGXFSZ. No rep puts more than ~100 MiB on one provider.
pub const LOG_CAPACITY: u64 = 256 * MIB;
/// Below this the traced `ingest` rep no longer fits its providers.
const LOG_CAPACITY_MIN: u64 = 128 * MIB;

/// The soft file-size limit of this process, when it has one.
fn file_size_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max file size"))?;
    // "Max file size  <soft>  <hard>  bytes"; "unlimited" does not parse.
    line.split_whitespace().nth(3)?.parse().ok()
}

/// [`LOG_CAPACITY`], or the file-size limit (in whole MiB) where that is
/// lower; an error where the limit leaves too little for the workloads.
pub fn log_capacity() -> Result<u64, String> {
    let capacity = file_size_limit().map_or(LOG_CAPACITY, |l| l.min(LOG_CAPACITY) / MIB * MIB);
    if capacity < LOG_CAPACITY_MIN {
        return Err(format!(
            "the file-size limit allows page logs of {} MiB; the benchmark needs {} MiB (ulimit -f)",
            capacity / MIB,
            LOG_CAPACITY_MIN / MIB
        ));
    }
    Ok(capacity)
}

/// A durable root inside the working directory, removed on drop.
struct DataRoot(PathBuf);

impl DataRoot {
    fn create() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = results_dir().join("data").join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("create the rep's durable root");
        Self(dir)
    }
}

impl Drop for DataRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One deployment of the rig. Field order matters: the deployment (and
/// its mappings, sockets and threads) goes before its files do.
pub struct Rig {
    pub d: Deployment,
    _root: Option<DataRoot>,
}

impl Rig {
    /// The canonical cell with a `cache_nodes`-entry metadata cache.
    pub fn canonical(cache_nodes: usize) -> Self {
        let cfg = DeploymentConfig::functional_tcp(PROVIDERS)
            .tune()
            .backend(BackendKind::Mmap)
            .provider_capacity(log_capacity().expect("checked when the run started"))
            .cache_nodes(cache_nodes)
            .build();
        let root = DataRoot::create();
        let d = Deployment::build_at(cfg, &root.0);
        Self {
            d,
            _root: Some(root),
        }
    }

    /// The paper's cost model on the simulated cluster (memory backend).
    pub fn grid5000() -> Self {
        Self {
            d: Deployment::build(DeploymentConfig::grid5000(PROVIDERS)),
            _root: None,
        }
    }
}

/// A client faithful to `Deployment::client()` but over the tracing
/// decorator — hand-built through public constructors only.
fn traced_client(d: &Deployment, tracer: Arc<Tracer>) -> BlobClient {
    let node = d.cluster.add_node();
    let transport = Arc::new(TracingTransport::new(d.cluster.transport(), tracer));
    let rpc = RpcClient::new(transport, node).with_aggregation(d.config.aggregation);
    let mut client = BlobClient::new(
        rpc,
        d.vm_node,
        d.pm_node,
        Arc::clone(&d.ring),
        d.config.client_costs,
        d.meta_cache.clone(),
        d.config.replication,
    )
    .with_version_nodes(d.vm_nodes.clone())
    .with_retry_policy(d.config.retry);
    if let Some(heat) = &d.heat {
        client = client.with_heat(Arc::clone(heat));
    }
    client
}

/// Sums over the successful timed ops of a client, or of a region's
/// clients.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sums {
    pub write_bytes: u64,
    pub read_bytes: u64,
    /// Virtual-time totals of the timed ops (the sim's own clock).
    pub write_vt_ns: u64,
    pub read_vt_ns: u64,
    pub nodes_built: u64,
    pub nodes_visited: u64,
    /// Σ `WriteStats` stages: plan, pages, ticket, meta, publish.
    pub write_stage_ns: [u64; 5],
    /// Σ `ReadStats` stages: latest, meta, data (only `read_vec` fills
    /// them; `read` assembles into the caller's buffer).
    pub read_stage_ns: [u64; 3],
}

impl Sums {
    fn add(&mut self, other: &Sums) {
        self.write_bytes += other.write_bytes;
        self.read_bytes += other.read_bytes;
        self.write_vt_ns += other.write_vt_ns;
        self.read_vt_ns += other.read_vt_ns;
        self.nodes_built += other.nodes_built;
        self.nodes_visited += other.nodes_visited;
        for (sum, ns) in self.write_stage_ns.iter_mut().zip(other.write_stage_ns) {
            *sum += ns;
        }
        for (sum, ns) in self.read_stage_ns.iter_mut().zip(other.read_stage_ns) {
            *sum += ns;
        }
    }
}

/// What one client measured.
#[derive(Default)]
pub struct Samples {
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    pub sums: Sums,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Samples {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 4 {
            self.errors.push(msg);
        }
    }

    /// Delivered rate of one op kind: bytes over the time the client
    /// spent inside those ops (payload generation and verification sit
    /// between ops, outside every timer).
    pub fn mib_s(bytes: u64, busy_ns: &[u64]) -> f64 {
        let busy: u64 = busy_ns.iter().sum();
        if busy == 0 {
            return 0.0;
        }
        bytes as f64 / MIB as f64 / (busy as f64 / 1e9)
    }
}

/// One closed-loop client: a `BlobClient`, its clock, and its samples.
pub struct Session {
    pub client: BlobClient,
    pub ctx: Ctx,
    tracer: Option<Arc<Tracer>>,
    /// On the simulated cell an operation's latency is the virtual time it
    /// took — the paper's cost model, which is what a user of that cluster
    /// would wait. (The wall clock there times only this host's CPU, and a
    /// shared host's single-thread speed swings by a third.)
    virtual_clock: bool,
    pub samples: Samples,
}

impl Session {
    /// Client `id` of rep `rep`; traced sessions run over the decorator.
    pub fn new(d: &Deployment, traced: bool, id: u32, rep: u32) -> Self {
        let tracer = traced.then(|| Tracer::new(id, rep));
        let client = match &tracer {
            Some(t) => traced_client(d, Arc::clone(t)),
            None => d.client(),
        };
        Self {
            client,
            ctx: Ctx::start(),
            tracer,
            virtual_clock: d.config.transport == TransportKind::Sim,
            samples: Samples::default(),
        }
    }

    /// Run one client operation inside its op span. Returns its result,
    /// its latency on the session's clock, and the virtual time it took.
    fn timed<T>(
        &mut self,
        kind: OpKind,
        user_bytes: u64,
        op: impl FnOnce(&BlobClient, &mut Ctx) -> Result<T, BlobError>,
    ) -> (Result<T, BlobError>, u64, u64) {
        self.samples.attempted += 1;
        let span = self.tracer.as_ref().map(|t| t.begin());
        let vt0 = self.ctx.vt;
        let t0 = Instant::now();
        let res = op(&self.client, &mut self.ctx);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some((id, start))) = (&self.tracer, span) {
            t.end(id, start, kind, user_bytes);
        }
        let vt_ns = self.ctx.vt - vt0;
        let ns = if self.virtual_clock { vt_ns } else { wall_ns };
        (res, ns, vt_ns)
    }

    /// A timed `WRITE` of `data` at `offset` (the paper's signature: the
    /// one sanctioned copy of the caller's buffer is part of the op). A
    /// refused or failed write counts against `failed` and yields no
    /// latency sample.
    pub fn write(&mut self, blob: BlobId, offset: u64, data: &[u8]) -> Option<Version> {
        let len = data.len() as u64;
        let (res, ns, vt_ns) = self.timed(OpKind::Write, len, |client, ctx| {
            client.write_with_stats(ctx, blob, offset, data)
        });
        match res {
            Ok((version, stats)) => {
                self.samples.write_ns.push(ns);
                self.samples.sums.add(&Sums {
                    write_bytes: len,
                    write_vt_ns: vt_ns,
                    nodes_built: stats.nodes_built,
                    write_stage_ns: [
                        stats.plan_ns,
                        stats.pages_ns,
                        stats.ticket_ns,
                        stats.meta_ns,
                        stats.publish_ns,
                    ],
                    ..Sums::default()
                });
                Some(version)
            }
            Err(e) => {
                self.samples
                    .fail(format!("write at {offset} (+{len}): {e:?}"));
                None
            }
        }
    }

    fn read_done(&mut self, seg: Segment, ns: u64, vt_ns: u64) {
        self.samples.read_ns.push(ns);
        self.samples.sums.read_bytes += seg.size;
        self.samples.sums.read_vt_ns += vt_ns;
    }

    fn read_failed(&mut self, seg: Segment, e: &BlobError) {
        self.samples
            .fail(format!("read at {} (+{}): {e:?}", seg.offset, seg.size));
    }

    /// A timed latest-version `READ` of `seg` into `out`.
    pub fn read(&mut self, blob: BlobId, seg: Segment, out: &mut [u8]) -> Option<Version> {
        let (res, ns, vt_ns) = self.timed(OpKind::Read, seg.size, |client, ctx| {
            client.read_into(ctx, blob, None, seg, out)
        });
        match res {
            Ok(version) => {
                self.read_done(seg, ns, vt_ns);
                Some(version)
            }
            Err(e) => {
                self.read_failed(seg, &e);
                None
            }
        }
    }

    /// A timed `READ` returning a fresh buffer and the latest published
    /// version — the paper's `READ` signature, with the product's own
    /// stage breakdown.
    pub fn read_vec(
        &mut self,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Option<(Vec<u8>, Version)> {
        let (res, ns, vt_ns) = self.timed(OpKind::Read, seg.size, |client, ctx| {
            client.read_with_stats(ctx, blob, version, seg)
        });
        match res {
            Ok((data, latest, stats)) => {
                self.read_done(seg, ns, vt_ns);
                self.samples.sums.add(&Sums {
                    nodes_visited: stats.nodes_visited,
                    read_stage_ns: [stats.latest_ns, stats.meta_ns, stats.data_ns],
                    ..Sums::default()
                });
                Some((data, latest))
            }
            Err(e) => {
                self.read_failed(seg, &e);
                None
            }
        }
    }

    /// Record an output check; wrong bytes turn the op they belong to
    /// into a failed one.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(msg) = outcome {
            self.samples.fail(msg);
        }
    }

    /// Hand over the samples gathered so far (and the spans, if traced).
    pub fn take(&mut self) -> (Samples, Vec<Span>) {
        let spans = self.tracer.as_ref().map_or_else(Vec::new, |t| t.drain());
        (std::mem::take(&mut self.samples), spans)
    }
}

/// Run `body(i, session)` on one thread per session, closed loop, and
/// hand the sessions back. A panicking client thread aborts the run.
pub fn run_clients<F>(sessions: &mut [Session], body: F)
where
    F: Fn(usize, &mut Session) + Sync,
{
    std::thread::scope(|scope| {
        for (i, session) in sessions.iter_mut().enumerate() {
            let body = &body;
            scope.spawn(move || body(i, session));
        }
    });
}

/// Instrument I3: the product's public counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub copied_bytes: u64,
    pub serializing_locks: u64,
    pub version_assign_locks: u64,
    pub messages: u64,
    pub wire_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Page-log bytes of the serving generations (headers and markers
    /// included) — from `ProviderStats`, not the sparse file length.
    pub page_log_bytes: u64,
    pub logical_bytes: u64,
    pub dead_bytes: u64,
    pub meta_journal_bytes: u64,
    pub version_journal_bytes: u64,
    pub background_compactions: u64,
}

/// The lock meters only expose growth since a snapshot; one taken before
/// the first operation of the process turns them into plain counters.
fn locks_since_start() -> lockmeter::LockCounts {
    static START: OnceLock<lockmeter::LockSnapshot> = OnceLock::new();
    START.get_or_init(lockmeter::snapshot).since()
}

impl Counters {
    pub fn sample(d: &Deployment) -> Self {
        let locks = locks_since_start();
        let (cache_hits, cache_misses) = d.meta_cache.as_ref().map_or((0, 0), |c| c.stats());
        let mut c = Counters {
            copied_bytes: copymeter::bytes_copied(),
            serializing_locks: locks.serializing,
            version_assign_locks: locks.version_assign,
            messages: d.cluster.message_count(),
            wire_bytes: d.cluster.byte_count(),
            cache_hits,
            cache_misses,
            version_journal_bytes: d.vms.iter().map(|vm| vm.log_bytes()).sum(),
            ..Counters::default()
        };
        for node in &d.storage {
            let data = node.data();
            let stats = data.stats();
            c.page_log_bytes += stats.reserved_bytes();
            c.logical_bytes += stats.bytes;
            c.dead_bytes += stats.dead_bytes;
            c.background_compactions += data.background_compactions();
            c.meta_journal_bytes += node.meta().log_bytes();
        }
        c
    }

    /// Everything the cluster holds on behalf of its users. (The
    /// simulated cell keeps pages on the heap and journals nothing: there
    /// the logical bytes are all that is stored.)
    pub fn stored_bytes(&self) -> u64 {
        match self.page_log_bytes + self.meta_journal_bytes + self.version_journal_bytes {
            0 => self.logical_bytes,
            logged => logged,
        }
    }

    /// Growth since `earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            copied_bytes: self.copied_bytes - earlier.copied_bytes,
            serializing_locks: self.serializing_locks - earlier.serializing_locks,
            version_assign_locks: self.version_assign_locks - earlier.version_assign_locks,
            messages: self.messages - earlier.messages,
            wire_bytes: self.wire_bytes - earlier.wire_bytes,
            // A cluster restart swaps in a fresh cache; gauges can shrink.
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            page_log_bytes: self.page_log_bytes.saturating_sub(earlier.page_log_bytes),
            logical_bytes: self.logical_bytes.saturating_sub(earlier.logical_bytes),
            dead_bytes: self.dead_bytes.saturating_sub(earlier.dead_bytes),
            meta_journal_bytes: self
                .meta_journal_bytes
                .saturating_sub(earlier.meta_journal_bytes),
            version_journal_bytes: self
                .version_journal_bytes
                .saturating_sub(earlier.version_journal_bytes),
            background_compactions: self.background_compactions - earlier.background_compactions,
        }
    }
}

/// Parameters of one run.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    started: Instant,
}

impl RunCfg {
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            started: Instant::now(),
        }
    }

    /// Reps are whole units of fixed work; keep starting new ones until
    /// the measuring time is used up. A traced run needs one untraced
    /// and one traced rep for the overhead ratio.
    pub fn more_reps(&self, done: u32) -> bool {
        let min = if self.trace { 2 } else { 1 };
        done < min || self.started.elapsed().as_secs_f64() < self.seconds
    }

    /// In a traced run odd reps go over the tracing decorator and even
    /// reps over `Deployment::client()`, so both sides see the same
    /// work.
    pub fn rep_is_traced(&self, rep: u32) -> bool {
        self.trace && rep % 2 == 1
    }
}

/// Everything a run gathers, rep by rep.
#[derive(Default)]
pub struct Recorder {
    pub reps: u32,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Pooled op latencies of the untraced reps.
    pub write_ns: Vec<u64>,
    pub read_ns: Vec<u64>,
    /// Pooled op latencies of the traced reps.
    pub traced_write_ns: Vec<u64>,
    pub traced_read_ns: Vec<u64>,
    /// Per-rep values; the run reports their median.
    pub per_rep: BTreeMap<&'static str, Vec<f64>>,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// One per-rep sample of metric `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.per_rep.entry(name).or_default().push(value);
    }

    /// Median over reps of `name` (`None` when never recorded).
    pub fn median(&self, name: &str) -> Option<f64> {
        self.per_rep.get(name).and_then(|v| stats::median(v))
    }

    fn note_error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// An output check that belongs to no single timed client op.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            self.note_error(msg);
        }
    }

    /// Count a client's attempts and failures, leaving its latencies to
    /// the caller.
    pub fn tally(&mut self, samples: &mut Samples) {
        self.attempted += samples.attempted;
        self.failed += samples.failed;
        for e in samples.errors.drain(..) {
            self.note_error(e);
        }
    }

    /// Fold the sessions of one measured region into the run: pooled
    /// latencies, and per-kind delivered MiB/s summed over the clients.
    pub fn absorb(&mut self, sessions: &mut [Session], traced: bool) -> RegionTotals {
        let mut totals = RegionTotals::default();
        for s in sessions {
            let (mut samples, spans) = s.take();
            self.tally(&mut samples);
            totals.write_mib_s += Samples::mib_s(samples.sums.write_bytes, &samples.write_ns);
            totals.read_mib_s += Samples::mib_s(samples.sums.read_bytes, &samples.read_ns);
            totals.writes += samples.write_ns.len() as u64;
            totals.reads += samples.read_ns.len() as u64;
            totals.sums.add(&samples.sums);
            if traced {
                self.traced_write_ns.extend(samples.write_ns);
                self.traced_read_ns.extend(samples.read_ns);
            } else {
                self.write_ns.extend(samples.write_ns);
                self.read_ns.extend(samples.read_ns);
            }
            self.spans.extend(spans);
        }
        totals
    }
}

/// One measured region: op counts, delivered rates summed over its
/// clients, and their sums.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegionTotals {
    pub writes: u64,
    pub reads: u64,
    pub write_mib_s: f64,
    pub read_mib_s: f64,
    pub sums: Sums,
}

/// Time `f`, in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The trace file of one workload.
pub fn trace_path(workload: &str) -> PathBuf {
    results_dir().join(format!("trace-{workload}.jsonl"))
}
