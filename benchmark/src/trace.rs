//! Instrument I1: spans recorded from outside the product.
//!
//! [`TracingTransport`] decorates the deployment's public
//! [`Transport`]; a [`crate::harness::Session`] built over it opens one
//! span per client operation and the decorator adds one child span per
//! transport call, tagged by method family. Spans stay in memory and are
//! written to `trace-<workload>.jsonl` when the run ends.
//!
//! A layer's *self time* is its span minus the part its children cover,
//! so for one operation `self + union(children) = duration` — checked,
//! not assumed, by [`analyse`].

use blobseer_proto::NodeId;
use blobseer_rpc::{Frame, Transport, TransportResult, METHOD_BATCH};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first span of the process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The kind of client operation an op span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// A `WRITE`.
    Write,
    /// A `READ`.
    Read,
}

impl OpKind {
    fn name(self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::Read => "read",
        }
    }
}

/// One recorded span. `op` is the identifier every span of one client
/// operation shares; `parent` is 0 for the op span itself.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub rep: u32,
    pub client: u32,
    /// `Some` for an op span.
    pub kind: Option<OpKind>,
    /// Wire method of a transport call (0 for an op span); for a batch
    /// frame, the method of its sub-frames.
    pub method: u16,
    /// Destination node of a transport call.
    pub to: u32,
    /// Logical calls carried (sub-frames of a batch; 1 otherwise).
    pub sub_calls: u32,
    pub req_bytes: u64,
    pub resp_bytes: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Layer name of a method family (`method >> 8`).
pub fn family_name(method: u16) -> &'static str {
    match method >> 8 {
        0x01 => "provider",
        0x02 => "manager",
        0x03 => "dht",
        0x04 => "version",
        _ => "other",
    }
}

/// One client's span sink. A client runs one operation at a time, so the
/// children recorded while `cur_op` is set belong to it — whichever
/// thread the product issues them from.
pub struct Tracer {
    client: u32,
    rep: u32,
    cur_op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(client: u32, rep: u32) -> Arc<Self> {
        Arc::new(Self {
            client,
            rep,
            cur_op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Open an op span; returns `(op id, start)`.
    pub fn begin(&self) -> (u64, u64) {
        let id = next_id();
        self.cur_op.store(id, Ordering::SeqCst);
        (id, now_ns())
    }

    /// Close the op span opened by [`Tracer::begin`].
    pub fn end(&self, id: u64, start_ns: u64, kind: OpKind, user_bytes: u64) {
        let end_ns = now_ns();
        self.cur_op.store(0, Ordering::SeqCst);
        self.push(Span {
            id,
            parent: 0,
            op: id,
            rep: self.rep,
            client: self.client,
            kind: Some(kind),
            method: 0,
            to: 0,
            sub_calls: 0,
            req_bytes: user_bytes,
            resp_bytes: 0,
            start_ns,
            end_ns,
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking client thread")
            .push(span);
    }

    /// Take every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span sink poisoned by a panicking client thread"),
        )
    }
}

/// The decorator: forwards every call, recording one span around it.
pub struct TracingTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl TracingTransport {
    pub fn new(inner: Arc<dyn Transport>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }
}

impl Transport for TracingTransport {
    fn call(&self, from: NodeId, to: NodeId, vt: u64, frame: Frame) -> TransportResult {
        let op = self.tracer.cur_op.load(Ordering::SeqCst);
        if op == 0 {
            // Outside any op span (warm-up, prefill, verification).
            return self.inner.call(from, to, vt, frame);
        }
        // Unbatch to tag the call with the method it carries and count
        // its logical sub-calls (segments are shared, no payload copy).
        let (method, sub_calls) = match frame.unbatch() {
            Some(Ok(subs)) => (
                subs.first().map_or(METHOD_BATCH, |f| f.method),
                subs.len() as u32,
            ),
            _ => (frame.method, 1),
        };
        let req_bytes = frame.wire_size() as u64;
        let start_ns = now_ns();
        let result = self.inner.call(from, to, vt, frame);
        let end_ns = now_ns();
        let resp_bytes = result.as_ref().map_or(0, |(f, _)| f.wire_size() as u64);
        self.tracer.push(Span {
            id: next_id(),
            parent: op,
            op,
            rep: self.tracer.rep,
            client: self.tracer.client,
            kind: None,
            method,
            to: to.0,
            sub_calls,
            req_bytes,
            resp_bytes,
            start_ns,
            end_ns,
        });
        result
    }
}

/// Per-method totals over the ops of one kind.
#[derive(Clone, Debug, Default)]
pub struct MethodAgg {
    /// Transport calls (real messages out).
    pub calls: u64,
    /// Logical calls carried.
    pub sub_calls: u64,
    /// Per logical call: call duration / sub-calls, µs.
    pub per_call_us: Vec<f64>,
}

/// What the spans of one op kind say.
#[derive(Clone, Debug, Default)]
pub struct KindAgg {
    pub ops: u64,
    pub dur_ns: Vec<u64>,
    pub self_ns: Vec<u64>,
    /// Σ child durations and Σ child unions (their ratio is the overlap).
    pub child_sum_ns: u64,
    pub child_union_ns: u64,
    pub calls: u64,
    pub wire_bytes: u64,
    pub user_bytes: u64,
    pub methods: BTreeMap<u16, MethodAgg>,
}

impl KindAgg {
    /// Transport calls of one family per op.
    pub fn family_calls_per_op(&self, family: u16) -> f64 {
        let calls: u64 = self
            .methods
            .iter()
            .filter(|(m, _)| *m >> 8 == family)
            .map(|(_, a)| a.calls)
            .sum();
        calls as f64 / self.ops.max(1) as f64
    }
}

/// Result of [`analyse`]: per-kind aggregates plus the self-check tally.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    pub kinds: BTreeMap<OpKind, KindAgg>,
    /// Self-check violations (must be empty).
    pub violations: Vec<String>,
}

/// Length of the union of `[start, end)` intervals (sorted in place).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Time inside `[start, end)` that no interval covers, walking the gaps
/// (computed independently of [`union_ns`] so the two can be checked
/// against each other). `intervals` must be sorted.
fn gaps_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut cursor = start;
    let mut gaps = 0;
    for &(s, e) in intervals {
        if s > cursor {
            gaps += s - cursor;
        }
        cursor = cursor.max(e);
    }
    gaps + end.saturating_sub(cursor)
}

/// Group spans by operation, compute self times and per-method
/// aggregates, and run the trace self-checks: children nest inside their
/// op span, self time is never negative, and self + union of children =
/// op duration.
pub fn analyse(spans: &[Span]) -> Analysis {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.kind.is_none()) {
        children.entry(s.op).or_default().push(s);
    }
    let mut out = Analysis::default();
    let mut violate = |msg: String| {
        if out.violations.len() < 8 {
            out.violations.push(msg);
        }
    };
    let mut kinds: BTreeMap<OpKind, KindAgg> = BTreeMap::new();
    for op in spans.iter() {
        let Some(kind) = op.kind else { continue };
        let agg = kinds.entry(kind).or_default();
        let kids = children.remove(&op.id).unwrap_or_default();
        let mut intervals = Vec::with_capacity(kids.len());
        for k in &kids {
            if k.start_ns < op.start_ns || k.end_ns > op.end_ns || k.end_ns < k.start_ns {
                violate(format!(
                    "span {} [{}, {}] does not nest in op {} [{}, {}]",
                    k.id, k.start_ns, k.end_ns, op.id, op.start_ns, op.end_ns
                ));
                continue;
            }
            intervals.push((k.start_ns, k.end_ns));
            let m = agg.methods.entry(k.method).or_default();
            m.calls += 1;
            m.sub_calls += u64::from(k.sub_calls);
            m.per_call_us
                .push(k.dur_ns() as f64 / 1e3 / f64::from(k.sub_calls.max(1)));
            agg.child_sum_ns += k.dur_ns();
            agg.wire_bytes += k.req_bytes + k.resp_bytes;
        }
        let union = union_ns(&mut intervals);
        let dur = op.dur_ns();
        if union > dur {
            violate(format!("op {}: children cover {union} ns of {dur}", op.id));
            continue;
        }
        let self_ns = gaps_ns(op.start_ns, op.end_ns, &intervals);
        if self_ns + union != dur {
            violate(format!(
                "op {}: self {self_ns} + union {union} != duration {dur}",
                op.id
            ));
        }
        agg.ops += 1;
        agg.dur_ns.push(dur);
        agg.self_ns.push(self_ns);
        agg.child_union_ns += union;
        agg.calls += kids.len() as u64;
        agg.user_bytes += op.req_bytes;
    }
    for (op, orphans) in children {
        violate(format!("{} spans name unknown op {op}", orphans.len()));
    }
    out.kinds = kinds;
    out
}

/// Write spans as JSON lines: one object per span, op spans and their
/// children alike, linked by `op` / `parent`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let name = match s.kind {
            Some(k) => k.name().to_string(),
            None => format!("{}.0x{:04x}", family_name(s.method), s.method),
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"rep\":{},\"client\":{},\"name\":\"{}\",\
             \"to\":{},\"sub_calls\":{},\"req_bytes\":{},\"resp_bytes\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.parent,
            s.op,
            s.rep,
            s.client,
            name,
            s.to,
            s.sub_calls,
            s.req_bytes,
            s.resp_bytes,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: u64, kind: OpKind, start: u64, end: u64) -> Span {
        Span {
            id,
            parent: 0,
            op: id,
            rep: 0,
            client: 0,
            kind: Some(kind),
            method: 0,
            to: 0,
            sub_calls: 0,
            req_bytes: 1024,
            resp_bytes: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    fn call(id: u64, parent: u64, method: u16, start: u64, end: u64, subs: u32) -> Span {
        Span {
            id,
            parent,
            op: parent,
            rep: 0,
            client: 0,
            kind: None,
            method,
            to: 3,
            sub_calls: subs,
            req_bytes: 10,
            resp_bytes: 20,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_union() {
        let spans = vec![
            call(11, 1, 0x0203, 100, 200, 1),
            call(12, 1, 0x0101, 300, 500, 4),
            call(13, 1, 0x0101, 400, 600, 2), // overlaps the previous call
            op(1, OpKind::Write, 0, 1000),
        ];
        let a = analyse(&spans);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        let w = &a.kinds[&OpKind::Write];
        assert_eq!(w.ops, 1);
        assert_eq!(w.child_union_ns, 100 + 300);
        assert_eq!(w.child_sum_ns, 100 + 200 + 200);
        assert_eq!(w.self_ns, vec![1000 - 400]);
        assert_eq!(w.methods[&0x0101].calls, 2);
        assert_eq!(w.methods[&0x0101].sub_calls, 6);
        assert_eq!(w.family_calls_per_op(0x01), 2.0);
        assert_eq!(w.wire_bytes, 90);
    }

    #[test]
    fn escaping_child_and_orphan_are_violations() {
        let spans = vec![
            call(11, 1, 0x0302, 900, 1100, 1),
            op(1, OpKind::Read, 0, 1000),
            call(21, 2, 0x0302, 0, 1, 1),
        ];
        let a = analyse(&spans);
        assert_eq!(a.violations.len(), 2, "{:?}", a.violations);
    }

    #[test]
    fn gaps_and_union_agree() {
        let mut iv = vec![(50, 60), (10, 20), (15, 30), (30, 40)];
        let u = union_ns(&mut iv);
        assert_eq!(u, 30 + 10);
        assert_eq!(gaps_ns(0, 100, &iv) + u, 100);
    }
}
