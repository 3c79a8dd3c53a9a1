//! PR 6 acceptance benchmark: connection scaling — the event-driven
//! reactor vs the thread-per-connection ablation.
//!
//! **Connection sweep**: for each regime, hold N established idle
//! connections (a re-executed child process owns the client side, so
//! this process's fd budget and RSS are the *server's*) while
//! measuring, per cell:
//!
//! * server RSS growth per connection (the C10K headline: the reactor
//!   pays a slab entry, the ablation pays a thread stack);
//! * server thread count (fixed for the reactor, `O(connections)` for
//!   the ablation);
//! * accept-to-first-byte latency of a fresh connection landing on the
//!   already-loaded server (the accept path must not degrade under
//!   held connections);
//! * throughput of an active echo mix riding over the same server
//!   (idle connections must cost the data path nothing).
//!
//! The reactor sweeps to 10,000 connections; the ablation is **capped
//! at 4,000** — a thread per connection at 10k is exactly the regime
//! the reactor exists to retire, and the cap is logged, not silent.
//! Asserted: at the largest common cell the reactor's per-connection
//! memory is strictly below thread-per-connection, and its thread
//! count does not grow with connections.
//!
//! **Write-parity leg**: the full distributed stack over loopback TCP
//! (reactor serving) writing 1 MiB segments. Asserted and emitted as
//! hard gate columns: exactly the one sanctioned copy per operation,
//! zero `Serializing` locks, one `VersionAssign` per write — the
//! multiplexed envelope-v2 client and the readiness loop must not cost
//! the wire discipline anything. The CI gate (`bench_gate`) then
//! catches quieter drifts against the committed `BENCH_PR6.json`.

use blobseer_bench::{measure_region, payload, MB};
use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_rpc::{
    parse_response, respond, Frame, ServerCtx, ServerMode, Service, TcpOptions, TcpTransport,
    Transport,
};
use blobseer_util::stats::Table;
use blobseer_util::{fdlimit, lockmeter};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Idle-connection cells per regime. The ablation stops at 4,000: one
/// OS thread per connection past that is the failure mode under study,
/// not a configuration anyone should run.
const REACTOR_CELLS: &[usize] = &[1_000, 4_000, 10_000];
const THREAD_CELLS: &[usize] = &[1_000, 4_000];
/// The largest cell both regimes run — where the memory comparison is
/// asserted.
const COMMON_CELL: usize = 4_000;

/// Fresh connections timed for accept-to-first-byte, per cell.
const PROBE_CONNS: usize = 32;
/// Active echo mix: concurrent in-process clients × calls each.
const ACTIVE_CLIENTS: usize = 8;
const ACTIVE_CALLS: u64 = 200;

/// Write-parity leg (mirrors the PR 5 shape, one cell).
const PAGE: u64 = 256 * 1024;
const SEG: u64 = 4 * PAGE; // 1 MiB per op
const WRITE_CLIENTS: usize = 8;
const OPS_PER_CLIENT: u64 = 4;
const PROVIDERS: usize = 4;

struct Echo;
impl Service for Echo {
    fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        respond(frame, |x: u64| Ok(x))
    }
}

fn proc_status(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"))
}

/// Resident set in bytes.
fn rss_bytes() -> u64 {
    proc_status("VmRSS:") * 1024
}

fn thread_count() -> u64 {
    proc_status("Threads:")
}

/// Child entry: dial `BLOBSEER_PR6_ADDR` `BLOBSEER_PR6_CONNS` times,
/// hold every connection idle, report READY, and keep holding until
/// stdin reaches EOF.
fn swarm(addr: &str, want: usize) {
    let _ = fdlimit::raise_soft_to_hard();
    let mut held: Vec<TcpStream> = Vec::with_capacity(want);
    let deadline = Instant::now() + Duration::from_secs(120);
    while held.len() < want {
        match TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "swarm stalled at {} conns: {e}",
                    held.len()
                );
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    println!("READY {}", held.len());
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    drop(held);
}

struct Cell {
    connections: usize,
    rss_per_conn: f64,
    threads_idle_load: u64,
    accept_first_byte_us: f64,
    active_calls_per_s: f64,
}

/// One sweep cell: spawn the swarm, wait for every connection to be
/// established server-side, measure, release.
fn run_cell(mode: ServerMode, conns: usize) -> Cell {
    let t = Arc::new(TcpTransport::with_options(TcpOptions {
        server_mode: mode,
        ..TcpOptions::default()
    }));
    let client = t.add_node();
    let server = t.add_node();
    t.bind(server, Arc::new(Echo));
    let addr = t.addr(server).expect("bound server");

    // Warm the client mux (dial its connection) before the RSS and
    // thread-count baselines.
    let (resp, _) = t
        .call(client, server, 0, Frame::from_msg(1, &1u64))
        .unwrap();
    assert_eq!(parse_response::<u64>(&resp).unwrap(), 1);
    std::thread::sleep(Duration::from_millis(100));
    let rss_before = rss_bytes();

    let exe = std::env::current_exe().expect("own binary");
    let mut child = std::process::Command::new(exe)
        .env("BLOBSEER_PR6_ADDR", addr.to_string())
        .env("BLOBSEER_PR6_CONNS", conns.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn swarm");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    loop {
        line.clear();
        let n = child_out.read_line(&mut line).expect("child stdout line");
        assert!(n > 0, "swarm exited before READY");
        if line.contains("READY") {
            break;
        }
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while t.active_connections() < conns {
        assert!(
            Instant::now() < deadline,
            "only {}/{conns} connections established",
            t.active_connections()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let rss_load = rss_bytes();
    let threads_idle_load = thread_count();

    // Accept-to-first-byte: a fresh connection landing on the loaded
    // server, timed from connect() to the first response byte.
    let mut probe_us = Vec::with_capacity(PROBE_CONNS);
    for i in 0..PROBE_CONNS {
        let start = Instant::now();
        let mut s = TcpStream::connect(addr).expect("probe connect");
        let req = blobseer_rpc::encode_wire_frame(1, 0, &Frame::from_msg(1, &(i as u64)))
            .expect("encode probe");
        s.write_all(&req).expect("probe write");
        let (corr, _, frame) = blobseer_rpc::read_wire_frame(&mut s).expect("probe response");
        probe_us.push(start.elapsed().as_secs_f64() * 1e6);
        assert_eq!(corr, 1);
        assert_eq!(parse_response::<u64>(&frame).unwrap(), i as u64);
    }
    probe_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let accept_first_byte_us = probe_us[probe_us.len() / 2];

    // Active mix: multiplexed in-process clients echoing through the
    // same server while every idle connection stays parked.
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..ACTIVE_CLIENTS {
            let t = Arc::clone(&t);
            scope.spawn(move || {
                for i in 0..ACTIVE_CALLS {
                    let (resp, _) = t
                        .call(client, server, 0, Frame::from_msg(1, &i))
                        .expect("active echo under idle load");
                    assert_eq!(parse_response::<u64>(&resp).unwrap(), i);
                }
            });
        }
    });
    let active_calls_per_s =
        (ACTIVE_CLIENTS as u64 * ACTIVE_CALLS) as f64 / start.elapsed().as_secs_f64();

    // Release the swarm before the transport: the held connections
    // drain as EOFs, not as teardown races.
    drop(child.stdin.take());
    let status = child.wait().expect("reap swarm");
    assert!(status.success(), "swarm child failed: {status}");

    Cell {
        connections: conns,
        rss_per_conn: rss_load.saturating_sub(rss_before) as f64 / conns as f64,
        threads_idle_load,
        accept_first_byte_us,
        active_calls_per_s,
    }
}

fn run_sweep(mode: ServerMode, cells: &[usize], cap: usize) -> Vec<Cell> {
    cells
        .iter()
        .filter(|&&c| c <= cap)
        .map(|&c| {
            let cell = run_cell(mode, c);
            println!(
                "  {mode:?} @ {c}: {:.0} B/conn, {} threads, first-byte {:.0}us, {:.0} calls/s",
                cell.rss_per_conn,
                cell.threads_idle_load,
                cell.accept_first_byte_us,
                cell.active_calls_per_s
            );
            cell
        })
        .collect()
}

struct WriteParity {
    mib_s: f64,
    copied_per_op: f64,
    ser_per_op: f64,
    va_per_op: f64,
}

/// The distributed write path over the reactor transport: same copy and
/// lock promises PR 1–5 made, now under the readiness loop.
fn run_write_parity() -> WriteParity {
    let d = Arc::new(Deployment::build(DeploymentConfig::functional_tcp(
        PROVIDERS,
    )));
    let setup = d.client();
    let mut ctx = blobseer_rpc::Ctx::start();
    let region = SEG * OPS_PER_CLIENT;
    let total = (region * WRITE_CLIENTS as u64).next_power_of_two();
    let blob = setup.alloc(&mut ctx, total, PAGE).unwrap().blob;
    let clients: Vec<_> = (0..WRITE_CLIENTS)
        .map(|_| {
            let c = d.client();
            c.info(&mut ctx, blob).unwrap();
            c
        })
        .collect();

    let locks = lockmeter::snapshot();
    let m = measure_region(|| {
        std::thread::scope(|scope| {
            for (t, c) in clients.into_iter().enumerate() {
                scope.spawn(move || {
                    let mut ctx = blobseer_rpc::Ctx::start();
                    let data = payload(SEG, t as u64);
                    let base = region * t as u64;
                    for i in 0..OPS_PER_CLIENT {
                        c.write(&mut ctx, blob, base + i * SEG, &data).unwrap();
                    }
                });
            }
        });
    });
    let d_locks = locks.since();
    let ops = (WRITE_CLIENTS as u64 * OPS_PER_CLIENT) as f64;
    WriteParity {
        mib_s: ops * SEG as f64 / MB as f64 / m.secs,
        copied_per_op: m.bytes_copied as f64 / ops,
        ser_per_op: d_locks.serializing as f64 / ops,
        va_per_op: d_locks.version_assign as f64 / ops,
    }
}

fn json_cells(cells: &[Cell]) -> String {
    let entries: Vec<String> = cells
        .iter()
        .map(|c| {
            format!(
                "{{\"connections\": {}, \"rss_bytes_per_conn\": {:.0}, \"threads\": {}, \
                 \"accept_to_first_byte_us\": {:.1}, \"active_calls_per_s\": {:.0}}}",
                c.connections,
                c.rss_per_conn,
                c.threads_idle_load,
                c.accept_first_byte_us,
                c.active_calls_per_s
            )
        })
        .collect();
    format!("[{}]", entries.join(", "))
}

fn main() {
    // Swarm child?
    if let Ok(addr) = std::env::var("BLOBSEER_PR6_ADDR") {
        let want: usize = std::env::var("BLOBSEER_PR6_CONNS")
            .expect("conn count")
            .parse()
            .expect("numeric conn count");
        swarm(&addr, want);
        return;
    }

    let hard = fdlimit::raise_soft_to_hard().unwrap_or(1024);
    // The parent holds the server side of every swarm connection; leave
    // headroom for probes, the mux, and the harness itself.
    let cap = (hard as usize).saturating_sub(2_000);
    assert!(
        cap >= THREAD_CELLS[0],
        "fd hard limit {hard} too small for the connection sweep"
    );
    println!("pr6 reactor benchmark: connection sweep (fd budget {cap}) + write parity");
    if cap < *REACTOR_CELLS.last().unwrap() {
        println!("  NOTE: fd limit caps the sweep below the full 10k cell");
    }
    println!(
        "  NOTE: thread-per-connection sweeps only to {} by design (one OS thread per \
         connection past that is the regime under indictment)",
        THREAD_CELLS.last().unwrap()
    );

    println!("-- regime: reactor (event loops + dispatch pool)");
    let reactor = run_sweep(ServerMode::Reactor, REACTOR_CELLS, cap);
    println!("-- regime: thread-per-connection (ablation)");
    let thread = run_sweep(ServerMode::ThreadPerConn, THREAD_CELLS, cap);

    // The acceptance claims, asserted at the largest common cell.
    let r = reactor
        .iter()
        .find(|c| c.connections == COMMON_CELL)
        .expect("reactor common cell");
    let t = thread
        .iter()
        .find(|c| c.connections == COMMON_CELL)
        .expect("thread common cell");
    assert!(
        r.rss_per_conn < t.rss_per_conn,
        "reactor must hold a connection cheaper than a thread: {:.0} vs {:.0} B/conn",
        r.rss_per_conn,
        t.rss_per_conn
    );
    assert!(
        t.threads_idle_load as usize >= COMMON_CELL,
        "ablation sanity: a thread per connection ({} threads at {COMMON_CELL} conns)",
        t.threads_idle_load
    );
    let fixed = reactor.iter().map(|c| c.threads_idle_load).max().unwrap();
    assert!(
        fixed < 64,
        "reactor thread count must not scale with connections (saw {fixed})"
    );
    let mem_ratio = r.rss_per_conn / t.rss_per_conn.max(f64::MIN_POSITIVE);

    let mut table = Table::new(&[
        "regime",
        "conns",
        "B/conn",
        "threads",
        "first-byte us",
        "calls/s",
    ]);
    for (name, cells) in [("reactor", &reactor), ("thread", &thread)] {
        for c in cells {
            table.row(&[
                name.to_string(),
                c.connections.to_string(),
                format!("{:.0}", c.rss_per_conn),
                c.threads_idle_load.to_string(),
                format!("{:.0}", c.accept_first_byte_us),
                format!("{:.0}", c.active_calls_per_s),
            ]);
        }
    }
    blobseer_bench::emit(
        "pr6_sweep",
        "PR6 connection sweep, reactor vs thread-per-connection",
        &table,
    );

    println!("-- write parity over the reactor transport");
    let w = run_write_parity();
    assert!(
        (w.copied_per_op - SEG as f64).abs() < 1.0,
        "write parity: copies/op {} != sanctioned {SEG}",
        w.copied_per_op
    );
    assert!(
        w.ser_per_op < 0.01,
        "write parity: {} serializing locks/op on the lock-free plane",
        w.ser_per_op
    );
    // At most one sanctioned acquisition per write: the PR 10 grant
    // protocol may batch concurrent assignments below 1, never above.
    assert!(
        w.va_per_op > 0.0 && w.va_per_op <= 1.01,
        "write parity: {} VersionAssign locks/op (sanctioned: <= 1)",
        w.va_per_op
    );
    println!(
        "write parity: {:.1} MiB/s, {:.0} copied/op, {:.2} ser/op, {:.2} va/op",
        w.mib_s, w.copied_per_op, w.ser_per_op, w.va_per_op
    );

    let json = format!(
        "{{\n  \"bench\": \"pr6_reactor\",\n  \"transport\": \"tcp-loopback\",\n  \
         \"common_cell\": {COMMON_CELL},\n  \"sweep\": {{\"reactor\": {}, \"thread_per_conn\": {}}},\n  \
         \"reactor_over_thread_memory_ratio\": {mem_ratio:.3},\n  \
         \"write_parity\": {{\"segment_bytes\": {SEG}, \"clients\": {WRITE_CLIENTS}, \
         \"mib_s\": {:.2}, \"bytes_copied_per_op\": {:.0}, \"serializing_locks_per_op\": {:.2}, \
         \"version_assign_locks_per_op\": {:.2}}}\n}}\n",
        json_cells(&reactor),
        json_cells(&thread),
        w.mib_s,
        w.copied_per_op,
        w.ser_per_op,
        w.va_per_op,
    );
    std::fs::write("BENCH_PR6.json", &json).expect("write BENCH_PR6.json");
    println!("(json written to BENCH_PR6.json)");
}
