//! The event-driven server engine: N readiness loops + a bounded
//! dispatch pool.
//!
//! Each loop owns a slab of nonblocking listeners and connections and
//! blocks in [`Poller::wait`]. A connection's lifecycle never leaves
//! its loop; the only cross-thread traffic is the command injector
//! (listener registration from `bind`, completions from the dispatch
//! pool) drained after each wakeup.
//!
//! Where a handler runs is decided per decoded frame, by its method:
//! one the service declares [`Service::nonblocking`] (for a batch: all
//! of them) runs right in `read_conn` and its response is queued and
//! flushed in the same readiness event — one wake-up of this loop per
//! call, none of a worker. It holds neither a pool slot nor the
//! connection's in-flight budget, so it is exempt from both
//! backpressure rules below, and it may overtake an earlier pooled call
//! on its socket; what bounds it is fairness — at most
//! `max_conn_inflight` such answers per readiness event, then the loop
//! turns to its other connections. Every other frame is a [`Job`] for the dispatch pool
//! and comes back as a [`Cmd::Complete`], which costs the worker's
//! wake-up and a second one of this loop. Both paths run the handler
//! through [`run_handler`](super::run_handler) — same `alive` checks
//! before and after, same virtual-time and `held` plumbing, same
//! `catch_unwind` — and answer through the same `respond`.
//!
//! Invariants carried across partial readiness:
//!
//! * **Reads** accumulate the 4-byte length prefix, then the wire body,
//!   into one buffer per frame across any number of readiness events;
//!   the length is validated against [`MAX_WIRE_FRAME`] before the
//!   body is allocated, and decode lends payload ranges out of that
//!   one buffer by refcount.
//! * **Writes** go through [`write_frame_from`]: gather-written from
//!   the response's segment chain, mapped pages of at least
//!   [`SENDFILE_MIN`](super::send::SENDFILE_MIN) by `sendfile`. A
//!   partial write leaves a segment cursor on the connection and the
//!   next writable event resumes from that segment — page bytes are
//!   never copied to resume.
//! * **Backpressure**: a connection whose in-flight budget is spent, or
//!   that hits a full dispatch queue, parks one decoded frame and drops
//!   its read interest; it resumes when a completion (or the periodic
//!   tick) finds pool room. The kernel socket buffer — not an unbounded
//!   user-space queue — absorbs the client's enthusiasm.
//! * **Shedding**: fd exhaustion at `accept` drops the listener's
//!   reserve fd, accepts the waiting connection, writes it a
//!   [`CTRL_SHED`](super::CTRL_SHED) frame and closes it. If even that
//!   fails the listener's interest is parked briefly instead of
//!   busy-spinning a level-triggered loop.
//!
//! Completions for a connection that died meanwhile are dropped by an
//! epoch check (slab slots are reused; epochs are not).

use super::{
    encode_head, run_handler, write_frame_from, FrameCursor, Held, Shared, TcpOptions, CTRL_CORR,
    CTRL_SHED, ENVELOPE_FIXED, ENVELOPE_LEN_BYTES, MAX_WIRE_FRAME, SHED_RETRY_HINT_MS, WIRE_HEAD,
};
use crate::frame::{Frame, MAX_FRAME_BODY};
use crate::service::Service;
use blobseer_proto::wire::ByteChain;
use parking_lot::{Condvar, Mutex};
use polling::Poller;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Loop wakeup granularity: the ceiling on how stale a timeout sweep,
/// paused-listener re-arm, or queue-full retry can be.
const TICK: Duration = Duration::from_millis(50);

pub(crate) enum Cmd {
    Listen {
        listener: TcpListener,
        svc: Arc<dyn Service>,
        alive: Arc<AtomicBool>,
    },
    Complete {
        token: usize,
        epoch: u64,
        corr: u64,
        vt: u64,
        frame: Frame,
        /// Request state pinned past the handler (admission permits);
        /// dropped when the response has been fully written — or the
        /// connection dies first.
        held: Held,
    },
    Close {
        token: usize,
        epoch: u64,
    },
}

/// The server engine handle owned by the transport.
pub(crate) struct Reactor {
    loops: Vec<LoopHandle>,
    pool: Arc<DispatchPool>,
    next: AtomicUsize,
}

struct LoopHandle {
    poller: Arc<Poller>,
    injector: Arc<Mutex<Vec<Cmd>>>,
    handle: Option<JoinHandle<()>>,
}

impl Reactor {
    /// Start the event loops and the dispatch pool. Fails only if a
    /// readiness poller cannot be created (the process is out of file
    /// descriptors); `bind` then panics, as it does on a listener that
    /// cannot bind.
    pub(crate) fn start(opts: &TcpOptions, shared: Arc<Shared>) -> io::Result<Reactor> {
        let n = opts.event_loops.max(1);
        // Create every poller first: no threads to unwind on failure.
        let mut pollers = Vec::with_capacity(n);
        for _ in 0..n {
            pollers.push(Arc::new(Poller::new()?));
        }
        let pool = DispatchPool::start(opts.dispatch_threads.max(1), opts.dispatch_queue.max(1));
        let loops = pollers
            .into_iter()
            .map(|poller| {
                let injector = Arc::new(Mutex::new(Vec::new()));
                let env = LoopEnv {
                    poller: Arc::clone(&poller),
                    injector: Arc::clone(&injector),
                    pool: Arc::clone(&pool),
                    shared: Arc::clone(&shared),
                    io_timeout: opts.io_timeout,
                    max_conn_inflight: opts.max_conn_inflight.max(1),
                    max_connections: opts.max_connections,
                };
                let handle = std::thread::spawn(move || run_loop(env));
                LoopHandle {
                    poller,
                    injector,
                    handle: Some(handle),
                }
            })
            .collect();
        Ok(Reactor {
            loops,
            pool,
            next: AtomicUsize::new(0),
        })
    }

    /// Hand a listener (and its service) to the next loop round-robin.
    pub(crate) fn add_listener(
        &self,
        listener: TcpListener,
        svc: Arc<dyn Service>,
        alive: Arc<AtomicBool>,
    ) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.loops.len();
        let lp = &self.loops[i];
        lp.injector.lock().push(Cmd::Listen {
            listener,
            svc,
            alive,
        });
        let _ = lp.poller.notify();
    }

    /// Join every loop and worker. The caller must have set the shared
    /// shutdown flag first.
    pub(crate) fn stop(&mut self) {
        for lp in &self.loops {
            let _ = lp.poller.notify();
        }
        for lp in &mut self.loops {
            if let Some(h) = lp.handle.take() {
                let _ = h.join();
            }
        }
        self.pool.stop();
    }
}

// ---------------------------------------------------------------------
// Dispatch pool
// ---------------------------------------------------------------------

/// One decoded request travelling to the dispatch pool and back (as a
/// [`Cmd::Complete`] through the owning loop's injector).
pub(crate) struct Job {
    svc: Arc<dyn Service>,
    alive: Arc<AtomicBool>,
    token: usize,
    epoch: u64,
    corr: u64,
    vt: u64,
    frame: Frame,
    injector: Arc<Mutex<Vec<Cmd>>>,
    poller: Arc<Poller>,
}

impl Job {
    fn run(self) {
        let cmd = if self.alive.load(Ordering::Acquire) {
            let (vt, frame, held) = run_handler(self.svc.as_ref(), self.vt, &self.frame);
            Cmd::Complete {
                token: self.token,
                epoch: self.epoch,
                corr: self.corr,
                vt,
                frame,
                held,
            }
        } else {
            // Node died before the handler ran: close without response.
            Cmd::Close {
                token: self.token,
                epoch: self.epoch,
            }
        };
        self.injector.lock().push(cmd);
        let _ = self.poller.notify();
    }
}

/// Fixed worker threads draining a bounded queue. `try_submit` never
/// blocks — a full queue is the caller's signal to backpressure.
pub(crate) struct DispatchPool {
    q: Mutex<VecDeque<Job>>,
    cv: Condvar,
    cap: usize,
    shutdown: AtomicBool,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl DispatchPool {
    fn start(threads: usize, cap: usize) -> Arc<DispatchPool> {
        let pool = Arc::new(DispatchPool {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap,
            shutdown: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = pool.workers.lock();
        for _ in 0..threads {
            let p = Arc::clone(&pool);
            workers.push(std::thread::spawn(move || p.work()));
        }
        drop(workers);
        pool
    }

    fn try_submit(&self, job: Job) -> Result<(), Job> {
        let mut q = self.q.lock();
        if q.len() >= self.cap {
            return Err(job);
        }
        q.push_back(job);
        drop(q);
        self.cv.notify_one();
        Ok(())
    }

    /// Room in the queue right now (cheap pre-check for retries).
    fn has_room(&self) -> bool {
        self.q.lock().len() < self.cap
    }

    fn work(&self) {
        loop {
            let job = {
                let mut q = self.q.lock();
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(job) = q.pop_front() {
                        break job;
                    }
                    self.cv.wait(&mut q);
                }
            };
            job.run();
        }
    }

    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cv.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock());
        for h in workers {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------

struct LoopEnv {
    poller: Arc<Poller>,
    injector: Arc<Mutex<Vec<Cmd>>>,
    pool: Arc<DispatchPool>,
    shared: Arc<Shared>,
    io_timeout: Option<Duration>,
    max_conn_inflight: usize,
    max_connections: usize,
}

enum Slot {
    Free,
    Listener(Lst),
    Conn(Box<Conn>),
}

struct Lst {
    listener: TcpListener,
    svc: Arc<dyn Service>,
    alive: Arc<AtomicBool>,
    /// Dropped and re-opened to accept-then-shed under fd exhaustion.
    reserve: Option<File>,
    /// Interest parked until this instant after a failed shed cycle
    /// (prevents a level-triggered busy-spin on persistent EMFILE).
    paused_until: Option<Instant>,
}

struct Outgoing {
    head: [u8; WIRE_HEAD],
    body: ByteChain,
    /// Dropped when this response has been fully written (see
    /// [`Cmd::Complete::held`]) — the admission permit's release point.
    /// Never read; it exists for its `Drop`.
    _held: Held,
}

struct Conn {
    stream: TcpStream,
    svc: Arc<dyn Service>,
    alive: Arc<AtomicBool>,
    epoch: u64,
    // -- read accumulator (survives partial readiness) --
    head: [u8; ENVELOPE_LEN_BYTES],
    head_got: usize,
    body: Vec<u8>,
    body_len: usize,
    reading_body: bool,
    // -- write queue (partial-write resume) --
    out: VecDeque<Outgoing>,
    /// How far the front of `out` has been written.
    written: FrameCursor,
    // -- dispatch state --
    inflight: usize,
    /// One decoded-but-undispatched frame held under backpressure.
    pending: Option<(u64, u64, Frame)>,
    paused: bool,
    // -- bookkeeping --
    want_r: bool,
    want_w: bool,
    last_activity: Instant,
}

enum Verdict {
    Keep,
    Close,
}

fn run_loop(env: LoopEnv) {
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut next_epoch: u64 = 1;
    let mut events: Vec<polling::Event> = Vec::new();
    let mut last_sweep = Instant::now();
    loop {
        events.clear();
        let _ = env.poller.wait(&mut events, Some(TICK));
        if env.shared.shutdown.load(Ordering::SeqCst) {
            teardown(&env, &mut slots);
            return;
        }
        let cmds: Vec<Cmd> = std::mem::take(&mut *env.injector.lock());
        for cmd in cmds {
            match cmd {
                Cmd::Listen {
                    listener,
                    svc,
                    alive,
                } => add_listener_slot(&env, &mut slots, &mut free, listener, svc, alive),
                Cmd::Complete {
                    token,
                    epoch,
                    corr,
                    vt,
                    frame,
                    held,
                } => complete(
                    &env, &mut slots, &mut free, token, epoch, corr, vt, frame, held,
                ),
                Cmd::Close { token, epoch } => {
                    if conn_epoch(&slots, token) == Some(epoch) {
                        close_conn(&env, &mut slots, &mut free, token);
                    }
                }
            }
        }
        let evs = std::mem::take(&mut events);
        for ev in &evs {
            dispatch_event(&env, &mut slots, &mut free, &mut next_epoch, ev);
        }
        events = evs;
        if last_sweep.elapsed() >= TICK {
            sweep(&env, &mut slots, &mut free, &mut next_epoch);
            last_sweep = Instant::now();
        }
    }
}

fn teardown(env: &LoopEnv, slots: &mut Vec<Slot>) {
    for slot in slots.drain(..) {
        match slot {
            Slot::Conn(conn) => {
                let _ = env.poller.delete(conn.stream.as_raw_fd());
                env.shared.conns.fetch_sub(1, Ordering::Relaxed);
            }
            Slot::Listener(lst) => {
                let _ = env.poller.delete(lst.listener.as_raw_fd());
            }
            Slot::Free => {}
        }
    }
}

fn alloc_slot(slots: &mut Vec<Slot>, free: &mut Vec<usize>, s: Slot) -> usize {
    if let Some(i) = free.pop() {
        slots[i] = s;
        i
    } else {
        slots.push(s);
        slots.len() - 1
    }
}

fn conn_epoch(slots: &[Slot], token: usize) -> Option<u64> {
    match slots.get(token) {
        Some(Slot::Conn(c)) => Some(c.epoch),
        _ => None,
    }
}

fn add_listener_slot(
    env: &LoopEnv,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
    listener: TcpListener,
    svc: Arc<dyn Service>,
    alive: Arc<AtomicBool>,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let fd = listener.as_raw_fd();
    let token = alloc_slot(
        slots,
        free,
        Slot::Listener(Lst {
            listener,
            svc,
            alive,
            reserve: open_reserve_fd(),
            paused_until: None,
        }),
    );
    if env.poller.add(fd, token, true, false).is_err() {
        slots[token] = Slot::Free;
        free.push(token);
    }
}

fn close_conn(env: &LoopEnv, slots: &mut [Slot], free: &mut Vec<usize>, token: usize) {
    if let Slot::Conn(conn) = &slots[token] {
        let _ = env.poller.delete(conn.stream.as_raw_fd());
        env.shared.conns.fetch_sub(1, Ordering::Relaxed);
        slots[token] = Slot::Free;
        free.push(token);
    }
}

fn dispatch_event(
    env: &LoopEnv,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
    next_epoch: &mut u64,
    ev: &polling::Event,
) {
    let token = ev.key;
    match slots.get(token) {
        Some(Slot::Listener(_)) => accept_ready(env, slots, free, next_epoch, token),
        Some(Slot::Conn(_)) => {
            let verdict = {
                let Slot::Conn(conn) = &mut slots[token] else {
                    // lint: allow(panic-on-serving-path) — the outer match just
                    // proved this slot is a Conn; nothing reindexes in between
                    unreachable!()
                };
                conn_event(env, conn, token, ev.readable, ev.writable)
            };
            finish_conn_event(env, slots, free, token, verdict);
        }
        _ => {}
    }
}

fn finish_conn_event(
    env: &LoopEnv,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    token: usize,
    verdict: Verdict,
) {
    match verdict {
        Verdict::Close => close_conn(env, slots, free, token),
        Verdict::Keep => {
            let ok = {
                let Slot::Conn(conn) = &mut slots[token] else {
                    return;
                };
                update_interest(env, conn, token)
            };
            if !ok {
                close_conn(env, slots, free, token);
            }
        }
    }
}

/// Re-register the connection's interest when it changed: read unless
/// backpressured, write while the out-queue is nonempty.
fn update_interest(env: &LoopEnv, conn: &mut Conn, token: usize) -> bool {
    let want_r = !conn.paused;
    let want_w = !conn.out.is_empty();
    if (want_r, want_w) == (conn.want_r, conn.want_w) {
        return true;
    }
    if env
        .poller
        .modify(conn.stream.as_raw_fd(), token, want_r, want_w)
        .is_err()
    {
        return false;
    }
    conn.want_r = want_r;
    conn.want_w = want_w;
    true
}

fn conn_event(
    env: &LoopEnv,
    conn: &mut Conn,
    token: usize,
    readable: bool,
    writable: bool,
) -> Verdict {
    if writable {
        if let Verdict::Close = flush_conn(conn) {
            return Verdict::Close;
        }
    }
    if readable {
        if let Verdict::Close = read_conn(env, conn, token) {
            return Verdict::Close;
        }
    }
    Verdict::Keep
}

/// Drain the out-queue as far as the socket allows, resuming the front
/// message at its cursor (no payload copies).
fn flush_conn(conn: &mut Conn) -> Verdict {
    while let Some(front) = conn.out.front() {
        let before = conn.written;
        let res = write_frame_from(&conn.stream, &front.head, &front.body, &mut conn.written);
        if conn.written != before {
            conn.last_activity = Instant::now();
        }
        match res {
            Ok(()) => {
                // Dropping the response releases what it held.
                conn.out.pop_front();
                conn.written = FrameCursor::default();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(_) => return Verdict::Close,
        }
    }
    Verdict::Keep
}

/// Read until the socket runs dry or backpressure parks the
/// connection, accumulating at most one partial frame across calls.
fn read_conn(env: &LoopEnv, conn: &mut Conn, token: usize) -> Verdict {
    // Handlers this readiness event may still run on the loop before it
    // moves on: a peer that never lets its socket run dry must not keep
    // the loop from its other connections. Level-triggered polling
    // reports whatever is left unread again.
    let mut inline_budget = env.max_conn_inflight;
    loop {
        if conn.paused {
            return Verdict::Keep;
        }
        if !conn.reading_body {
            while conn.head_got < ENVELOPE_LEN_BYTES {
                match (&conn.stream).read(&mut conn.head[conn.head_got..]) {
                    // EOF: clean at a frame boundary, abrupt otherwise —
                    // either way the conversation is over.
                    Ok(0) => return Verdict::Close,
                    Ok(n) => {
                        conn.head_got += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
                    Err(_) => return Verdict::Close,
                }
            }
            // Validate the peer-controlled length in the u64 domain,
            // then narrow with a checked conversion — never a cast.
            let declared = u64::from(u32::from_le_bytes(conn.head));
            if declared < ENVELOPE_FIXED as u64 || declared > MAX_WIRE_FRAME {
                // Hostile or corrupt length: close before allocating.
                return Verdict::Close;
            }
            let Ok(len) = usize::try_from(declared) else {
                return Verdict::Close;
            };
            // Spare capacity, filled by the kernel without zeroing first.
            conn.body = Vec::with_capacity(len);
            conn.body_len = len;
            conn.reading_body = true;
        }
        while conn.body.len() < conn.body_len {
            let had = conn.body.len();
            let remaining = (conn.body_len - had) as u64;
            // Bytes read before a `WouldBlock` stay in `body`; the next
            // readiness event resumes after them.
            let res = (&conn.stream).take(remaining).read_to_end(&mut conn.body);
            if conn.body.len() > had {
                conn.last_activity = Instant::now();
            }
            match res {
                // The socket reached EOF before the frame was complete.
                Ok(_) if conn.body.len() < conn.body_len => return Verdict::Close,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
                Err(_) => return Verdict::Close,
            }
        }
        // Frame complete: decode (lend-on-decode) and dispatch.
        conn.reading_body = false;
        conn.head_got = 0;
        let body = std::mem::take(&mut conn.body);
        let Ok((corr, vt, frame)) = super::decode_wire_body(body) else {
            return Verdict::Close;
        };
        if !conn.alive.load(Ordering::Acquire) {
            return Verdict::Close;
        }
        if runs_inline(conn.svc.as_ref(), &frame) {
            // Answered here and now: no pool slot, no in-flight budget,
            // and it may overtake an earlier pooled call on this socket.
            let (done, resp, held) = run_handler(conn.svc.as_ref(), vt, &frame);
            if let Verdict::Close = respond(conn, corr, done, resp, held) {
                return Verdict::Close;
            }
            inline_budget -= 1;
            if inline_budget == 0 {
                return Verdict::Keep;
            }
        } else {
            submit_or_stash(env, conn, token, corr, vt, frame);
        }
    }
}

/// Whether a decoded frame is answered on the event loop: every handler
/// it reaches — for a batch, every sub-frame's — is one its service
/// declares [`Service::nonblocking`]. Anything else goes to the dispatch
/// pool whole. (A corrupt batch reaches no handler at all.)
fn runs_inline(svc: &dyn Service, frame: &Frame) -> bool {
    match frame.unbatch() {
        None => svc.nonblocking(frame.method),
        Some(Ok(subframes)) => subframes.iter().all(|f| runs_inline(svc, f)),
        Some(Err(_)) => true,
    }
}

/// Hand a decoded frame to the dispatch pool, or park it (and the
/// connection's reads) when the connection's in-flight budget or the
/// pool queue is full.
fn submit_or_stash(env: &LoopEnv, conn: &mut Conn, token: usize, corr: u64, vt: u64, frame: Frame) {
    if conn.inflight >= env.max_conn_inflight {
        conn.pending = Some((corr, vt, frame));
        conn.paused = true;
        return;
    }
    let job = Job {
        svc: Arc::clone(&conn.svc),
        alive: Arc::clone(&conn.alive),
        token,
        epoch: conn.epoch,
        corr,
        vt,
        frame,
        injector: Arc::clone(&env.injector),
        poller: Arc::clone(&env.poller),
    };
    match env.pool.try_submit(job) {
        Ok(()) => conn.inflight += 1,
        Err(job) => {
            conn.pending = Some((job.corr, job.vt, job.frame));
            conn.paused = true;
        }
    }
}

/// Try to dispatch a parked frame; unpauses the connection on success.
fn retry_pending(env: &LoopEnv, conn: &mut Conn, token: usize) {
    if !conn.paused || conn.inflight >= env.max_conn_inflight || !env.pool.has_room() {
        return;
    }
    if let Some((corr, vt, frame)) = conn.pending.take() {
        conn.paused = false;
        submit_or_stash(env, conn, token, corr, vt, frame);
    }
}

/// A handler finished — on a dispatch worker or right here on the loop:
/// queue its response on the connection and push bytes out
/// opportunistically.
fn respond(conn: &mut Conn, corr: u64, vt: u64, frame: Frame, held: Held) -> Verdict {
    if !conn.alive.load(Ordering::Acquire) {
        // Died during the call: close without a response.
        return Verdict::Close;
    }
    if frame.body.len() as u64 > MAX_FRAME_BODY {
        return Verdict::Close;
    }
    let head = encode_head(corr, vt, frame.method, frame.body.len());
    conn.out.push_back(Outgoing {
        head,
        body: frame.body,
        _held: held,
    });
    flush_conn(conn)
}

/// A dispatch worker finished: answer on the owning connection (if the
/// epoch still matches) and give its freed in-flight slot to a parked
/// frame.
#[allow(clippy::too_many_arguments)]
fn complete(
    env: &LoopEnv,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    token: usize,
    epoch: u64,
    corr: u64,
    vt: u64,
    frame: Frame,
    held: Held,
) {
    let verdict = {
        let Some(Slot::Conn(conn)) = slots.get_mut(token) else {
            return;
        };
        if conn.epoch != epoch {
            return;
        }
        conn.inflight = conn.inflight.saturating_sub(1);
        let v = respond(conn, corr, vt, frame, held);
        if matches!(v, Verdict::Keep) {
            retry_pending(env, conn, token);
        }
        v
    };
    finish_conn_event(env, slots, free, token, verdict);
}

/// Accept every waiting connection on a readable listener; apply the
/// connection cap and the fd-exhaustion shed protocol.
fn accept_ready(
    env: &LoopEnv,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
    next_epoch: &mut u64,
    token: usize,
) {
    let mut fresh: Vec<TcpStream> = Vec::new();
    {
        let Slot::Listener(lst) = &mut slots[token] else {
            return;
        };
        if lst.paused_until.is_some_and(|t| t > Instant::now()) {
            return;
        }
        loop {
            match lst.listener.accept() {
                Ok((stream, _)) => {
                    if env.shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    if env.max_connections > 0
                        && env.shared.conns.load(Ordering::Relaxed) + fresh.len()
                            >= env.max_connections
                    {
                        shed_connection(stream, &env.shared);
                        continue;
                    }
                    fresh.push(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_fd_exhaustion(&e) => {
                    // Free the reserve fd, accept the waiting connection,
                    // shed it with a typed close, re-arm the reserve.
                    lst.reserve = None;
                    let shed = match lst.listener.accept() {
                        Ok((stream, _)) => {
                            shed_connection(stream, &env.shared);
                            true
                        }
                        Err(_) => false,
                    };
                    lst.reserve = open_reserve_fd();
                    if !shed || lst.reserve.is_none() {
                        // Could not even shed: park the listener briefly
                        // so a level-triggered poller does not spin.
                        lst.paused_until = Some(Instant::now() + TICK);
                        let _ = env
                            .poller
                            .modify(lst.listener.as_raw_fd(), token, false, false);
                        break;
                    }
                }
                Err(_) => {
                    // Transient (ECONNABORTED and friends): park briefly
                    // rather than risk spinning on a persistent error.
                    lst.paused_until = Some(Instant::now() + TICK);
                    let _ = env
                        .poller
                        .modify(lst.listener.as_raw_fd(), token, false, false);
                    break;
                }
            }
        }
    }
    let (svc, alive) = {
        let Slot::Listener(lst) = &slots[token] else {
            return;
        };
        (Arc::clone(&lst.svc), Arc::clone(&lst.alive))
    };
    for stream in fresh {
        install_conn(
            env,
            slots,
            free,
            next_epoch,
            stream,
            Arc::clone(&svc),
            Arc::clone(&alive),
        );
    }
}

/// `EMFILE`/`ENFILE`: the process or system is out of file descriptors.
fn is_fd_exhaustion(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// Shed a just-accepted connection with a typed close: best-effort
/// write of the [`CTRL_SHED`] control frame, then drop.
fn shed_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let head = encode_head(CTRL_CORR, SHED_RETRY_HINT_MS, CTRL_SHED, 0);
    let _ = (&stream).write_all(&head);
    shared.sheds.fetch_add(1, Ordering::Relaxed);
}

/// Open the per-listener reserve fd used to accept-then-shed under fd
/// exhaustion.
fn open_reserve_fd() -> Option<File> {
    File::open("/dev/null").ok()
}

fn install_conn(
    env: &LoopEnv,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
    next_epoch: &mut u64,
    stream: TcpStream,
    svc: Arc<dyn Service>,
    alive: Arc<AtomicBool>,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let fd = stream.as_raw_fd();
    let epoch = *next_epoch;
    *next_epoch += 1;
    let conn = Box::new(Conn {
        stream,
        svc,
        alive,
        epoch,
        head: [0u8; ENVELOPE_LEN_BYTES],
        head_got: 0,
        body: Vec::new(),
        body_len: 0,
        reading_body: false,
        out: VecDeque::new(),
        written: FrameCursor::default(),
        inflight: 0,
        pending: None,
        paused: false,
        want_r: true,
        want_w: false,
        last_activity: Instant::now(),
    });
    let token = alloc_slot(slots, free, Slot::Conn(conn));
    if env.poller.add(fd, token, true, false).is_err() {
        slots[token] = Slot::Free;
        free.push(token);
        return;
    }
    env.shared.conns.fetch_add(1, Ordering::Relaxed);
}

/// Periodic pass: re-arm parked listeners, retry parked dispatches, and
/// time out connections stalled mid-frame or not draining responses.
/// Connections idle at a frame boundary (and slow handlers that have
/// not produced output yet) are exempt — idleness is not a fault.
fn sweep(env: &LoopEnv, slots: &mut Vec<Slot>, free: &mut Vec<usize>, next_epoch: &mut u64) {
    let now = Instant::now();
    for token in 0..slots.len() {
        match &mut slots[token] {
            Slot::Listener(lst) => {
                if lst.paused_until.is_some_and(|t| t <= now) {
                    lst.paused_until = None;
                    let _ = env
                        .poller
                        .modify(lst.listener.as_raw_fd(), token, true, false);
                    accept_ready(env, slots, free, next_epoch, token);
                }
            }
            Slot::Conn(conn) => {
                let was_paused = conn.paused;
                retry_pending(env, conn, token);
                let stalled = if let Some(t) = env.io_timeout {
                    let mid_read = conn.head_got > 0 || conn.reading_body;
                    let undrained = !conn.out.is_empty();
                    (mid_read || undrained) && !conn.paused && conn.last_activity.elapsed() > t
                } else {
                    false
                };
                if stalled {
                    close_conn(env, slots, free, token);
                } else if was_paused != conn.paused {
                    let ok = update_interest(env, conn, token);
                    if !ok {
                        close_conn(env, slots, free, token);
                    }
                }
            }
            Slot::Free => {}
        }
    }
}
