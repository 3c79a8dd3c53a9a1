//! Real TCP transport: an event-driven reactor server and multiplexed
//! client connections, designed for C10K-scale populations.
//!
//! The first version of this transport (PR 3) spawned one OS thread per
//! live connection and checked one pooled socket out per in-flight call
//! — correct, but the thread and fd populations grew linearly with the
//! client count, collapsing the transport long before the data path
//! does. This version serves every connection from a **fixed thread
//! count** and carries many in-flight calls on **one** socket:
//!
//! * **Server = reactor.** [`TcpOptions::event_loops`] nonblocking
//!   event loops (an `epoll(7)` readiness loop on Linux via the local
//!   `polling` shim, `poll(2)` elsewhere on unix) own every accepted
//!   connection, and a bounded dispatch pool of
//!   [`TcpOptions::dispatch_threads`] workers runs the [`Service`]
//!   handlers that may block — a slow handler occupies a pool slot,
//!   never an event loop. A handler that **cannot** block — its service
//!   says so per method, [`Service::nonblocking`]: a page get, a
//!   metadata get, `latest`, a write plan — is answered by the event
//!   loop itself, in the readiness event that brought the request: no
//!   pool slot, no in-flight budget, no wake-up of a worker and none of
//!   the loop for the completion, and it may overtake an earlier pooled
//!   call on the same socket (correlation ids allow that). A batch runs
//!   on the loop only if every sub-call may; everything that appends,
//!   commits, lingers or can queue keeps the pool, and so does any
//!   service that does not say (the default is `false`). When the pool
//!   or a connection's in-flight budget is full the connection's read
//!   interest is parked (backpressure), not buffered without bound. A
//!   handler that panics costs its own call a typed
//!   [`BlobError::Internal`] — never the worker or the loop it ran on.
//! * **Client = multiplexing, and the waiters read.** Each destination
//!   keeps a small set of connections (at most
//!   [`TcpOptions::max_pooled_per_peer`]); a call picks the least-loaded
//!   live one and registers a per-call completion slot under a fresh
//!   **correlation id**. There is no reader thread: a caller waiting for
//!   its response takes its connection's **read role** if it is free,
//!   receives frames itself and routes each to its slot by correlation
//!   id; it leaves the role when its own slot is filled and nudges the
//!   connection's other waiters so that one of them takes over. A caller
//!   that finds the role taken parks on its slot. So any number of calls
//!   share a socket concurrently — other threads' calls and, within one
//!   burst, the caller's own (below) — and the usual call, alone on
//!   its connection, is woken exactly once, by its own reply. A
//!   connection error fails *every* call in flight on it with the same
//!   typed error, never a hang.
//! * **Thread census.** `event_loops + dispatch_threads` server threads
//!   per transport, whatever the connection count; **zero** client
//!   threads. One call blocks two threads once each when its handler
//!   runs on the loop (the caller, the loop) and four when it runs on
//!   the pool (plus the worker, plus the loop again for the completion)
//!   — `rpc/tests/handoffs.rs` counts them, and `rpc/tests/c10k.rs`
//!   holds the reactor to a fixed thread count and a bound on resident
//!   bytes per connection.
//!
//! # A burst is pipelined, not threaded
//!
//! A call is three steps: **register** a completion slot under a fresh
//! correlation id, **gather-write** the frame, then **read or park** —
//! wait on the connection until the slot is filled, as its reader or
//! behind it. A [`Burst`](crate::Burst) splits them: each message runs
//! the first two the moment it is sent ([`Transport::flight`]) and the
//! third only when the caller waits for it, so every call a burst has
//! sent is on the wire while the caller works or waits for the first
//! response. A **late frame** — sent after the caller's clock moved —
//! is no different: it pipelines on the connections the burst holds
//! instead of dialing beside them, which a second burst opened beside
//! this one would have to, since these connections are busy until read.
//! Whoever holds a connection's read role fills its slots in whatever
//! order the server answers — the burst's own later slots included,
//! which it simply finds filled when it reaches them; and while it reads
//! one connection, the replies on the others wait in their sockets. No
//! thread is spawned per client or per burst, no frame is copied, and
//! `call` is the same code with one frame. The rules:
//!
//! * **Faults stay per call.** A frame that cannot be sent (codec
//!   refusal, dead or shedding destination, reset mid-write), late or
//!   not, fails its own call; every slot submitted before and after it
//!   is still awaited — when the burst is dropped unfinished, by an
//!   early return or a panic, too — so nothing is stranded and nothing
//!   hangs. A connection error still fails every call in flight *on that
//!   connection* — with its typed error, `Overload` hint included.
//! * **What a burst does to the pool.** A burst's first message to a
//!   destination picks its connection by the single-call rule
//!   (least-loaded live connection if it is idle or the pool is at its
//!   cap; otherwise dial, outside the pool lock). The burst then *holds*
//!   that connection: its further calls to the same destination, late
//!   frames included, pipeline on it, up to
//!   [`TcpOptions::max_conn_inflight`] deep, instead of reading their own
//!   earlier calls as "busy" and dialing a socket each. A 16-call
//!   unaggregated burst to one node uses one connection; two client
//!   threads bursting at one node use two.
//! * **Order.** Frames to one destination leave in send order on one
//!   connection; responses may complete in any order, each into its own
//!   slot.
//!
//! # Wire envelope (v2)
//!
//! ```text
//! [len u32][corr u64][vt u64][method u16][body_len u32][body ...]
//!  0     4         12       20         22            26
//! ```
//!
//! `len` counts everything after itself (`corr` through body, the
//! 22-byte fixed part + body). The **correlation id** is echoed verbatim
//! by the server so responses can arrive out of order; id `0`
//! ([`CTRL_CORR`]) is reserved for connection-control frames — today
//! only [`CTRL_SHED`], sent when a server sheds a connection under fd
//! pressure (see below). Everything else about the frame discipline is
//! unchanged from PR 3 and survives partial readiness:
//!
//! * **Send is gather-write, and mapped pages leave by `sendfile`.** A
//!   frame leaves as the 26-byte envelope followed by the body's
//!   [`ByteChain`](blobseer_proto::wire::ByteChain) segments — no
//!   flattening memcpy. A mapped segment of at least 128 KiB (a page
//!   served from a provider's log) goes by `sendfile(2)` from the log
//!   file; everything else via `write_vectored`. Partial writes resume
//!   from a per-connection segment cursor (`send::write_frame_from`).
//! * **Receive is lend-on-decode.** Each inbound frame accumulates into
//!   a single buffer across however many readiness events it takes,
//!   then decodes with [`Reader::from_buf`] so page payloads come out
//!   as refcounted slices of the receive buffer.
//! * **Corrupt bytes are errors, never panics.** Envelope and body
//!   length prefixes are capped ([`MAX_WIRE_FRAME`] /
//!   [`crate::frame::MAX_FRAME_BODY`]) before any allocation.
//!
//! # Overload and fd exhaustion
//!
//! Accepting under `EMFILE`/`ENFILE` sheds the **newest** connection
//! with a typed close instead of sleep-looping: each listener holds one
//! reserve fd (`/dev/null`); on fd exhaustion it drops the reserve,
//! accepts the waiting connection, writes it a [`CTRL_SHED`] control
//! frame, closes it, and re-opens the reserve. Clients surface a shed
//! as [`BlobError::Overload`] — the notice's retry-after hint intact —
//! on every call in flight on that connection; established connections
//! are never sacrificed for new ones.
//! [`TcpOptions::max_connections`] applies the same shed path at a
//! deterministic threshold (fault tests use this).
//!
//! # Error taxonomy
//!
//! | failure                                   | surfaced as                 |
//! |-------------------------------------------|-----------------------------|
//! | connect refused / timeout                 | [`BlobError::Unreachable`]  |
//! | peer closed mid-frame, short read/write   | [`BlobError::Unreachable`]  |
//! | I/O timeout (peer accepted, never replied)| [`BlobError::Unreachable`]  |
//! | connection shed by the server             | [`BlobError::Overload`]     |
//! | handler panicked                          | [`BlobError::Internal`]     |
//! | corrupt envelope or frame bytes           | [`BlobError::Codec`]        |
//! | body above the frame cap (send or recv)   | [`BlobError::Codec`]        |
//! | response with an unknown correlation id   | [`BlobError::Codec`]        |
//!
//! A connection that fails (including a stray correlation id — the
//! stream framing can no longer be trusted) is dropped, all its
//! in-flight calls resolve with the typed error, and the next call
//! reconnects. That holds for a connection that fails while *idle*, too,
//! though nobody is reading it: bytes arrive only for registered calls,
//! so a pooled connection with nothing in flight that is readable (an
//! EOF, a shed notice, anything) is never healthy — checkout probes for
//! that with one zero-timeout `poll(2)`, takes what is there through the
//! ordinary receive path, and dials afresh; no error surfaces. Virtual
//! time still flows (the envelope carries `vt` and
//! handlers may charge), but wall-clock time is real — TCP deployments
//! use zero-cost models and measure with real clocks.

use crate::frame::{Frame, MAX_FRAME_BODY};
use crate::service::{dispatch_frame, error_frame, ServerCtx, Service};
use blobseer_proto::wire::{Reader, Wire};
use blobseer_proto::{BlobError, CodecError, NodeId, PageBuf};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::transport::{Flight, Transport, TransportResult};

mod mux;
mod reactor;
mod send;

use mux::{CallSlot, MuxConn, PoolMap};
use send::{write_frame_from, FrameCursor};

/// Envelope length-prefix bytes.
pub(crate) const ENVELOPE_LEN_BYTES: usize = 4;
/// Bytes covered by the envelope length besides the frame body:
/// correlation id (8) + virtual time (8) + method (2) + body length (4).
pub(crate) const ENVELOPE_FIXED: usize = 8 + 8 + 2 + 4;
/// Whole wire head: length prefix + fixed envelope.
pub(crate) const WIRE_HEAD: usize = ENVELOPE_LEN_BYTES + ENVELOPE_FIXED;

/// Sanity cap on one whole wire frame (envelope fixed part + body):
/// anything larger is rejected before allocation, on both sides.
pub const MAX_WIRE_FRAME: u64 = MAX_FRAME_BODY + ENVELOPE_FIXED as u64;

/// Correlation id reserved for connection-control frames; never
/// assigned to a call.
pub const CTRL_CORR: u64 = 0;
/// Control method: the server is shedding this connection (fd
/// exhaustion or the [`TcpOptions::max_connections`] cap). Sent with
/// [`CTRL_CORR`] and an empty body; the envelope's `vt` field carries
/// the retry-after hint in milliseconds (envelope-compatible — old
/// peers sent 0 there). Clients surface it as [`BlobError::Overload`].
pub const CTRL_SHED: u16 = 0xFF01;

/// Retry-after hint (milliseconds) carried in the `vt` field of a
/// connection-level [`CTRL_SHED`] frame. Dispatch-level admission sheds
/// compute a hint from queue occupancy instead; this constant covers
/// the cruder connection-slot shed where no queue exists to inspect.
pub const SHED_RETRY_HINT_MS: u64 = 20;

/// Tunables for a [`TcpTransport`].
#[derive(Clone, Copy, Debug)]
pub struct TcpOptions {
    /// Client-side connect timeout.
    pub connect_timeout: Duration,
    /// Per-read/per-write timeout (`None` = block forever). Bounds how
    /// long a call can hang on a peer that accepted the connection but
    /// never answers, and how long the server keeps a connection that
    /// stalled mid-frame or stopped draining responses.
    pub io_timeout: Option<Duration>,
    /// Maximum multiplexed connections per destination. A call prefers
    /// an existing idle connection and only dials another when every
    /// one is busy and the count is below this.
    pub max_pooled_per_peer: usize,
    /// Event loops the reactor runs (≥ 1).
    pub event_loops: usize,
    /// Dispatch-pool workers running service handlers (≥ 1).
    pub dispatch_threads: usize,
    /// Dispatch-queue depth; past it connections are backpressured by
    /// parking their read interest.
    pub dispatch_queue: usize,
    /// In-flight dispatches one connection may occupy before its reads
    /// are parked (fairness under multiplexed clients).
    pub max_conn_inflight: usize,
    /// Established-connection cap per transport; `0` = unlimited.
    /// Accepts past it are shed with a typed [`CTRL_SHED`] close.
    pub max_connections: usize,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Some(Duration::from_secs(30)),
            max_pooled_per_peer: 64,
            event_loops: 2,
            dispatch_threads: 4,
            dispatch_queue: 1024,
            max_conn_inflight: 64,
            max_connections: 0,
        }
    }
}

/// State shared with the server threads (no back-reference to the
/// transport, so dropping the transport tears the threads down).
pub(crate) struct Shared {
    pub shutdown: AtomicBool,
    pub messages: AtomicU64,
    pub bytes: AtomicU64,
    /// Established server-side connections currently held.
    pub conns: AtomicUsize,
    /// Connections shed under fd pressure or the connection cap.
    pub sheds: AtomicU64,
}

struct NodeSlot {
    addr: Option<SocketAddr>,
    alive: Arc<AtomicBool>,
}

/// A real socket transport over loopback (or any reachable address via
/// [`TcpTransport::register_remote`]). See the module docs for the
/// reactor model, wire envelope and error taxonomy.
pub struct TcpTransport {
    opts: TcpOptions,
    nodes: RwLock<Vec<NodeSlot>>,
    mux: Arc<Mutex<PoolMap>>,
    /// The server, started by the first [`TcpTransport::bind`]: a
    /// client-only transport runs no thread.
    server: Mutex<Option<reactor::Reactor>>,
    shared: Arc<Shared>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpTransport {
    /// Empty transport with default options.
    pub fn new() -> Self {
        Self::with_options(TcpOptions::default())
    }

    /// Empty transport with explicit options.
    pub fn with_options(opts: TcpOptions) -> Self {
        Self {
            opts,
            nodes: RwLock::new(Vec::new()),
            mux: Arc::new(Mutex::new(HashMap::new())),
            server: Mutex::new(None),
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                messages: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                conns: AtomicUsize::new(0),
                sheds: AtomicU64::new(0),
            }),
        }
    }

    /// Add a node (returns its id). Client-only nodes never bind a
    /// listener; calls *to* them fail until [`TcpTransport::bind`].
    pub fn add_node(&self) -> NodeId {
        let mut g = self.nodes.write();
        g.push(NodeSlot {
            addr: None,
            alive: Arc::new(AtomicBool::new(true)),
        });
        // lint: allow(truncating-cast) — node registry is deployment-scale
        // (hundreds of slots), nowhere near u32::MAX
        NodeId(g.len() as u32 - 1)
    }

    /// Bind a service to a node: starts a loopback listener served by
    /// the transport's reactor, which the first bind starts. Panics if
    /// the node is unknown or already bound, or if the listener or the
    /// reactor cannot start.
    pub fn bind(&self, node: NodeId, svc: Arc<dyn Service>) {
        // lint: allow(panic-on-serving-path) — bind-time setup, documented to panic
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback listener");
        // lint: allow(panic-on-serving-path) — bind-time setup, documented to panic
        let addr = listener.local_addr().expect("listener local addr");
        let alive = {
            let mut g = self.nodes.write();
            // lint: allow(panic-on-serving-path) — bind-time setup, documented to panic
            let slot = g.get_mut(node.0 as usize).expect("bind: node exists");
            assert!(slot.addr.is_none(), "bind: node already has a service");
            slot.addr = Some(addr);
            Arc::clone(&slot.alive)
        };
        let start = || reactor::Reactor::start(&self.opts, Arc::clone(&self.shared));
        let mut server = self.server.lock();
        // lint: allow(panic-on-serving-path) — bind-time setup, documented to panic
        let reactor = server.get_or_insert_with(|| start().expect("start the reactor"));
        reactor.add_listener(listener, svc, alive);
    }

    /// Register a node served by a peer outside this transport (another
    /// process, or a hand-rolled server in a fault-injection test).
    pub fn register_remote(&self, addr: SocketAddr) -> NodeId {
        let mut g = self.nodes.write();
        g.push(NodeSlot {
            addr: Some(addr),
            alive: Arc::new(AtomicBool::new(true)),
        });
        // lint: allow(truncating-cast) — node registry is deployment-scale
        // (hundreds of slots), nowhere near u32::MAX
        NodeId(g.len() as u32 - 1)
    }

    /// The socket address a bound node listens on.
    pub fn addr(&self, node: NodeId) -> Option<SocketAddr> {
        self.nodes.read().get(node.0 as usize).and_then(|s| s.addr)
    }

    /// Kill a node: its connections close at the next frame instead of
    /// dispatching, so callers observe `Unreachable` — the service
    /// state itself is preserved (the sim's "process death with intact
    /// memory image" semantics).
    pub fn kill(&self, node: NodeId) {
        if let Some(slot) = self.nodes.read().get(node.0 as usize) {
            slot.alive.store(false, Ordering::Release);
        }
    }

    /// Revive a previously killed node.
    pub fn revive(&self, node: NodeId) {
        if let Some(slot) = self.nodes.read().get(node.0 as usize) {
            slot.alive.store(true, Ordering::Release);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.read().len()
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total frames carried (request + response per call), for
    /// aggregation assertions — same accounting as the sim cluster.
    pub fn message_count(&self) -> u64 {
        self.shared.messages.load(Ordering::Relaxed)
    }

    /// Total wire bytes carried, envelopes included.
    pub fn byte_count(&self) -> u64 {
        self.shared.bytes.load(Ordering::Relaxed)
    }

    /// Established connections the server side currently holds.
    pub fn active_connections(&self) -> usize {
        self.shared.conns.load(Ordering::Relaxed)
    }

    /// Connections shed with a typed [`CTRL_SHED`] close (fd
    /// exhaustion or the [`TcpOptions::max_connections`] cap).
    pub fn shed_count(&self) -> u64 {
        self.shared.sheds.load(Ordering::Relaxed)
    }

    /// Live multiplexed connections to `node` (white-box metric: fault
    /// tests assert a failed connection is dropped, not kept).
    pub fn pooled_connections(&self, node: NodeId) -> usize {
        self.mux.lock().get(&node.0).map_or(0, Vec::len)
    }

    /// The least-loaded live pooled connection to `to`, if the pool rule
    /// lets one more caller onto it: it is idle, or the pool is at its
    /// cap and can only multiplex.
    fn pooled(&self, map: &mut PoolMap, to: NodeId) -> Option<Arc<MuxConn>> {
        let pool = map.get_mut(&to.0)?;
        pool.retain(|c| !c.is_dead());
        let best = pool.iter().min_by_key(|c| c.inflight())?;
        let usable = best.inflight() == 0 || pool.len() >= self.opts.max_pooled_per_peer.max(1);
        usable.then(|| Arc::clone(best))
    }

    /// Calls registered and not yet resolved on the pooled connections to
    /// `node` (white-box metric: fault tests assert a burst leaves no
    /// slot behind on the connections that survive it).
    pub fn inflight_calls(&self, node: NodeId) -> usize {
        let map = self.mux.lock();
        map.get(&node.0)
            .map_or(0, |pool| pool.iter().map(|c| c.inflight()).sum())
    }

    /// Pick the least-loaded live connection to `to`, dialing a new one
    /// only when all existing ones are busy and the per-peer cap allows.
    fn mux_conn(&self, to: NodeId, addr: SocketAddr) -> Result<Arc<MuxConn>, BlobError> {
        loop {
            let pooled = self.pooled(&mut self.mux.lock(), to);
            let Some(conn) = pooled else { break };
            // Outside the pool lock: a connection the peer closed or shed
            // while it sat idle evicts itself here, and we look again.
            if conn.checkout() {
                return Ok(conn);
            }
        }
        // Every connection is busy (or none exists): dial outside the
        // pool lock so concurrent calls never serialize on a connect.
        let conn = MuxConn::connect(addr, &self.opts, Arc::clone(&self.mux), to.0)?;
        let mut map = self.mux.lock();
        let pool = map.entry(to.0).or_default();
        pool.retain(|c| !c.is_dead());
        if pool.len() >= self.opts.max_pooled_per_peer.max(1) {
            // Concurrent dials raced us past the cap: multiplex over an
            // existing connection and discard ours.
            if let Some(best) = pool.iter().min_by_key(|c| c.inflight()).cloned() {
                drop(map);
                conn.close();
                return Ok(best);
            }
        }
        pool.push(Arc::clone(&conn));
        Ok(conn)
    }

    /// The connection the next call of a burst to `to` rides: the one the
    /// burst already holds for that destination while it has pipeline
    /// room, else whatever the pool rule gives (which the burst then
    /// holds).
    fn burst_conn(
        &self,
        burst: &mut Conns,
        to: NodeId,
        addr: SocketAddr,
    ) -> Result<Arc<MuxConn>, BlobError> {
        if let Some(at) = burst.iter().position(|(dest, _)| *dest == to) {
            if burst[at].1.inflight() < self.opts.max_conn_inflight.max(1) {
                return Ok(Arc::clone(&burst[at].1));
            }
            burst.swap_remove(at);
        }
        let conn = self.mux_conn(to, addr)?;
        burst.push((to, Arc::clone(&conn)));
        Ok(conn)
    }

    /// First two steps of a call: register a completion slot on a
    /// connection to `to`, then gather-write the frame. Does not wait.
    fn submit(
        &self,
        burst: &mut Conns,
        to: NodeId,
        vt: u64,
        frame: &Frame,
    ) -> Result<InFlight, BlobError> {
        let addr = {
            let g = self.nodes.read();
            let slot = g
                .get(to.0 as usize)
                .ok_or(BlobError::Unreachable("unknown tcp node"))?;
            slot.addr
                .ok_or(BlobError::Unreachable("no tcp endpoint bound"))?
        };
        // Registration can race a connection dying (its death resolves
        // every registered slot, but a conn observed live can be dead by
        // the time we register): retry on a fresh connection.
        let mut last_err = BlobError::Unreachable("tcp connect failed");
        for _ in 0..3 {
            let conn = self.burst_conn(burst, to, addr)?;
            match conn.register() {
                Ok((corr, slot)) => {
                    let req_wire = conn.send(corr, vt, frame)?;
                    return Ok(InFlight {
                        conn,
                        slot,
                        req_wire,
                    });
                }
                Err(e) => {
                    burst.retain(|(_, held)| !Arc::ptr_eq(held, &conn));
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Last step of a call: wait on its connection — reading, or parked
    /// behind another waiter that is — until its response (or the
    /// connection's death) resolves the slot.
    fn complete(&self, sent: InFlight) -> TransportResult {
        let (resp_vt, resp, resp_wire) = sent.conn.wait(&sent.slot)?;
        self.shared.messages.fetch_add(2, Ordering::Relaxed);
        self.shared
            .bytes
            .fetch_add((sent.req_wire + resp_wire) as u64, Ordering::Relaxed);
        Ok((resp, resp_vt))
    }
}

/// A call that is on the wire.
struct InFlight {
    conn: Arc<MuxConn>,
    slot: Arc<CallSlot>,
    req_wire: usize,
}

/// The connections one burst holds, by destination: its own calls
/// pipeline on them instead of counting as "busy" under the pool rule.
type Conns = Vec<(NodeId, Arc<MuxConn>)>;

impl Transport for TcpTransport {
    fn call(&self, _from: NodeId, to: NodeId, vt: u64, frame: Frame) -> TransportResult {
        let sent = self.submit(&mut Conns::new(), to, vt, &frame)?;
        self.complete(sent)
    }

    /// Pipelined: each message is registered and written when it is
    /// sent, on the connection the burst holds for its destination (or
    /// one the pool rule gives, which the burst then holds), and its
    /// response is awaited when it is waited for. No thread is spawned —
    /// whoever reads a connection fills its slots in whatever order
    /// responses arrive, and a slot this burst waits for later is simply
    /// found filled.
    fn flight(&self, _from: NodeId) -> Box<dyn Flight + '_> {
        Box::new(Flying {
            transport: self,
            conns: Conns::new(),
            sent: Vec::new(),
        })
    }
}

/// A burst on the wire: the connections it holds and its messages. A
/// frame that fails to go out costs only its own message; dropping the
/// burst awaits every message still open, so none is left registered —
/// its connection counted busy — until another caller happens to read
/// its reply.
struct Flying<'t> {
    transport: &'t TcpTransport,
    conns: Conns,
    sent: Vec<Option<Result<InFlight, BlobError>>>,
}

impl Flight for Flying<'_> {
    fn send(&mut self, to: NodeId, vt: u64, frame: Frame) {
        let sent = self.transport.submit(&mut self.conns, to, vt, &frame);
        self.sent.push(Some(sent));
    }

    fn wait(&mut self, m: usize) -> TransportResult {
        match self.sent.get_mut(m).and_then(Option::take) {
            Some(sent) => self.transport.complete(sent?),
            None => Err(BlobError::Internal("reply completed twice")),
        }
    }
}

impl Drop for Flying<'_> {
    fn drop(&mut self) {
        for sent in self.sent.iter_mut().filter_map(Option::take).flatten() {
            let _ = self.transport.complete(sent);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Client side: there are only sockets to close, no thread to join.
        let conns: Vec<Arc<MuxConn>> = self.mux.lock().drain().flat_map(|(_, pool)| pool).collect();
        for conn in conns {
            conn.close();
        }
        if let Some(mut reactor) = self.server.lock().take() {
            reactor.stop();
        }
    }
}

/// Request state a handler pinned past its return ([`ServerCtx::hold`]),
/// dropped once the response has left the server.
pub(crate) type Held = Vec<Box<dyn std::any::Any + Send>>;

/// Run the service handler for one decoded request, the way both
/// serving paths do (dispatch worker, event loop): returns the
/// response's virtual time, the response and the state to hold until it
/// is written. A handler that panics costs its own call a typed error —
/// never the thread that ran it, which other connections depend on.
pub(crate) fn run_handler(svc: &dyn Service, vt: u64, frame: &Frame) -> (u64, Frame, Held) {
    let mut sctx = ServerCtx::new(vt);
    let resp = catch_unwind(AssertUnwindSafe(|| dispatch_frame(svc, &mut sctx, frame)))
        .unwrap_or_else(|_| error_frame(frame.method, BlobError::Internal("handler panicked")));
    let done = sctx.vt + sctx.charged + sctx.charged_latency;
    (done, resp, sctx.take_held())
}

/// A socket read/write timeout surfaces as `WouldBlock` or `TimedOut`
/// depending on the platform.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

pub(crate) enum SendError {
    Io(io::Error),
    Codec(CodecError),
}

/// Encode the 26-byte wire head for a frame of `body_len` body bytes.
pub(crate) fn encode_head(corr: u64, vt: u64, method: u16, body_len: usize) -> [u8; WIRE_HEAD] {
    let mut head = [0u8; WIRE_HEAD];
    // lint: allow(truncating-cast) — every caller rejects body_len >
    // MAX_FRAME_BODY (1 GiB) before encoding, so both casts fit u32
    head[0..4].copy_from_slice(&((ENVELOPE_FIXED + body_len) as u32).to_le_bytes());
    head[4..12].copy_from_slice(&corr.to_le_bytes());
    head[12..20].copy_from_slice(&vt.to_le_bytes());
    head[20..22].copy_from_slice(&method.to_le_bytes());
    // lint: allow(truncating-cast) — bounded by MAX_FRAME_BODY, see above
    head[22..26].copy_from_slice(&(body_len as u32).to_le_bytes());
    head
}

/// Write one frame on a blocking socket: the 26-byte head plus every
/// body segment, through [`write_frame_from`] from the frame's start.
/// Returns the wire size.
pub(crate) fn send_frame(
    stream: &TcpStream,
    corr: u64,
    vt: u64,
    frame: &Frame,
) -> Result<usize, SendError> {
    let body_len = frame.body.len();
    if body_len as u64 > MAX_FRAME_BODY {
        return Err(SendError::Codec(CodecError::LengthOverflow {
            declared: body_len as u64,
        }));
    }
    let head = encode_head(corr, vt, frame.method, body_len);
    write_frame_from(stream, &head, &frame.body, &mut FrameCursor::default())
        .map_err(SendError::Io)?;
    Ok(head.len() + body_len)
}

/// What a failed receive costs the connection: a read timeout — with or
/// without part of a frame read, and the thread it expired on is itself
/// waiting for a reply — is `Unreachable("tcp recv timed out")`; any
/// other failure, an EOF included, `Unreachable("tcp connection lost")`.
/// An `io::Error` cannot carry `Overload`: a shed arrives as a decoded
/// [`CTRL_SHED`] frame.
fn recv_lost(e: io::Error) -> BlobError {
    if is_timeout(&e) {
        BlobError::Unreachable("tcp recv timed out")
    } else {
        BlobError::Unreachable("tcp connection lost")
    }
}

/// Read one frame into a single receive buffer and decode it with
/// [`Reader::from_buf`], so payloads are lent out of the buffer by
/// refcount. Returns `(corr, vt, frame, wire_size)`; a failed read is
/// [`recv_lost`], a bad length or body [`BlobError::Codec`].
pub(crate) fn recv_frame<R: Read>(stream: &mut R) -> Result<(u64, u64, Frame, usize), BlobError> {
    let mut len4 = [0u8; ENVELOPE_LEN_BYTES];
    stream.read_exact(&mut len4).map_err(recv_lost)?;
    // Validate the peer-controlled length in the u64 domain, then
    // narrow with a checked conversion — never a silent cast.
    let declared = u64::from(u32::from_le_bytes(len4));
    if declared < ENVELOPE_FIXED as u64 || declared > MAX_WIRE_FRAME {
        // Reject before allocating: a corrupt length must not buy a
        // multi-gigabyte Vec.
        return Err(BlobError::Codec(CodecError::LengthOverflow { declared }));
    }
    let len = usize::try_from(declared)
        .map_err(|_| BlobError::Codec(CodecError::LengthOverflow { declared }))?;
    // Read into spare capacity: the kernel writes every byte, so
    // zero-filling the buffer first would be a wasted pass.
    let mut buf = Vec::with_capacity(len);
    stream
        .take(declared)
        .read_to_end(&mut buf)
        .map_err(recv_lost)?;
    if buf.len() < len {
        return Err(recv_lost(io::ErrorKind::UnexpectedEof.into()));
    }
    let (corr, vt, frame) = decode_wire_body(buf)?;
    Ok((corr, vt, frame, ENVELOPE_LEN_BYTES + len))
}

/// Decode an already-read wire body (everything after the length
/// prefix): correlation id, virtual time, frame. The bytes are owned
/// and immutable from here on, so payload ranges are lent out of this
/// allocation by refcount.
pub(crate) fn decode_wire_body(body: Vec<u8>) -> Result<(u64, u64, Frame), CodecError> {
    let buf = PageBuf::from_vec(body);
    let mut r = Reader::from_buf(&buf);
    let corr = u64::decode(&mut r)?;
    let vt = u64::decode(&mut r)?;
    let frame = Frame::decode(&mut r)?;
    r.finish()?;
    Ok((corr, vt, frame))
}

/// Encode one whole wire frame (envelope v2 head + body) into a
/// contiguous buffer. Support surface for raw-socket tests
/// (`tcp_faults.rs`, `inline_handlers.rs`); the transport itself
/// gather-writes instead.
pub fn encode_wire_frame(corr: u64, vt: u64, frame: &Frame) -> Result<Vec<u8>, CodecError> {
    let body_len = frame.body.len();
    if body_len as u64 > MAX_FRAME_BODY {
        return Err(CodecError::LengthOverflow {
            declared: body_len as u64,
        });
    }
    let mut out = Vec::with_capacity(WIRE_HEAD + body_len);
    // lint: allow(unmetered-copy) — fixed-width frame head, not payload
    out.extend_from_slice(&encode_head(corr, vt, frame.method, body_len));
    for seg in frame.body.segments() {
        // lint: allow(unmetered-copy) — raw-socket test helper, off the
        // serving transport (which gather-writes)
        out.extend_from_slice(seg);
    }
    Ok(out)
}

/// Read and decode one whole wire frame from `r`, returning
/// `(corr, vt, frame)`. Support surface for raw-socket tests — errors
/// map exactly like the transport's own receive path.
pub fn read_wire_frame<R: Read>(r: &mut R) -> Result<(u64, u64, Frame), BlobError> {
    recv_frame(r).map(|(corr, vt, frame, _)| (corr, vt, frame))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use crate::service::{respond, Service};
    use crate::transport::Ctx;

    struct Echo;

    impl Service for Echo {
        fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
            ctx.charge(250);
            respond(frame, |x: u64| Ok(x + 1))
        }
    }

    fn setup() -> (Arc<TcpTransport>, NodeId, NodeId) {
        let t = Arc::new(TcpTransport::new());
        let client = t.add_node();
        let server = t.add_node();
        t.bind(server, Arc::new(Echo));
        (t, client, server)
    }

    #[test]
    fn call_roundtrip_over_loopback() {
        let (t, c, s) = setup();
        let rpc = RpcClient::new(Arc::clone(&t) as _, c);
        let mut ctx = Ctx::start();
        let resp: u64 = rpc.call(&mut ctx, s, 1, &41u64).unwrap();
        assert_eq!(resp, 42);
        assert_eq!(ctx.vt, 250, "server charges flow back through the envelope");
        assert_eq!(t.message_count(), 2, "request + response");
        assert!(t.byte_count() > 0);
    }

    #[test]
    fn connections_are_pooled_and_reused() {
        let (t, c, s) = setup();
        let rpc = RpcClient::new(Arc::clone(&t) as _, c);
        let mut ctx = Ctx::start();
        for i in 0..10u64 {
            let r: u64 = rpc.call(&mut ctx, s, 1, &i).unwrap();
            assert_eq!(r, i + 1);
        }
        assert_eq!(
            t.pooled_connections(s),
            1,
            "sequential calls multiplex over one connection"
        );
    }

    #[test]
    fn concurrent_calls_share_one_multiplexed_connection() {
        // Cap the pool at one connection: all concurrency must be
        // carried as in-flight calls on that single socket.
        let t = Arc::new(TcpTransport::with_options(TcpOptions {
            max_pooled_per_peer: 1,
            ..TcpOptions::default()
        }));
        let c = t.add_node();
        let s = t.add_node();
        t.bind(s, Arc::new(Echo));
        let rpc = Arc::new(RpcClient::new(Arc::clone(&t) as _, c));
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let rpc = Arc::clone(&rpc);
                std::thread::spawn(move || {
                    let r: u64 = rpc.call(&mut Ctx::start(), s, 1, &i).unwrap();
                    assert_eq!(r, i + 1);
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(
            t.pooled_connections(s),
            1,
            "a capped pool multiplexes, never queues on checkout"
        );
    }

    #[test]
    fn unbound_and_unknown_nodes_are_unreachable() {
        let (t, c, _) = setup();
        let ghost = t.add_node(); // no listener
        let rpc = RpcClient::new(Arc::clone(&t) as _, c);
        let err = rpc
            .call::<u64, u64>(&mut Ctx::start(), ghost, 1, &1)
            .unwrap_err();
        assert!(matches!(err, BlobError::Unreachable(_)));
        let err = t
            .call(c, NodeId(999), 0, Frame::from_msg(1, &1u64))
            .unwrap_err();
        assert!(matches!(err, BlobError::Unreachable(_)));
    }

    #[test]
    fn kill_and_revive_preserve_service_state() {
        let (t, c, s) = setup();
        let rpc = RpcClient::new(Arc::clone(&t) as _, c);
        let mut ctx = Ctx::start();
        let _: u64 = rpc.call(&mut ctx, s, 1, &1u64).unwrap();
        t.kill(s);
        let err = rpc.call::<u64, u64>(&mut ctx, s, 1, &1).unwrap_err();
        assert!(matches!(err, BlobError::Unreachable(_)));
        assert_eq!(
            t.pooled_connections(s),
            0,
            "the failed call's connection must not be pooled"
        );
        t.revive(s);
        let r: u64 = rpc.call(&mut ctx, s, 1, &9u64).unwrap();
        assert_eq!(r, 10);
    }

    #[test]
    fn batch_travels_as_one_message_per_destination() {
        let (t, c, s) = setup();
        let rpc = RpcClient::new(Arc::clone(&t) as _, c);
        let calls = (0..8u64).map(|i| (s, Frame::from_msg(1, &i))).collect();
        let before = t.message_count();
        let resps = rpc.call_all::<u64>(&mut Ctx::start(), calls);
        for (i, r) in resps.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), i as u64 + 1);
        }
        assert_eq!(
            t.message_count() - before,
            2,
            "aggregation survives the socket: one frame each way"
        );
    }

    #[test]
    fn wire_frame_helpers_roundtrip() {
        let f = Frame::from_msg(7, &99u64);
        let bytes = encode_wire_frame(3, 11, &f).unwrap();
        assert_eq!(bytes.len(), WIRE_HEAD + f.body.len());
        let (corr, vt, back) = read_wire_frame(&mut &bytes[..]).unwrap();
        assert_eq!((corr, vt), (3, 11));
        assert_eq!(back, f);
    }

    /// An in-memory peer: its bytes, then `end` on every further read
    /// (`None`: EOF).
    struct Peer<'a> {
        bytes: &'a [u8],
        end: Option<io::ErrorKind>,
    }

    impl Read for Peer<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.end {
                _ if !self.bytes.is_empty() => self.bytes.read(buf),
                None => Ok(0),
                Some(kind) => Err(kind.into()),
            }
        }
    }

    #[test]
    fn each_receive_failure_surfaces_as_its_documented_error() {
        use io::ErrorKind::{ConnectionReset, TimedOut, WouldBlock};
        let lost = BlobError::Unreachable("tcp connection lost");
        let timed_out = BlobError::Unreachable("tcp recv timed out");
        let frame = encode_wire_frame(3, 11, &Frame::from_msg(7, &99u64)).unwrap();
        // A well-sized envelope whose frame claims a 1000-byte body and
        // carries 6 bytes.
        let mut lying = encode_head(1, 0, 1, 6).to_vec();
        lying[22..26].copy_from_slice(&1000u32.to_le_bytes());
        lying.extend([0u8; 6]);
        // A whole frame, and two bytes the envelope length also covers.
        let mut padded = frame.clone();
        let len = u32::from_le_bytes(padded[..4].try_into().unwrap());
        padded[..4].copy_from_slice(&(len + 2).to_le_bytes());
        padded.extend([0u8; 2]);
        let codec = BlobError::Codec;
        let cases = [
            ("clean EOF at a frame boundary", &[][..], None, lost.clone()),
            ("EOF mid-envelope", &frame[..2], None, lost.clone()),
            ("EOF mid-body", &frame[..WIRE_HEAD + 3], None, lost.clone()),
            (
                "reset mid-body",
                &frame[..WIRE_HEAD],
                Some(ConnectionReset),
                lost,
            ),
            (
                "WouldBlock before the first byte",
                &[][..],
                Some(WouldBlock),
                timed_out.clone(),
            ),
            (
                "WouldBlock after the first byte",
                &frame[..1],
                Some(WouldBlock),
                timed_out.clone(),
            ),
            (
                "TimedOut mid-body",
                &frame[..frame.len() - 1],
                Some(TimedOut),
                timed_out,
            ),
            (
                "a body that does not decode",
                &lying[..],
                None,
                codec(CodecError::UnexpectedEof {
                    needed: 1000,
                    remaining: 6,
                }),
            ),
            (
                "bytes past the frame",
                &padded[..],
                None,
                codec(CodecError::TrailingBytes { remaining: 2 }),
            ),
        ];
        for (case, bytes, end, want) in cases {
            let got = read_wire_frame(&mut Peer { bytes, end });
            assert_eq!(got, Err(want), "{case}");
        }

        // A length outside the envelope's bounds is refused from the
        // prefix alone: no body byte is read, so none is allocated for.
        for declared in [
            ENVELOPE_FIXED as u64 - 1,
            MAX_WIRE_FRAME + 1,
            u64::from(u32::MAX),
        ] {
            let prefix = u32::try_from(declared).unwrap().to_le_bytes();
            let bytes = [&prefix[..], &[0xEE; 8]].concat();
            let mut peer = Peer {
                bytes: &bytes,
                end: Some(ConnectionReset),
            };
            let got = read_wire_frame(&mut peer);
            assert_eq!(
                got,
                Err(codec(CodecError::LengthOverflow { declared })),
                "declared {declared}"
            );
            assert_eq!(peer.bytes.len(), 8, "declared {declared}: body untouched");
        }
    }
}
