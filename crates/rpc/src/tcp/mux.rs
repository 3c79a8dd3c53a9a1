//! Multiplexed client connections.
//!
//! One [`MuxConn`] carries any number of in-flight calls: each call
//! claims a fresh correlation id, registers a [`CallSlot`], writes its
//! frame under the send lock (gather-write, serialized so frames never
//! interleave), and parks on the slot. A dedicated reader thread per
//! connection decodes responses — in whatever order the server finishes
//! them — and routes each to its slot by correlation id.
//!
//! Failure is total per connection: the first read error, codec error,
//! stray correlation id, or [`CTRL_SHED`] control frame marks the
//! connection dead, removes it from the transport's pool, and resolves
//! **every** registered slot with the typed error — a connection error
//! fails every call in flight on it, never hangs one. The `dead` flag
//! lives inside the same mutex as the in-flight map, so a call can
//! never register a slot the reader will not see.

use super::{
    is_timeout, recv_frame, send_frame, RecvError, SendError, Shared, TcpOptions, CTRL_CORR,
    CTRL_SHED,
};
use crate::frame::Frame;
use blobseer_proto::{BlobError, CodecError};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// `(response vt, response frame, response wire bytes)`.
type CallOutcome = Result<(u64, Frame, usize), BlobError>;

/// A one-shot completion slot the calling thread parks on.
pub(crate) struct CallSlot {
    done: Mutex<Option<CallOutcome>>,
    cv: Condvar,
}

impl CallSlot {
    fn new() -> Self {
        Self {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, outcome: CallOutcome) {
        *self.done.lock() = Some(outcome);
        self.cv.notify_all();
    }

    /// Park until the reader resolves this slot. The reader guarantees
    /// resolution: every exit path fails all registered slots first.
    pub(crate) fn wait(&self) -> CallOutcome {
        let mut g = self.done.lock();
        loop {
            if let Some(outcome) = g.take() {
                return outcome;
            }
            self.cv.wait(&mut g);
        }
    }
}

struct ConnState {
    /// Set exactly once, under this mutex, before the in-flight map is
    /// drained — registration checks it under the same lock.
    dead: Option<BlobError>,
    inflight: HashMap<u64, Pending>,
}

struct Pending {
    slot: Arc<CallSlot>,
    registered: Instant,
}

/// The client-side pool: live connections by destination node id.
pub(crate) type PoolMap = HashMap<u32, Vec<Arc<MuxConn>>>;
type MuxMap = Arc<Mutex<PoolMap>>;

/// One multiplexed connection to a destination node.
pub(crate) struct MuxConn {
    stream: TcpStream,
    /// Serializes whole-frame writes so concurrent calls never
    /// interleave their bytes.
    send: Mutex<()>,
    state: Mutex<ConnState>,
    next_corr: AtomicU64,
    reader: Mutex<Option<JoinHandle<()>>>,
    io_timeout: Option<Duration>,
    /// The transport's pool this connection lives in, so both death
    /// paths (reader exit, send-side I/O failure) can evict it before
    /// any caller observes the error.
    map: MuxMap,
    key: u32,
}

impl MuxConn {
    /// Dial `addr` and start the connection's reader thread.
    pub(crate) fn connect(
        addr: SocketAddr,
        opts: &TcpOptions,
        map: MuxMap,
        key: u32,
        shared: Arc<Shared>,
    ) -> Result<Arc<MuxConn>, BlobError> {
        let stream = TcpStream::connect_timeout(&addr, opts.connect_timeout)
            // lint: allow(overload-erasure) — io::Error source, a connect failure
            // cannot carry Overload
            .map_err(|_| BlobError::Unreachable("tcp connect failed"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(opts.io_timeout);
        let _ = stream.set_write_timeout(opts.io_timeout);
        let conn = Arc::new(MuxConn {
            stream,
            send: Mutex::new(()),
            state: Mutex::new(ConnState {
                dead: None,
                inflight: HashMap::new(),
            }),
            // Correlation ids start at 1: 0 is the control channel.
            next_corr: AtomicU64::new(CTRL_CORR + 1),
            reader: Mutex::new(None),
            io_timeout: opts.io_timeout,
            map,
            key,
        });
        let rc = Arc::clone(&conn);
        let handle = std::thread::spawn(move || {
            let err = read_loop(&rc, &shared);
            die(&rc, err);
        });
        *conn.reader.lock() = Some(handle);
        Ok(conn)
    }

    /// Whether the reader has declared this connection dead.
    pub(crate) fn is_dead(&self) -> bool {
        self.state.lock().dead.is_some()
    }

    /// Calls currently in flight (load metric for least-loaded pick).
    pub(crate) fn inflight(&self) -> usize {
        self.state.lock().inflight.len()
    }

    /// Claim a correlation id and register a completion slot. Fails
    /// with the connection's death error if the reader already exited
    /// (the caller retries on a fresh connection).
    pub(crate) fn register(&self) -> Result<(u64, Arc<CallSlot>), BlobError> {
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(CallSlot::new());
        let mut st = self.state.lock();
        if let Some(e) = &st.dead {
            return Err(e.clone());
        }
        st.inflight.insert(
            corr,
            Pending {
                slot: Arc::clone(&slot),
                registered: Instant::now(),
            },
        );
        Ok((corr, slot))
    }

    /// Write one call frame under the send lock. A pre-write codec
    /// error leaves the connection usable; an I/O error mid-write has
    /// corrupted the stream, so the connection is killed (failing every
    /// other call in flight too). Returns the request's wire size.
    pub(crate) fn send(
        &self,
        corr: u64,
        vt: u64,
        frame: &Frame,
        gather: bool,
    ) -> Result<usize, BlobError> {
        let res = {
            let _g = self.send.lock();
            send_frame(&mut &self.stream, corr, vt, frame, gather)
        };
        match res {
            Ok(n) => Ok(n),
            Err(SendError::Codec(c)) => {
                // Nothing hit the wire: deregister and keep the conn.
                self.state.lock().inflight.remove(&corr);
                Err(BlobError::Codec(c))
            }
            Err(SendError::Io(e)) => {
                let err = if is_timeout(&e) {
                    BlobError::Unreachable("tcp send timed out")
                } else {
                    BlobError::Unreachable("tcp send failed")
                };
                // The stream is corrupt for everyone: deregister our own
                // slot, then kill the connection *synchronously* — the
                // pool must be clean before the caller sees the error
                // (the reader's own death path is idempotent and will
                // follow once the shutdown EOFs it).
                self.state.lock().inflight.remove(&corr);
                die(self, err.clone());
                Err(err)
            }
        }
    }

    /// Shut the socket down so the reader exits (transport teardown).
    pub(crate) fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Join the reader thread (after [`MuxConn::close`]).
    pub(crate) fn join_reader(&self) {
        if let Some(handle) = self.reader.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Decode responses until the connection fails; returns the typed error
/// every remaining in-flight call resolves with.
fn read_loop(conn: &Arc<MuxConn>, shared: &Shared) -> BlobError {
    loop {
        match recv_frame(&mut &conn.stream) {
            Ok((corr, vt, frame, wire)) => {
                if corr == CTRL_CORR {
                    if frame.method == CTRL_SHED {
                        // A typed admission shed, not a dead peer: the
                        // server is alive and chose to reject. The
                        // envelope's vt field carries its retry hint.
                        return BlobError::Overload {
                            retry_after_hint: vt,
                        };
                    }
                    // Unknown control frame: the stream cannot be trusted.
                    return BlobError::Codec(CodecError::StrayCorrelation { corr });
                }
                match conn.state.lock().inflight.remove(&corr) {
                    Some(p) => p.slot.resolve(Ok((vt, frame, wire))),
                    None => {
                        // A response nothing asked for: framing is broken.
                        return BlobError::Codec(CodecError::StrayCorrelation { corr });
                    }
                }
            }
            Err(RecvError::IdleTimeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return BlobError::Unreachable("tcp connection lost");
                }
                // Timeout with no envelope byte: idle between calls —
                // unless calls are waiting and the oldest has waited a
                // full window (the read may have been armed long before
                // that call registered; re-arm instead of failing it
                // early).
                let oldest = conn
                    .state
                    .lock()
                    .inflight
                    .values()
                    .map(|p| p.registered)
                    .min();
                let Some(oldest) = oldest else { continue };
                let window = conn.io_timeout.unwrap_or(Duration::MAX);
                if oldest.elapsed() >= window {
                    return BlobError::Unreachable("tcp recv timed out");
                }
            }
            Err(RecvError::Codec(c)) => return BlobError::Codec(c),
            Err(RecvError::Io(e)) if is_timeout(&e) => {
                // Stalled mid-frame: the stream is wedged for everyone.
                return BlobError::Unreachable("tcp recv timed out");
            }
            Err(RecvError::Closed) | Err(RecvError::Io(_)) => {
                // lint: allow(overload-erasure) — RecvError is pure I/O; a shed
                // arrives as a decoded Overload response frame, not here
                return BlobError::Unreachable("tcp connection lost");
            }
        }
    }
}

/// Kill a connection: remove it from the transport's pool *first* (so
/// no new call can pick it, and a caller returning an error never
/// observes it still pooled), then mark it dead and fail every
/// registered slot. Idempotent — the send path and the reader's exit
/// both funnel here.
fn die(conn: &MuxConn, err: BlobError) {
    {
        let mut m = conn.map.lock();
        if let Some(pool) = m.get_mut(&conn.key) {
            pool.retain(|c| !std::ptr::eq(Arc::as_ptr(c), conn));
            if pool.is_empty() {
                m.remove(&conn.key);
            }
        }
    }
    let _ = conn.stream.shutdown(Shutdown::Both);
    let drained: Vec<Pending> = {
        let mut st = conn.state.lock();
        if st.dead.is_some() {
            return;
        }
        st.dead = Some(err.clone());
        st.inflight.drain().map(|(_, p)| p).collect()
    };
    for p in drained {
        p.slot.resolve(Err(err.clone()));
    }
}
