//! Multiplexed client connections: the waiters read.
//!
//! One [`MuxConn`] carries any number of in-flight calls: each call
//! claims a fresh correlation id, registers a [`CallSlot`], writes its
//! frame under the send lock (gather-write, serialized so frames never
//! interleave), and then waits **on the connection**
//! ([`MuxConn::wait`]). There is no reader thread. The connection has
//! one **read role**; a waiter whose slot is unresolved takes it if it
//! is free, receives frames itself and routes each to its slot by
//! correlation id — its own, another thread's, or a later slot of its
//! own burst — and leaves the role the moment its own slot is filled,
//! nudging every still-registered slot so that a parked waiter takes
//! over. A waiter that finds the role taken parks on its slot. So the
//! common call — one waiter on its connection — is woken once, by the
//! kernel, with its own reply in hand; and a connection with a parked
//! waiter and a free read role never persists.
//!
//! Failure is total per connection: the first read error, codec error,
//! stray correlation id, or [`CTRL_SHED`] control frame marks the
//! connection dead, removes it from the transport's pool, and resolves
//! **every** registered slot with the typed error — a connection error
//! fails every call in flight on it, never hangs one. The `dead` flag
//! and the read role live inside the same mutex as the in-flight map,
//! so a call can never register a slot no reader will see, and a
//! departing reader can never miss a waiter it should have nudged.
//!
//! Nobody watches an idle connection, so a peer that closes (or sheds)
//! one between calls is found at the next **checkout**
//! ([`MuxConn::checkout`]): bytes arrive only for registered calls, so
//! a connection with nothing in flight that is readable is never
//! healthy — what is there is taken through the same receive path, the
//! connection dies with the typed error, and the call dials afresh.

use super::{is_timeout, recv_frame, send_frame, SendError, TcpOptions, CTRL_CORR, CTRL_SHED};
use crate::frame::Frame;
use blobseer_proto::{BlobError, CodecError};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// `(response vt, response frame, response wire bytes)`.
type CallOutcome = Result<(u64, Frame, usize), BlobError>;

/// A one-shot completion slot the calling thread parks on while another
/// waiter holds its connection's read role.
pub(crate) struct CallSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Default)]
struct SlotState {
    outcome: Option<CallOutcome>,
    /// Left by a departing reader: the read role may be free, stop
    /// parking and go look. A flag, not a bare notify, so a waiter that
    /// has not parked yet cannot miss it.
    nudged: bool,
}

impl CallSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new(SlotState::default()),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, outcome: CallOutcome) {
        self.state.lock().outcome = Some(outcome);
        self.cv.notify_all();
    }

    fn nudge(&self) {
        self.state.lock().nudged = true;
        self.cv.notify_all();
    }

    fn take(&self) -> Option<CallOutcome> {
        self.state.lock().outcome.take()
    }

    /// Park until the slot is resolved or nudged.
    fn park(&self) {
        let mut g = self.state.lock();
        while g.outcome.is_none() && !g.nudged {
            self.cv.wait(&mut g);
        }
        g.nudged = false;
    }
}

struct ConnState {
    /// Set exactly once, under this mutex, before the in-flight map is
    /// drained — registration checks it under the same lock.
    dead: Option<BlobError>,
    inflight: HashMap<u64, Arc<CallSlot>>,
    /// The read role: some waiter is receiving on the socket.
    reading: bool,
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
    /// The transport's pool this connection lives in, so every death
    /// path (a reader's error, a send-side I/O failure, a failed
    /// checkout) can evict it before any caller observes the error.
    map: MuxMap,
    key: u32,
}

impl MuxConn {
    /// Dial `addr`.
    pub(crate) fn connect(
        addr: SocketAddr,
        opts: &TcpOptions,
        map: MuxMap,
        key: u32,
    ) -> Result<Arc<MuxConn>, BlobError> {
        let stream = TcpStream::connect_timeout(&addr, opts.connect_timeout)
            // lint: allow(overload-erasure) — io::Error source, a connect failure
            // cannot carry Overload
            .map_err(|_| BlobError::Unreachable("tcp connect failed"))?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(opts.io_timeout);
        let _ = stream.set_write_timeout(opts.io_timeout);
        Ok(Arc::new(MuxConn {
            stream,
            send: Mutex::new(()),
            state: Mutex::new(ConnState {
                dead: None,
                inflight: HashMap::new(),
                reading: false,
            }),
            // Correlation ids start at 1: 0 is the control channel.
            next_corr: AtomicU64::new(CTRL_CORR + 1),
            map,
            key,
        }))
    }

    /// Whether this connection has been declared dead.
    pub(crate) fn is_dead(&self) -> bool {
        self.state.lock().dead.is_some()
    }

    /// Calls currently in flight (load metric for least-loaded pick).
    pub(crate) fn inflight(&self) -> usize {
        self.state.lock().inflight.len()
    }

    /// Whether a connection just picked from the pool may carry a call.
    /// One that is idle — nothing in flight, nobody reading — must also
    /// be silent: a zero-timeout readiness probe, and if the socket is
    /// readable (the peer closed it, shed it, or is talking out of
    /// turn) what is there goes through the ordinary receive path and
    /// kills the connection with its typed error. The caller then picks
    /// or dials another; no error surfaces.
    pub(crate) fn checkout(&self) -> bool {
        {
            let mut st = self.state.lock();
            if st.dead.is_some() {
                return false;
            }
            if st.reading || !st.inflight.is_empty() || !readable_now(&self.stream) {
                return true;
            }
            st.reading = true;
        }
        match self.read_one() {
            Ok(()) => {
                self.leave_read_role();
                true
            }
            Err(err) => {
                die(self, err);
                false
            }
        }
    }

    /// Claim a correlation id and register a completion slot. Fails
    /// with the connection's death error if it died since it was picked
    /// (the caller retries on a fresh connection).
    pub(crate) fn register(&self) -> Result<(u64, Arc<CallSlot>), BlobError> {
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(CallSlot::new());
        let mut st = self.state.lock();
        if let Some(e) = &st.dead {
            return Err(e.clone());
        }
        st.inflight.insert(corr, Arc::clone(&slot));
        Ok((corr, slot))
    }

    /// Write one call frame under the send lock. A pre-write codec
    /// error leaves the connection usable; an I/O error mid-write has
    /// corrupted the stream, so the connection is killed (failing every
    /// other call in flight too). Returns the request's wire size.
    pub(crate) fn send(&self, corr: u64, vt: u64, frame: &Frame) -> Result<usize, BlobError> {
        let res = {
            let _g = self.send.lock();
            send_frame(&self.stream, corr, vt, frame)
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
                // (the shutdown EOFs whoever holds the read role, whose
                // own death path is idempotent).
                self.state.lock().inflight.remove(&corr);
                die(self, err.clone());
                Err(err)
            }
        }
    }

    /// Last step of a call: wait on the connection until `slot` is
    /// resolved — by reading, if the read role is free; parked on the
    /// slot while another waiter holds it. Every exit of a reader
    /// either hands the role on or fails all registered slots, so this
    /// always returns.
    pub(crate) fn wait(&self, slot: &CallSlot) -> CallOutcome {
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            if self.take_read_role() {
                return self.read_until(slot);
            }
            slot.park();
        }
    }

    fn take_read_role(&self) -> bool {
        let mut st = self.state.lock();
        if st.dead.is_some() || st.reading {
            return false;
        }
        st.reading = true;
        true
    }

    /// Give the role up and nudge every registered slot: one of their
    /// owners that is parked takes over. All of them, not one — the
    /// slot picked might belong to a thread that is busy elsewhere (a
    /// burst's owner waiting on another connection).
    fn leave_read_role(&self) {
        let mut st = self.state.lock();
        st.reading = false;
        for slot in st.inflight.values() {
            slot.nudge();
        }
    }

    /// Holding the read role: receive and route frames until `mine` is
    /// filled (possibly by an earlier reader — hence the check before
    /// the first receive) or the connection fails.
    fn read_until(&self, mine: &CallSlot) -> CallOutcome {
        loop {
            if let Some(outcome) = mine.take() {
                self.leave_read_role();
                return outcome;
            }
            if let Err(err) = self.read_one() {
                // `die` resolves every registered slot, ours included.
                die(self, err.clone());
                return mine.take().unwrap_or(Err(err));
            }
        }
    }

    /// Receive one frame and resolve the slot it answers. An error is
    /// the typed death of the connection: a receive error (a timeout
    /// too — the thread it expired on is itself a waiter, and the stream
    /// is wedged for everyone), a shed notice, or a stray id.
    fn read_one(&self) -> Result<(), BlobError> {
        match recv_frame(&mut &self.stream)? {
            (CTRL_CORR, vt, frame, _) if frame.method == CTRL_SHED => {
                // A typed admission shed, not a dead peer: the server is
                // alive and chose to reject. The envelope's vt field
                // carries its retry hint.
                Err(BlobError::Overload {
                    retry_after_hint: vt,
                })
            }
            (corr, vt, frame, wire) => {
                let slot = self.state.lock().inflight.remove(&corr);
                // A response nothing asked for (or an unknown control
                // frame): the stream cannot be trusted.
                let slot = slot.ok_or(BlobError::Codec(CodecError::StrayCorrelation { corr }))?;
                slot.resolve(Ok((vt, frame, wire)));
                Ok(())
            }
        }
    }

    /// Shut the socket down (transport teardown): whoever is reading
    /// sees EOF.
    pub(crate) fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// One zero-timeout readiness probe of a blocking socket.
fn readable_now(stream: &TcpStream) -> bool {
    polling::readable_now(stream.as_raw_fd()).unwrap_or(false)
}

/// Kill a connection: remove it from the transport's pool *first* (so
/// no new call can pick it, and a caller returning an error never
/// observes it still pooled), then mark it dead and fail every
/// registered slot. Idempotent — the send path, a reader's error and a
/// failed checkout all funnel here.
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
    let drained: Vec<Arc<CallSlot>> = {
        let mut st = conn.state.lock();
        if st.dead.is_some() {
            return;
        }
        st.dead = Some(err.clone());
        st.inflight.drain().map(|(_, slot)| slot).collect()
    };
    for slot in drained {
        slot.resolve(Err(err.clone()));
    }
}
