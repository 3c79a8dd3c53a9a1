//! Global accounting of payload-byte copies.
//!
//! The zero-copy data path is a measured property, not an asserted one:
//! every deliberate copy of page/payload bytes (into a
//! [`PageBuf`](crate::PageBuf), out of a wire frame, or into a read
//! result buffer) reports here, and the benchmark harnesses read the
//! counters to emit bytes-copied-per-operation. Counters are process
//! global and monotone; benchmarks snapshot-and-subtract around the
//! region of interest.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static BYTES_COPIED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Record one copy of `n` payload bytes.
#[inline]
pub fn record_copy(n: usize) {
    if n > 0 {
        BYTES_COPIED.fetch_add(n as u64, Ordering::Relaxed);
        THREAD_BYTES.with(|c| c.set(c.get() + n as u64));
    }
}

/// Payload bytes copied **by the calling thread** since it started.
/// Race-free by construction; what tests should assert against.
pub fn thread_bytes_copied() -> u64 {
    THREAD_BYTES.with(Cell::get)
}

/// Total payload bytes copied since process start.
pub fn bytes_copied() -> u64 {
    BYTES_COPIED.load(Ordering::Relaxed)
}

/// Snapshot of the byte counter, for delta measurements.
///
/// [`snapshot`] observes the process-global meters (what multi-threaded
/// benchmarks want); [`thread_snapshot`] observes the calling thread's
/// meters only (what unit tests want — immune to concurrent tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopySnapshot {
    /// Bytes copied at snapshot time.
    pub bytes: u64,
    /// Whether this snapshot reads the thread-local meters.
    thread_local: bool,
}

/// Take a snapshot of the process-global meters.
pub fn snapshot() -> CopySnapshot {
    CopySnapshot {
        bytes: bytes_copied(),
        thread_local: false,
    }
}

/// Take a snapshot of the calling thread's meters.
pub fn thread_snapshot() -> CopySnapshot {
    CopySnapshot {
        bytes: thread_bytes_copied(),
        thread_local: true,
    }
}

impl CopySnapshot {
    /// Bytes copied since this snapshot (on this thread, for thread
    /// snapshots).
    pub fn bytes_since(&self) -> u64 {
        let now = if self.thread_local {
            thread_bytes_copied()
        } else {
            bytes_copied()
        };
        now - self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meters_accumulate() {
        let snap = thread_snapshot();
        record_copy(100);
        record_copy(0);
        record_copy(28);
        assert_eq!(snap.bytes_since(), 128);
    }
}
