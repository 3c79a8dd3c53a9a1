//! Global accounting of control-plane lock acquisitions.
//!
//! The lock-free control plane is a *measured* property, not an asserted
//! one — exactly like the zero-copy data path and
//! [`copymeter`](crate::copymeter). Every acquisition of a control-plane lock reports
//! here under one of four classes, and the tier-1 suite asserts the
//! steady-state invariant exactly (`crates/core/tests/lock_free.rs` per
//! op on the sim, `mmap_zero_copy.rs` under concurrent tcp writers,
//! `version_grants.rs` for grant batching); the canonical benchmark
//! reports `util.serializing_locks_per_op` and
//! `version.assign_locks_per_op` per workload.
//!
//! The classes mirror the paper's concurrency argument ("the only
//! serialization occurs when interacting with the version manager"):
//!
//! * [`LockClass::Serializing`] — an exclusive acquisition of a
//!   **singleton** control-plane lock: one that serializes logically
//!   independent client operations against each other (the pre-PR-2
//!   provider-manager planning lock, the single metadata-cache mutex, the
//!   client geometry-map write lock on a blob's first open).
//!   The invariant is that steady-state operations take **zero** of
//!   these.
//! * [`LockClass::VersionAssign`] — the paper-sanctioned per-blob
//!   version-assignment mutex (§III.B). Exactly one per WRITE, zero per
//!   READ; charged separately so the invariant can be asserted as
//!   "nothing beyond this".
//! * [`LockClass::Sharded`] — an exclusive acquisition of a *sharded*
//!   control-plane lock with a bounded, allocation-free critical section
//!   (a metadata-cache shard during insert/evict, the provider-roster
//!   update lock). These do not serialize independent operations (two
//!   operations collide only on a shard collision) but are still
//!   exclusive, so they are counted, bounded by tests, and reported.
//! * [`LockClass::Shared`] — a shared (read) acquisition on control-plane
//!   state (a cache-shard read probe, the geometry-map read check).
//!   Readers never serialize each other.
//!
//! Counters are process global and monotone with thread-local mirrors;
//! benchmarks and tests snapshot-and-subtract around the region of
//! interest, exactly as with the copy meter.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which kind of control-plane lock was acquired. See the module docs for
/// the taxonomy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockClass {
    /// Exclusive acquisition of a singleton control-plane lock.
    Serializing,
    /// The paper-sanctioned per-blob version-assignment mutex.
    VersionAssign,
    /// Exclusive acquisition of a sharded control-plane lock.
    Sharded,
    /// Shared (read) acquisition of a control-plane lock.
    Shared,
}

static SERIALIZING: AtomicU64 = AtomicU64::new(0);
static VERSION_ASSIGN: AtomicU64 = AtomicU64::new(0);
static SHARDED: AtomicU64 = AtomicU64::new(0);
static SHARED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static T_SERIALIZING: Cell<u64> = const { Cell::new(0) };
    static T_VERSION_ASSIGN: Cell<u64> = const { Cell::new(0) };
    static T_SHARDED: Cell<u64> = const { Cell::new(0) };
    static T_SHARED: Cell<u64> = const { Cell::new(0) };
}

/// Record one lock acquisition of the given class.
#[inline]
pub fn record(class: LockClass) {
    match class {
        LockClass::Serializing => {
            SERIALIZING.fetch_add(1, Ordering::Relaxed);
            T_SERIALIZING.with(|c| c.set(c.get() + 1));
        }
        LockClass::VersionAssign => {
            VERSION_ASSIGN.fetch_add(1, Ordering::Relaxed);
            T_VERSION_ASSIGN.with(|c| c.set(c.get() + 1));
        }
        LockClass::Sharded => {
            SHARDED.fetch_add(1, Ordering::Relaxed);
            T_SHARDED.with(|c| c.set(c.get() + 1));
        }
        LockClass::Shared => {
            SHARED.fetch_add(1, Ordering::Relaxed);
            T_SHARED.with(|c| c.set(c.get() + 1));
        }
    }
}

/// Record one serializing acquisition (see [`LockClass::Serializing`]).
#[inline]
pub fn record_serializing() {
    record(LockClass::Serializing);
}

/// Record one version-assignment acquisition.
#[inline]
pub fn record_version_assign() {
    record(LockClass::VersionAssign);
}

/// Record one sharded exclusive acquisition.
#[inline]
pub fn record_sharded() {
    record(LockClass::Sharded);
}

/// Record one shared (read) acquisition.
#[inline]
pub fn record_shared() {
    record(LockClass::Shared);
}

/// Counter values at one instant, per class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockCounts {
    /// Singleton exclusive acquisitions.
    pub serializing: u64,
    /// Version-assignment mutex acquisitions.
    pub version_assign: u64,
    /// Sharded exclusive acquisitions.
    pub sharded: u64,
    /// Shared (read) acquisitions.
    pub shared: u64,
}

impl LockCounts {
    /// Every exclusive acquisition, sanctioned or not.
    pub fn total_exclusive(&self) -> u64 {
        self.serializing + self.version_assign + self.sharded
    }
}

fn global_counts() -> LockCounts {
    LockCounts {
        serializing: SERIALIZING.load(Ordering::Relaxed),
        version_assign: VERSION_ASSIGN.load(Ordering::Relaxed),
        sharded: SHARDED.load(Ordering::Relaxed),
        shared: SHARED.load(Ordering::Relaxed),
    }
}

fn thread_counts() -> LockCounts {
    LockCounts {
        serializing: T_SERIALIZING.with(Cell::get),
        version_assign: T_VERSION_ASSIGN.with(Cell::get),
        sharded: T_SHARDED.with(Cell::get),
        shared: T_SHARED.with(Cell::get),
    }
}

/// A snapshot of the lock meters, for delta measurements.
///
/// [`snapshot`] observes the process-global meters (what multi-threaded
/// benchmarks want); [`thread_snapshot`] observes the calling thread's
/// meters only (what unit tests want — immune to concurrent tests, and
/// valid end to end because the simulated transports dispatch service
/// handlers inline on the calling thread).
#[derive(Clone, Copy, Debug)]
pub struct LockSnapshot {
    at: LockCounts,
    thread_local: bool,
}

/// Take a snapshot of the process-global lock meters.
pub fn snapshot() -> LockSnapshot {
    LockSnapshot {
        at: global_counts(),
        thread_local: false,
    }
}

/// Take a snapshot of the calling thread's lock meters.
pub fn thread_snapshot() -> LockSnapshot {
    LockSnapshot {
        at: thread_counts(),
        thread_local: true,
    }
}

impl LockSnapshot {
    /// Acquisitions per class since this snapshot (on this thread, for
    /// thread snapshots).
    pub fn since(&self) -> LockCounts {
        let now = if self.thread_local {
            thread_counts()
        } else {
            global_counts()
        };
        LockCounts {
            serializing: now.serializing - self.at.serializing,
            version_assign: now.version_assign - self.at.version_assign,
            sharded: now.sharded - self.at.sharded,
            shared: now.shared - self.at.shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meters_accumulate_per_class() {
        let snap = thread_snapshot();
        record_serializing();
        record_version_assign();
        record_version_assign();
        record_sharded();
        record_shared();
        record_shared();
        record_shared();
        let d = snap.since();
        assert_eq!(d.serializing, 1);
        assert_eq!(d.version_assign, 2);
        assert_eq!(d.sharded, 1);
        assert_eq!(d.shared, 3);
        assert_eq!(d.total_exclusive(), 4);
    }

    #[test]
    fn global_snapshot_sees_thread_charges() {
        let snap = snapshot();
        record_sharded();
        assert!(snap.since().sharded >= 1);
    }
}
