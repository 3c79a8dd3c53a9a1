//! [`RcuCell`] — wait-free reads of a rarely replaced value.
//!
//! The classic read-copy-update shape for read-mostly configuration data:
//! readers follow a single atomic pointer to an immutable snapshot (one
//! load, no reference-count traffic, no lock, cannot block or be blocked);
//! writers build a replacement snapshot and publish it with one atomic
//! store, serialized among themselves by a mutex that readers never touch.
//!
//! Reclamation is by **retention**: every snapshot ever published stays
//! allocated until the cell itself drops, which makes the reader side
//! trivially safe (a loaded pointer can never dangle) at the cost of one
//! retained allocation per *update*. That trade is deliberate and only
//! fits rare-update data — the provider manager's roster is the intended
//! tenant (membership changes are O(cluster size) over a process
//! lifetime, while `plan_write` reads the roster millions of times per
//! second). Do not put per-operation state in here.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, Ordering};

/// A cell whose value is read without any lock and replaced wholesale.
///
/// See the module docs for the reclamation contract: memory grows by one
/// retained snapshot per [`RcuCell::store`]/[`RcuCell::update`] call, so
/// this type is for rare-update, read-dominated data only.
pub struct RcuCell<T> {
    current: AtomicPtr<T>,
    /// Every snapshot ever published, including the current one. Doubles
    /// as the writer-side serialization lock.
    retired: Mutex<Vec<*mut T>>,
}

// SAFETY: `RcuCell` hands out `&T` from any thread and moves `T` values
// in from any thread, so it is Sync/Send exactly when `T` is.
unsafe impl<T: Send + Sync> Sync for RcuCell<T> {}
unsafe impl<T: Send> Send for RcuCell<T> {}

impl<T> RcuCell<T> {
    /// Create a cell holding `value`.
    pub fn new(value: T) -> Self {
        let p = Box::into_raw(Box::new(value));
        Self {
            current: AtomicPtr::new(p),
            retired: Mutex::new(vec![p]),
        }
    }

    /// The current snapshot. One atomic load; never blocks, never spins,
    /// touches no reference count. The reference stays valid for the
    /// cell's whole lifetime even if a new snapshot is published
    /// concurrently (old snapshots are retained, not freed).
    #[inline]
    pub fn load(&self) -> &T {
        // SAFETY: `current` always points to a Box published by `new`,
        // `store` or `update`; those allocations are freed only in
        // `drop`, which requires exclusive access to `self`.
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    /// Publish `value` as the new snapshot.
    pub fn store(&self, value: T) {
        let p = Box::into_raw(Box::new(value));
        let mut retired = self.retired.lock();
        self.current.store(p, Ordering::Release);
        retired.push(p);
    }

    /// Replace the snapshot with `f(current)`, serialized against other
    /// writers (the closure observes the true latest snapshot — no lost
    /// updates). Returns the closure's second output.
    pub fn update<R>(&self, f: impl FnOnce(&T) -> (T, R)) -> R {
        let mut retired = self.retired.lock();
        // SAFETY: as in `load`; additionally no writer can race us while
        // we hold the retired-list lock.
        let cur = unsafe { &*self.current.load(Ordering::Acquire) };
        let (next, out) = f(cur);
        let p = Box::into_raw(Box::new(next));
        self.current.store(p, Ordering::Release);
        retired.push(p);
        out
    }
}

impl<T> Drop for RcuCell<T> {
    fn drop(&mut self) {
        for p in self.retired.get_mut().drain(..) {
            // SAFETY: each pointer was produced by `Box::into_raw`, is
            // distinct (pushed exactly once), and nothing can read it
            // anymore — freeing requires `&mut self`.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

impl<T: Default> Default for RcuCell<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RcuCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RcuCell").field(self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn load_store_roundtrip() {
        let c = RcuCell::new(vec![1, 2, 3]);
        assert_eq!(c.load(), &[1, 2, 3]);
        c.store(vec![4]);
        assert_eq!(c.load(), &[4]);
        assert_eq!(c.retired.lock().len(), 2);
    }

    #[test]
    fn old_references_survive_updates() {
        let c = RcuCell::new(String::from("first"));
        let old = c.load();
        c.store(String::from("second"));
        // The pre-update reference is still valid and unchanged.
        assert_eq!(old, "first");
        assert_eq!(c.load(), "second");
    }

    #[test]
    fn update_serializes_writers() {
        let c = Arc::new(RcuCell::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..250 {
                        c.update(|&v| (v + 1, ()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*c.load(), 1000, "no lost updates");
        assert_eq!(c.retired.lock().len(), 1001);
    }

    #[test]
    fn concurrent_readers_never_tear() {
        // Readers must always observe a complete snapshot, never a mix.
        let c = Arc::new(RcuCell::new((0u64, 0u64)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let c = Arc::clone(&c);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (a, b) = *c.load();
                        assert_eq!(a, b, "snapshot torn");
                    }
                })
            })
            .collect();
        for i in 1..200u64 {
            c.store((i, i));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }
}
