//! Cross-test serialization for process-global ablation toggles.
//!
//! The workspace keeps its seed regimes alive as process-global runtime
//! switches — `blobseer_proto::wire::set_zero_copy` and
//! [`lockmeter::set_serialized_control_plane`](crate::lockmeter::set_serialized_control_plane)
//! — so tests can
//! measure before vs after honestly. Inside one test binary, however,
//! `cargo test` runs tests on parallel threads: a test flipping a toggle
//! would poison every concurrently running copymeter/lockmeter assertion
//! in the same process.
//!
//! This module is the single serialization point:
//!
//! * a test that **flips** a toggle holds [`ablation_exclusive`] for the
//!   flipped region (the RAII helpers [`lockmeter::serialized_ablation`](crate::lockmeter::serialized_ablation)
//!   and
//!   `wire::zero_copy_ablation` take it for you and restore the previous
//!   value on drop);
//! * a test that **asserts** toggle-sensitive meter readings holds
//!   [`ablation_shared`] — meter tests run in parallel with each other
//!   but never overlap a flip.
//!
//! Every flip goes through a guard (the `unguarded-ablation` lint rule
//! exempts no path). The guards are not reentrant: take at most one per
//! thread.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

static ABLATION: RwLock<()> = RwLock::new(());

/// Shared guard held while asserting toggle-sensitive meter readings.
pub type AblationReadGuard = RwLockReadGuard<'static, ()>;

/// Exclusive guard held while a toggle is flipped away from its default.
pub type AblationWriteGuard = RwLockWriteGuard<'static, ()>;

/// Acquire the shared side of the ablation lock: the toggles are
/// guaranteed to stay at their current values while the guard lives.
pub fn ablation_shared() -> AblationReadGuard {
    ABLATION.read()
}

/// Acquire the exclusive side of the ablation lock: the caller may flip
/// process-global ablation toggles until the guard drops.
pub fn ablation_exclusive() -> AblationWriteGuard {
    ABLATION.write()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_guards_coexist_and_exclude_the_flipper() {
        let a = ablation_shared();
        let b = ablation_shared();
        // An exclusive guard must not be obtainable while readers live.
        assert!(ABLATION.try_write().is_none());
        drop(a);
        drop(b);
        let w = ablation_exclusive();
        assert!(ABLATION.try_read().is_none());
        drop(w);
    }
}
