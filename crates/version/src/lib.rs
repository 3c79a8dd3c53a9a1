//! # blobseer-version
//!
//! The version manager's core logic, factored out of any service/transport
//! so it can be tested (and stress-tested) directly:
//!
//! * [`history`] — append-only, lock-free history of write records;
//! * [`publish`] — the lock-free publish window: out-of-order completions,
//!   CAS-advanced watermark, global serializability of snapshots;
//! * [`state`] — per-blob assignment state (the system's single, tiny
//!   serialization point) and the blob registry;
//! * [`wal`] — the write-ahead journal making "acknowledged means
//!   recoverable" hold for blob creation and version publication across
//!   whole-cluster cold restarts.
//!
//! The paper's concurrency claims map onto this crate as follows: version
//! assignment is `Mutex`-guarded for a few microseconds (§III.B concedes
//! this single serialization), publication and reads of the latest version
//! are pure atomics, and the border-link precomputation (§IV.C) happens
//! inside the assignment critical section against the version index, which
//! is what lets any number of concurrent writers weave metadata without
//! ever observing each other.
//!
//! ## PR 10: the grant protocol kills the last per-op lock
//!
//! Since PR 10 even the sanctioned assignment mutex is no longer paid
//! per write. Writers that collide on a hot blob form a **grant group**:
//! one leader acquires the mutex once and assigns a contiguous run of
//! versions to the whole group ([`state::BlobState::request_version_grant`]).
//! On the journal side there is nothing version-specific to combine:
//! each member appends its own publish record
//! ([`wal::VersionLog::record_publish`]) and the record log's group
//! commit *is* the combining — the records land in parallel and one
//! leader's marker (and `fdatasync`) acknowledges the group. The
//! steady-state `version_assign_locks_per_op` therefore drops to
//! `1/group` under contention — `core/tests/version_grants.rs` holds it
//! below 1.0 at 16 concurrent writers. For horizontal scale across *distinct* blobs,
//! the registry itself shards by blob id residue
//! ([`state::RegistryConfig::shards`]): shard `s` of `S` allocates and
//! serves exactly the ids `≡ s (mod S)`, so any client can route with
//! one modulo and each shard journals/replays independently.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod history;
pub mod publish;
pub mod recovery;
pub mod state;
pub mod wal;

pub use history::ConcurrentHistory;
pub use publish::{PublishWindow, DEFAULT_WINDOW};
pub use recovery::{restore, restore_with, snapshot, BlobSnapshot};
pub use state::{
    BlobState, RegistryConfig, VersionGrant, VersionRegistry, WriteRecord,
    WINDOW_FULL_RETRY_HINT_MS,
};
pub use wal::VersionLog;
