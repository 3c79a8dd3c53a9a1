//! # blobseer-provider
//!
//! The data-plane services of the system (paper §III.A):
//!
//! * [`data`] — the **data provider**: immutable page storage (a
//!   concurrent serving index over a [`backend`]) with accounting and
//!   capacity enforcement;
//! * [`backend`] — the **storage backends** behind the provider:
//!   in-memory buffers ([`MemoryBackend`]) or a persistent append-only
//!   mapped page log ([`MmapBackend`]) that re-serves acknowledged
//!   pages after a restart;
//! * [`manager`] — the **provider manager**: provider registration,
//!   heartbeats, and load-balanced page placement (power of two
//!   choices), plus write-id issuance.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod data;
pub mod manager;

pub use backend::{
    BackendKind, CompactOutcome, CompactReport, LogOptions, MemoryBackend, MmapBackend,
    PreparedCompaction, ResidentBytes, StorageBackend,
};
pub use data::DataProviderService;
pub use manager::ProviderManagerService;
