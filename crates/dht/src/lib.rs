//! # blobseer-dht
//!
//! The metadata-provider substrate: a from-scratch distributed hash table
//! replacing the paper's BambooDHT/OpenDHT dependency (§V.A). Three
//! pieces:
//!
//! * [`ring`] — consistent hashing with virtual nodes: uniform dispersal
//!   of tree nodes over metadata providers, fixed when the deployment is
//!   built;
//! * [`node`] — the per-node storage service (single and batched puts,
//!   batched gets and removes of immutable tree nodes, with
//!   BambooDHT-calibrated processing costs), journaled and compacted by
//!   [`wal`] on a durable node;
//! * [`client`] — replicated, batching client-side access with failover.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod node;
pub mod ring;
pub mod wal;

pub use client::{DhtClient, NodeFetch, NodePut};
pub use node::DhtNodeService;
pub use ring::Ring;
pub use wal::WalMeta;
