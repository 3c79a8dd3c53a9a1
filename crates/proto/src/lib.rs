//! # blobseer-proto
//!
//! The shared vocabulary of the system: identifiers, blob geometry and
//! segment algebra, metadata-tree node types, the binary wire codec, and
//! every RPC message exchanged between the five kinds of actors of the
//! paper (clients, data providers, provider manager, metadata providers,
//! version manager).
//!
//! This crate is deliberately free of I/O and concurrency so that every
//! other crate can depend on it without layering cycles.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod geometry;
pub mod ids;
pub mod messages;
pub mod tree;
pub mod wire;

pub use blobseer_util::PageBuf;
pub use error::{BlobError, CodecError};
pub use geometry::{Geometry, PageRange, Segment};
pub use ids::{BlobId, NodeId, ProviderId, Version, WriteId, ZERO_VERSION};
pub use tree::{ChildVersions, NodeBody, NodeKey, PageKey, PageLoc, TreeNode};
pub use wire::{ByteChain, Reader, Wire, WireBuf};
