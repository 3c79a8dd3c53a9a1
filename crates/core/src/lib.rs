//! # blobseer-core
//!
//! The paper's system, assembled: version-manager service, deployment
//! builder reproducing the Figure 1 topology on the simulated cluster, and
//! the [`BlobClient`] implementing `ALLOC` / `READ` / `WRITE` with
//! parallel fan-out, client-side metadata caching, page/metadata
//! replication and garbage collection.
//!
//! ```
//! use blobseer_core::{Deployment, DeploymentConfig};
//! use blobseer_rpc::Ctx;
//! use blobseer_proto::Segment;
//!
//! let d = Deployment::build(DeploymentConfig::functional(4));
//! let client = d.client();
//! let mut ctx = Ctx::start();
//! let info = client.alloc(&mut ctx, 1 << 20, 4096).unwrap();
//! let v = client.write(&mut ctx, info.blob, 0, &[7u8; 8192]).unwrap();
//! assert_eq!(v, 1);
//! let (data, latest) = client
//!     .read(&mut ctx, info.blob, Some(v), Segment::new(0, 8192))
//!     .unwrap();
//! assert_eq!(latest, 1);
//! assert!(data.iter().all(|&b| b == 7));
//! ```
//!
//! Overload is a first-class, *typed* outcome: storage nodes serve
//! behind bounded admission gates ([`AdmissionOptions`], wired through
//! [`DeploymentConfigBuilder::admission`]) that shed excess work as
//! [`BlobError::Overload`](blobseer_proto::BlobError::Overload) with a
//! retry hint — never an unbounded queue, never a hang. On the
//! simulated transport the gates can run in
//! [`AdmissionMode::Virtual`], which makes shed-and-back-off
//! deterministic enough to doc-test:
//!
//! ```
//! use blobseer_core::{AdmissionMode, AdmissionOptions, Deployment, DeploymentConfig, RetryPolicy};
//! use blobseer_proto::{BlobError, Segment};
//! use blobseer_rpc::Ctx;
//!
//! let d = Deployment::build(
//!     DeploymentConfig::functional(1)
//!         .tune()
//!         // Handle sheds by hand to show the typed surface; production
//!         // deployments keep a backoff policy on instead, and the
//!         // client retries idempotent reads for them.
//!         .retry(RetryPolicy::none())
//!         .admission(AdmissionOptions {
//!             mode: AdmissionMode::Virtual {
//!                 max_backlog_ns: 100_000_000,  // ≤ 100 virtual ms queued
//!                 resp_ns_per_kib: 50_000_000,  // a slow modelled NIC
//!             },
//!             ..AdmissionOptions::default()
//!         })
//!         .build(),
//! );
//! let client = d.client();
//! let mut ctx = Ctx::start();
//! let info = client.alloc(&mut ctx, 4096, 4096).unwrap();
//! client.write(&mut ctx, info.blob, 0, &[7u8; 4096]).unwrap();
//!
//! // The first read is admitted and occupies the provider's virtual
//! // backlog; a second at the same instant finds it past the bound.
//! client.read(&mut ctx, info.blob, None, Segment::new(0, 4096)).unwrap();
//! let shed = client.read(&mut ctx, info.blob, None, Segment::new(0, 4096));
//! let Err(BlobError::Overload { retry_after_hint }) = shed else {
//!     panic!("expected a typed shed, got {shed:?}");
//! };
//! assert!(retry_after_hint > 0);
//!
//! // Back off as far as the hint says and the read is admitted again.
//! let mut later = Ctx::at(ctx.vt + retry_after_hint * 1_000_000);
//! client
//!     .read(&mut later, info.blob, None, Segment::new(0, 4096))
//!     .unwrap();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod deployment;
pub mod heat;
pub mod vm_service;

pub use blobseer_rpc::{AdmissionMode, AdmissionOptions, RetryPolicy, TcpOptions};
pub use client::{BlobClient, MetaCache};
pub use deployment::{
    BackendKind, ClusterHandle, CompactReport, Deployment, DeploymentConfig,
    DeploymentConfigBuilder, LogOptions, StorageNodeService, TransportKind, MMAP_LOG_CAP,
};
pub use heat::{FanOutOptions, HeatTracker};
pub use vm_service::VersionManagerService;
