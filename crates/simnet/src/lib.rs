//! # blobseer-simnet
//!
//! The simulated cluster substrate standing in for the paper's Grid'5000
//! testbed: a costed virtual clock stands in for the 2008 hardware.
//!
//! * [`cost`] — the calibrated cost model: 117.5 MB/s NICs, 0.1 ms
//!   latency, 2008-era endpoint CPU costs, BambooDHT-era service costs.
//! * [`node`] — per-node resources (egress/ingress NIC, CPU) as
//!   calendars of busy intervals that backfill.
//! * [`cluster`] — [`SimCluster`], an
//!   [`rpc::Transport`](blobseer_rpc::Transport) whose calls execute
//!   handlers inline on real threads while charging fully simulated
//!   virtual time; includes fault injection (node kill/revive) and
//!   global/per-node traffic metrics.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod cost;
pub mod node;

pub use cluster::{distinct_peers, SimCluster};
pub use cost::{ClientCosts, CostModel, ServiceCosts};
pub use node::{NodeMetrics, SimNode};
