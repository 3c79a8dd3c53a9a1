//! # blobseer-bench
//!
//! Harnesses regenerating the figures of the CLUSTER'08 evaluation
//! (the paper's §V), plus ablations of the design choices it argues for
//! (§I lock-free access, §V.A page size, §V.C RPC aggregation). Each
//! binary runs on the costed simulator (the ablation of locking runs in
//! process, on the wall clock), prints the paper-style series and writes
//! a CSV under `results/`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig3a` | Fig. 3(a): metadata read overhead vs segment size, {10,20,40} providers |
//! | `fig3b` | Fig. 3(b): metadata write overhead vs segment size, {10,20,40} providers |
//! | `fig3c` | Fig. 3(c): per-client bandwidth vs number of concurrent clients |
//! | `ablate_agg` | RPC aggregation on/off (explains Fig. 3(b)) |
//! | `ablate_lock` | lock-free vs global-lock vs per-page-lock under mixed load |
//! | `ablate_page` | page-size sweep (striping-vs-overhead tradeoff, §V.A) |
//!
//! Nothing here is a gate. The copy and lock invariants are exact test
//! assertions (`crates/core/tests/{zero_copy,tcp_zero_copy,mmap_zero_copy,
//! lock_free,version_grants}.rs`), the overload contract is
//! `crates/core/tests/overload_retry_e2e.rs` plus
//! `crates/rpc/tests/overload.rs`, connection scaling is
//! `crates/rpc/tests/c10k.rs`, and end-to-end performance is the
//! canonical benchmark (`benchmark/`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use harness::*;
