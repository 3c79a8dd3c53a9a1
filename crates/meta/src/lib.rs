//! # blobseer-meta
//!
//! Pure algorithms over the **distributed segment tree** metadata scheme of
//! the paper (§III.C): no I/O, no locks — every function here is a
//! deterministic computation over intervals, so the whole core of the
//! paper's contribution is property-testable in isolation.
//!
//! The tree, per blob version, is a 32-way segment tree over the blob's
//! byte space: the root covers `[0, total_size)`, levels are sized from
//! the leaves up (a node of `page · 32^j` bytes has 32 children of
//! `page · 32^(j−1)`, so only the root's fan-out varies, from 2 to 32),
//! and leaves cover exactly one page. The paper's tree is the k = 2 case
//! of the same algorithm; [`blobseer_proto::tree`] says why we run
//! k = 32 (and not 16 or 64). A node is
//! identified by `(blob, version, offset, size)`
//! ([`blobseer_proto::NodeKey`]) and inner nodes store the *versions* of
//! their children — weaving a new version's partial tree into history is
//! nothing more than recording an older version number for each
//! untouched child.
//!
//! Modules:
//! * [`shape`] — interval arithmetic: which tree intervals intersect a
//!   segment, expected node counts, alignment helpers.
//! * [`mod@write`] — what a WRITE must build: the new node set, the
//!   missing children of its border nodes, and [`write::build_write_tree`]
//!   which assembles the final
//!   [`TreeNode`](blobseer_proto::tree::TreeNode) batch from a
//!   [`WriteTicket`](blobseer_proto::messages::WriteTicket) — in two
//!   phases, the leaves from the page locators alone
//!   ([`write::weave_leaves`]) and the inner nodes once the ticket is in
//!   ([`write::weave_inner`]). The ticket names one version per missing
//!   child, in [`write::border_specs`] order, and no intervals.
//! * [`read`] — the step function of the READ traversal
//!   ([`read::expand`]), which the client drives level by level with
//!   batched metadata fetches.
//! * [`mod@reference`] — a single-process in-memory reference implementation
//!   of the whole blob engine built on the pure algorithms; used as the
//!   correctness oracle by tests across the workspace and usable as an
//!   embedded (non-distributed) mode of the library.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod read;
pub mod reference;
pub mod shape;
pub mod write;

pub use read::{expand, root_key, Visit};
pub use reference::ReferenceStore;
pub use shape::{node_count_for_write, write_intervals};
pub use write::{border_specs, build_write_tree};
