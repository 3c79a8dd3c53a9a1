//! # blobseer-rpc
//!
//! The lightweight RPC framework of the system (paper §V.A): typed
//! request/response calls over a pluggable [`Transport`], massive
//! client-side parallelism via [`Burst`], and per-destination **call
//! aggregation** — the original system's custom optimization that
//! "delays RPC calls to a single machine and streams all of them in a
//! single real RPC call". A burst is a value the caller holds while its
//! calls are out ([`RpcClient::burst`]): it sends calls, late frames
//! included, at the caller's clock ([`Burst::send`]), yields each reply
//! through a typed [`Slot`] ([`Burst::wait`]) and joins the rest
//! ([`Burst::finish`]), so the caller's own work runs between them:
//! concurrent in virtual time on the simulator (a `call` per message at
//! send time, joined with `max`), concurrent on the wire over tcp
//! (pipelined on the multiplexed sockets — see [`client`]).
//!
//! Virtual time: every call carries the caller's clock ([`Ctx`]) and every
//! handler runs under a [`ServerCtx`] through which it charges processing
//! cost; the transport folds queueing/transfer/latency in. See
//! `blobseer-simnet` for the cluster cost model; the in-process transport
//! here costs nothing and is used by unit tests.
//!
//! [`TcpTransport`] is the real-socket implementation: frames are
//! gather-written straight from their segment chains (`writev`, no
//! flatten; mapped pages of 128 KiB and up by `sendfile`) and inbound
//! payloads are lent out of the receive buffer by
//! refcount — see [`tcp`] for the frame discipline and error taxonomy.
//! Its threads are the server's and only the server's
//! (`event_loops + dispatch_threads`, whatever the connection count): a
//! client thread waiting for a response reads its own connection, and a
//! handler its [`Service`] declares [`Service::nonblocking`] is answered
//! by the event loop that read the request — two thread wake-ups per
//! such call, four for one that needs the dispatch pool.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod frame;
pub mod retry;
pub mod route;
pub mod service;
pub mod tcp;
pub mod transport;

pub use admission::{
    AdmissionControlled, AdmissionGate, AdmissionMode, AdmissionOptions, AdmissionStats,
    OwnedPermit,
};
pub use client::{AggregationPolicy, Burst, RpcClient, Slot};
pub use frame::{Frame, FRAME_HEADER_BYTES, MAX_FRAME_BODY, METHOD_BATCH};
pub use retry::RetryPolicy;
pub use route::ShardRouter;
pub use service::{
    dispatch_frame, error_frame, ok_frame, parse_response, respond, ServerCtx, Service,
};
pub use tcp::{
    encode_wire_frame, read_wire_frame, TcpOptions, TcpTransport, CTRL_CORR, CTRL_SHED,
    MAX_WIRE_FRAME, SHED_RETRY_HINT_MS,
};
pub use transport::{Ctx, Flight, InProcTransport, Transport, TransportResult};
