//! The version manager as an RPC service (paper §III.A: "the key actor of
//! the system").
//!
//! All state lives in [`blobseer_version::VersionRegistry`]; this wrapper
//! adds wire dispatch and simulated processing costs. Note what is *not*
//! here: no locks around reads of the latest version (atomic load), no
//! serialization between completion reports (lock-free publish window) —
//! only version assignment takes the per-blob mutex, for microseconds.
//!
//! Since PR 2 that claim is measured, not asserted: the assignment mutex
//! is charged to `blobseer_util::lockmeter` under its own
//! `VersionAssign` class. Since PR 10 the charge is per **grant**, not
//! per write: a grant leader pays one acquisition for its whole group
//! (`crates/version` grant protocol), so a solo WRITE still records
//! exactly one `VersionAssign` while a hot-blob storm records `1/group`
//! per op — strictly below 1.0 under contention, which
//! `core/tests/version_grants.rs` asserts. The simulated cost mirrors the meter: the handler
//! charges `version_assign_ns` times the acquisitions *this call*
//! performed, so followers riding a grant are free on both meters.
//!
//! ## Durability (PR 7)
//!
//! When built with a [`blobseer_version::VersionLog`], the service
//! journals **write-ahead**: `CREATE_BLOB` logs the blob before its id
//! is acknowledged, and `COMPLETE_WRITE` logs the publication *before*
//! the version becomes observable in the publish window — so a reader
//! that ever saw `latest >= v` is guaranteed to see `v` again after a
//! cold restart. The registry and its journal form one **incarnation**,
//! swapped whole ([`VersionManagerService::replace`]) so a cluster
//! restart can replay into fresh state without rebinding the RPC
//! endpoint; each request reads the incarnation once and is served
//! entirely from it, so a publish accepted by one registry is never
//! journaled into the next one's log. Log appends are positioned writes
//! coordinated by the engine's group-commit machinery — durability
//! plumbing, not data-plane serialization, so the steady-state lock
//! budget (one `VersionAssign` lock per WRITE, zero serializing locks)
//! is unchanged; `core/tests/mmap_zero_copy.rs` holds it to that with
//! every journal on.

use blobseer_proto::messages::{
    method, CompleteWrite, CreateBlob, GcRequest, GetLatest, PublishState, RequestVersion,
};
use blobseer_proto::{BlobError, Geometry};
use blobseer_rpc::{error_frame, respond, Frame, ServerCtx, Service};
use blobseer_simnet::ServiceCosts;
use blobseer_version::{VersionLog, VersionRegistry};
use parking_lot::RwLock;
use std::sync::Arc;

/// RPC facade over the version registry.
pub struct VersionManagerService {
    /// The current incarnation. Read once per request, shared; written
    /// only by [`replace`](Self::replace) during a cluster restart. Not a
    /// steady-state serialization point.
    current: RwLock<Arc<Incarnation>>,
    costs: ServiceCosts,
}

/// One incarnation of the version manager's state: a registry and, when
/// durable, the journal it writes ahead to.
struct Incarnation {
    registry: Arc<VersionRegistry>,
    log: Option<Arc<VersionLog>>,
}

impl VersionManagerService {
    /// Wrap a registry, with a write-ahead journal (creations and
    /// publications are logged before they are acknowledged) or without
    /// one (volatile).
    pub fn new(
        registry: Arc<VersionRegistry>,
        log: Option<Arc<VersionLog>>,
        costs: ServiceCosts,
    ) -> Self {
        Self {
            // lint: allow(unmetered-lock) — incarnation pointer, swapped only at cluster restart
            current: RwLock::new(Arc::new(Incarnation { registry, log })),
            costs,
        }
    }

    /// The incarnation serving a request.
    fn current(&self) -> Arc<Incarnation> {
        // lint: allow(unmetered-lock) — uncontended Arc swap read; the registry's own
        // VersionAssign mutex is the metered serialization point
        Arc::clone(&self.current.read())
    }

    /// Journal size in bytes (0 when volatile).
    pub fn log_bytes(&self) -> u64 {
        self.current().log.as_ref().map_or(0, |l| l.log_bytes())
    }

    /// Swap in a freshly replayed registry/journal pair (cluster
    /// restart). Requests already holding the old incarnation finish
    /// against it, journal included; new requests see the replayed one.
    pub fn replace(&self, registry: Arc<VersionRegistry>, log: Option<Arc<VersionLog>>) {
        let next = Arc::new(Incarnation { registry, log });
        // lint: allow(unmetered-lock) — restart-only swap, never on a serving path
        *self.current.write() = next;
    }
}

impl Service for VersionManagerService {
    fn name(&self) -> &'static str {
        "version-manager"
    }

    /// `GET_LATEST` and `GET_BLOB` read the registry. Everything else
    /// journals, lingers as a grant leader or publishes in order; it
    /// keeps the pool.
    fn nonblocking(&self, method: u16) -> bool {
        matches!(method, method::GET_LATEST | method::GET_BLOB)
    }

    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        let Incarnation { registry, log } = &*self.current();
        match frame.method {
            method::CREATE_BLOB => {
                ctx.charge(self.costs.manager_query_ns);
                respond(frame, |m: CreateBlob| {
                    let geom = Geometry::new(m.total_size, m.page_size)?;
                    let state = registry.create_blob(geom);
                    // Write-ahead: the id escapes only through this ack,
                    // so journaling before returning makes the creation
                    // recoverable the moment any client learns of it.
                    if let Some(log) = log {
                        log.record_create(state.blob, &state.geom)?;
                    }
                    Ok(state.info())
                })
            }
            method::GET_BLOB => {
                ctx.charge(self.costs.manager_query_ns);
                respond(frame, |m: GetLatest| Ok(registry.get(m.blob)?.info()))
            }
            method::GET_LATEST => {
                ctx.charge(self.costs.manager_query_ns);
                respond(frame, |m: GetLatest| Ok(registry.get(m.blob)?.latest()))
            }
            method::REQUEST_VERSION => {
                // Charged after the grant resolves: the leader pays
                // `version_assign_ns` per acquisition it performed for
                // the group, followers pay nothing — the simulated cost
                // mirrors the lock meter exactly.
                let costs = self.costs;
                respond(frame, |m: RequestVersion| {
                    let state = registry.get(m.blob)?;
                    let grant = state.request_version_grant(m.write, m.segment())?;
                    ctx.charge(costs.version_assign_ns * u64::from(grant.acquired));
                    Ok(grant.ticket)
                })
            }
            method::COMPLETE_WRITE => {
                ctx.charge(self.costs.manager_query_ns);
                respond(frame, |m: CompleteWrite| {
                    let state = registry.get(m.blob)?;
                    // Write-ahead: journal the publication before the
                    // version can become observable. A crash after the
                    // append but before `complete_write` leaves a
                    // harmless never-observed record (replay drops it
                    // past the gap); a crash after `complete_write`
                    // finds it durable — no observable version is ever
                    // lost. Already-completed versions skip the journal
                    // so duplicate completions stay errors without
                    // bloating the log.
                    if let Some(log) = log {
                        let rec = state
                            .record(m.version)
                            .ok_or(BlobError::Internal("completion for unassigned version"))?;
                        if !rec.is_completed() {
                            // Concurrent publishers from one grant share
                            // a commit marker (the journal's group
                            // commit). Still write-ahead — this returns
                            // only once the caller's record is covered
                            // by a durable marker.
                            log.record_publish(m.blob, m.version, rec.write, &rec.seg)?;
                        }
                    }
                    Ok(PublishState {
                        latest: state.complete_write(m.version)?,
                    })
                })
            }
            method::GC_PLAN => {
                ctx.charge(self.costs.version_assign_ns);
                respond(frame, |m: GcRequest| {
                    let state = registry.get(m.blob)?;
                    Ok(state.gc_plan(m.keep_from))
                })
            }
            other => error_frame(other, BlobError::Internal("unknown version-manager method")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_proto::messages::{BlobInfo, WriteTicket};
    use blobseer_proto::WriteId;
    use blobseer_rpc::parse_response;

    fn svc() -> VersionManagerService {
        VersionManagerService::new(
            Arc::new(VersionRegistry::default()),
            None,
            ServiceCosts::zero(),
        )
    }

    #[test]
    fn create_and_query_blob() {
        let s = svc();
        let mut ctx = ServerCtx::new(0);
        let resp = s.handle(
            &mut ctx,
            &Frame::from_msg(
                method::CREATE_BLOB,
                &CreateBlob {
                    total_size: 4096,
                    page_size: 1024,
                },
            ),
        );
        let info = parse_response::<BlobInfo>(&resp).unwrap();
        assert_eq!(info.latest, 0);
        let resp = s.handle(
            &mut ctx,
            &Frame::from_msg(method::GET_LATEST, &GetLatest { blob: info.blob }),
        );
        assert_eq!(parse_response::<u64>(&resp).unwrap(), 0);
    }

    #[test]
    fn bad_geometry_rejected() {
        let s = svc();
        let mut ctx = ServerCtx::new(0);
        let resp = s.handle(
            &mut ctx,
            &Frame::from_msg(
                method::CREATE_BLOB,
                &CreateBlob {
                    total_size: 100,
                    page_size: 10,
                },
            ),
        );
        assert!(parse_response::<BlobInfo>(&resp).is_err());
    }

    #[test]
    fn full_write_cycle_over_rpc() {
        let s = svc();
        let mut ctx = ServerCtx::new(0);
        let resp = s.handle(
            &mut ctx,
            &Frame::from_msg(
                method::CREATE_BLOB,
                &CreateBlob {
                    total_size: 4096,
                    page_size: 1024,
                },
            ),
        );
        let info = parse_response::<BlobInfo>(&resp).unwrap();

        let resp = s.handle(
            &mut ctx,
            &Frame::from_msg(
                method::REQUEST_VERSION,
                &RequestVersion {
                    blob: info.blob,
                    write: WriteId(1),
                    offset: 1024,
                    size: 1024,
                },
            ),
        );
        let ticket = parse_response::<WriteTicket>(&resp).unwrap();
        assert_eq!(ticket.version, 1);
        // First write: the 4-page root misses pages 0, 2 and 3, and each
        // links to version 0.
        assert_eq!(ticket.borders.len(), 3);
        assert!(ticket.borders.iter().all(|&b| b == 0));

        let resp = s.handle(
            &mut ctx,
            &Frame::from_msg(
                method::COMPLETE_WRITE,
                &CompleteWrite {
                    blob: info.blob,
                    version: 1,
                },
            ),
        );
        assert_eq!(parse_response::<PublishState>(&resp).unwrap().latest, 1);
    }

    #[test]
    fn wrapping_request_is_a_typed_error_and_latest_stays() {
        let s = svc();
        let mut ctx = ServerCtx::new(0);
        let resp = s.handle(
            &mut ctx,
            &Frame::from_msg(
                method::CREATE_BLOB,
                &CreateBlob {
                    total_size: 1 << 30,
                    page_size: 1 << 20,
                },
            ),
        );
        let info = parse_response::<BlobInfo>(&resp).unwrap();
        let request = |write: u64, offset: u64, size: u64| {
            Frame::from_msg(
                method::REQUEST_VERSION,
                &RequestVersion {
                    blob: info.blob,
                    write: WriteId(write),
                    offset,
                    size,
                },
            )
        };
        // offset + size wraps to 1 MiB: granted at the parent (or a
        // debug-build overflow panic inside the handler).
        let resp = s.handle(&mut ctx, &request(1, u64::MAX - (1 << 20) + 1, 2 << 20));
        assert!(
            matches!(
                parse_response::<WriteTicket>(&resp),
                Err(BlobError::BadSegment {
                    reason: "out of bounds",
                    ..
                })
            ),
            "{:?}",
            parse_response::<WriteTicket>(&resp)
        );
        let latest = |s: &VersionManagerService, ctx: &mut ServerCtx| {
            let resp = s.handle(
                ctx,
                &Frame::from_msg(method::GET_LATEST, &GetLatest { blob: info.blob }),
            );
            parse_response::<u64>(&resp).unwrap()
        };
        assert_eq!(latest(&s, &mut ctx), 0);
        // The refused request burned no version: the next one is 1.
        let resp = s.handle(&mut ctx, &request(2, 0, 1 << 20));
        assert_eq!(parse_response::<WriteTicket>(&resp).unwrap().version, 1);
        assert_eq!(latest(&s, &mut ctx), 0, "nothing published yet");
    }

    #[test]
    fn unknown_blob_errors() {
        let s = svc();
        let mut ctx = ServerCtx::new(0);
        let resp = s.handle(
            &mut ctx,
            &Frame::from_msg(
                method::GET_LATEST,
                &GetLatest {
                    blob: blobseer_proto::BlobId(99),
                },
            ),
        );
        assert!(matches!(
            parse_response::<u64>(&resp),
            Err(BlobError::UnknownBlob(_))
        ));
    }
}
