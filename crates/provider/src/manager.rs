//! The provider manager (paper §III.A).
//!
//! "On each WRITE request, the provider manager decides which providers
//! should be used to store the newly generated pages, based on some
//! strategy that favors global load balancing." It also issues the unique
//! write ids under which pages are stored before their version exists.
//!
//! **Lock discipline (PR 2).** `plan_write` is on every WRITE's critical
//! path, so it holds no lock: the provider roster is an [`RcuCell`]
//! snapshot (membership changes — register of a *new* provider — republish
//! it; they are O(cluster size) over a process lifetime), and all mutable
//! per-provider state (capacity, heartbeat-reported usage, in-flight
//! projection, liveness) lives in atomics inside the shared
//! [`ProviderSlot`]s, so `heartbeat` and `mark_dead` are O(1) wait-free
//! index lookups plus atomic stores — no write lock, no O(n) scan.
//! Capacity is *reserved* with a compare-and-swap loop
//! (`ProviderSlot::try_reserve`), so concurrent planners can never
//! oversubscribe a provider's projected capacity.
//!
//! Placement is power of two choices: sample two distinct alive
//! candidates, place on the one with more projected free capacity. That
//! gets within a constant factor of least-loaded balance at O(1) cost per
//! replica instead of an O(n) scan; when sampling keeps missing, it falls
//! back to the exact least-loaded scan.
//!
//! Planning takes no lock at all, so the lock meter sees nothing from
//! it; `core/tests/lock_free.rs` asserts that per client operation.

use blobseer_proto::messages::{
    method, Heartbeat, PlanWrite, ProviderStats, RegisterProvider, WritePlan,
};
use blobseer_proto::{BlobError, CodecError, ProviderId, WriteId};
use blobseer_rpc::{error_frame, respond, Frame, ServerCtx, Service, MAX_FRAME_BODY};
use blobseer_simnet::ServiceCosts;
use blobseer_util::rng::splitmix64;
use blobseer_util::{lockmeter, FxHashMap, RcuCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One registered provider: immutable identity plus atomically updated
/// load state, shared between roster snapshots across membership changes.
#[derive(Debug)]
pub struct ProviderSlot {
    id: ProviderId,
    capacity: AtomicU64,
    /// Heartbeat-reported stored bytes.
    reported: AtomicU64,
    /// Bytes assigned by plans since the last heartbeat.
    in_flight: AtomicU64,
    alive: AtomicBool,
}

impl ProviderSlot {
    fn new(id: ProviderId, capacity: u64) -> Self {
        Self {
            id,
            capacity: AtomicU64::new(capacity),
            reported: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            alive: AtomicBool::new(true),
        }
    }

    /// Capacity minus reported usage minus in-flight assignments.
    pub fn projected_free(&self) -> u64 {
        self.capacity
            .load(Ordering::Relaxed)
            .saturating_sub(self.reported.load(Ordering::Relaxed))
            .saturating_sub(self.in_flight.load(Ordering::Relaxed))
    }

    /// Reserve `bytes` of projected capacity with a CAS loop; fails (and
    /// reserves nothing) when the projection would exceed capacity. This
    /// is what makes concurrent lock-free planners unable to
    /// oversubscribe a provider.
    fn try_reserve(&self, bytes: u64) -> bool {
        let cap = self.capacity.load(Ordering::Relaxed);
        let reported = self.reported.load(Ordering::Relaxed);
        let mut in_flight = self.in_flight.load(Ordering::Relaxed);
        loop {
            if cap.saturating_sub(reported).saturating_sub(in_flight) < bytes {
                return false;
            }
            match self.in_flight.compare_exchange_weak(
                in_flight,
                in_flight + bytes,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => in_flight = actual,
            }
        }
    }

    /// Return a reservation made by [`ProviderSlot::try_reserve`] when a
    /// plan fails midway. Saturating: a concurrent heartbeat may already
    /// have zeroed the projection.
    fn release(&self, bytes: u64) {
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(bytes))
            });
    }
}

/// Diagnostic projection of one provider's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProviderProjection {
    /// Registered capacity, bytes.
    pub capacity: u64,
    /// Heartbeat-reported stored bytes.
    pub reported: u64,
    /// Bytes assigned by plans since the last heartbeat.
    pub in_flight: u64,
    /// Whether the provider is eligible for assignments.
    pub alive: bool,
}

/// An immutable snapshot of the provider membership. Slot *state* mutates
/// through atomics; the snapshot itself is replaced only when a new
/// provider registers.
#[derive(Default)]
struct Roster {
    slots: Vec<Arc<ProviderSlot>>,
    by_id: FxHashMap<ProviderId, usize>,
}

impl Roster {
    fn with(&self, slot: Arc<ProviderSlot>) -> Roster {
        let mut slots = self.slots.clone();
        let mut by_id = self.by_id.clone();
        by_id.insert(slot.id, slots.len());
        slots.push(slot);
        Roster { slots, by_id }
    }
}

/// The provider manager service.
pub struct ProviderManagerService {
    roster: RcuCell<Roster>,
    next_write: AtomicU64,
    rng_state: AtomicU64,
    /// Bytes a single page occupies, used to project in-flight load.
    page_size_hint: AtomicU64,
    costs: ServiceCosts,
}

impl ProviderManagerService {
    /// Empty manager.
    pub fn new(seed: u64, costs: ServiceCosts) -> Self {
        Self {
            roster: RcuCell::new(Roster::default()),
            next_write: AtomicU64::new(1),
            rng_state: AtomicU64::new(seed | 1),
            page_size_hint: AtomicU64::new(64 * 1024),
            costs,
        }
    }

    /// Tell the manager the page size so in-flight projections are right.
    pub fn set_page_size_hint(&self, bytes: u64) {
        self.page_size_hint.store(bytes.max(1), Ordering::Relaxed);
    }

    /// Registered provider count (alive or dead).
    pub fn provider_count(&self) -> usize {
        self.roster.load().slots.len()
    }

    /// Register (idempotent on re-register with new capacity). Known
    /// providers are revived in place — two atomic stores, no snapshot
    /// churn; only a *new* provider publishes a new roster snapshot.
    pub fn register(&self, provider: ProviderId, capacity: u64) {
        let roster = self.roster.load();
        if let Some(&i) = roster.by_id.get(&provider) {
            let slot = &roster.slots[i];
            slot.capacity.store(capacity, Ordering::Relaxed);
            slot.alive.store(true, Ordering::Relaxed);
            return;
        }
        // New membership: publish a new snapshot. The update lock
        // serializes concurrent registrations (cold path).
        lockmeter::record_sharded();
        self.roster.update(|cur| {
            if let Some(&i) = cur.by_id.get(&provider) {
                // Lost a registration race; revive in place.
                let slot = &cur.slots[i];
                slot.capacity.store(capacity, Ordering::Relaxed);
                slot.alive.store(true, Ordering::Relaxed);
                return (cur.with_none(), ());
            }
            (
                cur.with(Arc::new(ProviderSlot::new(provider, capacity))),
                (),
            )
        });
    }

    /// Fold in a heartbeat: reported usage replaces the in-flight
    /// projection accumulated since the previous report. O(1), wait-free.
    ///
    /// What is reported is [`ProviderStats::reserved_bytes`] — the
    /// backing-byte footprint (heap plus append-only mapped log,
    /// headers included), not the logical stored bytes — so
    /// `ProviderSlot::try_reserve`'s capacity CAS stays truthful for
    /// a backend whose log retains removed pages.
    pub fn heartbeat(&self, provider: ProviderId, stats: ProviderStats) {
        let roster = self.roster.load();
        if let Some(&i) = roster.by_id.get(&provider) {
            let slot = &roster.slots[i];
            slot.reported
                .store(stats.reserved_bytes(), Ordering::Relaxed);
            slot.in_flight.store(0, Ordering::Relaxed);
            slot.alive.store(true, Ordering::Relaxed);
        }
    }

    /// Mark a provider dead (e.g., failure detector input); it stops
    /// receiving assignments until it re-registers or heartbeats. O(1),
    /// wait-free.
    pub fn mark_dead(&self, provider: ProviderId) {
        let roster = self.roster.load();
        if let Some(&i) = roster.by_id.get(&provider) {
            roster.slots[i].alive.store(false, Ordering::Relaxed);
        }
    }

    /// Raise the write-id allocator to at least `floor`. Cold-restart
    /// replay: write ids already present in replayed page logs or in
    /// the recovered version history must never be handed out again —
    /// a reused id would let a fresh write's pages collide with
    /// durable pages under the same `PageKey`, corrupting published
    /// versions that still reference them. Monotonic and wait-free.
    pub fn advance_write_ids(&self, floor: u64) {
        self.next_write.fetch_max(floor, Ordering::Relaxed);
    }

    /// Diagnostic view of one provider's projected load.
    pub fn projection(&self, provider: ProviderId) -> Option<ProviderProjection> {
        let roster = self.roster.load();
        let slot = &roster.slots[*roster.by_id.get(&provider)?];
        Some(ProviderProjection {
            capacity: slot.capacity.load(Ordering::Relaxed),
            reported: slot.reported.load(Ordering::Relaxed),
            in_flight: slot.in_flight.load(Ordering::Relaxed),
            alive: slot.alive.load(Ordering::Relaxed),
        })
    }

    fn next_rand(&self) -> u64 {
        // fetch_add gives every caller a distinct state to mix, so the
        // stream stays race-free without a lock.
        let mut s = self
            .rng_state
            .fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed);
        splitmix64(&mut s)
    }

    /// Plan a write: a fresh write id plus, for each of `pages` pages,
    /// `replication` distinct providers (primary first). Holds no lock —
    /// the roster is an RCU snapshot and every capacity reservation is a
    /// CAS.
    pub fn plan_write(&self, pages: u64, replication: u32) -> Result<WritePlan, BlobError> {
        self.plan_write_excluding(pages, replication, &[])
    }

    /// [`plan_write`](Self::plan_write) over the live providers not in
    /// `exclude`: the only candidates `pick_power_of_two` samples from.
    fn plan_write_excluding(
        &self,
        pages: u64,
        replication: u32,
        exclude: &[ProviderId],
    ) -> Result<WritePlan, BlobError> {
        let write = WriteId(self.next_write.fetch_add(1, Ordering::Relaxed));
        let page_bytes = self.page_size_hint.load(Ordering::Relaxed);
        let roster = self.roster.load();
        let slots = &roster.slots;
        let alive: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i].alive.load(Ordering::Relaxed) && !exclude.contains(&slots[i].id))
            .collect();
        if alive.is_empty() {
            return Err(BlobError::Unreachable("no eligible data provider"));
        }
        let replication = (replication.max(1) as usize).min(alive.len());
        // Each page's targets encode as a length prefix plus one id per
        // replica: a plan whose reply could never be framed is refused
        // before any of it is built.
        if pages.saturating_mul(4 + 4 * replication as u64) > MAX_FRAME_BODY {
            return Err(CodecError::LengthOverflow { declared: pages }.into());
        }
        // Capped like a decoded length prefix: `pages` is the peer's word.
        let mut targets = Vec::with_capacity(pages.min(4096) as usize);
        // Every successful pick reserved `page_bytes` of in-flight
        // projection on its slot; remember them so a plan that fails
        // midway releases what it reserved instead of leaving phantom
        // load until the next heartbeat.
        let mut reserved: Vec<usize> = Vec::new();
        let mut plan = || -> Result<(), BlobError> {
            for _ in 0..pages {
                let mut page_targets: Vec<ProviderId> = Vec::with_capacity(replication);
                for _ in 0..replication {
                    let pick = self.pick_power_of_two(slots, &alive, &page_targets, page_bytes)?;
                    reserved.push(pick);
                    page_targets.push(slots[pick].id);
                }
                targets.push(page_targets);
            }
            Ok(())
        };
        if let Err(e) = plan() {
            for idx in reserved {
                slots[idx].release(page_bytes);
            }
            return Err(e);
        }
        Ok(WritePlan { write, targets })
    }

    /// Sample two distinct eligible candidates and reserve on the one
    /// with more projected free capacity; falls back to an exact scan
    /// (still lock-free) when sampling keeps hitting ineligible or full
    /// providers, and errors only when *no* eligible provider can fit the
    /// page.
    fn pick_power_of_two(
        &self,
        slots: &[Arc<ProviderSlot>],
        alive: &[usize],
        page_targets: &[ProviderId],
        page_bytes: u64,
    ) -> Result<usize, BlobError> {
        let eligible = |idx: usize| !page_targets.contains(&slots[idx].id);
        // Sampling phase: a handful of attempts, each O(1). The two
        // candidates are drawn *without* replacement — colliding samples
        // would skip the load comparison half the time on small fleets.
        for _ in 0..4 {
            let ia = self.next_rand() as usize % alive.len();
            let ib = if alive.len() > 1 {
                (ia + 1 + self.next_rand() as usize % (alive.len() - 1)) % alive.len()
            } else {
                ia
            };
            let (a, b) = (alive[ia], alive[ib]);
            let pick = match (eligible(a), eligible(b) && b != a) {
                (true, true) => {
                    if slots[a].projected_free() >= slots[b].projected_free() {
                        a
                    } else {
                        b
                    }
                }
                (true, false) => a,
                (false, true) => b,
                (false, false) => continue,
            };
            if slots[pick].try_reserve(page_bytes) {
                return Ok(pick);
            }
        }
        // Fallback: exact scan over projected free capacity, retrying
        // while concurrent planners race us for the last bytes.
        loop {
            let mut best: Option<usize> = None;
            for &idx in alive {
                if !eligible(idx) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => slots[idx].projected_free() > slots[b].projected_free(),
                };
                if better {
                    best = Some(idx);
                }
            }
            let pick = best.ok_or(BlobError::Internal("replication exceeds providers"))?;
            if slots[pick].try_reserve(page_bytes) {
                return Ok(pick);
            }
            if slots[pick].projected_free() < page_bytes {
                // Even the best candidate cannot fit the page.
                return Err(BlobError::Internal("provider capacity exhausted"));
            }
        }
    }
}

impl Roster {
    /// Identity clone for the lost-registration-race arm of
    /// [`ProviderManagerService::register`] (slots are shared `Arc`s, so
    /// this copies two small vectors, not provider state).
    fn with_none(&self) -> Roster {
        Roster {
            slots: self.slots.clone(),
            by_id: self.by_id.clone(),
        }
    }
}

impl Service for ProviderManagerService {
    fn name(&self) -> &'static str {
        "provider-manager"
    }

    /// Planning is lock-free (roster snapshot, p2c, CAS reservation) and
    /// a heartbeat is a handful of atomic stores. Registration
    /// republishes the roster; it keeps the pool.
    fn nonblocking(&self, method: u16) -> bool {
        matches!(method, method::PLAN_WRITE | method::HEARTBEAT)
    }

    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        ctx.charge(self.costs.manager_query_ns);
        match frame.method {
            method::REGISTER_PROVIDER => respond(frame, |m: RegisterProvider| {
                self.register(m.provider, m.capacity);
                Ok(())
            }),
            method::HEARTBEAT => respond(frame, |m: Heartbeat| {
                self.heartbeat(m.provider, m.stats);
                Ok(())
            }),
            method::PLAN_WRITE => respond(frame, |m: PlanWrite| {
                self.plan_write_excluding(m.pages, m.replication, &m.exclude)
            }),
            other => error_frame(other, BlobError::Internal("unknown manager method")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> ProviderManagerService {
        let m = ProviderManagerService::new(42, ServiceCosts::zero());
        for i in 0..4 {
            m.register(ProviderId(i), 1 << 30);
        }
        m
    }

    #[test]
    fn plan_issues_unique_write_ids() {
        let m = mgr();
        let a = m.plan_write(2, 1).unwrap();
        let b = m.plan_write(2, 1).unwrap();
        assert_ne!(a.write, b.write);
        assert_eq!(a.targets.len(), 2);
        assert_eq!(a.targets[0].len(), 1);
    }

    /// A heartbeat reporting `bytes` of heap-resident load.
    fn heap_load(pages: u64, bytes: u64) -> ProviderStats {
        ProviderStats {
            pages,
            bytes,
            heap_bytes: bytes,
            mapped_bytes: 0,
            dead_bytes: 0,
        }
    }

    #[test]
    fn least_loaded_prefers_free_capacity() {
        let m = mgr();
        m.set_page_size_hint(1024);
        // Provider 0 reports heavy usage. Both samples of a pick are
        // distinct providers, so whenever provider 0 is drawn it is
        // compared with one that has more room, and loses.
        m.heartbeat(ProviderId(0), heap_load(1000, 1 << 29));
        let plan = m.plan_write(6, 1).unwrap();
        assert!(
            plan.targets.iter().all(|t| t[0] != ProviderId(0)),
            "loaded provider must be avoided: {:?}",
            plan.targets
        );
    }

    #[test]
    fn heartbeat_reports_backend_reserved_bytes_not_logical() {
        // An append-only mmap log holds bytes for removed pages too; the
        // manager must budget against the log footprint, not the (lower)
        // logical stored bytes, or try_reserve oversubscribes the disk.
        let m = mgr();
        m.heartbeat(
            ProviderId(0),
            ProviderStats {
                pages: 2,
                bytes: 8 << 10, // logical: two live 4 KiB pages
                heap_bytes: 0,
                mapped_bytes: 1 << 29, // the log retains much more
                dead_bytes: 0,
            },
        );
        let p = m.projection(ProviderId(0)).unwrap();
        assert_eq!(p.reported, 1 << 29, "reported = backend-resident bytes");
        m.set_page_size_hint(1024);
        let plan = m.plan_write(6, 1).unwrap();
        assert!(
            plan.targets.iter().all(|t| t[0] != ProviderId(0)),
            "log-heavy provider must be avoided: {:?}",
            plan.targets
        );
    }

    #[test]
    fn power_of_two_balances_under_pressure() {
        let m = mgr();
        m.set_page_size_hint(1 << 20);
        let plan = m.plan_write(64, 1).unwrap();
        let mut counts = [0u32; 4];
        for t in &plan.targets {
            counts[t[0].0 as usize] += 1;
        }
        // Two-choice sampling against the in-flight projection keeps the
        // spread tight (least-loaded would be exactly 16 each).
        assert!(
            counts.iter().all(|&c| (8..=24).contains(&c)),
            "roughly balanced: {counts:?}"
        );
    }

    #[test]
    fn power_of_two_respects_projected_capacity() {
        let m = ProviderManagerService::new(7, ServiceCosts::zero());
        m.set_page_size_hint(1024);
        // Room for exactly 4 + 2 pages in total.
        m.register(ProviderId(0), 4 * 1024);
        m.register(ProviderId(1), 2 * 1024);
        let plan = m.plan_write(6, 1).unwrap();
        assert_eq!(plan.targets.len(), 6);
        for id in [0u32, 1] {
            let p = m.projection(ProviderId(id)).unwrap();
            assert!(
                p.in_flight <= p.capacity,
                "provider {id} oversubscribed: {p:?}"
            );
        }
        // The 7th page cannot fit anywhere.
        assert!(m.plan_write(1, 1).is_err());
        // A heartbeat clearing the projection frees the capacity again.
        m.heartbeat(ProviderId(0), ProviderStats::default());
        assert!(m.plan_write(1, 1).is_ok());
    }

    #[test]
    fn failed_plan_releases_its_reservations() {
        let m = ProviderManagerService::new(5, ServiceCosts::zero());
        m.set_page_size_hint(1024);
        m.register(ProviderId(0), 4 * 1024);
        // 6 pages cannot fit; the pages reserved before the failure must
        // be released, not linger as phantom load until a heartbeat.
        assert!(m.plan_write(6, 1).is_err());
        assert_eq!(m.projection(ProviderId(0)).unwrap().in_flight, 0);
        // The capacity really is still available to a plan that fits.
        assert!(m.plan_write(4, 1).is_ok());
    }

    #[test]
    fn replication_targets_are_distinct() {
        let m = mgr();
        let plan = m.plan_write(5, 3).unwrap();
        for t in &plan.targets {
            assert_eq!(t.len(), 3);
            let mut u = t.clone();
            u.sort();
            u.dedup();
            assert_eq!(u.len(), 3, "replicas must be distinct: {t:?}");
        }
    }

    #[test]
    fn replication_clamped_and_dead_skipped() {
        let m = mgr();
        m.mark_dead(ProviderId(2));
        m.mark_dead(ProviderId(3));
        let plan = m.plan_write(2, 4).unwrap();
        for t in &plan.targets {
            assert_eq!(t.len(), 2, "clamped to alive providers");
            assert!(!t.contains(&ProviderId(2)));
            assert!(!t.contains(&ProviderId(3)));
        }
        // Heartbeat revives.
        m.heartbeat(ProviderId(2), ProviderStats::default());
        let plan = m.plan_write(1, 3).unwrap();
        assert_eq!(plan.targets[0].len(), 3);
    }

    #[test]
    fn unframeable_plan_is_refused_and_the_manager_serves_on() {
        let refused = |r: Result<WritePlan, BlobError>| {
            matches!(
                r,
                Err(BlobError::Codec(CodecError::LengthOverflow { declared }))
                    if declared == 1 << 40
            )
        };
        let m = mgr();
        // 2^40 pages of one 4-byte id each: a reply no frame can carry,
        // refused before anything is sized from it.
        assert!(refused(m.plan_write(1 << 40, 1)));
        assert_eq!(m.plan_write(4, 1).unwrap().targets.len(), 4);
        // The same as a peer's raw frame, answered by the service. A codec
        // error crosses the wire as its remote form.
        let plan = |pages| {
            let frame = Frame::from_msg(
                method::PLAN_WRITE,
                &PlanWrite {
                    blob: blobseer_proto::BlobId(1),
                    pages,
                    replication: 1,
                    exclude: Vec::new(),
                },
            );
            blobseer_rpc::parse_response::<WritePlan>(&m.handle(&mut ServerCtx::new(0), &frame))
        };
        assert!(matches!(
            plan(1 << 40),
            Err(BlobError::Internal("remote codec error"))
        ));
        assert_eq!(plan(4).unwrap().targets.len(), 4);
    }

    #[test]
    fn the_retired_list_providers_id_is_an_unknown_method() {
        // 0x0204 was `LIST_PROVIDERS`, served but never sent, and deleted.
        let m = mgr();
        let reply = m.handle(&mut ServerCtx::new(0), &Frame::from_msg(0x0204, &()));
        assert!(matches!(
            blobseer_rpc::parse_response::<()>(&reply),
            Err(BlobError::Internal("unknown manager method"))
        ));
    }

    #[test]
    fn plans_never_use_an_excluded_provider() {
        let m = mgr();
        let exclude = [ProviderId(0), ProviderId(2)];
        for _ in 0..32 {
            let plan = m.plan_write_excluding(8, 2, &exclude).unwrap();
            for targets in &plan.targets {
                assert_eq!(targets.len(), 2);
                assert!(targets.iter().all(|t| !exclude.contains(t)), "{targets:?}");
            }
        }
        // Nothing left to place on is an error, not a plan onto the
        // excluded providers.
        let all: Vec<ProviderId> = (0..4).map(ProviderId).collect();
        assert!(m.plan_write_excluding(1, 1, &all).is_err());
    }

    #[test]
    fn no_providers_is_an_error() {
        let m = ProviderManagerService::new(1, ServiceCosts::zero());
        assert!(m.plan_write(1, 1).is_err());
    }

    #[test]
    fn register_is_idempotent_and_updates_capacity() {
        let m = mgr();
        m.register(ProviderId(0), 42);
        assert_eq!(m.provider_count(), 4, "re-register must not duplicate");
        let p = m.projection(ProviderId(0)).unwrap();
        assert_eq!(p.capacity, 42, "re-register must adopt the new capacity");
        assert!(p.alive);
        // Re-register revives a dead provider in place.
        m.mark_dead(ProviderId(0));
        assert!(!m.projection(ProviderId(0)).unwrap().alive);
        m.register(ProviderId(0), 43);
        let p = m.projection(ProviderId(0)).unwrap();
        assert!(p.alive && p.capacity == 43);
    }

    #[test]
    fn plan_write_is_lock_free_and_heartbeat_wait_free() {
        let m = mgr();
        let snap = lockmeter::thread_snapshot();
        m.plan_write(8, 2).unwrap();
        m.heartbeat(ProviderId(1), ProviderStats::default());
        m.mark_dead(ProviderId(2));
        m.register(ProviderId(1), 1 << 30); // known id: in-place revive
        let d = snap.since();
        assert_eq!(d.total_exclusive(), 0, "hot path must acquire no lock");
        assert_eq!(d.shared, 0);
    }

    #[test]
    fn concurrent_planning_and_membership_changes() {
        use std::sync::Arc as StdArc;
        let m = StdArc::new(ProviderManagerService::new(3, ServiceCosts::zero()));
        for i in 0..8 {
            m.register(ProviderId(i), u64::MAX / 2);
        }
        let planners: Vec<_> = (0..4)
            .map(|_| {
                let m = StdArc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let plan = m.plan_write(4, 2).unwrap();
                        for t in &plan.targets {
                            assert_eq!(t.len(), 2);
                            assert_ne!(t[0], t[1]);
                        }
                    }
                })
            })
            .collect();
        let churner = {
            let m = StdArc::clone(&m);
            std::thread::spawn(move || {
                for round in 0..50u32 {
                    m.register(ProviderId(100 + (round % 4)), 1 << 30);
                    m.heartbeat(ProviderId(round % 8), ProviderStats::default());
                    m.mark_dead(ProviderId(100 + (round % 4)));
                }
            })
        };
        for p in planners {
            p.join().unwrap();
        }
        churner.join().unwrap();
        assert_eq!(m.provider_count(), 12);
    }
}
