//! Per-blob version-manager state and the blob registry.
//!
//! The **only** serialization point of the whole system (paper §III.B:
//! "the only serialization occurs when interacting with the version
//! manager ... reduced to simply requiring a version number") is the
//! assignment mutex behind [`BlobState::request_version`]: a critical
//! section of `O(log n)` interval-map queries — microseconds — never
//! across I/O. Everything else (completion, publication, latest-version
//! reads, history access) is atomics only.
//!
//! ## The grant protocol (ticket batching)
//!
//! Since PR 10 that mutex is amortized with the same leader/follower
//! discipline the record log's group commit proved: writers that arrive
//! while an assignment is in progress park on a **grant queue** instead
//! of contending, and the queue's *leader* — the one writer that found
//! the queue idle — takes the assignment mutex once and hands a
//! **contiguous run of versions** to itself plus everyone queued behind
//! it. Followers ride the grant through a condvar and never touch the
//! assignment mutex at all. Total order per blob is untouched: every
//! ticket still comes out of the one `next_version` counter under the
//! one mutex, in queue order; only *who pays for the acquisition*
//! changes. An optional [`RegistryConfig::grant_window`] lets a leader
//! linger (exactly like the record log's `group_commit_window`) so
//! concurrent writers can join the grant deterministically.
//!
//! Lockmeter accounting rule: **a grant charges one `VersionAssign`
//! acquisition for the whole group** — the leader records it, followers
//! record nothing — so under a hot-blob storm the steady-state
//! `version_assign_locks_per_op` drops to `grants / ops ≈ 1/group`,
//! strictly below 1.0 under contention and exactly 1.0 for a solo
//! writer (a leader-of-one). `core/tests/version_grants.rs` holds the
//! system to that.

use crate::history::ConcurrentHistory;
use crate::publish::{PublishWindow, DEFAULT_WINDOW};
use blobseer_meta::write::{border_specs, borders_to_links};
use blobseer_meta::write_intervals;
use blobseer_proto::messages::{BlobInfo, GcPlan, WriteTicket};
use blobseer_proto::tree::PageKey;
use blobseer_proto::{BlobError, BlobId, Geometry, Segment, Version, WriteId};
use blobseer_util::{IntervalMap, ShardedMap};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Backoff suggested to a writer refused by a full publish window, in
/// milliseconds: about one write's publish latency, after which the
/// window's oldest in-flight write has usually published.
pub const WINDOW_FULL_RETRY_HINT_MS: u64 = 10;
// A zero hint would tell the writer to retry at once, into the same
// full window.
const _: () = assert!(WINDOW_FULL_RETRY_HINT_MS > 0);

/// How a [`VersionRegistry`] assigns versions and allocates blob ids.
///
/// `shard`/`shards` make one registry a member of a sharded version
/// manager: shard `s` of `S` allocates exactly the blob ids congruent
/// to `s` modulo `S` (with `id % S == 0` owned by shard 0, ids starting
/// at 1), so clients can route any blob id to its owning shard with one
/// modulo and no directory. The default single-shard config reproduces
/// the classic id sequence `1, 2, 3, …` bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// In-flight (assigned but unpublished) write capacity per blob.
    pub window: usize,
    /// Batch version assignment through the grant protocol (the
    /// default). `false` is the per-op ablation: every writer acquires
    /// the assignment mutex itself, the pre-PR-10 behaviour.
    pub batched: bool,
    /// How long a grant leader lingers before assigning, so concurrent
    /// writers can join its grant (the assignment-queue analogue of the
    /// record log's `group_commit_window`). Zero (the default) still
    /// batches naturally: whoever queued while the leader held the
    /// assignment mutex rides the next drain.
    pub grant_window: Duration,
    /// This registry's shard index, `< shards`.
    pub shard: u32,
    /// Total shard count of the version manager (1 = unsharded).
    pub shards: u32,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            window: DEFAULT_WINDOW,
            batched: true,
            grant_window: Duration::ZERO,
            shard: 0,
            shards: 1,
        }
    }
}

/// What the version manager remembers about one assigned write.
#[derive(Clone, Debug)]
pub struct WriteRecord {
    /// The (page-aligned) segment the write patched.
    pub seg: Segment,
    /// The write id under which its pages were stored.
    pub write: WriteId,
    completed: Arc<AtomicBool>,
}

impl WriteRecord {
    /// True once the write reported completion.
    pub fn is_completed(&self) -> bool {
        self.completed.load(Ordering::Acquire)
    }
}

/// Guarded by the assignment mutex.
struct AssignState {
    /// Next version to hand out (versions start at 1).
    next_version: Version,
    /// Latest writer per byte range — answers border-link queries.
    index: IntervalMap<Version>,
}

/// The outcome of one version request under the grant protocol: the
/// ticket, plus the accounting the RPC layer needs to charge simulated
/// cost where the work actually happened.
#[derive(Clone, Debug)]
pub struct VersionGrant {
    /// The assigned version + precomputed border links.
    pub ticket: WriteTicket,
    /// Assignment-mutex acquisitions *this call* performed: `0` for a
    /// follower that rode a leader's grant, `>= 1` for the leader (one
    /// per queue drain it served). Mirrors the lockmeter exactly.
    pub acquired: u32,
    /// Size of the grant group this call's ticket was assigned in
    /// (`1` for a leader-of-one, i.e. an uncontended request).
    pub group: u32,
}

/// One parked follower in the grant queue.
struct GrantCell {
    write: WriteId,
    seg: Segment,
    /// The segment's border children, computed before the follower
    /// queued: geometry needs no lock.
    specs: Vec<Segment>,
    slot: Mutex<GrantSlot>,
    ready: Condvar,
}

/// Filled by the leader, consumed by the parked follower.
struct GrantSlot {
    done: Option<Result<WriteTicket, BlobError>>,
    group: u32,
}

impl GrantCell {
    fn new(write: WriteId, seg: Segment, specs: Vec<Segment>) -> Self {
        Self {
            write,
            seg,
            specs,
            // lint: allow(unmetered-lock) — grant-protocol plumbing: a parked
            // follower's handoff slot; the one metered acquisition for the whole
            // grant is recorded by its leader (see lead_grants)
            slot: Mutex::new(GrantSlot {
                done: None,
                group: 0,
            }),
            ready: Condvar::new(),
        }
    }
}

/// The grant queue: writers that arrive while another writer is leading
/// park here; the `leading` flag is the record log's `committing`
/// discipline (cleared only under this lock after an empty-queue check,
/// so a parked cell can never be stranded).
struct GrantQueue {
    pending: Vec<Arc<GrantCell>>,
    leading: bool,
}

/// All version-manager state for one blob.
pub struct BlobState {
    /// The blob id.
    pub blob: BlobId,
    /// The blob's geometry.
    pub geom: Geometry,
    assign: Mutex<AssignState>,
    grants: Mutex<GrantQueue>,
    batched: bool,
    grant_window: Duration,
    window: PublishWindow,
    history: ConcurrentHistory<WriteRecord>,
    /// Lowest version whose metadata may still exist (raised by GC).
    gc_floor: AtomicU64,
}

impl BlobState {
    /// Fresh blob state with default grant batching (no grant window).
    pub fn new(blob: BlobId, geom: Geometry, window: usize) -> Self {
        Self::with_grants(blob, geom, window, true, Duration::ZERO)
    }

    /// Fresh blob state with explicit grant-protocol knobs.
    pub fn with_grants(
        blob: BlobId,
        geom: Geometry,
        window: usize,
        batched: bool,
        grant_window: Duration,
    ) -> Self {
        Self {
            blob,
            geom,
            // lint: allow(unmetered-lock) — the paper-sanctioned VersionAssign mutex
            // under the PR 10 grant discipline: one metered acquisition (charged via
            // record_version_assign by the grant leader) assigns a contiguous run of
            // versions for the leader plus every queued follower — 1 lock for N ops
            assign: Mutex::new(AssignState {
                next_version: 1,
                index: IntervalMap::new(),
            }),
            // lint: allow(unmetered-lock) — grant-protocol plumbing, not a
            // serialization point of the data model: held for queue push/take only,
            // never across the assignment critical section or I/O; the assignment
            // work itself is metered per grant via record_version_assign
            grants: Mutex::new(GrantQueue {
                pending: Vec::new(),
                leading: false,
            }),
            batched,
            grant_window,
            window: PublishWindow::new(window),
            history: ConcurrentHistory::new(),
            gc_floor: AtomicU64::new(1),
        }
    }

    /// Latest published version (atomic load).
    pub fn latest(&self) -> Version {
        self.window.latest()
    }

    /// Blob descriptor.
    pub fn info(&self) -> BlobInfo {
        BlobInfo {
            blob: self.blob,
            total_size: self.geom.total_size,
            page_size: self.geom.page_size,
            latest: self.latest(),
        }
    }

    /// The record for version `v`, if assigned.
    pub fn record(&self, v: Version) -> Option<WriteRecord> {
        self.history.get(v)
    }

    /// Assign a version number and precompute border links (paper §IV.C).
    ///
    /// The ticket lets the writer weave its metadata **in complete
    /// isolation** with respect to other writers, even when lower versions
    /// are still being written: the version index is updated at
    /// *assignment* time, so a later writer's links already account for
    /// every in-flight earlier write.
    pub fn request_version(&self, write: WriteId, seg: Segment) -> Result<WriteTicket, BlobError> {
        self.request_version_grant(write, seg).map(|g| g.ticket)
    }

    /// [`request_version`](Self::request_version) with grant accounting:
    /// besides the ticket, reports how many assignment-mutex acquisitions
    /// this call performed (`0` for a follower) and how large its grant
    /// group was, so the RPC layer can charge simulated cost exactly
    /// where the lock meter charged real cost.
    pub fn request_version_grant(
        &self,
        write: WriteId,
        seg: Segment,
    ) -> Result<VersionGrant, BlobError> {
        self.geom.validate_aligned(&seg)?;
        // The border children are pure geometry: computed here, outside
        // every lock, so the assignment critical section only reads and
        // updates the version index.
        let mut specs = border_specs(&self.geom, &seg);
        if !self.batched {
            // Per-op ablation: every writer pays its own acquisition —
            // the pre-PR-10 behaviour, kept as the measured ablation.
            blobseer_util::lockmeter::record_version_assign();
            let ticket = {
                let mut st = self.assign.lock();
                self.assign_locked(&mut st, &seg, &specs)?
            };
            self.record_assignment(write, seg, ticket.version);
            return Ok(VersionGrant {
                ticket,
                acquired: 1,
                group: 1,
            });
        }
        let cell = {
            // lint: allow(unmetered-lock) — grant-queue push/leader election only;
            // the assignment work is metered once per grant by the leader
            let mut q = self.grants.lock();
            if q.leading {
                let cell = Arc::new(GrantCell::new(write, seg, std::mem::take(&mut specs)));
                q.pending.push(Arc::clone(&cell));
                Some(cell)
            } else {
                q.leading = true;
                None
            }
        };
        match cell {
            Some(cell) => {
                // Follower: the leader assigns our version inside its
                // grant and hands the ticket through the condvar. We
                // never touch the assignment mutex.
                // lint: allow(unmetered-lock) — parked follower's own handoff slot;
                // the grant's one metered acquisition is the leader's
                let mut slot = cell.slot.lock();
                while slot.done.is_none() {
                    cell.ready.wait(&mut slot);
                }
                let group = slot.group;
                // lint: allow(panic-on-serving-path) — the wait loop above exits
                // only once `done` is `Some`, so the take can never observe `None`
                let ticket = slot.done.take().expect("slot filled before notify")?;
                Ok(VersionGrant {
                    ticket,
                    acquired: 0,
                    group,
                })
            }
            None => self.lead_grants(write, seg, &specs),
        }
    }

    /// Grant leader: optionally linger so concurrent writers can join,
    /// then drain the queue in rounds — **one metered assignment-mutex
    /// acquisition per drain** grants a contiguous run of versions to
    /// every queued writer (plus the leader's own request in the first
    /// round). Leadership is released only under the queue lock after an
    /// empty-queue check, so a parked cell can never be stranded.
    fn lead_grants(
        &self,
        write: WriteId,
        seg: Segment,
        specs: &[Segment],
    ) -> Result<VersionGrant, BlobError> {
        if !self.grant_window.is_zero() {
            std::thread::sleep(self.grant_window);
        }
        let mut own: Option<(Result<WriteTicket, BlobError>, u32)> = None;
        let mut acquired: u32 = 0;
        loop {
            let batch: Vec<Arc<GrantCell>> = {
                // lint: allow(unmetered-lock) — grant-queue drain/leadership release
                // only; the assignment below is metered once per drain
                let mut q = self.grants.lock();
                if own.is_some() && q.pending.is_empty() {
                    q.leading = false;
                    break;
                }
                std::mem::take(&mut q.pending)
            };
            let serve_own = own.is_none();
            let group = u32::try_from(batch.len()).unwrap_or(u32::MAX) + u32::from(serve_own);
            // The one VersionAssign charge for this whole grant group.
            blobseer_util::lockmeter::record_version_assign();
            acquired += 1;
            let mut granted: Vec<Result<WriteTicket, BlobError>> = Vec::with_capacity(batch.len());
            {
                let mut st = self.assign.lock();
                if serve_own {
                    own = Some((self.assign_locked(&mut st, &seg, specs), group));
                }
                for cell in &batch {
                    granted.push(self.assign_locked(&mut st, &cell.seg, &cell.specs));
                }
            }
            // Outside the assignment mutex: record history for every
            // granted ticket, then wake the followers.
            if serve_own {
                if let Some((Ok(t), _)) = &own {
                    self.record_assignment(write, seg, t.version);
                }
            }
            for (cell, result) in batch.iter().zip(granted) {
                if let Ok(t) = &result {
                    self.record_assignment(cell.write, cell.seg, t.version);
                }
                // lint: allow(unmetered-lock) — follower handoff slot fill + notify;
                // the grant's one metered acquisition happened above
                let mut slot = cell.slot.lock();
                slot.group = group;
                slot.done = Some(result);
                cell.ready.notify_one();
            }
        }
        // lint: allow(panic-on-serving-path) — the loop cannot break until `own`
        // is `Some` (the first drain always serves the leader's own request)
        let (result, group) = own.expect("leader served its own request");
        Ok(VersionGrant {
            ticket: result?,
            acquired,
            group,
        })
    }

    /// The assignment critical section for one writer, whose border
    /// children `specs` (`border_specs` of `seg`) were computed before the
    /// lock: `O(log n)` interval-map queries, never across I/O.
    ///
    /// A full publish window — as many granted but unpublished versions
    /// as the window holds — refuses the grant as a typed
    /// [`BlobError::Overload`]: the blob is busy, and a retry succeeds
    /// once the oldest of those writes publishes. It does not clear a
    /// stall: if that writer died between grant and publish, the window
    /// stays full until a cold restart (what a lease that aborts a dead
    /// grant would fix).
    fn assign_locked(
        &self,
        st: &mut AssignState,
        seg: &Segment,
        specs: &[Segment],
    ) -> Result<WriteTicket, BlobError> {
        let v = st.next_version;
        if self.window.would_overflow(v) {
            return Err(BlobError::Overload {
                retry_after_hint: WINDOW_FULL_RETRY_HINT_MS,
            });
        }
        let links = borders_to_links(specs, |child| st.index.range_max(child.offset, child.end()));
        st.index.assign(seg.offset, seg.end(), v);
        st.next_version += 1;
        Ok(WriteTicket {
            version: v,
            borders: links,
        })
    }

    fn record_assignment(&self, write: WriteId, seg: Segment, version: Version) {
        let rec = WriteRecord {
            seg,
            write,
            completed: Arc::new(AtomicBool::new(false)),
        };
        let fresh = self.history.set(version, rec);
        debug_assert!(fresh, "version numbers are unique");
    }

    /// A writer reports success; publication advances over the contiguous
    /// completed prefix. Returns the latest published version.
    pub fn complete_write(&self, v: Version) -> Result<Version, BlobError> {
        let rec = self
            .history
            .get(v)
            .ok_or(BlobError::Internal("completion for unassigned version"))?;
        if rec.completed.swap(true, Ordering::AcqRel) {
            return Err(BlobError::Internal("duplicate completion"));
        }
        Ok(self.window.complete(v))
    }

    /// Compute the GC plan discarding versions below `keep_from`
    /// (clamped to the published watermark; reachability as in
    /// `blobseer-meta`'s `ReferenceStore::gc`). Raises the GC floor so
    /// subsequent plans do not re-report the same nodes.
    pub fn gc_plan(&self, keep_from: Version) -> GcPlan {
        let published = self.latest();
        let keep_from = keep_from.min(published).max(1);
        let floor = self.gc_floor.load(Ordering::Acquire);
        if keep_from <= floor {
            return GcPlan::default();
        }
        // Rebuild the version index as of `keep_from`.
        let mut at_k: IntervalMap<Version> = IntervalMap::new();
        self.history.for_each_up_to(keep_from, |v, rec| {
            at_k.assign(rec.seg.offset, rec.seg.end(), v);
        });
        let mut plan = GcPlan::default();
        self.history.for_each_up_to(keep_from - 1, |v, rec| {
            if v < floor {
                return;
            }
            for iv in write_intervals(&self.geom, &rec.seg) {
                let superseded = at_k.range_max(iv.offset, iv.end()).unwrap_or(0) > v;
                if !superseded {
                    continue;
                }
                plan.dead_nodes.push(blobseer_proto::NodeKey {
                    blob: self.blob,
                    version: v,
                    offset: iv.offset,
                    size: iv.size,
                });
                if iv.size == self.geom.page_size {
                    let key = PageKey {
                        blob: self.blob,
                        write: rec.write,
                        index: iv.offset / self.geom.page_size,
                    };
                    // Replica locations are resolved by the GC executor
                    // from the dead leaf nodes before removal.
                    plan.dead_pages.push((key, Vec::new()));
                }
            }
        });
        self.gc_floor.store(keep_from, Ordering::Release);
        plan
    }
}

/// The version manager's blob table: `ALLOC` creates entries, everything
/// else looks them up. Lookups are sharded reads; creation is rare.
pub struct VersionRegistry {
    blobs: ShardedMap<BlobId, Arc<BlobState>>,
    /// Ordinal of the next blob *this shard* allocates (1-based); the
    /// public id is derived from it through the residue-class mapping.
    next_blob: AtomicU64,
    config: RegistryConfig,
}

impl Default for VersionRegistry {
    fn default() -> Self {
        Self::new(DEFAULT_WINDOW)
    }
}

impl VersionRegistry {
    /// Create an unsharded registry whose blobs allow `window` in-flight
    /// writes, with default grant batching.
    pub fn new(window: usize) -> Self {
        Self::with_config(RegistryConfig {
            window,
            ..RegistryConfig::default()
        })
    }

    /// Create a registry under an explicit [`RegistryConfig`].
    pub fn with_config(config: RegistryConfig) -> Self {
        assert!(config.shards >= 1, "shard count must be at least 1");
        assert!(config.shard < config.shards, "shard index out of range");
        Self {
            blobs: ShardedMap::with_shards(16),
            next_blob: AtomicU64::new(1),
            config,
        }
    }

    /// The configuration this registry runs under.
    pub fn config(&self) -> RegistryConfig {
        self.config
    }

    /// Smallest blob id this shard owns: residue `shard` modulo `shards`,
    /// with ids starting at 1 (so residue 0 starts at `shards` itself).
    fn id_base(&self) -> u64 {
        if self.config.shard == 0 {
            u64::from(self.config.shards)
        } else {
            u64::from(self.config.shard)
        }
    }

    /// The public blob id of this shard's `n`-th allocation (1-based).
    fn id_of(&self, n: u64) -> BlobId {
        BlobId((n - 1) * u64::from(self.config.shards) + self.id_base())
    }

    fn fresh_state(&self, id: BlobId, geom: Geometry) -> Arc<BlobState> {
        Arc::new(BlobState::with_grants(
            id,
            geom,
            self.config.window,
            self.config.batched,
            self.config.grant_window,
        ))
    }

    /// `ALLOC`: create a blob, returning its globally unique id. Shard
    /// `s` of `S` hands out exactly the ids congruent to `s` modulo `S`,
    /// so two shards can never collide; the single-shard sequence is the
    /// classic `1, 2, 3, …`.
    pub fn create_blob(&self, geom: Geometry) -> Arc<BlobState> {
        let n = self.next_blob.fetch_add(1, Ordering::Relaxed);
        let id = self.id_of(n);
        let state = self.fresh_state(id, geom);
        self.blobs.insert(id, Arc::clone(&state));
        state
    }

    /// Recreate a blob under a known id (snapshot restore). The id
    /// allocator is advanced past it so future `create_blob` calls never
    /// collide. The id must belong to this shard's residue class.
    pub fn create_blob_with_id(&self, id: BlobId, geom: Geometry) -> Arc<BlobState> {
        let shards = u64::from(self.config.shards);
        debug_assert_eq!(
            id.0 % shards,
            u64::from(self.config.shard) % shards,
            "blob id {id:?} does not belong to shard {}/{shards}",
            self.config.shard
        );
        let n = (id.0 - self.id_base()) / shards + 1;
        self.next_blob.fetch_max(n + 1, Ordering::Relaxed);
        let state = self.fresh_state(id, geom);
        self.blobs.insert(id, Arc::clone(&state));
        state
    }

    /// Snapshot of every blob state (ordered by id, for deterministic
    /// serialization).
    pub fn states(&self) -> Vec<Arc<BlobState>> {
        let mut out: Vec<Arc<BlobState>> = Vec::new();
        for id in self.blobs.keys() {
            if let Some(s) = self.blobs.get_cloned(&id) {
                out.push(s);
            }
        }
        out.sort_by_key(|s| s.blob);
        out
    }

    /// Look up a blob.
    pub fn get(&self, blob: BlobId) -> Result<Arc<BlobState>, BlobError> {
        self.blobs
            .get_cloned(&blob)
            .ok_or(BlobError::UnknownBlob(blob))
    }

    /// Number of registered blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when no blob was allocated yet.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(8192, 1024).unwrap()
    }

    fn seg(o: u64, s: u64) -> Segment {
        Segment::new(o, s)
    }

    #[test]
    fn alloc_assign_complete_publish() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        assert_eq!(b.latest(), 0);
        let t = b.request_version(WriteId(1), seg(0, 1024)).unwrap();
        assert_eq!(t.version, 1);
        assert_eq!(b.latest(), 0, "not published until complete");
        assert_eq!(b.complete_write(1).unwrap(), 1);
        assert_eq!(b.latest(), 1);
        assert_eq!(b.info().latest, 1);
    }

    #[test]
    fn out_of_order_publication() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        let t1 = b.request_version(WriteId(1), seg(0, 1024)).unwrap();
        let t2 = b.request_version(WriteId(2), seg(1024, 1024)).unwrap();
        assert_eq!((t1.version, t2.version), (1, 2));
        // v2 completes first: nothing published (serializability).
        assert_eq!(b.complete_write(2).unwrap(), 0);
        assert_eq!(b.latest(), 0);
        assert_eq!(b.complete_write(1).unwrap(), 2);
        assert_eq!(b.latest(), 2);
    }

    #[test]
    fn border_links_see_in_flight_writes() {
        // Writer 1 (v1, whole blob) has NOT completed when writer 2 asks
        // for its ticket — yet v2's links must point at v1 (paper §IV.C:
        // "even when the previous version is being written concurrently").
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        let _t1 = b.request_version(WriteId(1), seg(0, 8192)).unwrap();
        let t2 = b.request_version(WriteId(2), seg(0, 1024)).unwrap();
        assert_eq!(t2.version, 2);
        // All missing children must link to version 1, not 0.
        assert_eq!(t2.borders.len(), 7, "the 8-page root misses 7 pages");
        for link in &t2.borders {
            assert_eq!(*link, 1, "every border must link to in-flight v1");
        }
    }

    #[test]
    fn first_write_links_to_zero() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        let t = b.request_version(WriteId(1), seg(0, 1024)).unwrap();
        for link in &t.borders {
            assert_eq!(*link, 0);
        }
    }

    #[test]
    fn wrapping_segment_is_refused_before_any_grant() {
        // offset + size wraps past 2^64 to 1 MiB on a blob of 1 MiB
        // pages: an unchecked end would pass the bounds check and be
        // granted a version with no tree.
        let reg = VersionRegistry::default();
        let b = reg.create_blob(Geometry::new(1 << 30, 1 << 20).unwrap());
        let wrapping = seg(u64::MAX - (1 << 20) + 1, 2 << 20);
        let err = b.request_version_grant(WriteId(1), wrapping).unwrap_err();
        assert!(
            matches!(
                err,
                BlobError::BadSegment {
                    reason: "out of bounds",
                    ..
                }
            ),
            "{err:?}"
        );
        // Nothing was assigned: the next writer gets version 1.
        let t = b.request_version(WriteId(2), seg(0, 1 << 20)).unwrap();
        assert_eq!(t.version, 1);
    }

    #[test]
    fn rejects_bad_segments_and_duplicates() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        assert!(b.request_version(WriteId(1), seg(100, 1024)).is_err());
        assert!(b.request_version(WriteId(1), seg(0, 0)).is_err());
        let t = b.request_version(WriteId(1), seg(0, 1024)).unwrap();
        b.complete_write(t.version).unwrap();
        assert!(b.complete_write(t.version).is_err(), "duplicate completion");
        assert!(b.complete_write(99).is_err(), "unassigned version");
    }

    #[test]
    fn unknown_blob_lookup() {
        let reg = VersionRegistry::default();
        assert!(reg.get(BlobId(42)).is_err());
        assert!(reg.is_empty());
        let b = reg.create_blob(geom());
        assert_eq!(reg.get(b.blob).unwrap().blob, b.blob);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn window_overflow_is_refused() {
        let reg = VersionRegistry::new(4);
        let b = reg.create_blob(geom());
        for i in 0..4 {
            b.request_version(WriteId(i), seg(0, 1024)).unwrap();
        }
        // 5th in-flight write exceeds the window: typed, with a hint.
        assert_eq!(
            b.request_version(WriteId(9), seg(0, 1024)).unwrap_err(),
            BlobError::Overload {
                retry_after_hint: WINDOW_FULL_RETRY_HINT_MS
            }
        );
        // Completing v1 frees space.
        b.complete_write(1).unwrap();
        assert!(b.request_version(WriteId(10), seg(0, 1024)).is_ok());
    }

    #[test]
    fn gc_plan_marks_superseded_chains() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        // v1 writes everything; v2 and v3 rewrite page 0.
        for (w, s) in [(1u64, seg(0, 8192)), (2, seg(0, 1024)), (3, seg(0, 1024))] {
            let t = b.request_version(WriteId(w), s).unwrap();
            b.complete_write(t.version).unwrap();
        }
        let plan = b.gc_plan(3);
        // Dead pages: page 0 of v1 (write 1) and of v2 (write 2).
        assert_eq!(plan.dead_pages.len(), 2);
        let dead_writes: Vec<u64> = plan.dead_pages.iter().map(|(k, _)| k.write.0).collect();
        assert!(dead_writes.contains(&1) && dead_writes.contains(&2));
        // v1's interior nodes along page-0 path die too; its right-side
        // subtree survives.
        assert!(plan.dead_nodes.iter().all(|k| k.version < 3));
        assert!(
            !plan
                .dead_nodes
                .iter()
                .any(|k| k.offset >= 1024 && k.size == 1024),
            "no surviving leaf outside page 0 may be collected"
        );
        // Second plan with the same floor returns nothing new.
        assert!(b.gc_plan(3).dead_nodes.is_empty());
    }

    #[test]
    fn gc_plan_clamps_to_published() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        let t = b.request_version(WriteId(1), seg(0, 1024)).unwrap();
        // Not completed yet: nothing may be planned.
        let plan = b.gc_plan(10);
        assert!(plan.dead_nodes.is_empty());
        b.complete_write(t.version).unwrap();
    }

    #[test]
    fn solo_writer_is_a_leader_of_one() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        let before = blobseer_util::lockmeter::thread_snapshot();
        let g = b.request_version_grant(WriteId(1), seg(0, 1024)).unwrap();
        assert_eq!(g.ticket.version, 1);
        assert_eq!(g.acquired, 1, "uncontended request pays one acquisition");
        assert_eq!(g.group, 1);
        assert_eq!(before.since().version_assign, 1);
    }

    #[test]
    fn per_op_ablation_charges_every_writer() {
        let reg = VersionRegistry::with_config(RegistryConfig {
            batched: false,
            ..RegistryConfig::default()
        });
        let b = reg.create_blob(geom());
        let before = blobseer_util::lockmeter::thread_snapshot();
        for i in 1..=8u64 {
            let g = b.request_version_grant(WriteId(i), seg(0, 1024)).unwrap();
            assert_eq!((g.acquired, g.group), (1, 1));
            assert_eq!(g.ticket.version, i);
        }
        assert_eq!(before.since().version_assign, 8);
    }

    #[test]
    fn hot_blob_grants_batch_with_dense_total_order() {
        const WRITERS: u64 = 16;
        let reg = VersionRegistry::with_config(RegistryConfig {
            grant_window: Duration::from_millis(25),
            ..RegistryConfig::default()
        });
        let b = reg.create_blob(geom());
        let barrier = std::sync::Barrier::new(WRITERS as usize);
        let grants: Vec<(VersionGrant, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=WRITERS)
                .map(|w| {
                    let b = &b;
                    let barrier = &barrier;
                    s.spawn(move || {
                        let before = blobseer_util::lockmeter::thread_snapshot();
                        barrier.wait();
                        let g = b.request_version_grant(WriteId(w), seg(0, 1024)).unwrap();
                        (g, before.since().version_assign)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Dense total order: every version 1..=16 assigned exactly once.
        let mut versions: Vec<Version> = grants.iter().map(|(g, _)| g.ticket.version).collect();
        versions.sort_unstable();
        assert_eq!(versions, (1..=WRITERS).collect::<Vec<_>>());
        // Each thread's lockmeter delta matches its reported `acquired`.
        for (g, metered) in &grants {
            assert_eq!(u64::from(g.acquired), *metered);
        }
        // The whole storm was served by strictly fewer acquisitions than
        // ops — the batched-assignment invariant the bench gate holds.
        let total: u64 = grants.iter().map(|(g, _)| u64::from(g.acquired)).sum();
        assert!(
            (1..WRITERS).contains(&total),
            "16 writers must share grants (total acquisitions = {total})"
        );
        // History is complete: every version has its writer's record.
        for (g, _) in &grants {
            assert!(b.record(g.ticket.version).is_some());
        }
    }

    #[test]
    fn grant_overflow_fails_only_the_excess_cells() {
        // Window of 2, four concurrent writers: exactly two tickets may
        // be granted regardless of how the grant groups form.
        let reg = VersionRegistry::with_config(RegistryConfig {
            window: 2,
            grant_window: Duration::from_millis(10),
            ..RegistryConfig::default()
        });
        let b = reg.create_blob(geom());
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<Result<WriteTicket, BlobError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=4u64)
                .map(|w| {
                    let b = &b;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        b.request_version(WriteId(w), seg(0, 1024))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut ok: Vec<Version> = results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|t| t.version))
            .collect();
        ok.sort_unstable();
        assert_eq!(ok, vec![1, 2], "exactly the window may be in flight");
        let shed = |r: &&Result<WriteTicket, BlobError>| matches!(r, Err(BlobError::Overload { retry_after_hint }) if *retry_after_hint > 0);
        assert_eq!(results.iter().filter(shed).count(), 2);
    }

    #[test]
    fn sharded_registries_allocate_disjoint_residue_classes() {
        let shards: Vec<VersionRegistry> = (0..4)
            .map(|s| {
                VersionRegistry::with_config(RegistryConfig {
                    shard: s,
                    shards: 4,
                    ..RegistryConfig::default()
                })
            })
            .collect();
        for (s, reg) in shards.iter().enumerate() {
            for _ in 0..3 {
                let b = reg.create_blob(geom());
                // Every id routes back to its shard with one modulo.
                assert_eq!(b.blob.0 % 4, s as u64);
                assert!(b.blob.0 >= 1);
            }
        }
        // Shard 1 produced 1, 5, 9; shard 0 produced 4, 8, 12.
        let ids = |s: usize| {
            let mut v: Vec<u64> = shards[s].states().iter().map(|b| b.blob.0).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(0), vec![4, 8, 12]);
        assert_eq!(ids(1), vec![1, 5, 9]);
        assert_eq!(ids(3), vec![3, 7, 11]);
    }

    #[test]
    fn create_with_id_advances_the_sharded_allocator() {
        let reg = VersionRegistry::with_config(RegistryConfig {
            shard: 2,
            shards: 4,
            ..RegistryConfig::default()
        });
        // Restore blobs 2 and 10 (this shard's 1st and 3rd allocations).
        reg.create_blob_with_id(BlobId(10), geom());
        reg.create_blob_with_id(BlobId(2), geom());
        // A fresh allocation must skip past 10 → 14.
        let b = reg.create_blob(geom());
        assert_eq!(b.blob.0, 14);
    }

    #[test]
    fn single_shard_ids_are_the_classic_sequence() {
        let reg = VersionRegistry::default();
        assert_eq!(reg.create_blob(geom()).blob.0, 1);
        assert_eq!(reg.create_blob(geom()).blob.0, 2);
        reg.create_blob_with_id(BlobId(7), geom());
        assert_eq!(reg.create_blob(geom()).blob.0, 8);
    }
}
