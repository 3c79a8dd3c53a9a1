//! `BlobClient` — the public client library: `ALLOC` / `READ` / `WRITE`
//! exactly as specified in the paper's §II, plus the §VI future-work
//! features (garbage collection, client-side metadata caching, page
//! replication) implemented.
//!
//! Protocol fidelity (§III.B):
//! * **READ**: a level-by-level descent of the segment tree with
//!   *batched, parallel* metadata fetches, then *parallel* page downloads
//!   — no lock anywhere, no interaction with any writer. Each step waits
//!   only for the reply it consumes: every metadata message is decoded
//!   inside its burst the moment it lands; the leaf level and the pages
//!   share one burst, each leaf's page fetch leaving as a late frame of
//!   it the moment that leaf is decoded, so the first pages are on the
//!   wire while later leaves are still arriving; and each page is
//!   stitched into the read's buffer the moment its reply lands, so only
//!   the last page's stitch follows the last byte. The one question for
//!   the version manager, the latest version, costs no round trip of its
//!   own: published trees never change, so the read descends the newest
//!   version it has seen published and sends `GET_LATEST` in the same
//!   burst as its first metadata or page fetch, re-descending only if
//!   the answer shows a newer version; no page is stitched before that
//!   answer is in.
//! * **WRITE**: provider-manager plan → version + border links from the
//!   version manager, with the first page put riding the same burst →
//!   the batched metadata puts and the other page puts → completion
//!   report. Each page is copied into its own send buffer just before
//!   its put leaves: page 0, the lead, while the plan is in flight, the
//!   rest once the metadata frames have left. The client's other work rides the
//!   round trips too: the metadata — built **in isolation** — has its
//!   leaves, which name the planned replicas, woven while the version
//!   request and the lead page are; only the inner nodes wait for the
//!   ticket's border links, and the metadata frames leave the moment
//!   they are woven, first among the late frames that join the lead
//!   page's burst. The write waits for the slower of its page upload
//!   and its metadata round, not for both. The paper puts the pages
//!   first so that a failed write burns no version; here a page that no
//!   replica acknowledged is re-placed away from the providers that
//!   failed it, and its leaf re-put, before the completion report, which
//!   keeps that guarantee for page failures, and a write whose version
//!   request fails takes its lead page back.
//!   [`WriteStats::metadata_ns`] still reports the metadata round's own
//!   time, overlapped or not.
//!
//! The op surface is one method per buffer shape: `write` (borrowed
//! slice), `write_with_stats` (the same, with the Figure 3(b) breakdown)
//! and `write_buf` (a shared [`PageBuf`], the write pipeline itself);
//! `read`, `read_with_stats`, `read_into` (a caller's buffer) and
//! `read_buf` (a shared [`PageBuf`]), each one retry loop around one
//! read engine. The version pin is a plain argument, and retry is the
//! client's policy ([`BlobClient::with_retry_policy`]), never per call.
//!
//! The client charges its own per-node processing costs (deserialization,
//! tree descent, buffer stitching) to the virtual clock — the paper notes
//! "the main limiting factor is actually the performance of the client's
//! processing power", and reproducing Figure 3(a) depends on it.

use crate::heat::HeatTracker;
use blobseer_dht::{DhtClient, Ring};
use blobseer_meta::read::{expand, root_key, stitch_page, zero_gaps, Visit};
use blobseer_meta::write::{weave_inner, weave_leaves};
use blobseer_proto::messages::{
    method, BlobInfo, CompleteWrite, CreateBlob, GcRequest, GetLatest, GetPage, PlanWrite,
    PublishState, PutPage, RemovePage, RequestVersion, WritePlan, WriteTicket,
};
use blobseer_proto::tree::{NodeBody, NodeKey, PageKey, PageLoc, TreeNode};
use blobseer_proto::wire::Wire;
use blobseer_proto::{BlobError, BlobId, Geometry, NodeId, PageBuf, ProviderId, Segment, Version};
use blobseer_rpc::{
    parse_response, Ctx, Frame, Replies, RetryPolicy, RpcClient, ShardRouter, TransportResult,
};
use blobseer_simnet::ClientCosts;
use blobseer_util::{lockmeter, ClockCache, FxHashMap};
use parking_lot::RwLock;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The client-side metadata-tree cache: a sharded concurrent CLOCK cache
/// of refcounted tree-node bodies. One instance may be shared by any
/// number of [`BlobClient`]s (tree nodes are immutable, so the cache
/// never needs invalidation), letting co-located readers warm one cache
/// instead of N cold ones.
pub type MetaCache = ClockCache<NodeKey, Arc<NodeBody>>;

/// Virtual-time breakdown of one WRITE (Figure 3(b)'s instrument).
///
/// The five stage fields partition the write's time, so they sum to
/// [`WriteStats::total_ns`]. Where two pieces of work run side by side —
/// a round trip and the client CPU that rides it, or the page and
/// metadata legs — the span goes to the stage whose work finished last.
/// On the paper's cell the plan outlasts page 0's copy, the only work
/// that may ride it (no page leaves before its placement), so `plan_ns`
/// holds the plan round trip; the leaf weave outlasts the ticket, so
/// `ticket_ns` is 0; the pages take longer than the metadata, so
/// `pages_ns` holds the upload.
/// `meta_leg_ns` holds the metadata leg's own duration whichever leg
/// finished last.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteStats {
    /// Provider-manager plan round trip, when it outlasted page 0's
    /// copy, which rides it.
    pub plan_ns: u64,
    /// Page 0's copy (the plan round trip included when it finished
    /// first); from the metadata frames' send on, the other pages' copies and the page
    /// leg — the lead put that left with the version request and the
    /// other puts — when it finished last; and any page retry or
    /// re-placement rounds.
    pub pages_ns: u64,
    /// Version + border-link round trip, when it outlasted the leaf weave
    /// that rides it.
    pub ticket_ns: u64,
    /// The leaf weave (the ticket round trip included when it finished
    /// first), the inner weave, the span from the metadata frames' send
    /// when the metadata leg finished last, any leaf re-put, and the
    /// cache warm.
    pub meta_ns: u64,
    /// Completion report round trip.
    pub publish_ns: u64,
    /// The metadata leg's own time, overlapped or not: from the version
    /// request's send to the last `META_PUT_BATCH` reply — the ticket
    /// round trip with the leaf weave that rides it (the longer of the
    /// two), the inner weave, the metadata frames' round, which may queue
    /// on the client's NIC behind the lead page — then any leaf re-put
    /// and the cache warm: the paper's "metadata write".
    pub meta_leg_ns: u64,
    /// Tree nodes this write created.
    pub nodes_built: u64,
}

/// Which [`WriteStats`] stage a span is charged to.
type Stage = fn(&mut WriteStats) -> &mut u64;

impl WriteStats {
    /// The metadata share (the metadata leg, ticket included, + publish)
    /// — what Fig. 3(b) plots. It counts the ticket once, inside the
    /// leg, and counts the leg's own time even where the page leg hid
    /// it, so it is not a share of `total_ns`.
    pub fn metadata_ns(&self) -> u64 {
        self.meta_leg_ns + self.publish_ns
    }

    /// Total time.
    pub fn total_ns(&self) -> u64 {
        self.plan_ns + self.pages_ns + self.ticket_ns + self.meta_ns + self.publish_ns
    }

    /// Charge the virtual time from `mark` to `at` to one stage and move
    /// the mark, returning the time charged: consecutive laps partition
    /// the write's time.
    fn lap(&mut self, at: u64, mark: &mut u64, stage: Stage) -> u64 {
        let ns = at - *mark;
        *stage(self) += ns;
        *mark = at;
        ns
    }

    /// [`WriteStats::lap`] over a span in which two pieces of work ran
    /// side by side, each given as (when it finished, its stage): the
    /// span goes to the one that finished last, `b` on a tie.
    fn lap_to_last(&mut self, at: u64, mark: &mut u64, a: (u64, Stage), b: (u64, Stage)) -> u64 {
        let stage = if a.0 > b.0 { a.1 } else { b.1 };
        self.lap(at, mark, stage)
    }
}

/// Virtual-time breakdown of one READ (Figure 3(a)'s instrument).
///
/// The stages partition the read's time. The version check travels in
/// the same burst as the read's first metadata or page fetch, and a
/// burst is charged to the stage of the work it carried: a read whose
/// frontier floor was already the latest version has `latest_ns == 0`.
/// The leaf burst carries both the leaves and the pages, so it is split
/// where the last leaf was decoded: the descent before, the pages —
/// downloads and stitches — after.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadStats {
    /// The version check, when it cost time of its own: a blob
    /// descriptor fetched by this read, or a `GET_LATEST` with nothing
    /// to ride with (no floor yet, a pinned version above the floor, a
    /// version-0 or all-zero range).
    pub latest_ns: u64,
    /// Tree descent with batched metadata fetches — what Fig. 3(a)
    /// plots: each level up to its last node decoded (or its last reply,
    /// the version check's included, if that came later), the leaf level
    /// up to its last leaf decoded, plus any replica rounds for leaves
    /// missing on their primary.
    pub meta_ns: u64,
    /// Parallel page downloads, each page stitched into the result as it
    /// lands: from the last leaf decoded to the last page's stitch, one
    /// `page_ns` after that page's arrival when it arrives last,
    /// whichever pages had already left with earlier leaves.
    pub data_ns: u64,
    /// Tree nodes visited in the version the read returned.
    pub nodes_visited: u64,
    /// Burst fetches dropped because the frontier moved: tree nodes and
    /// pages fetched for the floor's version that the newer version's
    /// tree did not use. Zero on a confirmed read.
    pub refetched: u64,
}

impl ReadStats {
    /// The metadata share (latest + descent).
    pub fn metadata_ns(&self) -> u64 {
        self.latest_ns + self.meta_ns
    }

    /// Total time.
    pub fn total_ns(&self) -> u64 {
        self.latest_ns + self.meta_ns + self.data_ns
    }
}

/// Where a READ's bytes go, as its caller asked.
enum Out<'a> {
    /// The caller's buffer, exactly `seg.size` bytes (`read_into`).
    Caller(&'a mut [u8]),
    /// A buffer of the read's own (`read`, `read_with_stats`, and a
    /// `read_buf` of anything but one whole page), zero-allocated once
    /// the segment is validated.
    Owned(Vec<u8>),
    /// A `read_buf`, until the segment shows whether it is one whole
    /// aligned page: then the fetched buffer itself, never copied.
    Page(Option<PageBuf>),
}

/// One attempt's landing of its pages in the read's [`Out`]: each page
/// is stitched into place the moment its reply is in hand, `page_ns`
/// charged with the copy, and the gap pass zeroes what no page covered.
struct Dest<'o, 'a> {
    out: &'o mut Out<'a>,
    geom: Geometry,
    seg: Segment,
    page_ns: u64,
    /// The blob ranges this attempt landed, for the gap pass.
    covered: Vec<Segment>,
}

impl<'o, 'a> Dest<'o, 'a> {
    /// Ready `out` for an attempt at the validated `seg`: a `read_buf`
    /// keeps its page only if `seg` is exactly one aligned page, and a
    /// buffer of the read's own is allocated on the first attempt.
    fn new(out: &'o mut Out<'a>, geom: Geometry, seg: Segment, page_ns: u64) -> Self {
        let size = seg.size as usize;
        let whole = seg.size == geom.page_size && seg.offset.is_multiple_of(geom.page_size);
        match out {
            Out::Page(page) if whole => *page = None,
            Out::Page(_) => *out = Out::Owned(vec![0; size]),
            Out::Owned(buf) if buf.len() != size => *buf = vec![0; size],
            Out::Owned(_) | Out::Caller(_) => {}
        }
        Self {
            out,
            geom,
            seg,
            page_ns,
            covered: Vec::new(),
        }
    }

    /// Land one fetched page, which serves the read's bytes `range`, on
    /// `c`'s clock: copy that share into the buffer, or keep a whole
    /// page's buffer itself.
    fn land(&mut self, c: &mut Ctx, range: &Segment, data: &PageBuf) -> Result<(), BlobError> {
        c.advance(self.page_ns);
        match &mut *self.out {
            Out::Caller(buf) => stitch_page(&self.geom, &self.seg, range, data, buf)?,
            Out::Owned(buf) => stitch_page(&self.geom, &self.seg, range, data, buf)?,
            Out::Page(page) => {
                if *range != self.seg {
                    return Err(BlobError::Internal("page range outside read"));
                }
                if data.len() as u64 != self.geom.page_size {
                    return Err(BlobError::Internal("short page"));
                }
                *page = Some(data.clone());
            }
        }
        self.covered.push(*range);
        Ok(())
    }

    /// The gap pass: zero every byte no landed page covered.
    fn finish(self) {
        match self.out {
            Out::Caller(buf) => zero_gaps(&self.seg, &self.covered, buf),
            Out::Owned(buf) => zero_gaps(&self.seg, &self.covered, buf),
            Out::Page(_) => {}
        }
    }
}

/// A leaf a READ resolved: the page it names, the bytes of the read
/// that page serves, and the replica the page's fetch starts at.
#[derive(Clone)]
struct LeafPage {
    loc: PageLoc,
    range: Segment,
    start: usize,
}

impl LeafPage {
    /// The page's `GET_PAGE`, to the replica its fetch starts at.
    /// Well-formed leaves always carry at least one replica; a malformed
    /// one routes to an impossible node and surfaces as `MissingPage`
    /// through the normal failover path.
    fn get(&self) -> (NodeId, Frame) {
        let first = self.loc.replicas.get(self.start).copied();
        let to = NodeId(first.unwrap_or(ProviderId(u32::MAX)).0);
        (
            to,
            Frame::from_msg(method::GET_PAGE, &GetPage { key: self.loc.key }),
        )
    }
}

/// A read's version check.
enum Check {
    /// Still owed: `GET_LATEST` rides the read's next fetch, and its
    /// answer raises the blob's floor.
    Owed { vm: NodeId, known: Arc<KnownBlob> },
    /// The latest published version, as this read observed it.
    Answered(Version),
}

/// One READ in progress: what it asked for and what it has learned.
struct ReadState {
    blob: BlobId,
    geom: Geometry,
    seg: Segment,
    /// The pinned version, if any.
    version: Option<Version>,
    /// The version whose tree the read is descending.
    target: Version,
    check: Check,
    /// Pages a dropped burst brought, by key. Pages are immutable per
    /// key, so the newer tree reuses any it names.
    spare: FxHashMap<PageKey, PageBuf>,
    stats: ReadStats,
    /// Where the stats' last lap ended.
    mark: u64,
}

impl ReadState {
    /// Charge the virtual time from the mark to `at` to one stage and
    /// move the mark there: consecutive laps partition the read's time.
    fn lap(&mut self, at: u64, stage: fn(&mut ReadStats) -> &mut u64) {
        *stage(&mut self.stats) += at - self.mark;
        self.mark = at;
    }

    /// Judge the descended target against `latest`: a pinned version
    /// above it is not published; a `read(None)` whose floor was not the
    /// latest version moves to it. Returns whether the target moved.
    fn settle(&mut self, latest: Version) -> Result<bool, BlobError> {
        let moved = moves(self.version, self.target, latest)?;
        if moved {
            self.target = latest;
        }
        Ok(moved)
    }
}

/// Whether `latest` moves a read of `version` (`None`: the latest)
/// that is descending `target`'s tree; a pinned version above `latest`
/// is not published.
fn moves(version: Option<Version>, target: Version, latest: Version) -> Result<bool, BlobError> {
    match version {
        Some(v) if v > latest => Err(BlobError::VersionNotPublished {
            requested: v,
            latest,
        }),
        Some(_) => Ok(false),
        None => Ok(target != latest),
    }
}

/// What a client knows of one blob: its geometry, and its **frontier
/// floor** — the highest version this client has seen published, raised
/// by every `GET_LATEST`, `GET_BLOB` and `COMPLETE_WRITE` reply. A
/// `read(None)` descends the floor's tree while it asks for `latest`.
struct KnownBlob {
    geom: Geometry,
    floor: AtomicU64,
}

impl KnownBlob {
    /// Raise the floor to a published version just observed. The floor
    /// publishes no in-process data (the version it names lives on the
    /// servers), so the ordering is relaxed.
    fn observe(&self, published: Version) {
        self.floor.fetch_max(published, Ordering::Relaxed);
    }
}

/// A client of the blob store. One instance per logical client process;
/// cheap to create. Nothing in it serializes independent operations: the
/// metadata cache is a shared concurrent [`MetaCache`] and the geometry
/// map is read-checked before its write lock is ever touched (see
/// `crates/core/tests/lock_free.rs` for the measured invariant).
pub struct BlobClient {
    rpc: RpcClient,
    vms: ShardRouter,
    pm: NodeId,
    dht: DhtClient,
    costs: ClientCosts,
    cache: Option<Arc<MetaCache>>,
    blobs: RwLock<FxHashMap<BlobId, Arc<KnownBlob>>>,
    replication: u32,
    retry: RetryPolicy,
    heat: Option<Arc<HeatTracker>>,
    // Round-robin cursor spreading multi-replica page reads.
    rr: AtomicU64,
    // Round-robin cursor spreading key-less version-manager requests
    // (blob creation) across shards.
    vm_rr: AtomicU64,
}

impl BlobClient {
    /// Assemble a client. Usually called via
    /// [`Deployment::client`](crate::Deployment::client), which hands
    /// every client one shared [`MetaCache`].
    pub fn new(
        rpc: RpcClient,
        vm: NodeId,
        pm: NodeId,
        ring: Arc<Ring>,
        costs: ClientCosts,
        cache: Option<Arc<MetaCache>>,
        replication: u32,
    ) -> Self {
        let dht = DhtClient::new(rpc.clone(), ring);
        Self {
            rpc,
            vms: ShardRouter::new(vec![vm]),
            pm,
            dht,
            costs,
            cache,
            // lint: allow(unmetered-lock) — construction only; every geometry-map
            // acquisition below carries its Shared/Serializing charge
            blobs: RwLock::new(FxHashMap::default()),
            replication,
            retry: RetryPolicy::none(),
            heat: None,
            rr: AtomicU64::new(0),
            vm_rr: AtomicU64::new(0),
        }
    }

    /// Route version-manager traffic across sharded manager nodes:
    /// `nodes[s]` must serve the registry shard owning blob ids
    /// `≡ s (mod nodes.len())`. Blob-keyed requests route by one modulo
    /// (`vm_for`); creation round-robins, since any shard may
    /// allocate (each hands out ids from its own residue class).
    pub fn with_version_nodes(mut self, nodes: Vec<NodeId>) -> Self {
        self.vms = ShardRouter::new(nodes);
        self
    }

    /// The version-manager shard owning `blob`.
    fn vm_for(&self, blob: BlobId) -> NodeId {
        self.vms.route(blob.0)
    }

    /// Set the client's [`RetryPolicy`], applied to its idempotent
    /// operations: whole reads and the page puts of a write. The default
    /// is [`RetryPolicy::none`] (fail fast).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attach a shared [`HeatTracker`]: page fetches are counted and
    /// hot pages are promoted onto extra providers (read fan-out).
    pub fn with_heat(mut self, heat: Arc<HeatTracker>) -> Self {
        self.heat = Some(heat);
        self
    }

    /// The shared heat tracker, when fan-out is enabled.
    pub fn heat(&self) -> Option<&Arc<HeatTracker>> {
        self.heat.as_ref()
    }

    /// Back off before retry `attempt`, spending the delay on both
    /// clocks: the virtual clock (so sim benches see queueing delay)
    /// and the wall clock (so TCP peers actually get air). Returns
    /// `None` — ending the retry loop — once the client's policy is
    /// exhausted or the error is not retryable.
    fn backoff(&self, ctx: &mut Ctx, attempt: u32, err: &BlobError) -> Option<()> {
        let delay = self.retry.backoff_for(attempt, err)?;
        ctx.advance(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX));
        if delay > Duration::ZERO {
            std::thread::sleep(delay);
        }
        Some(())
    }

    /// `(hits, misses)` of the metadata cache, if enabled. When the cache
    /// is shared, the counters aggregate every sharing client.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Record a blob descriptor: its geometry, write-locking the map only
    /// when the entry is actually new or changed — repeated opens of a
    /// known blob stay lock-write-free (geometries are immutable, so the
    /// read check almost always suffices) — and its `latest`, which
    /// raises the entry's frontier floor. A new or changed geometry
    /// starts a new entry, whose floor is that `latest`.
    fn remember(&self, info: &BlobInfo) -> Arc<KnownBlob> {
        let geom = info.geometry();
        lockmeter::record_shared();
        let known = self.blobs.read().get(&info.blob).cloned();
        if let Some(known) = known.filter(|k| k.geom == geom) {
            known.observe(info.latest);
            return known;
        }
        let known = Arc::new(KnownBlob {
            geom,
            floor: AtomicU64::new(info.latest),
        });
        lockmeter::record_serializing();
        self.blobs.write().insert(info.blob, Arc::clone(&known));
        known
    }

    /// `ALLOC`: create a blob, returning its descriptor.
    pub fn alloc(
        &self,
        ctx: &mut Ctx,
        total_size: u64,
        page_size: u64,
    ) -> Result<BlobInfo, BlobError> {
        let shard = self
            .vms
            .round_robin(self.vm_rr.fetch_add(1, Ordering::Relaxed));
        let info: BlobInfo = self.rpc.call(
            ctx,
            shard,
            method::CREATE_BLOB,
            &CreateBlob {
                total_size,
                page_size,
            },
        )?;
        // A new blob starts at its own `latest`, whatever an earlier blob
        // of this id reached (a memory-backend restart reuses ids).
        self.remember(&info)
            .floor
            .store(info.latest, Ordering::Relaxed);
        Ok(info)
    }

    /// Blob descriptor (geometry + latest published version).
    pub fn info(&self, ctx: &mut Ctx, blob: BlobId) -> Result<BlobInfo, BlobError> {
        Ok(self.open(ctx, blob)?.0)
    }

    /// `GET_BLOB`: the descriptor, and the client's entry for the blob.
    fn open(&self, ctx: &mut Ctx, blob: BlobId) -> Result<(BlobInfo, Arc<KnownBlob>), BlobError> {
        let info: BlobInfo = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::GET_BLOB,
            &GetLatest { blob },
        )?;
        let known = self.remember(&info);
        Ok((info, known))
    }

    /// Latest published version.
    pub fn latest(&self, ctx: &mut Ctx, blob: BlobId) -> Result<Version, BlobError> {
        let latest = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::GET_LATEST,
            &GetLatest { blob },
        )?;
        if let Some(known) = self.known(blob) {
            known.observe(latest);
        }
        Ok(latest)
    }

    /// The client's entry for `blob`, if it has one.
    fn known(&self, blob: BlobId) -> Option<Arc<KnownBlob>> {
        lockmeter::record_shared();
        self.blobs.read().get(&blob).cloned()
    }

    /// The client's entry for `blob`, fetching the descriptor if there
    /// is none — in which case its `latest` comes back too: a version
    /// check this call has already made.
    fn entry(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
    ) -> Result<(Arc<KnownBlob>, Option<Version>), BlobError> {
        if let Some(known) = self.known(blob) {
            return Ok((known, None));
        }
        let (info, known) = self.open(ctx, blob)?;
        Ok((known, Some(info.latest)))
    }

    // ------------------------------------------------------------------
    // WRITE
    // ------------------------------------------------------------------

    /// `WRITE(id, buffer, offset, size)` for page-aligned segments.
    /// Returns the snapshot version this write produced (`vw`).
    ///
    /// Each page is copied **once**, into its own [`PageBuf`], just
    /// before its put leaves (see [`BlobClient::write_buf`]); every
    /// replica's put shares that buffer. A segment the blob's geometry
    /// refuses is refused before any copy. Callers that already hold a
    /// `PageBuf` should use [`BlobClient::write_buf`], which performs
    /// zero copies.
    pub fn write(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: &[u8],
    ) -> Result<Version, BlobError> {
        Ok(self.write_with_stats(ctx, blob, offset, data)?.0)
    }

    /// [`BlobClient::write`] with per-phase virtual-time breakdown — the
    /// instrument behind Figure 3(b), which reports the *metadata* share
    /// of a write.
    pub fn write_with_stats(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: &[u8],
    ) -> Result<(Version, WriteStats), BlobError> {
        self.write_data(ctx, blob, offset, data.len() as u64, |r| {
            PageBuf::copy_from_slice(&data[r])
        })
    }

    /// Zero-copy `WRITE`: the caller's buffer is shared, never copied.
    /// Returns the version and the per-phase breakdown.
    ///
    /// The write is four rounds — plan; `REQUEST_VERSION` with the lead
    /// page put; the metadata frames and the other page puts; then
    /// `COMPLETE_WRITE` — and the client's own work rides them instead of
    /// waiting for them. Each page's send buffer (a slice here, a copy
    /// for a borrowed buffer) is made just before its put leaves: page 0
    /// while the plan is in flight, the others once the metadata frames
    /// have left. The lead is page 0's put to its first replica, split
    /// out of that destination's batch when it takes more puts: its
    /// bytes, copied under the plan, leave the moment the plan lands and
    /// are on the wire while the ticket returns and the tree's leaves,
    /// which need only the plan's placement, are woven. Once the inner
    /// nodes have the ticket's links, the third round leaves — as late
    /// frames of the second, whose lead put may still be uploading —
    /// with the `META_PUT_BATCH` frames first, so the write waits for
    /// the slower of its two legs, not for both.
    ///
    /// The pages are the idempotent part (pages are immutable: re-putting
    /// a key re-stores identical bytes). A page no replica acknowledged
    /// is put again under the client's retry policy; once the policy
    /// gives up, the page is re-planned away from every provider that
    /// failed it (`PlanWrite::exclude`), put there, and its leaf re-put
    /// naming where it now lives. A leaf that lost some of its replicas
    /// is re-put naming the ones that acked. All of it happens before
    /// `COMPLETE_WRITE`, so a failed page burns no version, and no reader
    /// sees a leaf of this version before it is published. The shared
    /// cache is warmed only once the publish succeeded. The write still
    /// fails after its ticket, leaving its version unpublished, if no
    /// provider will take a page or a tree node reaches no metadata
    /// replica; `COMPLETE_WRITE` never retries. A write whose version
    /// request fails removes its acknowledged lead page (best effort)
    /// before it returns the error, so it leaves no page behind, and has
    /// made no page buffer but the lead's, page 0.
    pub fn write_buf(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: PageBuf,
    ) -> Result<(Version, WriteStats), BlobError> {
        self.write_data(ctx, blob, offset, data.len() as u64, |r| data.slice(r))
    }

    /// The write pipeline behind every `write*` method (see
    /// [`BlobClient::write_buf`]), for `len` bytes at `offset`. `page`
    /// hands over the bytes at a range of them as one page's send
    /// buffer, which every replica's put shares — a copy of a borrowed
    /// slice, a slice of a shared one — and is called once per page,
    /// after the segment is validated, just before that page's put is
    /// framed; `write_page_ns` is charged with each call.
    fn write_data(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        len: u64,
        page: impl Fn(Range<usize>) -> PageBuf,
    ) -> Result<(Version, WriteStats), BlobError> {
        let mut mark = ctx.vt;
        let seg = Segment::new(offset, len);
        let (known, _) = self.entry(ctx, blob)?;
        let geom = known.geom;
        let range = geom.validate_aligned(&seg)?;
        let mut stats = WriteStats {
            nodes_built: blobseer_meta::node_count_for_write(&geom, &seg),
            ..WriteStats::default()
        };
        let size = geom.page_size as usize;
        let make = |c: &mut Ctx, i: usize| {
            c.advance(self.costs.write_page_ns);
            page(i * size..(i + 1) * size)
        };

        // Step 1: the provider-manager plan (write id + page placement).
        // While it travels, page 0 — the lead — gets its send buffer.
        let (plan, (first_buf, made)) = self.plan(
            ctx,
            blob,
            range.count(),
            self.replication,
            Vec::new(),
            |c| (make(c, 0), c.vt),
        );
        let (plan, planned) = plan?;
        stats.lap_to_last(
            ctx.vt,
            &mut mark,
            (planned, |s| &mut s.plan_ns),
            (made, |s| &mut s.pages_ns),
        );

        // Step 2: the lead put — page 0 to its first replica, split out
        // of that destination's batch if it takes more puts — travels
        // with the request for the version number + precomputed border
        // links, so page bytes are on the wire while the ticket returns.
        // A lead of more pages would hold the metadata frames behind its
        // bytes on the client's NIC.
        let mut pages: Vec<PageLoc> = range
            .iter()
            .zip(plan.targets)
            .map(|(index, replicas)| PageLoc {
                key: PageKey {
                    blob,
                    write: plan.write,
                    index,
                },
                replicas,
            })
            .collect();
        let lead = (0, pages[0].replicas[0]);
        let put = PutPage {
            key: pages[0].key,
            data: first_buf.clone(),
        };
        let mut held: Vec<Option<PageBuf>> = vec![None; pages.len()];
        held[0] = Some(first_buf);
        let request = RequestVersion {
            blob,
            write: plan.write,
            offset: seg.offset,
            size: seg.size,
        };
        let first = vec![
            (
                self.vm_for(blob),
                Frame::from_msg(method::REQUEST_VERSION, &request),
            ),
            (NodeId(lead.1 .0), Frame::from_msg(method::PUT_PAGE, &put)),
        ];

        // Step 3: while the first burst travels, the leaves are woven,
        // naming the planned replicas; the inner nodes wait for the
        // ticket's links, and then the metadata frames join that burst as
        // late frames, and after them the other pages, each copied just
        // before: the small batches go ahead of the other pages. The
        // metadata is woven in complete isolation either way.
        let (mut first_replies, built) = self.rpc.fan_out_with(ctx, first, |c, replies| {
            c.advance(self.costs.build_node_ns * pages.len() as u64);
            let leaves = weave_leaves(&geom, blob, &seg, &pages);
            let woven = c.vt;
            let (ticket, granted): (WriteTicket, u64) = match replies.wait(c, 0) {
                Ok((frame, at)) => (parse_response(frame)?, *at),
                Err(e) => return Err(e.clone()),
            };
            let nodes = weave_inner(&geom, &seg, leaves?, &ticket)?;
            c.advance(self.costs.build_node_ns * (nodes.len() - pages.len()) as u64);
            let inner = c.vt;
            let (put, frames) = self.dht.put_frames(&nodes);
            let n_meta = frames.len();
            replies.send(c, frames);
            let bufs: Vec<PageBuf> = std::mem::take(&mut held)
                .into_iter()
                .enumerate()
                .map(|(i, buf)| buf.unwrap_or_else(|| make(c, i)))
                .collect();
            let (frames, page_of) = page_puts(&bufs, &pages, |i, p| (i, p) != lead);
            replies.send(c, frames);
            let times = (granted, woven, inner);
            Ok((ticket, nodes, put, n_meta, (bufs, page_of), times))
        });
        let untimed =
            |replies: Vec<TransportResult>| replies.into_iter().map(|r| r.map(|(f, _)| f));
        // The late frames' replies follow the burst's own, one per call.
        let mut meta_replies = first_replies.split_off(2);
        let lead_replies = first_replies.split_off(1);
        let lead_done = last_arrival(&lead_replies, 0);
        let mut acked: Vec<Vec<ProviderId>> = vec![Vec::new(); pages.len()];
        let lead_err = absorb_puts(&[lead], untimed(lead_replies), &mut acked);
        let (ticket, mut nodes, put, meta_replies, page_replies, puts, times) = match built {
            Ok((ticket, nodes, put, n_meta, puts, times)) => {
                let page_replies = meta_replies.split_off(n_meta);
                (ticket, nodes, put, meta_replies, page_replies, puts, times)
            }
            Err(e) => {
                // No version, or no tree for it: take the lead page back,
                // best effort, so the failed write leaves no page behind.
                if acked[lead.0].contains(&lead.1) {
                    let removal = RemovePage {
                        key: pages[lead.0].key,
                    };
                    let _: Result<bool, _> =
                        self.rpc
                            .call(ctx, NodeId(lead.1 .0), method::REMOVE_PAGE, &removal);
                }
                return Err(e);
            }
        };
        let (granted, woven, inner) = times;
        stats.meta_leg_ns += stats.lap_to_last(
            granted.max(woven),
            &mut mark,
            (granted, |s| &mut s.ticket_ns),
            (woven, |s| &mut s.meta_ns),
        );
        stats.meta_leg_ns += stats.lap(inner, &mut mark, |s| &mut s.meta_ns);

        // The rest is charged to the leg that finished last, the lead's
        // page leg included; the metadata leg's own share is kept apart.
        let meta_done = last_arrival(&meta_replies, mark);
        let pages_done = last_arrival(&page_replies, mark).max(lead_done);
        stats.meta_leg_ns += meta_done - mark;
        stats.lap_to_last(
            ctx.vt,
            &mut mark,
            (meta_done, |s| &mut s.meta_ns),
            (pages_done, |s| &mut s.pages_ns),
        );
        self.dht.finish_put(put, untimed(meta_replies).collect())?;

        // Every page needs one acknowledged replica before the publish.
        let (bufs, page_of) = puts;
        let mut last_err = absorb_puts(&page_of, untimed(page_replies), &mut acked).or(lead_err);
        let mut excluded: Vec<ProviderId> = Vec::new();
        let mut attempt = 0u32;
        while acked.iter().any(Vec::is_empty) {
            let err = last_err.unwrap_or(BlobError::Internal("page put failed"));
            if self.backoff(ctx, attempt, &err).is_some() {
                attempt += 1;
            } else {
                // The policy gave up on these placements: re-place the
                // lost pages away from every provider that failed one.
                let lost: Vec<usize> = (0..pages.len()).filter(|&i| acked[i].is_empty()).collect();
                for &i in &lost {
                    for p in &pages[i].replicas {
                        if !excluded.contains(p) {
                            excluded.push(*p);
                        }
                    }
                }
                let (Ok((plan, _)), ()) = self.plan(
                    ctx,
                    blob,
                    lost.len() as u64,
                    self.replication,
                    excluded.clone(),
                    |_| (),
                ) else {
                    return Err(err);
                };
                for (&i, targets) in lost.iter().zip(plan.targets) {
                    pages[i].replicas = targets;
                }
            }
            let (frames, page_of) = page_puts(&bufs, &pages, |i, _| acked[i].is_empty());
            let replies = self.rpc.fan_out_frames(ctx, frames);
            last_err = absorb_puts(&page_of, replies, &mut acked);
        }
        stats.lap(ctx.vt, &mut mark, |s| &mut s.pages_ns);

        // A leaf names the replicas that hold its page: re-put any whose
        // replicas changed, before the version is visible.
        let mut moved = Vec::new();
        for node in &mut nodes {
            if let NodeBody::Leaf { page } = &mut node.body {
                let holders = &mut acked[(page.key.index - range.start) as usize];
                if page.replicas != *holders {
                    page.replicas = std::mem::take(holders);
                    moved.push(node.clone());
                }
            }
        }
        self.dht.put_nodes(ctx, &moved)?;
        stats.meta_leg_ns += stats.lap(ctx.vt, &mut mark, |s| &mut s.meta_ns);

        // Report success; the version manager publishes in order.
        let publish: PublishState = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::COMPLETE_WRITE,
            &CompleteWrite {
                blob,
                version: ticket.version,
            },
        )?;
        stats.lap(ctx.vt, &mut mark, |s| &mut s.publish_ns);
        known.observe(publish.latest);
        if let Some(cache) = &self.cache {
            // Best effort: a writer never blocks on a contended cache
            // shard just to pre-warm readers — a skipped insert costs at
            // most one DHT fetch later.
            ctx.advance(self.costs.cache_ns * nodes.len() as u64);
            for n in nodes {
                cache.try_insert(n.key, Arc::new(n.body));
            }
            stats.meta_leg_ns += stats.lap(ctx.vt, &mut mark, |s| &mut s.meta_ns);
        }
        Ok((ticket.version, stats))
    }

    /// `PLAN_WRITE`: a write id and the placement of `pages` pages,
    /// `replication` providers each, none of them in `exclude`, with
    /// `work` riding the round trip. Returns the plan and when it
    /// arrived, and what `work` returned.
    fn plan<T>(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        pages: u64,
        replication: u32,
        exclude: Vec<ProviderId>,
        mut work: impl FnMut(&mut Ctx) -> T,
    ) -> (Result<(WritePlan, u64), BlobError>, T) {
        let request = PlanWrite {
            blob,
            pages,
            replication,
            exclude,
        };
        let call = vec![(self.pm, Frame::from_msg(method::PLAN_WRITE, &request))];
        let (mut replies, worked) = self.rpc.fan_out_with(ctx, call, |c, _| work(c));
        let reply = replies
            .pop()
            .unwrap_or(Err(BlobError::Internal("transport dropped a reply")))
            .and_then(|(frame, at)| {
                let plan: WritePlan = parse_response(&frame)?;
                if plan.targets.len() as u64 != pages {
                    return Err(BlobError::Internal("write plan page count mismatch"));
                }
                if plan.targets.iter().any(Vec::is_empty) {
                    return Err(BlobError::Internal("write plan leaves a page unplaced"));
                }
                Ok((plan, at))
            });
        (reply, worked)
    }

    // ------------------------------------------------------------------
    // READ
    // ------------------------------------------------------------------

    /// `READ(id, v, buffer, offset, size)`.
    ///
    /// * `version: None` reads the latest published snapshot.
    /// * `version: Some(v)` fails with
    ///   [`BlobError::VersionNotPublished`] if `v` has not been published —
    ///   exactly the paper's semantics.
    ///
    /// Returns the bytes and `vr`, the latest published version observed
    /// (`vr >= v` always holds). Each page is copied exactly once, from
    /// the (shared) fetched buffer into the result, the moment its reply
    /// lands.
    pub fn read(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(Vec<u8>, Version), BlobError> {
        let (data, latest, _) = self.read_with_stats(ctx, blob, version, seg)?;
        Ok((data, latest))
    }

    /// [`BlobClient::read`] with a virtual-time breakdown — the instrument
    /// behind Figure 3(a), which reports the *metadata* share of a read.
    pub fn read_with_stats(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(Vec<u8>, Version, ReadStats), BlobError> {
        let mut out = Out::Owned(Vec::new());
        let (latest, stats) = self.read_retrying(ctx, blob, version, seg, &mut out)?;
        match out {
            Out::Owned(data) => Ok((data, latest, stats)),
            Out::Caller(_) | Out::Page(_) => Err(BlobError::Internal("read landed elsewhere")),
        }
    }

    /// Scatter-assembling `READ` into a caller-provided buffer of exactly
    /// `seg.size` bytes: each page is copied exactly once, directly into
    /// `out`, the moment its reply lands; no intermediate result buffer
    /// exists. A read that fails leaves `out` all zero, whatever pages
    /// it had already copied.
    pub fn read_into(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
        out: &mut [u8],
    ) -> Result<Version, BlobError> {
        if out.len() as u64 != seg.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "buffer size mismatch",
            });
        }
        let read = self.read_retrying(ctx, blob, version, seg, &mut Out::Caller(out));
        if read.is_err() {
            out.fill(0);
        }
        Ok(read?.0)
    }

    /// Zero-copy `READ` of a single-page-aligned segment: returns the
    /// fetched page buffer itself (a refcount borrow of the provider's
    /// stored page under the in-process transports) — **zero** page
    /// copies end to end. Non-aligned or multi-page segments are
    /// assembled with exactly one copy per page.
    pub fn read_buf(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(PageBuf, Version), BlobError> {
        let mut out = Out::Page(None);
        let (latest, _) = self.read_retrying(ctx, blob, version, seg, &mut out)?;
        match out {
            Out::Page(page) => Ok((
                page.unwrap_or_else(|| PageBuf::zeroed(seg.size as usize)),
                latest,
            )),
            Out::Owned(data) => Ok((PageBuf::from_vec(data), latest)),
            Out::Caller(_) => Err(BlobError::Internal("read landed elsewhere")),
        }
    }

    /// [`BlobClient::read_once`] under the retry loop: reads are
    /// idempotent end to end, so a shed or unreachable attempt is
    /// replayed whole under the client's retry policy until it succeeds
    /// or the policy caps out. A later attempt overwrites or zeroes
    /// whatever an earlier one landed in `out`.
    fn read_retrying(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
        out: &mut Out<'_>,
    ) -> Result<(Version, ReadStats), BlobError> {
        let mut attempt = 0u32;
        loop {
            match self.read_once(ctx, blob, version, seg, out) {
                Ok(read) => return Ok(read),
                Err(e) => {
                    self.backoff(ctx, attempt, &e).ok_or(e)?;
                    attempt += 1;
                }
            }
        }
    }

    /// The shared READ engine: version resolution, cached level-by-level
    /// tree descent, and the leaf burst, in which each leaf's page fetch
    /// leaves the moment the leaf is decoded and each page lands in
    /// `out` the moment its reply does. Returns the latest published
    /// version observed and the read's stats; a version-0 read lands
    /// nothing, and the gap pass zeroes it all.
    ///
    /// The version check costs no round trip of its own. A read that had
    /// to fetch the blob descriptor already holds a fresh `latest`.
    /// Otherwise it descends a *target* — `v` if pinned, else the
    /// client's frontier floor — and sends `GET_LATEST` in the burst of
    /// its first fetch: last in the first inner tree level that misses
    /// the cache, whose decode does not need the answer, or else first
    /// in the leaf burst, whose every stitch does. If `latest` shows the
    /// floor was behind, the read descends `latest`'s tree instead,
    /// reusing any burst page the new tree still names and dropping
    /// everything else the burst brought, errors included; no page lands
    /// before the check has answered. The target is always a version
    /// known to be published when its fetches leave — the floor is one
    /// by definition — so nothing a burst fetched raced its writer.
    fn read_once(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
        out: &mut Out<'_>,
    ) -> Result<(Version, ReadStats), BlobError> {
        let mark = ctx.vt;
        let (known, fresh) = self.entry(ctx, blob)?;
        let geom = known.geom;
        geom.validate_bounds(&seg)?;
        let mut dest = Dest::new(out, geom, seg, self.costs.page_ns);
        let floor = fresh.unwrap_or_else(|| known.floor.load(Ordering::Relaxed));
        let target = version.unwrap_or(floor);
        let mut st = ReadState {
            blob,
            geom,
            seg,
            version,
            target,
            check: match fresh {
                Some(latest) => Check::Answered(latest),
                None => Check::Owed {
                    vm: self.vm_for(blob),
                    known,
                },
            },
            spare: FxHashMap::default(),
            stats: ReadStats::default(),
            mark,
        };
        if let Some(latest) = fresh {
            st.settle(latest)?;
        } else if target > floor {
            // A pinned version above the floor may not exist yet, so no
            // fetch can ride with the check: it goes first, alone.
            self.burst(ctx, &mut st, Vec::new(), false, |_, _| ())?;
        }
        st.lap(ctx.vt, |s| &mut s.latest_ns);

        // A pass per target: a second one only if the check moved it.
        loop {
            let descent = self.descend(ctx, &mut st)?;
            st.lap(ctx.vt, |s| &mut s.meta_ns);
            let Some(leaves) = descent else {
                continue;
            };
            if !self.fetch_leaves(ctx, &mut st, &leaves, &mut dest)? {
                break;
            }
        }
        dest.finish();
        st.stats.refetched += st.spare.len() as u64;
        let Check::Answered(latest) = st.check else {
            return Err(BlobError::Internal(
                "read finished without its version check",
            ));
        };
        Ok((latest, st.stats))
    }

    /// Send one burst of fetches with `work` riding it (see
    /// [`RpcClient::fan_out_with`]). If the read still owes its version
    /// check, `GET_LATEST` rides along, and its answer may move the
    /// read's target: first among the burst's own frames if `check_first`
    /// — the work needs the answer before it can use what it waits for —
    /// else last, behind the fetches it must not delay. Returns every
    /// reply by call index — the work's late frames after the burst's
    /// own, the check's slot emptied — what the work returned, and
    /// whether the target moved.
    fn burst<T>(
        &self,
        ctx: &mut Ctx,
        st: &mut ReadState,
        mut frames: Vec<(NodeId, Frame)>,
        check_first: bool,
        work: impl FnMut(&mut Ctx, &mut Replies<'_, '_>) -> T,
    ) -> Result<(Vec<TransportResult>, T, bool), BlobError> {
        let Check::Owed { vm, known } = &st.check else {
            let (replies, worked) = self.rpc.fan_out_with(ctx, frames, work);
            return Ok((replies, worked, false));
        };
        let at = if check_first { 0 } else { frames.len() };
        let check = Frame::from_msg(method::GET_LATEST, &GetLatest { blob: st.blob });
        frames.insert(at, (*vm, check));
        let (mut replies, worked) = self.rpc.fan_out_with(ctx, frames, work);
        let latest: Version = take_reply(&mut replies, at)?;
        known.observe(latest);
        st.check = Check::Answered(latest);
        let moved = st.settle(latest)?;
        Ok((replies, worked, moved))
    }

    /// Descend `st.target`'s tree level by level down to the level above
    /// its leaves, through the cache, with batched parallel metadata
    /// fetches; cache hits and misses alike hand out refcounted bodies,
    /// never deep clones. Each metadata message is decoded
    /// (`read_node_ns` per node) inside its burst, the moment it lands,
    /// so a level's decode overlaps the rest of its burst — the version
    /// check riding it included. Returns the leaves' keys — the tree is
    /// aligned, so a level holds leaves only or none, and the zero
    /// subtrees it skips are left to the gap pass — or `None` if the
    /// check moved the target.
    fn descend(
        &self,
        ctx: &mut Ctx,
        st: &mut ReadState,
    ) -> Result<Option<Vec<NodeKey>>, BlobError> {
        let (geom, blob, seg) = (st.geom, st.blob, st.seg);
        st.stats.nodes_visited = 0;
        let mut level = if st.target == 0 {
            Vec::new()
        } else {
            vec![root_key(&geom, blob, st.target)]
        };
        while level.first().is_some_and(|key| key.size > geom.page_size) {
            let mut bodies: Vec<Option<Arc<NodeBody>>> = vec![None; level.len()];
            let mut missing_idx = Vec::new();
            if let Some(cache) = &self.cache {
                for (i, key) in level.iter().enumerate() {
                    match cache.get(key) {
                        Some(body) => bodies[i] = Some(body),
                        None => missing_idx.push(i),
                    }
                }
                ctx.advance(self.costs.cache_ns * level.len() as u64);
            } else {
                missing_idx = (0..level.len()).collect();
            }
            if !missing_idx.is_empty() {
                let keys: Vec<NodeKey> = missing_idx.iter().map(|&i| level[i]).collect();
                let (mut fetch, frames) = self.dht.fetch_frames(&keys);
                let n = frames.len();
                let (_, decoded, moved) = self.burst(ctx, st, frames, false, |c, replies| {
                    let mut decoded = 0;
                    for m in 0..n {
                        let reply = replies.wait(c, m).as_ref().map(|(frame, _)| frame);
                        let resolved = fetch.absorb(m, reply).len();
                        c.advance(self.costs.read_node_ns * resolved as u64);
                        decoded += resolved;
                    }
                    decoded
                })?;
                if moved {
                    st.stats.refetched += keys.len() as u64;
                    return Ok(None);
                }
                let fetched = self.dht.finish_fetch(ctx, fetch)?;
                // Nodes only a replica round resolved are decoded now.
                ctx.advance(self.costs.read_node_ns * (keys.len() - decoded) as u64);
                for (&i, node) in missing_idx.iter().zip(fetched) {
                    let node = node.ok_or(BlobError::MissingMetadata {
                        blob,
                        version: level[i].version,
                    })?;
                    let body = Arc::new(node.body);
                    if let Some(cache) = &self.cache {
                        cache.insert(node.key, Arc::clone(&body));
                    }
                    bodies[i] = Some(body);
                }
            }
            let mut next = Vec::new();
            st.stats.nodes_visited += level.len() as u64;
            for (key, body) in level.iter().zip(bodies) {
                // lint: allow(panic-on-serving-path) — every missing index was
                // filled by the fetch loop above; a hole is a local logic bug
                let body = body.expect("filled above");
                for visit in expand(&geom, key, &body, &seg)? {
                    match visit {
                        Visit::Descend(k) => next.push(k),
                        Visit::Zeros(_) => {}
                        Visit::Page { .. } => {
                            return Err(BlobError::Internal("page above the leaf level"))
                        }
                    }
                }
            }
            level = next;
        }
        Ok(Some(level))
    }

    /// The leaf burst: fetch the leaves `keys` and their pages in one
    /// burst, whose pages leave as their leaves are decoded and land in
    /// `dest` as their replies do. Returns whether the check moved the
    /// target; a read that did not move has landed every page.
    ///
    /// The burst carries, if still owed, `GET_LATEST` first, then a
    /// `META_GET_BATCH` per metadata provider for the leaves the cache
    /// lacks and a `GET_PAGE` for every cached leaf — known at the
    /// start, so they coalesce by provider. While it is out, the read
    /// waits for each leaf message in turn and decodes it leaf by leaf
    /// (`read_node_ns` each), sending each leaf's `GET_PAGE` as a late
    /// frame of its own the moment that leaf is decoded: the first pages
    /// are on the wire while later leaves are still being decoded or
    /// arriving. The descent's stage ends at the last leaf decoded.
    /// Then, once the check (if it rode along) has answered and not
    /// moved the target, the read waits for each page reply in call
    /// order and stitches it into place at once, `page_ns` charged
    /// there: only the last page's stitch follows the last byte.
    ///
    /// After the burst: leaves missing on their primary go through the
    /// metadata replica rounds, then one more burst fetches and lands
    /// their pages; pages that failed on their first replica fail over,
    /// and pages a dropped burst already brought are reused, each landing
    /// as it is in hand. If the check moved the target, nothing landed:
    /// the burst's nodes are dropped and its pages kept as spare for the
    /// newer tree.
    ///
    /// Single-replica pages go to their primary; multi-replica
    /// (fanned-out or replicated) pages rotate the starting replica
    /// round-robin so a hot page's read load spreads over every holder.
    /// On failure the remaining replicas are tried in rotation order; if
    /// every replica fails, a typed `Overload` among the failures wins
    /// over `MissingPage` (the page exists — the system is shedding, and
    /// the caller's retry policy should see that).
    ///
    /// Successful fetches feed the shared [`HeatTracker`] (when
    /// enabled); a page crossing the promotion threshold is fanned out
    /// onto one more provider right here, best-effort.
    fn fetch_leaves(
        &self,
        ctx: &mut Ctx,
        st: &mut ReadState,
        keys: &[NodeKey],
        dest: &mut Dest<'_, '_>,
    ) -> Result<bool, BlobError> {
        if keys.is_empty() {
            // Nothing to fetch: the burst, if any, is the version check
            // alone.
            let (_, (), moved) = self.burst(ctx, st, Vec::new(), false, |_, _| ())?;
            st.lap(ctx.vt, |s| &mut s.latest_ns);
            return Ok(moved);
        }
        let (geom, seg) = (st.geom, st.seg);
        st.stats.nodes_visited += keys.len() as u64;
        let mut leaves: Vec<Option<LeafPage>> = vec![None; keys.len()];
        let mut missing = Vec::new();
        match &self.cache {
            Some(cache) => {
                for (i, key) in keys.iter().enumerate() {
                    match cache.get(key) {
                        Some(body) => leaves[i] = Some(self.leaf_page(&geom, &seg, key, &body)?),
                        None => missing.push(i),
                    }
                }
                ctx.advance(self.costs.cache_ns * keys.len() as u64);
            }
            None => missing = (0..keys.len()).collect(),
        }

        // The burst: the check if owed — every stitch needs its answer,
        // so it leads instead of queueing behind the pages — then the
        // leaf fetches, then the cached leaves' pages. `calls` pairs each
        // page fetch's leaf with its call index, and `got` holds each
        // leaf's page once its reply is in hand.
        let mut spare = std::mem::take(&mut st.spare);
        let wanted = |leaf: &LeafPage| !spare.contains_key(&leaf.loc.key);
        let missing_keys: Vec<NodeKey> = missing.iter().map(|&i| keys[i]).collect();
        let (mut fetch, mut frames) = self.dht.fetch_frames(&missing_keys);
        let n_meta = frames.len();
        let cached: Vec<usize> = (0..keys.len())
            .filter(|&i| leaves[i].as_ref().is_some_and(wanted))
            .collect();
        frames.extend(
            cached
                .iter()
                .filter_map(|&i| leaves[i].as_ref().map(LeafPage::get)),
        );
        let owed = matches!(st.check, Check::Owed { .. });
        let first = usize::from(owed);
        let mut calls: Vec<(usize, usize)> = cached.into_iter().zip(first + n_meta..).collect();
        let (version, target) = (st.version, st.target);
        let mut got: Vec<Option<Result<PageBuf, BlobError>>> = vec![None; keys.len()];
        let mut decoded = ctx.vt;
        let (mut replies, worked, moved) = self.burst(ctx, st, frames, true, |c, replies| {
            for m in 0..n_meta {
                let reply = replies.wait(c, first + m).as_ref().map(|(frame, _)| frame);
                for j in fetch.absorb(m, reply) {
                    c.advance(self.costs.read_node_ns);
                    let (i, node) = (missing[j], fetch.node(j));
                    let node = node.ok_or(BlobError::Internal("resolved leaf absent"))?;
                    let leaf = self.leaf_page(&geom, &seg, &keys[i], &node.body)?;
                    if wanted(&leaf) {
                        let sent = replies.send(c, vec![leaf.get()]);
                        calls.push((i, sent.start));
                    }
                    leaves[i] = Some(leaf);
                }
                decoded = c.vt;
            }
            // No page lands before the check has answered: if it moves
            // the target, the pages belong to a dropped tree.
            if owed {
                let latest = match replies.wait(c, 0) {
                    Ok((frame, _)) => parse_response::<Version>(frame).ok(),
                    Err(_) => None,
                };
                if !latest.is_some_and(|l| matches!(moves(version, target, l), Ok(false))) {
                    return Ok(());
                }
            }
            land_pages(c, replies, &calls, &leaves, dest, &mut got)
        })?;
        st.lap(decoded, |s| &mut s.meta_ns);
        st.lap(ctx.vt, |s| &mut s.data_ns);
        if moved {
            // Keep what the newer tree may name again; the rest is waste.
            st.stats.refetched += missing.len() as u64;
            for (i, call) in calls {
                match (take_reply(&mut replies, call), &leaves[i]) {
                    (Ok(page), Some(leaf)) => {
                        spare.insert(leaf.loc.key, page);
                    }
                    _ => st.stats.refetched += 1,
                }
            }
            st.spare = spare;
            return Ok(true);
        }
        worked?;

        // Leaves missing on their primary: the replica rounds, then one
        // more burst for their pages, each landing as it arrives.
        let mut late = Vec::new();
        for (j, node) in self.dht.finish_fetch(ctx, fetch)?.into_iter().enumerate() {
            let i = missing[j];
            let node = node.ok_or(BlobError::MissingMetadata {
                blob: st.blob,
                version: keys[i].version,
            })?;
            if leaves[i].is_none() {
                leaves[i] = Some(self.leaf_page(&geom, &seg, &keys[i], &node.body)?);
                late.push(i);
            }
            if let Some(cache) = &self.cache {
                cache.insert(node.key, Arc::new(node.body));
            }
        }
        if !late.is_empty() {
            ctx.advance(self.costs.read_node_ns * late.len() as u64);
            st.lap(ctx.vt, |s| &mut s.meta_ns);
            late.retain(|&i| {
                let leaf = leaves[i].as_ref();
                leaf.is_some_and(|leaf| !spare.contains_key(&leaf.loc.key))
            });
            let gets = late
                .iter()
                .filter_map(|&i| leaves[i].as_ref().map(LeafPage::get))
                .collect();
            let calls: Vec<(usize, usize)> = late.into_iter().zip(0..).collect();
            let (_, landed) = self.rpc.fan_out_with(ctx, gets, |c, replies| {
                land_pages(c, replies, &calls, &leaves, dest, &mut got)
            });
            landed?;
        }

        // The pages still to land: those whose first replica failed, and
        // those a dropped burst brought.
        for ((leaf_key, leaf), got) in keys.iter().zip(&leaves).zip(got) {
            let leaf = leaf
                .as_ref()
                .ok_or(BlobError::Internal("leaf not resolved"))?;
            let data = match got {
                Some(Ok(data)) => data,
                Some(Err(first_err)) => {
                    let data = self.page_failover(ctx, &leaf.loc, leaf.start, first_err)?;
                    dest.land(ctx, &leaf.range, &data)?;
                    data
                }
                None => {
                    let data = spare
                        .remove(&leaf.loc.key)
                        .ok_or(BlobError::Internal("page not fetched"))?;
                    dest.land(ctx, &leaf.range, &data)?;
                    data
                }
            };
            if let Some(heat) = &self.heat {
                if heat.record_read(leaf.loc.key)
                    && leaf.loc.replicas.len() < heat.options().max_replicas
                {
                    self.promote_page(ctx, *leaf_key, &leaf.loc, &data);
                }
            }
        }
        st.spare = spare;
        st.lap(ctx.vt, |s| &mut s.data_ns);
        Ok(false)
    }

    /// The page the leaf `key` names and the bytes of the read it
    /// serves, and the replica its fetch starts at: round-robin over a
    /// multi-replica page's holders, so a hot page's read load spreads.
    fn leaf_page(
        &self,
        geom: &Geometry,
        seg: &Segment,
        key: &NodeKey,
        body: &NodeBody,
    ) -> Result<LeafPage, BlobError> {
        let Some(Visit::Page { page, blob_range }) = expand(geom, key, body, seg)?.pop() else {
            return Err(BlobError::Internal("leaf level node is not a leaf"));
        };
        let holders = page.replicas.len() as u64;
        let start = if holders > 1 {
            (self.rr.fetch_add(1, Ordering::Relaxed) % holders) as usize
        } else {
            0
        };
        Ok(LeafPage {
            loc: page,
            range: blob_range,
            start,
        })
    }

    /// A page whose first replica failed with `first_err`: try the
    /// remaining replicas, in rotation order after `start`.
    fn page_failover(
        &self,
        ctx: &mut Ctx,
        loc: &PageLoc,
        start: usize,
        first_err: BlobError,
    ) -> Result<PageBuf, BlobError> {
        let mut last_shed = first_err.retry_after_hint_ms();
        let n = loc.replicas.len();
        for k in 1..n {
            let replica = loc.replicas[(start + k) % n];
            let r: Result<PageBuf, BlobError> = self.rpc.call(
                ctx,
                NodeId(replica.0),
                method::GET_PAGE,
                &GetPage { key: loc.key },
            );
            match r {
                Ok(data) => return Ok(data),
                Err(e) => {
                    if let Some(hint) = e.retry_after_hint_ms() {
                        last_shed = Some(last_shed.unwrap_or(0).max(hint));
                    }
                }
            }
        }
        Err(match last_shed {
            // Every replica failed and at least one shed: the page is
            // there, the system is overloaded — keep the typed Overload
            // so retry policies see it (never demote to
            // MissingPage/Unreachable).
            Some(hint) => BlobError::Overload {
                retry_after_hint: hint,
            },
            None => BlobError::MissingPage {
                tried: loc.replicas.clone(),
            },
        })
    }

    /// Fan a hot page out onto one more provider: reserve placement via
    /// the provider manager, away from the page's current holders, store the already-fetched bytes there
    /// (refcount, no copy), and re-put the metadata leaf with the
    /// extended replica list — the publisher/subscriber split: the
    /// original writer's primary publishes, promoted providers
    /// subscribe by joining the leaf's `replicas`. Replica extension is
    /// additive, so stale cached leaves stay valid (they just name
    /// fewer replicas). Best-effort: any failure leaves the previous
    /// state intact and the next threshold crossing tries again.
    fn promote_page(&self, ctx: &mut Ctx, leaf: NodeKey, loc: &PageLoc, data: &PageBuf) {
        let outcome = (|| -> Result<bool, BlobError> {
            let (plan, ()) = self.plan(ctx, loc.key.blob, 1, 1, loc.replicas.clone(), |_| ());
            let plan = plan?.0;
            let Some(&target) = plan.targets.first().and_then(|t| t.first()) else {
                return Ok(false);
            };
            self.rpc.call::<PutPage, ()>(
                ctx,
                NodeId(target.0),
                method::PUT_PAGE,
                &PutPage {
                    key: loc.key,
                    data: data.clone(),
                },
            )?;
            let mut replicas = loc.replicas.clone();
            replicas.push(target);
            let node = TreeNode {
                key: leaf,
                body: NodeBody::Leaf {
                    page: PageLoc {
                        key: loc.key,
                        replicas,
                    },
                },
            };
            self.dht.put_nodes(ctx, std::slice::from_ref(&node))?;
            if let Some(cache) = &self.cache {
                cache.insert(node.key, Arc::new(node.body));
            }
            Ok(true)
        })();
        if matches!(outcome, Ok(true)) {
            if let Some(heat) = &self.heat {
                heat.record_promotion();
            }
        }
    }

    // ------------------------------------------------------------------
    // Garbage collection (paper §VI future work, implemented)
    // ------------------------------------------------------------------

    /// Discard every version below `keep_from`. Returns
    /// `(tree_nodes_removed, pages_removed)`.
    ///
    /// The version manager computes the dead set (metadata-only
    /// reasoning); the client resolves dead leaves to replica locations,
    /// deletes the pages, then the tree nodes.
    pub fn gc(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        keep_from: Version,
    ) -> Result<(u64, u64), BlobError> {
        let plan: blobseer_proto::messages::GcPlan = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::GC_PLAN,
            &GcRequest { blob, keep_from },
        )?;
        if plan.dead_nodes.is_empty() {
            return Ok((0, 0));
        }
        // Resolve dead leaves to their replica sets.
        let geom = self.entry(ctx, blob)?.0.geom;
        let leaf_keys: Vec<NodeKey> = plan
            .dead_nodes
            .iter()
            .copied()
            .filter(|k| k.size == geom.page_size)
            .collect();
        let leaves = self.dht.get_nodes(ctx, &leaf_keys)?;
        let mut page_calls: Vec<(NodeId, u16, RemovePage)> = Vec::new();
        for leaf in leaves.into_iter().flatten() {
            if let NodeBody::Leaf { page } = leaf.body {
                for &replica in &page.replicas {
                    page_calls.push((
                        NodeId(replica.0),
                        method::REMOVE_PAGE,
                        RemovePage { key: page.key },
                    ));
                }
            }
        }
        let removed_pages: u64 = self
            .rpc
            .fan_out::<RemovePage, bool>(ctx, &page_calls)
            .into_iter()
            .filter(|r| matches!(r, Ok(true)))
            .count() as u64;

        // Drop the metadata (all replicas) and purge the local cache.
        let removed_nodes = self.dht.remove_nodes(ctx, &plan.dead_nodes);
        if let Some(cache) = &self.cache {
            for k in &plan.dead_nodes {
                cache.remove(k);
            }
        }
        Ok((removed_nodes, removed_pages))
    }
}

/// One round of page puts: a `PUT_PAGE` to every replica of every page
/// that `wanted` names (by page and replica), each carrying that page's
/// send buffer from `bufs` (the fan-out moves refcounts, not bytes), and
/// the (page, replica) each frame is for.
#[allow(clippy::type_complexity)]
fn page_puts(
    bufs: &[PageBuf],
    pages: &[PageLoc],
    wanted: impl Fn(usize, ProviderId) -> bool,
) -> (Vec<(NodeId, Frame)>, Vec<(usize, ProviderId)>) {
    let mut frames = Vec::new();
    let mut page_of = Vec::new();
    for (i, (loc, data)) in pages.iter().zip(bufs).enumerate() {
        let put = PutPage {
            key: loc.key,
            data: data.clone(),
        };
        for &target in loc.replicas.iter().filter(|&&p| wanted(i, p)) {
            frames.push((NodeId(target.0), Frame::from_msg(method::PUT_PAGE, &put)));
            page_of.push((i, target));
        }
    }
    (frames, page_of)
}

/// Record the replicas that acknowledged a round of [`page_puts`];
/// returns the last failure, if any.
fn absorb_puts(
    page_of: &[(usize, ProviderId)],
    replies: impl IntoIterator<Item = Result<Frame, BlobError>>,
    acked: &mut [Vec<ProviderId>],
) -> Option<BlobError> {
    let mut last_err = None;
    for (&(i, target), reply) in page_of.iter().zip(replies) {
        match reply.and_then(|frame| parse_response::<()>(&frame)) {
            Ok(()) => acked[i].push(target),
            Err(e) => last_err = Some(e),
        }
    }
    last_err
}

/// Take call `i`'s reply out of a burst's replies, parsed.
fn take_reply<T: Wire>(replies: &mut [TransportResult], i: usize) -> Result<T, BlobError> {
    let reply = match replies.get_mut(i) {
        Some(reply) => std::mem::replace(reply, Err(BlobError::Internal("reply taken twice"))),
        None => Err(BlobError::Internal("transport dropped a reply")),
    };
    reply.and_then(|(frame, _)| parse_response(&frame))
}

/// Wait for each page reply of `calls` — (leaf, call index) pairs — in
/// call order and land it in `dest` the moment it is in hand, on the
/// burst work's clock. Each leaf's reply, page or error, goes to `got`;
/// a failed one lands after the burst, through the failover.
fn land_pages(
    c: &mut Ctx,
    replies: &mut Replies<'_, '_>,
    calls: &[(usize, usize)],
    leaves: &[Option<LeafPage>],
    dest: &mut Dest<'_, '_>,
    got: &mut [Option<Result<PageBuf, BlobError>>],
) -> Result<(), BlobError> {
    for &(i, call) in calls {
        let page = match replies.wait(c, call) {
            Ok((frame, _)) => parse_response::<PageBuf>(frame),
            Err(e) => Err(e.clone()),
        };
        if let (Ok(data), Some(leaf)) = (&page, &leaves[i]) {
            dest.land(c, &leaf.range, data)?;
        }
        got[i] = Some(page);
    }
    Ok(())
}

/// When the last successful reply of a burst arrived; `since` if none
/// did.
fn last_arrival(replies: &[TransportResult], since: u64) -> u64 {
    replies
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .fold(since, |last, (_, vt)| last.max(*vt))
}
