//! `BlobClient` — the public client library: `ALLOC` / `READ` / `WRITE`
//! exactly as specified in the paper's §II, plus the §VI future-work
//! features (garbage collection, client-side metadata caching, page
//! replication) implemented.
//!
//! Each op is straight-line code over the bursts it sends
//! ([`blobseer_rpc::Burst`]): it sends, does its own work while the calls
//! are out, waits for the one reply it consumes next through that call's
//! typed slot, and joins the rest. The protocol (§III.B) is split by op:
//! `read` holds the READ pipeline — descent, leaves and retry, with
//! `land` for where its bytes go — and `write` the WRITE pipeline — plan, lead, weave, puts, re-placement
//! and publish. This module holds the handle itself, `ALLOC`, the blob
//! descriptor and `latest` queries, what the client knows of each blob,
//! and the two §VI maintenance paths: garbage collection and a hot
//! page's promotion onto one more provider.
//!
//! The op surface is one method per buffer shape: `write` (borrowed
//! slice), `write_with_stats` (the same, with the Figure 3(b) breakdown)
//! and `write_buf` (a shared `PageBuf`, the write pipeline itself);
//! `read`, `read_with_stats`, `read_into` (a caller's buffer) and
//! `read_buf` (a shared `PageBuf`), each one retry loop around one
//! read engine. The version pin is a plain argument, and retry is the
//! client's policy ([`BlobClient::with_retry_policy`]), never per call.
//!
//! The client charges its own per-node processing costs (deserialization,
//! tree descent, buffer stitching) to the virtual clock — the paper notes
//! "the main limiting factor is actually the performance of the client's
//! processing power", and reproducing Figure 3(a) depends on it.

use crate::heat::HeatTracker;
use blobseer_dht::{DhtClient, Ring};
use blobseer_proto::messages::{
    method, BlobInfo, CreateBlob, GcRequest, GetLatest, PlanWrite, PutPage, RemovePage,
};
use blobseer_proto::tree::{NodeBody, NodeKey, PageLoc, TreeNode};
use blobseer_proto::{BlobError, BlobId, Geometry, NodeId, PageBuf, Version};
use blobseer_rpc::{Ctx, Frame, RetryPolicy, RpcClient, ShardRouter};
use blobseer_simnet::ClientCosts;
use blobseer_util::{lockmeter, ClockCache, FxHashMap};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod land;
mod read;
mod write;

use write::placed;

pub use read::ReadStats;
pub use write::WriteStats;

/// The client-side metadata-tree cache: a sharded concurrent CLOCK cache
/// of refcounted tree-node bodies. One instance may be shared by any
/// number of [`BlobClient`]s (tree nodes are immutable, so the cache
/// never needs invalidation), letting co-located readers warm one cache
/// instead of N cold ones.
pub type MetaCache = ClockCache<NodeKey, Arc<NodeBody>>;

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
        let mut removals = Vec::new();
        for leaf in leaves.into_iter().flatten() {
            if let NodeBody::Leaf { page } = leaf.body {
                let removal = Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: page.key });
                for &replica in &page.replicas {
                    removals.push((NodeId(replica.0), removal.clone()));
                }
            }
        }
        let removed_pages: u64 = self
            .rpc
            .call_all::<bool>(ctx, removals)
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

    // ------------------------------------------------------------------
    // Read fan-out (paper §VI future work, implemented)
    // ------------------------------------------------------------------

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
            let request = PlanWrite {
                blob: loc.key.blob,
                pages: 1,
                replication: 1,
                exclude: loc.replicas.clone(),
            };
            let plan = self.rpc.call(ctx, self.pm, method::PLAN_WRITE, &request);
            let plan = placed(plan, 1)?;
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
}
