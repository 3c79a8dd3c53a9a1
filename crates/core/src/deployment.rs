//! Deployment assembly: wire every actor of Figure 1 onto a simulated
//! cluster.
//!
//! The paper's canonical topology (§V.C/D): N nodes each hosting **one
//! data provider and one metadata provider**, plus two dedicated nodes for
//! the version manager and the provider manager; clients run on their own
//! nodes. [`Deployment::build`] reproduces exactly that and returns a
//! handle from which any number of [`BlobClient`]s can be spawned.
//!
//! The transport is selectable ([`TransportKind`]): the default simulated
//! cluster with its virtual-time cost model, or real TCP sockets on
//! loopback ([`blobseer_rpc::TcpTransport`]) — same services, same frame
//! bytes, same copy discipline, but every frame actually crosses the
//! kernel.
//!
//! The storage backend is selectable the same way ([`BackendKind`]): the
//! default in-memory page store, or the persistent append-only mapped
//! page log under a per-provider directory — same services, same copy
//! discipline (pages are served as refcounted slices of the log
//! mapping), plus [`Deployment::restart_storage`]: a killed provider
//! re-opened on the directory it died with re-serves every page it
//! acknowledged.
//!
//! Since PR 7 the **control plane** shares that guarantee: on the mmap
//! backend every metadata provider journals its tree-node mutations
//! (`meta-<i>/meta.g<N>.log`) and the version manager journals blob
//! creations and publications (`version/version.g<N>.log`), all through
//! the same record-then-commit engine as the page log, write-ahead of
//! the acknowledgement. [`Deployment::restart_cluster`] is the
//! whole-cluster cold restart: every node kind is killed, reopened from
//! its logs, replayed, and re-served — acknowledged writes come back
//! byte-identical, on either transport. [`Deployment::build_at`] pins
//! the durable root so a *different process* can perform the same cold
//! restart (the SIGKILL crash-injection lane).

use crate::client::{BlobClient, MetaCache};
use crate::heat::{FanOutOptions, HeatTracker};
use crate::vm_service::VersionManagerService;
use blobseer_dht::{DhtNodeService, Ring};
use blobseer_proto::messages::ProviderStats;
use blobseer_proto::{BlobError, NodeId, ProviderId};
use blobseer_provider::{DataProviderService, ProviderManagerService};
use blobseer_rpc::{
    dispatch_frame, AdmissionControlled, AdmissionGate, AdmissionOptions, AggregationPolicy, Frame,
    RetryPolicy, RpcClient, ServerCtx, Service, TcpOptions, TcpTransport, Transport,
};
use blobseer_simnet::{ClientCosts, CostModel, ServiceCosts, SimCluster};
use blobseer_util::recordlog::RecordLogOptions;
use blobseer_version::{RegistryConfig, VersionLog, VersionRegistry, DEFAULT_WINDOW};
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub use blobseer_provider::{BackendKind, CompactReport, LogOptions};

/// One storage node's two co-located services (paper: "each hosting one
/// data provider and one metadata provider"), routed by method namespace.
///
/// Both halves are swappable behind locks so a *restart* can be
/// modelled on a live node: the old service (and its in-memory index)
/// is dropped, a fresh one — possibly replayed from a persistent
/// backend — takes its slot, while the node identity and its listener
/// survive. The data half swaps alone for a provider restart; a
/// whole-cluster cold restart ([`Deployment::restart_cluster`]) swaps
/// both.
///
/// Deliberately an `RwLock`, not [`blobseer_util::RcuCell`]: RCU
/// reclaims by retention, so it would pin every dropped incarnation's
/// whole page index for the cell's lifetime — the exact memory a
/// restart must release. The per-frame read is uncontended (writes
/// happen only at restart) and data-plane, hence outside the lockmeter
/// like the sharded page store itself.
pub struct StorageNodeService {
    /// The data-provider half (current incarnation).
    data: RwLock<Arc<DataProviderService>>,
    /// The metadata-provider half (current incarnation).
    meta: RwLock<Arc<DhtNodeService>>,
}

impl StorageNodeService {
    /// Compose a storage node from its two halves.
    pub fn new(data: Arc<DataProviderService>, meta: Arc<DhtNodeService>) -> Self {
        Self {
            // lint: allow(unmetered-lock) — incarnation pointers, written only at restart
            data: RwLock::new(data),
            // lint: allow(unmetered-lock) — incarnation pointer, written only at restart
            meta: RwLock::new(meta),
        }
    }

    /// The current data-provider incarnation (white-box accessor).
    pub fn data(&self) -> Arc<DataProviderService> {
        // lint: allow(unmetered-lock) — uncontended Arc swap read; restart seam, not control plane
        Arc::clone(&self.data.read())
    }

    /// The current metadata-provider incarnation (white-box accessor).
    pub fn meta(&self) -> Arc<DhtNodeService> {
        // lint: allow(unmetered-lock) — uncontended Arc swap read; restart seam, not control plane
        Arc::clone(&self.meta.read())
    }

    /// Swap in a fresh data-provider incarnation (provider restart).
    fn replace_data(&self, data: Arc<DataProviderService>) {
        // lint: allow(unmetered-lock) — restart-only swap, never on a serving path
        *self.data.write() = data;
    }

    /// Swap in a fresh metadata-provider incarnation (cluster restart).
    fn replace_meta(&self, meta: Arc<DhtNodeService>) {
        // lint: allow(unmetered-lock) — restart-only swap, never on a serving path
        *self.meta.write() = meta;
    }
}

impl Service for StorageNodeService {
    fn name(&self) -> &'static str {
        "storage-node"
    }

    fn nonblocking(&self, method: u16) -> bool {
        match method >> 8 {
            0x01 => self.data().nonblocking(method),
            0x03 => self.meta().nonblocking(method),
            _ => false,
        }
    }

    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        match frame.method >> 8 {
            0x01 => {
                let data = self.data();
                dispatch_frame(data.as_ref(), ctx, frame)
            }
            0x03 => {
                let meta = self.meta();
                dispatch_frame(meta.as_ref(), ctx, frame)
            }
            _ => blobseer_rpc::error_frame(
                frame.method,
                BlobError::Internal("method not served by storage node"),
            ),
        }
    }
}

/// Which transport carries the deployment's frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The simulated cluster: inline dispatch, virtual-time cost model.
    #[default]
    Sim,
    /// Real TCP sockets on loopback: gather-written frames, lent-on-
    /// receive payloads, wall-clock time. Cost models are ignored.
    Tcp,
}

/// The transport a deployment runs on, with the node-management surface
/// the builder and tests need, independent of which kind it is.
pub enum ClusterHandle {
    /// A simulated cluster (also exposes cost/horizon accessors).
    Sim(Arc<SimCluster>),
    /// A real TCP transport on loopback.
    Tcp(Arc<TcpTransport>),
}

impl ClusterHandle {
    /// The transport as the RPC layer sees it.
    pub fn transport(&self) -> Arc<dyn Transport> {
        match self {
            ClusterHandle::Sim(c) => Arc::clone(c) as _,
            ClusterHandle::Tcp(t) => Arc::clone(t) as _,
        }
    }

    /// The simulated cluster, when that is what this deployment runs on.
    pub fn sim(&self) -> Option<&Arc<SimCluster>> {
        match self {
            ClusterHandle::Sim(c) => Some(c),
            ClusterHandle::Tcp(_) => None,
        }
    }

    /// The TCP transport, when that is what this deployment runs on.
    pub fn tcp(&self) -> Option<&Arc<TcpTransport>> {
        match self {
            ClusterHandle::Sim(_) => None,
            ClusterHandle::Tcp(t) => Some(t),
        }
    }

    /// Add a node.
    pub fn add_node(&self) -> NodeId {
        match self {
            ClusterHandle::Sim(c) => c.add_node(),
            ClusterHandle::Tcp(t) => t.add_node(),
        }
    }

    /// Bind a service to a node (for TCP: start its listener).
    pub fn bind(&self, node: NodeId, svc: Arc<dyn Service>) {
        match self {
            ClusterHandle::Sim(c) => c.bind(node, svc),
            ClusterHandle::Tcp(t) => t.bind(node, svc),
        }
    }

    /// Kill a node: subsequent calls to it fail with `Unreachable`.
    pub fn kill(&self, node: NodeId) {
        match self {
            ClusterHandle::Sim(c) => c.kill(node),
            ClusterHandle::Tcp(t) => t.kill(node),
        }
    }

    /// Revive a previously killed node.
    pub fn revive(&self, node: NodeId) {
        match self {
            ClusterHandle::Sim(c) => c.revive(node),
            ClusterHandle::Tcp(t) => t.revive(node),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        match self {
            ClusterHandle::Sim(c) => c.len(),
            ClusterHandle::Tcp(t) => t.len(),
        }
    }

    /// True when no nodes exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total messages carried (request + response per call on both
    /// transports, so aggregation assertions are transport-agnostic).
    pub fn message_count(&self) -> u64 {
        match self {
            ClusterHandle::Sim(c) => c.message_count(),
            ClusterHandle::Tcp(t) => t.message_count(),
        }
    }

    /// Total payload bytes carried.
    pub fn byte_count(&self) -> u64 {
        match self {
            ClusterHandle::Sim(c) => c.byte_count(),
            ClusterHandle::Tcp(t) => t.byte_count(),
        }
    }

    /// The virtual-time horizon. TCP runs on wall clocks, so its horizon
    /// is always zero — benches that sequence phases by virtual time are
    /// simulation-only.
    pub fn horizon(&self) -> u64 {
        match self {
            ClusterHandle::Sim(c) => c.horizon(),
            ClusterHandle::Tcp(_) => 0,
        }
    }
}

/// Deployment parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeploymentConfig {
    /// Number of storage nodes (data + metadata provider each).
    pub providers: usize,
    /// Page replica count (1 = the paper's base configuration).
    pub replication: u32,
    /// Metadata (DHT) replica count.
    pub meta_replication: usize,
    /// RAM capacity per data provider, bytes.
    pub provider_capacity: u64,
    /// Transport cost model.
    pub cost: CostModel,
    /// Service processing costs.
    pub service_costs: ServiceCosts,
    /// Client-side processing costs.
    pub client_costs: ClientCosts,
    /// RPC aggregation (the paper's optimization; off for ablations).
    pub aggregation: AggregationPolicy,
    /// Metadata cache capacity in tree nodes (0 disables; the paper's
    /// experiments use 2^20 when enabled). One concurrent cache is built
    /// per deployment and shared by every client it spawns, so
    /// co-located readers warm a single cache.
    pub cache_nodes: usize,
    /// Placement/ring seed.
    pub seed: u64,
    /// Which transport carries the frames.
    pub transport: TransportKind,
    /// Which storage backend providers keep their pages on. `Mmap`
    /// gives every provider its own page-log directory under a
    /// deployment-private temp root (removed when the deployment
    /// drops); its log capacity is `provider_capacity` clamped to
    /// [`MMAP_LOG_CAP`], and the provider registers the clamped value
    /// so the manager's reservations match what the log can hold.
    pub backend: BackendKind,
    /// Log tuning for the `Mmap` backend: the fsync-on-commit
    /// durability knob, the group-commit window, and the dead-bytes
    /// thresholds that trigger online compaction of the page log and
    /// the metadata journal. Ignored by `Memory`.
    pub log: LogOptions,
    /// Bounded per-storage-node admission: `Some` wraps every storage
    /// node's dispatch in an [`AdmissionGate`] (`max_inflight` permits,
    /// `max_queue` waiters, typed [`BlobError::Overload`]
    /// past either bound — never an unbounded buffer, never a hang).
    /// `None` (the default) serves every frame immediately, the
    /// pre-PR 9 behavior.
    pub admission: Option<AdmissionOptions>,
    /// Retry policy every spawned client starts with, applied only on
    /// idempotent paths (reads and page puts; the version-publish leg
    /// never retries). Defaults to [`RetryPolicy::none`] so fault tests
    /// observe first errors undisturbed.
    pub retry: RetryPolicy,
    /// Hot-page read fan-out: `Some` gives the deployment one shared
    /// [`HeatTracker`], and clients promote pages whose read count
    /// crosses the threshold onto extra providers. `None` (the
    /// default) leaves replica lists exactly as written.
    pub fan_out: Option<FanOutOptions>,
    /// Transport tunables for [`TransportKind::Tcp`] (reactor sizing,
    /// connection caps, timeouts). Ignored by the simulated transport.
    pub tcp: TcpOptions,
    /// Number of version-manager shard nodes. Shard `s` of `S` owns the
    /// blob ids `≡ s (mod S)` (residue-class allocation), clients route
    /// by one modulo, and each shard journals/replays independently
    /// under its own directory. `1` (the default) is the classic
    /// single-manager topology, bit-for-bit.
    pub version_shards: usize,
    /// Batch version assignment through the grant protocol (one
    /// `VersionAssign` acquisition per grant group — the default).
    /// `false` is the per-op ablation: every writer pays its own
    /// acquisition, the pre-PR-10 behaviour.
    pub version_batched: bool,
    /// How long a grant leader lingers so concurrent writers can join
    /// its grant (the assignment analogue of the record log's
    /// `group_commit_window`). Zero still batches whatever queued
    /// naturally during the previous drain.
    pub version_grant_window: Duration,
}

/// Upper bound on one provider's page-log size (the file is extended
/// sparsely to its capacity up front so the read-only mapping is
/// created exactly once; functional configs pass `u64::MAX` capacity,
/// which no file system will `set_len`).
pub const MMAP_LOG_CAP: u64 = 4 << 30;

impl DeploymentConfig {
    /// The paper's §V testbed defaults with `providers` storage nodes.
    pub fn grid5000(providers: usize) -> Self {
        Self {
            providers,
            replication: 1,
            meta_replication: 1,
            provider_capacity: 4 << 30, // 4 GB nodes
            cost: CostModel::grid5000(),
            service_costs: ServiceCosts::grid5000(),
            client_costs: ClientCosts::grid5000(),
            aggregation: AggregationPolicy::Batch,
            cache_nodes: 0, // paper's worst case: caching disabled
            seed: 0x5eed,
            transport: TransportKind::Sim,
            backend: BackendKind::Memory,
            log: LogOptions::default(),
            admission: None,
            retry: RetryPolicy::none(),
            fan_out: None,
            tcp: TcpOptions::default(),
            version_shards: 1,
            version_batched: true,
            version_grant_window: Duration::ZERO,
        }
    }

    /// Zero-cost deployment for functional tests: logic identical, all
    /// virtual-time charges zero.
    pub fn functional(providers: usize) -> Self {
        Self {
            providers,
            replication: 1,
            meta_replication: 1,
            provider_capacity: u64::MAX,
            cost: CostModel::zero(),
            service_costs: ServiceCosts::zero(),
            client_costs: ClientCosts::zero(),
            aggregation: AggregationPolicy::Batch,
            cache_nodes: 0,
            seed: 0x5eed,
            transport: TransportKind::Sim,
            backend: BackendKind::Memory,
            log: LogOptions::default(),
            admission: None,
            retry: RetryPolicy::none(),
            fan_out: None,
            tcp: TcpOptions::default(),
            version_shards: 1,
            version_batched: true,
            version_grant_window: Duration::ZERO,
        }
    }

    /// [`DeploymentConfig::functional`], but every frame crosses a real
    /// loopback socket: logic and copy discipline identical, time is
    /// wall-clock.
    pub fn functional_tcp(providers: usize) -> Self {
        Self {
            transport: TransportKind::Tcp,
            ..Self::functional(providers)
        }
    }

    /// [`DeploymentConfig::functional`], but every provider persists its
    /// pages to an append-only mapped page log (and serves them as
    /// slices of the mapping).
    pub fn functional_mmap(providers: usize) -> Self {
        Self {
            backend: BackendKind::Mmap,
            ..Self::functional(providers)
        }
    }

    /// Enter the typed builder: tune any subset of knobs off a named
    /// baseline, then [`DeploymentConfigBuilder::build`] back into a
    /// config. This is the one way to configure a deployment.
    ///
    /// ```
    /// use blobseer_core::{AdmissionOptions, DeploymentConfig, RetryPolicy, TransportKind};
    ///
    /// let cfg = DeploymentConfig::functional(4)
    ///     .tune()
    ///     .transport(TransportKind::Tcp)
    ///     .admission(AdmissionOptions::default())
    ///     .retry(RetryPolicy::default())
    ///     .build();
    /// assert_eq!(cfg.transport, TransportKind::Tcp);
    /// assert!(cfg.admission.is_some() && cfg.retry.retries());
    /// ```
    pub fn tune(self) -> DeploymentConfigBuilder {
        DeploymentConfigBuilder { config: self }
    }

    /// The capacity each provider actually registers and enforces:
    /// the configured RAM capacity, clamped to [`MMAP_LOG_CAP`] for the
    /// mmap backend so manager reservations never exceed the log.
    pub fn effective_capacity(&self) -> u64 {
        match self.backend {
            BackendKind::Memory => self.provider_capacity,
            BackendKind::Mmap => self.provider_capacity.min(MMAP_LOG_CAP),
        }
    }
}

/// The typed builder behind [`DeploymentConfig::tune`]: one coherent
/// surface over every deployment knob — transport, backend, page-log
/// tuning, and the PR 9 traffic-shape options (admission, retry,
/// fan-out) — replacing the accreted `with_*` setters.
///
/// Sub-configs stay typed ([`TransportKind`], [`BackendKind`],
/// [`LogOptions`], [`AdmissionOptions`], [`RetryPolicy`],
/// [`FanOutOptions`]); each method overwrites exactly one field and the
/// builder is `Copy`, so partially tuned configs can be forked for
/// ablation matrices.
#[derive(Clone, Copy, Debug)]
pub struct DeploymentConfigBuilder {
    config: DeploymentConfig,
}

impl DeploymentConfigBuilder {
    /// Which transport carries the frames.
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.config.transport = transport;
        self
    }

    /// Which storage backend providers keep their pages on.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.config.backend = backend;
        self
    }

    /// Replace the page-log tuning wholesale.
    pub fn log(mut self, log: LogOptions) -> Self {
        self.config.log = log;
        self
    }

    /// The durability knob: `fdatasync` the page log on every commit
    /// marker, so an acknowledged append survives power loss, not just
    /// a process crash. One sync per *group* commit — concurrent
    /// appenders share it.
    pub fn fsync_on_commit(mut self, fsync: bool) -> Self {
        self.config.log.fsync_on_commit = fsync;
        self
    }

    /// Transport tunables for the TCP transport (reactor sizing,
    /// connection caps, timeouts). Ignored by the simulated transport.
    pub fn tcp(mut self, tcp: TcpOptions) -> Self {
        self.config.tcp = tcp;
        self
    }

    /// Bound every storage node's dispatch with an [`AdmissionGate`].
    pub fn admission(mut self, opts: AdmissionOptions) -> Self {
        self.config.admission = Some(opts);
        self
    }

    /// The retry policy every spawned client starts with (idempotent
    /// paths only).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.retry = policy;
        self
    }

    /// Enable hot-page read fan-out with the given promotion policy.
    pub fn fan_out(mut self, opts: FanOutOptions) -> Self {
        self.config.fan_out = Some(opts);
        self
    }

    /// Page replica count written by every client.
    pub fn replication(mut self, replication: u32) -> Self {
        self.config.replication = replication;
        self
    }

    /// Metadata (DHT) replica count.
    pub fn meta_replication(mut self, meta_replication: usize) -> Self {
        self.config.meta_replication = meta_replication;
        self
    }

    /// RAM capacity per data provider, bytes.
    pub fn provider_capacity(mut self, bytes: u64) -> Self {
        self.config.provider_capacity = bytes;
        self
    }

    /// RPC aggregation policy.
    pub fn aggregation(mut self, aggregation: AggregationPolicy) -> Self {
        self.config.aggregation = aggregation;
        self
    }

    /// Metadata cache capacity in tree nodes (0 disables).
    pub fn cache_nodes(mut self, cache_nodes: usize) -> Self {
        self.config.cache_nodes = cache_nodes;
        self
    }

    /// Placement/ring seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replace the service processing costs wholesale (ablation knob —
    /// e.g. stressing the version-assignment critical section).
    pub fn service_costs(mut self, costs: ServiceCosts) -> Self {
        self.config.service_costs = costs;
        self
    }

    /// Number of version-manager shard nodes (blob ids route by
    /// `id % shards`; each shard journals independently).
    pub fn version_shards(mut self, shards: usize) -> Self {
        self.config.version_shards = shards;
        self
    }

    /// Toggle grant-batched version assignment (`false` = the per-op
    /// ablation: every writer pays its own `VersionAssign` acquisition).
    pub fn version_batched(mut self, batched: bool) -> Self {
        self.config.version_batched = batched;
        self
    }

    /// How long a grant leader lingers so concurrent writers can join
    /// its version grant.
    pub fn version_grant_window(mut self, window: Duration) -> Self {
        self.config.version_grant_window = window;
        self
    }

    /// Finish tuning.
    pub fn build(self) -> DeploymentConfig {
        self.config
    }
}

/// A fully wired system on a simulated cluster or a loopback TCP mesh.
pub struct Deployment {
    /// The cluster (also the transport).
    pub cluster: ClusterHandle,
    /// Configuration used to build it.
    pub config: DeploymentConfig,
    /// Version manager node (shard 0 — the only shard in the classic
    /// single-manager topology).
    pub vm_node: NodeId,
    /// All version-manager shard nodes, in residue order
    /// (`vm_nodes[0] == vm_node`). Clients route `blob_id % shards`.
    pub vm_nodes: Vec<NodeId>,
    /// Provider manager node.
    pub pm_node: NodeId,
    /// Storage nodes, in creation order.
    pub storage_nodes: Vec<NodeId>,
    /// Shard 0's version registry (for white-box assertions in tests).
    pub registry: Arc<VersionRegistry>,
    /// Every shard's version registry, in residue order
    /// (`registries[0] == registry`).
    pub registries: Vec<Arc<VersionRegistry>>,
    /// Storage node service handles (for white-box assertions).
    pub storage: Vec<Arc<StorageNodeService>>,
    /// Provider manager handle.
    pub manager: Arc<ProviderManagerService>,
    /// The metadata ring, fixed at build.
    pub ring: Arc<Ring>,
    /// The metadata cache shared by every client of this deployment
    /// (`None` when `cache_nodes == 0`).
    pub meta_cache: Option<Arc<MetaCache>>,
    /// Per-storage-node admission gates, in `storage_nodes` order
    /// (empty when `config.admission` is `None`). White-box access for
    /// shed/queue counters in benches and tests.
    pub gates: Vec<Arc<AdmissionGate>>,
    /// The read-heat tracker shared by every client of this deployment
    /// (`None` when `config.fan_out` is `None`).
    pub heat: Option<Arc<HeatTracker>>,
    /// Shard 0's version manager handle (swappable internals, for
    /// [`Deployment::restart_cluster`] and white-box assertions).
    pub vm: Arc<VersionManagerService>,
    /// Every shard's version manager handle, in residue order
    /// (`vms[0] == vm`).
    pub vms: Vec<Arc<VersionManagerService>>,
    /// Root of the per-node durable directories (`Some` only for the
    /// mmap backend): `provider-<i>` page logs, `meta-<i>` metadata
    /// journals, `version` the version-manager journal.
    data_root: Option<PathBuf>,
    /// Whether the deployment created `data_root` itself (and thus
    /// removes it on drop). [`Deployment::build_at`] adopts a
    /// caller-owned root that must survive the deployment — that is the
    /// whole point of a cold-restart harness.
    owns_root: bool,
}

impl Deployment {
    /// Build the paper's topology on a fresh cluster of the configured
    /// transport kind. Panics if a durable directory cannot be created or
    /// replayed: a deployment that cannot start has nothing to serve.
    pub fn build(config: DeploymentConfig) -> Self {
        Self::started(Self::try_build(config, None))
    }

    /// [`Deployment::build`], but every durable directory lives under
    /// the caller-supplied `root`, which is **not** removed on drop.
    /// Building twice on the same root is a whole-cluster cold restart
    /// across processes: the second build replays every page log,
    /// metadata journal and version journal found there. Mmap backend
    /// only. Panics as [`Deployment::build`] does.
    pub fn build_at(config: DeploymentConfig, root: &Path) -> Self {
        assert_eq!(
            config.backend,
            BackendKind::Mmap,
            "an explicit durable root needs the persistent backend"
        );
        Self::started(Self::try_build(config, Some(root.to_path_buf())))
    }

    /// The one startup failure that panics: a deployment whose durable
    /// state does not open.
    fn started(built: Result<Self, BlobError>) -> Self {
        // lint: allow(panic-on-serving-path) — deployment construction at
        // startup; failing fast beats serving with no durable state
        built.expect("build deployment")
    }

    fn try_build(
        config: DeploymentConfig,
        root_override: Option<PathBuf>,
    ) -> Result<Self, BlobError> {
        assert!(config.providers >= 1, "need at least one storage node");
        assert!(
            config.version_shards >= 1,
            "need at least one version-manager shard"
        );
        let cluster = match config.transport {
            TransportKind::Sim => ClusterHandle::Sim(Arc::new(SimCluster::new(config.cost))),
            TransportKind::Tcp => {
                ClusterHandle::Tcp(Arc::new(TcpTransport::with_options(config.tcp)))
            }
        };

        // Dedicated manager nodes (paper: "deployed on separate,
        // dedicated nodes"). Extra version-manager shards come right
        // after the classic two, so the single-shard node layout is
        // untouched.
        let vm_node = cluster.add_node();
        let pm_node = cluster.add_node();
        let mut vm_nodes = vec![vm_node];
        for _ in 1..config.version_shards {
            vm_nodes.push(cluster.add_node());
        }

        // Per-node durable directories for the persistent backend.
        let owns_root = root_override.is_none();
        let data_root = match config.backend {
            BackendKind::Memory => None,
            BackendKind::Mmap => Some(root_override.unwrap_or_else(|| {
                use std::sync::atomic::{AtomicU64, Ordering};
                static NEXT: AtomicU64 = AtomicU64::new(0);
                std::env::temp_dir().join(format!(
                    "blobseer-deploy-{}-{}",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ))
            })),
        };
        if let Some(root) = &data_root {
            std::fs::create_dir_all(root).map_err(|_| BlobError::Recovery {
                file: root.display().to_string(),
                offset: 0,
                detail: "create deployment data root",
            })?;
        }

        // The version-manager shards: durable (journaled + replayed)
        // when the deployment has a durable root, classic in-memory
        // otherwise. Each shard owns its residue class of blob ids and
        // its own journal directory.
        let mut vms = Vec::with_capacity(config.version_shards);
        let mut registries = Vec::with_capacity(config.version_shards);
        for (s, node) in vm_nodes.iter().enumerate() {
            let (svc, reg) = build_version_service(&config, data_root.as_deref(), s)?;
            cluster.bind(*node, Arc::clone(&svc) as Arc<dyn Service>);
            vms.push(svc);
            registries.push(reg);
        }
        let vm = Arc::clone(&vms[0]);
        let registry = Arc::clone(&registries[0]);

        let manager = Arc::new(ProviderManagerService::new(
            config.seed,
            config.service_costs,
        ));
        cluster.bind(pm_node, manager.clone() as Arc<dyn Service>);

        // Storage nodes.
        let capacity = config.effective_capacity();
        let mut storage_nodes = Vec::with_capacity(config.providers);
        let mut storage = Vec::with_capacity(config.providers);
        let mut gates = Vec::new();
        for i in 0..config.providers {
            let node = cluster.add_node();
            let data = build_data_service(&config, data_root.as_deref(), i)?;
            let meta = build_meta_service(&config, data_root.as_deref(), i)?;
            let svc = Arc::new(StorageNodeService::new(data, meta));
            // With admission configured, the bound service is the gated
            // wrapper around the same `Arc` the white-box handle keeps:
            // restarts still swap incarnations inside `svc`, and the
            // gate sits at the dispatch layer on either transport.
            match config.admission {
                None => cluster.bind(node, svc.clone() as Arc<dyn Service>),
                Some(opts) => {
                    let gate = Arc::new(AdmissionGate::new(opts));
                    cluster.bind(
                        node,
                        Arc::new(AdmissionControlled::new(svc.clone(), Arc::clone(&gate)))
                            as Arc<dyn Service>,
                    );
                    gates.push(gate);
                }
            }
            // Register with the provider manager (in a real run this is an
            // RPC from the provider at startup; the registration content is
            // identical).
            manager.register(ProviderId(node.0), capacity);
            storage_nodes.push(node);
            storage.push(svc);
        }

        let ring = Arc::new(Ring::new(
            &storage_nodes,
            128,
            config.meta_replication,
            config.seed,
        ));

        let meta_cache =
            (config.cache_nodes > 0).then(|| Arc::new(MetaCache::new(config.cache_nodes)));
        let heat = config.fan_out.map(|opts| Arc::new(HeatTracker::new(opts)));

        let d = Self {
            cluster,
            config,
            vm_node,
            vm_nodes,
            pm_node,
            storage_nodes,
            registry,
            registries,
            storage,
            manager,
            ring,
            meta_cache,
            gates,
            heat,
            vm,
            vms,
            data_root,
            owns_root,
        };
        // A build over pre-existing durable state (build_at on a used
        // root) is a cold restart: the manager's soft write-id counter
        // must move past every id the replayed state still references.
        d.advance_write_floor();
        Ok(d)
    }

    /// Raise the provider manager's write-id allocator past every write
    /// id visible in the replayed state (provider page indexes and the
    /// recovered version histories), so fresh writes can never collide
    /// with durable pages under a reused `PageKey`.
    fn advance_write_floor(&self) {
        let mut floor = 0u64;
        for svc in &self.storage {
            for key in svc.data().keys() {
                floor = floor.max(key.write.0);
            }
        }
        for registry in &self.registries {
            for state in registry.states() {
                for v in 1..=state.latest() {
                    if let Some(rec) = state.record(v) {
                        floor = floor.max(rec.write.0);
                    }
                }
            }
        }
        self.manager.advance_write_ids(floor + 1);
    }

    /// Spawn a client on its own fresh node. All clients of one
    /// deployment share the same concurrent metadata cache, the same
    /// default [`RetryPolicy`], and (when fan-out is configured) the
    /// same [`HeatTracker`].
    pub fn client(&self) -> BlobClient {
        let node = self.cluster.add_node();
        let rpc = RpcClient::new(self.cluster.transport(), node)
            .with_aggregation(self.config.aggregation);
        let mut client = BlobClient::new(
            rpc,
            self.vm_node,
            self.pm_node,
            Arc::clone(&self.ring),
            self.config.client_costs,
            self.meta_cache.clone(),
            self.config.replication,
        )
        .with_version_nodes(self.vm_nodes.clone())
        .with_retry_policy(self.config.retry);
        if let Some(heat) = &self.heat {
            client = client.with_heat(Arc::clone(heat));
        }
        client
    }

    /// Kill storage node `i` (both of its services become unreachable).
    pub fn kill_storage(&self, i: usize) {
        self.cluster.kill(self.storage_nodes[i]);
        self.manager.mark_dead(ProviderId(self.storage_nodes[i].0));
    }

    /// Revive storage node `i` and re-register it. The provider's
    /// process state is intact (the sim's "death with intact memory
    /// image" semantics) — contrast [`Deployment::restart_storage`].
    pub fn revive_storage(&self, i: usize) {
        self.cluster.revive(self.storage_nodes[i]);
        self.manager.register(
            ProviderId(self.storage_nodes[i].0),
            self.config.effective_capacity(),
        );
    }

    /// **Restart** storage node `i`'s data provider: the old incarnation
    /// (and its in-memory serving index) is dropped, a fresh one opens
    /// on the same backend state, the node is revived and re-registered.
    ///
    /// With the mmap backend the fresh provider replays its page log
    /// from the same directory and re-serves every acknowledged page;
    /// with the memory backend a restart is a cold, empty provider —
    /// exactly the data-loss the persistent backend exists to prevent.
    ///
    /// A page log that does not open or replay (a retired format, a
    /// corrupt committed record) is a typed [`BlobError::Recovery`], and
    /// the node is left as the caller left it: a killed node stays down.
    pub fn restart_storage(&self, i: usize) -> Result<(), BlobError> {
        let data = build_data_service(&self.config, self.data_root.as_deref(), i)?;
        self.storage[i].replace_data(data);
        self.revive_storage(i);
        Ok(())
    }

    /// Whole-cluster **cold restart**: kill every node kind — data
    /// providers, metadata providers, version manager, provider manager
    /// — drop all their in-memory state, reopen each from its durable
    /// directory, replay, and re-serve. Node identities, listeners and
    /// client handles survive (services swap internally), so existing
    /// clients keep working against the recovered cluster.
    ///
    /// On the mmap backend every acknowledged write is re-served
    /// byte-identical: page logs replay into the data providers, the
    /// metadata journals replay into the DHT nodes, and the version
    /// journal replays into a fresh registry whose latest published
    /// version is exactly the last durable one. The provider manager's
    /// state is soft (rebuilt by re-registration, as in a real
    /// deployment), except its write-id allocator, which is advanced
    /// past every replayed id so recycled `PageKey`s cannot corrupt
    /// recovered versions.
    ///
    /// On the memory backend this is the documented **negative
    /// control**: there is nothing durable to replay, so the cluster
    /// comes back *empty* — every previously acknowledged byte is gone.
    /// The restart itself still succeeds cleanly and subsequent reads
    /// fail with typed errors ([`BlobError::UnknownBlob`]),
    /// never a hang or a panic; `crates/core/tests/matrix_e2e.rs`
    /// asserts exactly that. This is the data-loss mode the durable
    /// backend exists to prevent.
    ///
    /// Restarting twice is identical to restarting once (replay is
    /// idempotent — the version journal checkpoints on open).
    ///
    /// A journal or page log that does not open or replay is a typed
    /// error ([`BlobError::Recovery`] for a retired format or a corrupt
    /// committed record), and a failed restart **leaves the cluster
    /// down**: every node stays killed until a restart succeeds.
    pub fn restart_cluster(&mut self) -> Result<(), BlobError> {
        // Kill everything first: a cold restart has no surviving node.
        for node in &self.vm_nodes {
            self.cluster.kill(*node);
        }
        self.cluster.kill(self.pm_node);
        for i in 0..self.storage_nodes.len() {
            self.kill_storage(i);
        }

        // Reopen + replay each service from its durable directory (or
        // fresh and empty on the volatile backend).
        let root = self.data_root.as_deref();
        for (i, svc) in self.storage.iter().enumerate() {
            svc.replace_data(build_data_service(&self.config, root, i)?);
            svc.replace_meta(build_meta_service(&self.config, root, i)?);
        }
        // Replay every shard's journal into a fresh registry/log pair.
        for (s, svc) in self.vms.iter().enumerate() {
            let (registry, vlog) = reopen_version_state(&self.config, root, s)?;
            svc.replace(Arc::clone(&registry), vlog);
            self.registries[s] = registry;
        }
        self.registry = Arc::clone(&self.registries[0]);

        // The shared client-side cache belongs to the old incarnation:
        // on the volatile backend it could serve nodes the restarted
        // cluster no longer stores.
        self.meta_cache = (self.config.cache_nodes > 0)
            .then(|| Arc::new(MetaCache::new(self.config.cache_nodes)));
        // Read heat is an in-memory popularity signal, not durable
        // state: a cold restart starts counting from zero.
        self.heat = self
            .config
            .fan_out
            .map(|opts| Arc::new(HeatTracker::new(opts)));

        self.advance_write_floor();

        // Bring the nodes back; providers re-register exactly as their
        // startup RPC would.
        for node in &self.vm_nodes {
            self.cluster.revive(*node);
        }
        self.cluster.revive(self.pm_node);
        for i in 0..self.storage_nodes.len() {
            self.revive_storage(i);
        }
        Ok(())
    }

    /// The page-log directory of storage node `i` (`Some` only for the
    /// mmap backend).
    pub fn backend_dir(&self, i: usize) -> Option<PathBuf> {
        self.data_root.as_deref().map(|r| provider_dir(r, i))
    }

    /// The metadata-journal directory of storage node `i` (`Some` only
    /// for the mmap backend).
    pub fn meta_dir(&self, i: usize) -> Option<PathBuf> {
        self.data_root.as_deref().map(|r| meta_dir(r, i))
    }

    /// Version-manager shard `s`'s journal directory (`Some` only for
    /// the mmap backend). Shard 0 keeps the classic `version` directory
    /// so single-shard layouts are unchanged on disk; shard `s > 0`
    /// journals under `version-<s>`.
    pub fn version_shard_dir(&self, s: usize) -> Option<PathBuf> {
        self.data_root.as_deref().map(|r| version_shard_dir(r, s))
    }

    /// Compact storage node `i`'s two logs, the page log and then the
    /// metadata journal: each is rewritten as a fresh generation holding
    /// its live records, reclaiming the dead bytes — removed pages and
    /// superseded re-puts; the tree nodes `gc` removed, their remove
    /// records, and superseded puts. Returns the page log's report;
    /// `Ok(None)` on the memory backend — nothing to compact, its
    /// removes free eagerly and nothing is journaled. The journal's
    /// rewrite shows in its `log_bytes`.
    pub fn compact_storage(&self, i: usize) -> Result<Option<CompactReport>, BlobError> {
        let node = &self.storage[i];
        let report = node.data().compact()?;
        node.meta().compact()?;
        Ok(report)
    }

    /// Send a heartbeat for storage node `i` with its true current usage
    /// (feeds the manager's projected free capacity in long benches).
    pub fn heartbeat(&self, i: usize) {
        let stats: ProviderStats = self.storage[i].data().stats();
        self.manager
            .heartbeat(ProviderId(self.storage_nodes[i].0), stats);
    }

    /// Total pages stored across the cluster.
    pub fn total_pages(&self) -> usize {
        self.storage.iter().map(|s| s.data().page_count()).sum()
    }

    /// Total metadata tree nodes stored across the cluster.
    pub fn total_tree_nodes(&self) -> usize {
        self.storage.iter().map(|s| s.meta().len()).sum()
    }
}

/// Storage node `i`'s page-log directory under the deployment's data
/// root — the **single** source of the naming scheme, shared by the
/// builder, [`Deployment::restart_storage`] and
/// [`Deployment::backend_dir`]: restart must reopen exactly the
/// directory the original incarnation wrote.
fn provider_dir(data_root: &Path, i: usize) -> PathBuf {
    data_root.join(format!("provider-{i}"))
}

/// Storage node `i`'s metadata-journal directory (same contract as
/// [`provider_dir`]: builder and restart must agree).
fn meta_dir(data_root: &Path, i: usize) -> PathBuf {
    data_root.join(format!("meta-{i}"))
}

/// Version-manager shard `s`'s journal directory. Shard 0 keeps the
/// pre-sharding name `version` (so existing single-shard layouts replay
/// unchanged); later shards get `version-<s>`.
fn version_shard_dir(data_root: &Path, s: usize) -> PathBuf {
    if s == 0 {
        data_root.join("version")
    } else {
        data_root.join(format!("version-{s}"))
    }
}

/// The [`RegistryConfig`] for version-manager shard `s` of this
/// deployment: residue-class membership plus the grant-protocol knobs.
fn registry_config(config: &DeploymentConfig, s: usize) -> RegistryConfig {
    RegistryConfig {
        window: DEFAULT_WINDOW,
        batched: config.version_batched,
        grant_window: config.version_grant_window,
        shard: s as u32,
        shards: config.version_shards as u32,
    }
}

/// The control-plane journals inherit the page log's durability knobs
/// (fsync-on-commit, group-commit window). The metadata journal also
/// compacts on the page log's thresholds ([`LogOptions::trigger`]); the
/// version journal checkpoints at open.
fn record_log_options(config: &DeploymentConfig) -> RecordLogOptions {
    RecordLogOptions {
        fsync_on_commit: config.log.fsync_on_commit,
        group_commit_window: config.log.group_commit_window,
    }
}

/// Build storage node `i`'s metadata half: journaled (and replayed)
/// under `meta-<i>` when the deployment has a durable root, volatile
/// otherwise.
fn build_meta_service(
    config: &DeploymentConfig,
    data_root: Option<&Path>,
    i: usize,
) -> Result<Arc<DhtNodeService>, BlobError> {
    let meta = match data_root {
        None => DhtNodeService::new(config.service_costs),
        Some(root) => DhtNodeService::open_durable(
            &meta_dir(root, i),
            record_log_options(config),
            config.log.trigger(),
            config.service_costs,
        )?,
    };
    Ok(Arc::new(meta))
}

/// Replay (or freshly create) version-manager shard `s`'s durable state.
fn reopen_version_state(
    config: &DeploymentConfig,
    data_root: Option<&Path>,
    s: usize,
) -> Result<(Arc<VersionRegistry>, Option<Arc<VersionLog>>), BlobError> {
    let reg_config = registry_config(config, s);
    match data_root {
        None => Ok((Arc::new(VersionRegistry::with_config(reg_config)), None)),
        Some(root) => {
            let (vlog, registry) = VersionLog::open_with(
                &version_shard_dir(root, s),
                record_log_options(config),
                reg_config,
            )?;
            Ok((Arc::new(registry), Some(Arc::new(vlog))))
        }
    }
}

/// Build version-manager shard `s`'s service for the configured backend.
fn build_version_service(
    config: &DeploymentConfig,
    data_root: Option<&Path>,
    s: usize,
) -> Result<(Arc<VersionManagerService>, Arc<VersionRegistry>), BlobError> {
    let (registry, log) = reopen_version_state(config, data_root, s)?;
    let vm = VersionManagerService::new(Arc::clone(&registry), log, config.service_costs);
    Ok((Arc::new(vm), registry))
}

/// Build storage node `i`'s data-provider service for the configured
/// backend (fresh for memory; opened — and replayed — from its page-log
/// directory for mmap).
fn build_data_service(
    config: &DeploymentConfig,
    data_root: Option<&Path>,
    i: usize,
) -> Result<Arc<DataProviderService>, BlobError> {
    let data = match (config.backend, data_root) {
        (BackendKind::Memory, _) => {
            DataProviderService::new(config.provider_capacity, config.service_costs)
        }
        (BackendKind::Mmap, Some(root)) => DataProviderService::open_mmap_with(
            &provider_dir(root, i),
            config.effective_capacity(),
            config.log,
            config.service_costs,
        )?,
        (BackendKind::Mmap, None) => {
            return Err(BlobError::Internal("mmap backend without a data root"))
        }
    };
    Ok(Arc::new(data))
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if !self.owns_root {
            return;
        }
        if let Some(root) = &self.data_root {
            // Unlinking while mapped is fine on unix: served PageBufs
            // keep their pages alive until the last slice drops.
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_paper_topology() {
        let d = Deployment::build(DeploymentConfig::functional(5));
        assert_eq!(d.storage_nodes.len(), 5);
        assert_eq!(d.cluster.len(), 2 + 5);
        assert_eq!(d.manager.provider_count(), 5);
        assert_eq!(d.total_pages(), 0);
        assert!(d.cluster.sim().is_some() && d.cluster.tcp().is_none());
    }

    #[test]
    fn builds_paper_topology_on_tcp() {
        let d = Deployment::build(DeploymentConfig::functional_tcp(3));
        assert_eq!(d.cluster.len(), 2 + 3);
        assert_eq!(d.manager.provider_count(), 3);
        let tcp = d.cluster.tcp().expect("tcp transport");
        // Every service node listens on a real loopback port.
        for node in [d.vm_node, d.pm_node]
            .into_iter()
            .chain(d.storage_nodes.iter().copied())
        {
            assert!(tcp.addr(node).is_some(), "node {node:?} must listen");
        }
        assert_eq!(d.cluster.horizon(), 0, "tcp runs on wall clocks");
    }

    #[test]
    fn builds_paper_topology_on_mmap_backend() {
        let d = Deployment::build(DeploymentConfig::functional_mmap(3));
        assert_eq!(d.manager.provider_count(), 3);
        for i in 0..3 {
            let dir = d.backend_dir(i).expect("mmap deployments have dirs");
            assert!(
                dir.join("pages.g0.log").exists(),
                "generation-0 page log exists for {i}"
            );
            assert_eq!(
                d.storage[i].data().backend_kind(),
                blobseer_provider::BackendKind::Mmap
            );
        }
        // Registered capacity is the clamped log capacity, so manager
        // reservations can never exceed what the log holds.
        let p = d
            .manager
            .projection(ProviderId(d.storage_nodes[0].0))
            .unwrap();
        assert_eq!(p.capacity, MMAP_LOG_CAP);
        let root = d.backend_dir(0).unwrap().parent().unwrap().to_path_buf();
        drop(d);
        assert!(!root.exists(), "data root removed on drop");
    }

    #[test]
    fn admission_gates_wire_into_dispatch_and_serve_under_capacity() {
        let cfg = DeploymentConfig::functional(2)
            .tune()
            .admission(blobseer_rpc::AdmissionOptions::default())
            .build();
        let d = Deployment::build(cfg);
        assert_eq!(d.gates.len(), 2, "one gate per storage node");
        let c = d.client();
        let mut ctx = blobseer_rpc::Ctx::start();
        let info = c.alloc(&mut ctx, 1 << 20, 4096).unwrap();
        let v = c.write(&mut ctx, info.blob, 0, &[3u8; 8192]).unwrap();
        let (data, _) = c
            .read(
                &mut ctx,
                info.blob,
                Some(v),
                blobseer_proto::Segment::new(0, 8192),
            )
            .unwrap();
        assert!(data.iter().all(|&b| b == 3));
        let admitted: u64 = d.gates.iter().map(|g| g.stats().admitted).sum();
        let shed: u64 = d.gates.iter().map(|g| g.stats().shed).sum();
        assert!(admitted > 0, "traffic flowed through the gates");
        assert_eq!(shed, 0, "an unloaded deployment sheds nothing");
    }

    #[test]
    fn fan_out_config_builds_a_shared_heat_tracker() {
        let cfg = DeploymentConfig::functional(1)
            .tune()
            .fan_out(crate::FanOutOptions::default())
            .build();
        let d = Deployment::build(cfg);
        let heat = d.heat.as_ref().expect("fan-out implies a tracker");
        let c = d.client();
        assert!(
            Arc::ptr_eq(heat, c.heat().expect("clients share the tracker")),
            "every client pools heat in the deployment tracker"
        );
    }

    #[test]
    fn composite_routing_by_namespace() {
        use blobseer_proto::messages::{method, GetLatest};
        let d = Deployment::build(DeploymentConfig::functional(1));
        // A version-manager method sent to a storage node must be refused.
        let frame = Frame::from_msg(
            method::GET_LATEST,
            &GetLatest {
                blob: blobseer_proto::BlobId(1),
            },
        );
        let mut ctx = ServerCtx::new(0);
        let resp = d.storage[0].handle(&mut ctx, &frame);
        assert!(blobseer_rpc::parse_response::<u64>(&resp).is_err());
    }
}
