//! The data provider: page storage behind a selectable backend
//! (paper §III.A).
//!
//! "Data providers physically store in their local memory the pages
//! created by the WRITE operations." Pages are immutable once stored —
//! a WRITE always creates fresh pages under a fresh write id — so the
//! store needs no versioned cells, just a concurrent serving index plus
//! accounting for the provider manager's load balancing. *Where the
//! page bytes live* is the [`StorageBackend`]'s business: in-memory
//! buffers ([`BackendKind::Memory`], the paper's RAM providers) or an
//! append-only mapped page log ([`BackendKind::Mmap`]) that survives a
//! provider restart — see [`crate::backend`].
//!
//! Pages arrive and leave as [`PageBuf`]s: a `PUT_PAGE` hands the very
//! allocation the RPC frame lent out to the backend (which persists it
//! if it is persistent) and indexes whatever buffer the backend serves —
//! for the mmap backend a refcounted slice of the log mapping, metering
//! **zero** copies. A `GET_PAGE` serves a refcount bump of the indexed
//! buffer. Logical accounting is by bytes promised-to-retain — two keys
//! sharing one allocation still count twice — while the backend reports
//! its own *resident* footprint (heap vs mapped) so the manager's
//! capacity projections stay truthful even for an append-only log that
//! retains removed pages.
//!
//! Sharing cuts the other way on removal: a stored page may be a slice
//! pinning a larger write-segment allocation, which stays resident
//! until the *last* sibling slice is removed. Pages of one write are
//! almost always reclaimed together (GC names dead pages per write id),
//! so the transient gap between logical accounting and resident memory
//! is bounded by one write segment per partially-collected write.

use crate::backend::{
    BackendKind, CompactReport, LogOptions, MemoryBackend, MmapBackend, ResidentBytes,
    StorageBackend,
};
use blobseer_proto::messages::{method, GetPage, ProviderStats, PutPage, RemovePage};
use blobseer_proto::tree::PageKey;
use blobseer_proto::BlobError;
use blobseer_rpc::{error_frame, respond, Frame, ServerCtx, Service};
use blobseer_simnet::ServiceCosts;
use blobseer_util::{PageBuf, ShardedMap};
use parking_lot::{Condvar, Mutex, RwLock};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wake/shutdown protocol between the RPC threads and the maintenance
/// thread, under `Inner::maint_mx`.
struct MaintState {
    /// The online trigger fired since the thread last drained.
    wake: bool,
    /// The provider is dropping; the thread must exit.
    shutdown: bool,
    /// A maintenance thread exists (persistent backends only); without
    /// one, the trigger compacts inline like the pre-thread regime.
    has_thread: bool,
}

/// The provider's shared state: everything both the RPC threads and the
/// maintenance thread touch.
struct Inner {
    store: ShardedMap<PageKey, PageBuf>,
    bytes: AtomicU64,
    backend: Arc<dyn StorageBackend>,
    costs: ServiceCosts,
    /// Compaction gate: mutating ops (`put`, `remove`) hold the read
    /// side; compaction takes the write side only for the **install**
    /// (catch-up + swap + index re-point) — the log rewrite itself runs
    /// off-gate, so writers stall for the delta, not the full rewrite.
    /// Reads (`get`) are deliberately ungated — compaction is *online*:
    /// already-served buffers keep the old generation's mapping alive
    /// by refcount. Data-plane and uncontended, hence outside the
    /// lockmeter like the sharded page index itself.
    maint: RwLock<()>,
    /// Serializes whole prepare→install cycles (the salvage path on a
    /// full log races the maintenance thread).
    compact_lock: Mutex<()>,
    maint_mx: Mutex<MaintState>,
    maint_cv: Condvar,
    /// Compactions the maintenance thread completed (observability).
    bg_compactions: AtomicU64,
}

/// One data provider: a concurrent serving index over a storage
/// backend, plus — for persistent backends — a maintenance thread that
/// runs threshold-triggered log compactions off the RPC threads.
pub struct DataProviderService {
    inner: Arc<Inner>,
    maint_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DataProviderService {
    /// In-memory provider with `capacity` bytes of RAM (paper nodes:
    /// 4 GB).
    pub fn new(capacity: u64, costs: ServiceCosts) -> Self {
        Self::serving(Arc::new(MemoryBackend::new(capacity)), costs, false)
    }

    /// Provider over an explicit backend (empty index; persistent
    /// backends are replayed by [`DataProviderService::open_mmap`]).
    /// Backends with something to compact get a maintenance thread; a
    /// thread that cannot be spawned is a typed error.
    pub fn with_backend(
        backend: Arc<dyn StorageBackend>,
        costs: ServiceCosts,
    ) -> Result<Self, BlobError> {
        let has_thread = backend.kind() == BackendKind::Mmap;
        let svc = Self::serving(backend, costs, has_thread);
        if has_thread {
            let inner = Arc::clone(&svc.inner);
            let handle = std::thread::Builder::new()
                .name("provider-maint".into())
                .spawn(move || inner.maintenance_loop())
                .map_err(|_| BlobError::Internal("spawn provider maintenance thread"))?;
            *svc.maint_thread.lock() = Some(handle);
        }
        Ok(svc)
    }

    /// A provider with an empty index and no maintenance thread yet;
    /// `has_thread` says whether one will run its compactions.
    fn serving(backend: Arc<dyn StorageBackend>, costs: ServiceCosts, has_thread: bool) -> Self {
        let inner = Arc::new(Inner {
            store: ShardedMap::with_shards(64),
            bytes: AtomicU64::new(0),
            backend,
            costs,
            maint: RwLock::new(()),
            compact_lock: Mutex::new(()),
            maint_mx: Mutex::new(MaintState {
                wake: false,
                shutdown: false,
                has_thread,
            }),
            maint_cv: Condvar::new(),
            bg_compactions: AtomicU64::new(0),
        });
        Self {
            inner,
            maint_thread: Mutex::new(None),
        }
    }

    /// [`DataProviderService::open_mmap_with`] with default
    /// [`LogOptions`].
    pub fn open_mmap(dir: &Path, capacity: u64, costs: ServiceCosts) -> Result<Self, BlobError> {
        Self::open_mmap_with(dir, capacity, LogOptions::default(), costs)
    }

    /// Persistent provider over the crash-consistent page log under
    /// `dir` with room for `capacity` log bytes per generation: opens
    /// the newest sealed generation, replays every **committed** record
    /// into the serving index, and resumes appending after the last
    /// commit marker. This is the provider restart path — a provider
    /// re-opened on the directory it died with re-serves every page it
    /// acknowledged, and loses at most the uncommitted tail.
    pub fn open_mmap_with(
        dir: &Path,
        capacity: u64,
        opts: LogOptions,
        costs: ServiceCosts,
    ) -> Result<Self, BlobError> {
        let backend = Arc::new(MmapBackend::open_with(dir, capacity, opts)?);
        let svc = Self::with_backend(backend.clone(), costs)?;
        for (key, page) in backend.recover()? {
            let len = page.len() as u64;
            if let Some(old) = svc.inner.store.insert(key, page) {
                // A re-put appended twice; the replay's later record
                // wins, exactly like the original acknowledgement order
                // — and the superseded record is dead log weight for
                // the next compaction.
                svc.inner
                    .bytes
                    .fetch_sub(old.len() as u64, Ordering::Relaxed);
                backend.on_remove(&key, old.len() as u64);
            }
            svc.inner.bytes.fetch_add(len, Ordering::Relaxed);
        }
        Ok(svc)
    }

    /// Which backend kind this provider stores pages on.
    pub fn backend_kind(&self) -> BackendKind {
        self.inner.backend.kind()
    }

    /// The backend's resident backing bytes (heap vs mapped).
    pub fn resident(&self) -> ResidentBytes {
        self.inner.backend.resident()
    }

    /// Pages currently stored.
    pub fn page_count(&self) -> usize {
        self.inner.store.len()
    }

    /// Usage snapshot: logical pages/bytes plus the backend-resident
    /// split the manager's capacity accounting runs on, and the dead
    /// log bytes a compaction would reclaim.
    pub fn stats(&self) -> ProviderStats {
        self.inner.stats()
    }

    /// Compact the backend: rewrite the live serving set into a fresh
    /// log generation and reclaim everything else (removed pages,
    /// superseded re-puts, old commit markers). Returns `None` when
    /// there is nothing to reclaim — the memory backend always (its
    /// removes free eagerly), or a log with zero dead bytes.
    ///
    /// Online twice over: concurrent reads keep serving — buffers
    /// handed out before the swap hold the old generation's mapping by
    /// refcount — and the log rewrite itself runs *outside* the
    /// maintenance gate; `put`/`remove` wait only for the install (the
    /// catch-up delta plus the swap).
    pub fn compact(&self) -> Result<Option<CompactReport>, BlobError> {
        self.inner.compact()
    }

    /// Compactions the maintenance thread has completed (the
    /// threshold-triggered background ones; explicit and salvage
    /// compactions are not counted).
    pub fn background_compactions(&self) -> u64 {
        self.inner.bg_compactions.load(Ordering::Relaxed)
    }

    /// Direct probe (tests/GC verification).
    pub fn contains(&self, key: &PageKey) -> bool {
        self.inner.store.contains_key(key)
    }

    /// Every stored key (white-box: recovery tests enumerate the index
    /// before a crash to compare against the replayed one).
    pub fn keys(&self) -> Vec<PageKey> {
        self.inner.store.keys()
    }

    /// Direct page lookup without RPC framing (white-box).
    pub fn page(&self, key: &PageKey) -> Option<PageBuf> {
        self.inner.store.get_cloned(key)
    }
}

impl Drop for DataProviderService {
    fn drop(&mut self) {
        if let Some(handle) = self.maint_thread.lock().take() {
            {
                let mut st = self.inner.maint_mx.lock();
                st.shutdown = true;
            }
            self.inner.maint_cv.notify_all();
            let _ = handle.join();
        }
    }
}

impl Inner {
    fn stats(&self) -> ProviderStats {
        let resident = self.backend.resident();
        ProviderStats {
            pages: self.store.len() as u64,
            bytes: self.bytes.load(Ordering::Relaxed),
            heap_bytes: resident.heap,
            mapped_bytes: resident.mapped,
            dead_bytes: self.backend.dead_bytes(),
        }
    }

    /// The serving index, snapshotted entry by entry (no global lock —
    /// the caller decides what race window is acceptable).
    fn live_set(&self) -> Vec<(PageKey, PageBuf)> {
        self.store
            .keys()
            .into_iter()
            .filter_map(|k| self.store.get_cloned(&k).map(|p| (k, p)))
            .collect()
    }

    /// One full prepare→install compaction cycle. See
    /// [`DataProviderService::compact`] for the contract.
    fn compact(&self) -> Result<Option<CompactReport>, BlobError> {
        // One cycle at a time: the maintenance thread, explicit calls,
        // and the salvage path on a full log may all arrive here.
        let _one = self.compact_lock.lock();
        // A backend with no dead bytes — the memory backend always (it
        // frees eagerly), or a log a racing salvage just compacted —
        // has nothing to reclaim, and must not pay the O(pages)
        // live-set snapshot.
        if self.backend.dead_bytes() == 0 {
            return Ok(None);
        }
        // Phase 1, off-gate: puts and removes keep landing while the
        // backend rewrites this snapshot into a fresh generation.
        let snapshot = self.live_set();
        let Some(prepared) = self.backend.compact_prepare(&snapshot)? else {
            return Ok(None);
        };
        // Phase 2, under the gate: writers hold still while the backend
        // catches the new generation up with whatever moved during the
        // rewrite and swaps it in; then re-point the serving index.
        let _gate = self.maint.write();
        let current = self.live_set();
        match self.backend.compact_install(prepared, &current)? {
            None => Ok(None),
            Some(outcome) => {
                for (key, page) in outcome.entries {
                    self.store.insert(key, page);
                }
                Ok(Some(outcome.report))
            }
        }
    }

    /// The maintenance thread: sleep until the online trigger fires,
    /// then compact until the backend stops asking (a failed compaction
    /// backs its own trigger off, so this converges).
    fn maintenance_loop(&self) {
        let mut st = self.maint_mx.lock();
        loop {
            while !st.wake && !st.shutdown {
                self.maint_cv.wait(&mut st);
            }
            if st.shutdown {
                return;
            }
            st.wake = false;
            drop(st);
            while self.backend.wants_compaction() {
                // Best effort: a failed compaction leaves the old
                // generation serving — correctness is unaffected — and
                // raised its own retry floor, so don't spin on it.
                if self.compact().is_err() {
                    break;
                }
                self.bg_compactions.fetch_add(1, Ordering::Relaxed);
            }
            st = self.maint_mx.lock();
        }
    }

    /// The online trigger, called after mutating ops: when dead bytes
    /// crossed the backend's threshold, wake the maintenance thread —
    /// the RPC thread returns immediately; only the install's gate can
    /// ever make a later put wait. Backends without a thread (memory:
    /// nothing to compact) fall back to compacting inline.
    fn maybe_compact(&self) {
        if !self.backend.wants_compaction() {
            return;
        }
        let signaled = {
            let mut st = self.maint_mx.lock();
            if st.has_thread {
                st.wake = true;
            }
            st.has_thread
        };
        if signaled {
            self.maint_cv.notify_one();
        } else {
            let _ = self.compact();
        }
    }

    fn put(&self, key: PageKey, data: PageBuf) -> Result<(), BlobError> {
        match self.try_put(key, data.clone()) {
            Ok(()) => {
                // Superseding re-puts create dead bytes too; with the
                // gate released, give the online compaction its
                // chance — a log that only ever sees re-puts must not
                // fill up with reclaimable records.
                self.maybe_compact();
                Ok(())
            }
            Err(e) => {
                // A full log with reclaimable dead bytes is not full:
                // compact regardless of the auto-trigger's threshold
                // and retry once, so a provider never serves "full"
                // errors indefinitely over space a compaction would
                // hand back. (Retry even when compact() found nothing —
                // a racing salvage may have already reclaimed it.)
                if self.backend.dead_bytes() > 0 {
                    let _ = self.compact();
                    return self.try_put(key, data);
                }
                Err(e)
            }
        }
    }

    /// One put attempt under the maintenance gate's read side.
    fn try_put(&self, key: PageKey, data: PageBuf) -> Result<(), BlobError> {
        let _gate = self.maint.read();
        let len = data.len() as u64;
        let replaced = self.store.with(&key, |old| old.len() as u64);
        // The backend enforces its own capacity — the `replaced` probe
        // is a check-time credit so an idempotent re-put never fails on
        // a full provider — and returns the buffer to serve: the input
        // itself for memory, a mapped log slice for mmap.
        let serve = self.backend.ingest(&key, &data, replaced)?;
        if let Some(old) = self.store.insert(key, serve) {
            // Idempotent re-put of the same immutable page (client
            // retry). The bytes actually freed are credited from the
            // insert's own return value, not the earlier probe, so
            // racing puts of one key cannot drift the accounting.
            self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
            self.backend.on_remove(&key, old.len() as u64);
        }
        self.bytes.fetch_add(len, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, key: &PageKey) -> Result<PageBuf, BlobError> {
        self.store
            .get_cloned(key)
            .ok_or(BlobError::MissingPage { tried: vec![] })
    }

    fn remove(&self, key: &PageKey) -> bool {
        let removed = {
            let _gate = self.maint.read();
            match self.store.remove(key) {
                Some(old) => {
                    self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
                    self.backend.on_remove(key, old.len() as u64);
                    true
                }
                None => false,
            }
        };
        if removed {
            // The gate is released: compaction takes the write side.
            self.maybe_compact();
        }
        removed
    }
}

impl Service for DataProviderService {
    fn name(&self) -> &'static str {
        "data-provider"
    }

    /// `GET_PAGE` is an index probe and a refcount. Puts and removes
    /// append, commit and pass the maintenance gate; they keep the pool.
    fn nonblocking(&self, method: u16) -> bool {
        method == method::GET_PAGE
    }

    fn handle(&self, ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        match frame.method {
            method::PUT_PAGE => {
                ctx.charge(self.inner.costs.page_store_ns);
                respond(frame, |m: PutPage| self.inner.put(m.key, m.data))
            }
            method::GET_PAGE => {
                ctx.charge(self.inner.costs.page_fetch_ns);
                respond(frame, |m: GetPage| self.inner.get(&m.key))
            }
            method::REMOVE_PAGE => {
                ctx.charge(self.inner.costs.page_fetch_ns);
                respond(frame, |m: RemovePage| Ok(self.inner.remove(&m.key)))
            }
            method::PROVIDER_STATS => {
                ctx.charge(self.inner.costs.manager_query_ns);
                respond(frame, |_: ()| Ok(self.inner.stats()))
            }
            other => error_frame(other, BlobError::Internal("unknown data-provider method")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_proto::{BlobId, WriteId};
    use blobseer_rpc::parse_response;

    fn key(w: u64, i: u64) -> PageKey {
        PageKey {
            blob: BlobId(1),
            write: WriteId(w),
            index: i,
        }
    }

    fn svc() -> DataProviderService {
        DataProviderService::new(1 << 20, ServiceCosts::zero())
    }

    #[test]
    fn put_get_remove_cycle() {
        let p = svc();
        let mut ctx = ServerCtx::new(0);
        let data = PageBuf::from_vec(vec![7u8; 4096]);
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(
                method::PUT_PAGE,
                &PutPage {
                    key: key(1, 0),
                    data: data.clone(),
                },
            ),
        );
        parse_response::<()>(&resp).unwrap();
        assert_eq!(p.page_count(), 1);
        assert_eq!(p.stats().bytes, 4096);

        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::GET_PAGE, &GetPage { key: key(1, 0) }),
        );
        assert_eq!(parse_response::<PageBuf>(&resp).unwrap(), data);

        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: key(1, 0) }),
        );
        assert!(parse_response::<bool>(&resp).unwrap());
        assert_eq!(p.stats().bytes, 0);
        // Second remove reports false.
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: key(1, 0) }),
        );
        assert!(!parse_response::<bool>(&resp).unwrap());
    }

    #[test]
    fn missing_page_is_error() {
        let p = svc();
        let mut ctx = ServerCtx::new(0);
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::GET_PAGE, &GetPage { key: key(9, 9) }),
        );
        assert!(matches!(
            parse_response::<PageBuf>(&resp),
            Err(BlobError::MissingPage { .. })
        ));
    }

    #[test]
    fn capacity_enforced() {
        let p = DataProviderService::new(8192, ServiceCosts::zero());
        let mut ctx = ServerCtx::new(0);
        for i in 0..2 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, i),
                        data: PageBuf::from_vec(vec![0u8; 4096]),
                    },
                ),
            );
            parse_response::<()>(&resp).unwrap();
        }
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(
                method::PUT_PAGE,
                &PutPage {
                    key: key(1, 2),
                    data: PageBuf::from_vec(vec![0u8; 4096]),
                },
            ),
        );
        assert!(parse_response::<()>(&resp).is_err(), "out of memory");

        // Idempotent re-put of an existing key on a full provider must
        // succeed: the replaced entry's bytes are credited before the
        // capacity check (client retry after a lost ack).
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(
                method::PUT_PAGE,
                &PutPage {
                    key: key(1, 0),
                    data: PageBuf::from_vec(vec![9u8; 4096]),
                },
            ),
        );
        parse_response::<()>(&resp).unwrap();
        assert_eq!(p.stats().bytes, 8192, "full provider stays full, not over");
    }

    #[test]
    fn idempotent_re_put_does_not_leak_accounting() {
        let p = svc();
        let mut ctx = ServerCtx::new(0);
        for _ in 0..3 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, 0),
                        data: PageBuf::from_vec(vec![1u8; 2048]),
                    },
                ),
            );
            parse_response::<()>(&resp).unwrap();
        }
        assert_eq!(p.stats().bytes, 2048);
        assert_eq!(p.page_count(), 1);
    }

    #[test]
    fn accounting_correct_when_pages_share_one_allocation() {
        // Replica fan-out hands the same PageBuf to several providers (or,
        // via distinct keys, to one provider twice). Accounting must track
        // logical bytes per key, unaffected by allocation sharing.
        let p = svc();
        let mut ctx = ServerCtx::new(0);
        let shared = PageBuf::from_vec(vec![5u8; 4096]);
        for i in 0..3 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, i),
                        data: shared.clone(),
                    },
                ),
            );
            parse_response::<()>(&resp).unwrap();
        }
        assert_eq!(p.page_count(), 3);
        assert_eq!(p.stats().bytes, 3 * 4096, "logical bytes, not allocations");

        // A get serves a refcount bump of the stored buffer, and the
        // accounting is untouched by reads.
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::GET_PAGE, &GetPage { key: key(1, 0) }),
        );
        let got = parse_response::<PageBuf>(&resp).unwrap();
        assert!(
            got.same_allocation(&shared),
            "get must serve the shared allocation"
        );
        assert_eq!(p.stats().bytes, 3 * 4096);

        // Removing one key releases exactly its logical bytes; the other
        // keys (same allocation) are unaffected.
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: key(1, 1) }),
        );
        assert!(parse_response::<bool>(&resp).unwrap());
        assert_eq!(p.page_count(), 2);
        assert_eq!(p.stats().bytes, 2 * 4096);
        assert!(p.contains(&key(1, 0)) && p.contains(&key(1, 2)));

        // Re-putting an existing key with a sliced view of the same data
        // stays idempotent in accounting.
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(
                method::PUT_PAGE,
                &PutPage {
                    key: key(1, 0),
                    data: shared.slice(0..4096),
                },
            ),
        );
        parse_response::<()>(&resp).unwrap();
        assert_eq!(p.stats().bytes, 2 * 4096);
    }

    #[test]
    fn stats_message() {
        let p = svc();
        let mut ctx = ServerCtx::new(0);
        p.handle(
            &mut ctx,
            &Frame::from_msg(
                method::PUT_PAGE,
                &PutPage {
                    key: key(2, 5),
                    data: PageBuf::from_vec(vec![1u8; 1024]),
                },
            ),
        );
        let resp = p.handle(&mut ctx, &Frame::from_msg(method::PROVIDER_STATS, &()));
        let stats = parse_response::<ProviderStats>(&resp).unwrap();
        assert_eq!(
            stats,
            ProviderStats {
                pages: 1,
                bytes: 1024,
                heap_bytes: 1024,
                mapped_bytes: 0,
                dead_bytes: 0
            }
        );
        assert_eq!(stats.reserved_bytes(), 1024);
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("blobseer-data-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn mmap_provider_serves_mapped_pages_with_zero_copies() {
        let dir = temp_dir("serve");
        let p = DataProviderService::open_mmap(&dir, 1 << 20, ServiceCosts::zero()).unwrap();
        assert_eq!(p.backend_kind(), crate::backend::BackendKind::Mmap);
        let mut ctx = ServerCtx::new(0);
        let data = PageBuf::from_vec((0..4096u32).map(|i| (i % 241) as u8).collect());

        let before = blobseer_util::copymeter::thread_snapshot();
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(
                method::PUT_PAGE,
                &PutPage {
                    key: key(1, 0),
                    data: data.clone(),
                },
            ),
        );
        parse_response::<()>(&resp).unwrap();
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::GET_PAGE, &GetPage { key: key(1, 0) }),
        );
        let got = parse_response::<PageBuf>(&resp).unwrap();
        assert_eq!(
            before.bytes_since(),
            0,
            "mmap put+get must meter zero payload copies"
        );
        assert_eq!(got, data);
        assert!(got.is_mapped(), "served page is lent from the log mapping");

        // Stats: logical bytes vs mapped log bytes (headers included).
        let stats = p.stats();
        assert_eq!(stats.bytes, 4096);
        assert_eq!(stats.heap_bytes, 0);
        assert!(stats.mapped_bytes > 4096, "log bytes include the header");
        assert_eq!(stats.reserved_bytes(), stats.mapped_bytes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mmap_provider_restart_re_serves_acknowledged_pages() {
        let dir = temp_dir("restart");
        let mut ctx = ServerCtx::new(0);
        let pages: Vec<PageBuf> = (0..5u8)
            .map(|i| PageBuf::from_vec(vec![i.wrapping_mul(37); 2048]))
            .collect();
        {
            let p = DataProviderService::open_mmap(&dir, 1 << 20, ServiceCosts::zero()).unwrap();
            for (i, data) in pages.iter().enumerate() {
                let resp = p.handle(
                    &mut ctx,
                    &Frame::from_msg(
                        method::PUT_PAGE,
                        &PutPage {
                            key: key(1, i as u64),
                            data: data.clone(),
                        },
                    ),
                );
                parse_response::<()>(&resp).unwrap();
            }
            // Idempotent re-put before the crash: the replay keeps the
            // latest acknowledged contents.
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, 0),
                        data: pages[4].clone(),
                    },
                ),
            );
            parse_response::<()>(&resp).unwrap();
        } // "crash": the process-local index is gone

        let p = DataProviderService::open_mmap(&dir, 1 << 20, ServiceCosts::zero()).unwrap();
        assert_eq!(p.page_count(), 5);
        assert_eq!(p.stats().bytes, 5 * 2048);
        for (i, data) in pages.iter().enumerate() {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::GET_PAGE,
                    &GetPage {
                        key: key(1, i as u64),
                    },
                ),
            );
            let got = parse_response::<PageBuf>(&resp).unwrap();
            let want = if i == 0 { &pages[4] } else { data };
            assert_eq!(&got, want, "page {i} byte-identical after restart");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reserved_bytes_never_double_counts_across_a_compaction_window() {
        // During compaction one page briefly exists in *two* generation
        // files on disk. `ProviderStats::reserved_bytes` must follow
        // the serving generation only — a concurrent observer hammering
        // stats through the whole window may never see the sum of both.
        let dir = temp_dir("window");
        let p =
            Arc::new(DataProviderService::open_mmap(&dir, 1 << 20, ServiceCosts::zero()).unwrap());
        let mut ctx = ServerCtx::new(0);
        for i in 0..16u64 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, i),
                        data: PageBuf::from_vec(vec![i as u8; 2048]),
                    },
                ),
            );
            parse_response::<()>(&resp).unwrap();
        }
        for i in 0..8u64 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: key(1, i) }),
            );
            assert!(parse_response::<bool>(&resp).unwrap());
        }
        let before = p.stats();
        assert!(before.dead_bytes > 0);
        let ceiling = before.reserved_bytes();

        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        // The compaction starts only once the observer has sampled, so a
        // loaded host cannot schedule the observer after the window.
        let sampled = Arc::new(std::sync::Barrier::new(2));
        let observer = {
            let p = Arc::clone(&p);
            let stop = Arc::clone(&stop);
            let sampled = Arc::clone(&sampled);
            std::thread::spawn(move || {
                let mut samples = 0u64;
                loop {
                    let s = p.stats();
                    assert!(
                        s.reserved_bytes() <= ceiling,
                        "double-counted generations: {} > pre-compaction {}",
                        s.reserved_bytes(),
                        ceiling
                    );
                    samples += 1;
                    if samples == 1 {
                        sampled.wait();
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                samples
            })
        };
        sampled.wait();
        let report = p.compact().unwrap().expect("mmap compacts");
        stop.store(true, Ordering::Relaxed);
        assert!(observer.join().unwrap() > 0, "observer sampled the window");

        let after = p.stats();
        assert_eq!(after.reserved_bytes(), report.new_log_bytes);
        assert!(after.reserved_bytes() < ceiling, "the log shrank");
        assert_eq!(after.dead_bytes, 0);
        assert_eq!(after.pages, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Wait for the maintenance thread to finish a triggered
    /// compaction: poll until `pred(stats)` holds (the thread runs
    /// asynchronously to the mutating op that woke it).
    fn wait_for_stats(p: &DataProviderService, pred: impl Fn(&ProviderStats) -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if pred(&p.stats()) {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "maintenance thread never compacted: {:?}",
                p.stats()
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn removals_past_threshold_trigger_online_compaction() {
        // The automatic trigger: once removes push dead bytes over the
        // configured threshold, the maintenance thread compacts — the
        // log shrinks, the survivors keep serving, and the generation
        // moved — without the removing RPC thread paying for it.
        let dir = temp_dir("auto");
        let opts = crate::backend::LogOptions {
            compact_min_dead_bytes: 1024,
            compact_dead_ratio: 0.3,
            ..Default::default()
        };
        let p =
            DataProviderService::open_mmap_with(&dir, 1 << 20, opts, ServiceCosts::zero()).unwrap();
        let mut ctx = ServerCtx::new(0);
        let pages: Vec<PageBuf> = (0..8u8).map(|i| PageBuf::from_vec(vec![i; 2048])).collect();
        for (i, data) in pages.iter().enumerate() {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, i as u64),
                        data: data.clone(),
                    },
                ),
            );
            parse_response::<()>(&resp).unwrap();
        }
        let full = p.stats().mapped_bytes;
        for i in 0..6u64 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: key(1, i) }),
            );
            assert!(parse_response::<bool>(&resp).unwrap());
        }
        wait_for_stats(&p, |s| s.mapped_bytes < full && s.dead_bytes == 0);
        let stats = p.stats();
        assert_eq!(stats.pages, 2);
        assert!(
            p.background_compactions() >= 1,
            "the maintenance thread ran it, not the RPC path"
        );
        // Survivors still served byte-identical, from the new generation.
        for (i, want) in pages.iter().enumerate().skip(6) {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::GET_PAGE,
                    &GetPage {
                        key: key(1, i as u64),
                    },
                ),
            );
            let got = parse_response::<PageBuf>(&resp).unwrap();
            assert_eq!(&got, want);
            assert!(got.mapping_generation().unwrap_or(0) >= 1, "new generation");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn re_puts_alone_trigger_online_compaction() {
        // Superseding re-puts create dead bytes without any REMOVE
        // traffic; the online trigger must fire from the put path too,
        // or a retry-heavy workload fills the log with reclaimable
        // records.
        let dir = temp_dir("reput-auto");
        let opts = crate::backend::LogOptions {
            compact_min_dead_bytes: 1024,
            compact_dead_ratio: 0.3,
            ..Default::default()
        };
        let p =
            DataProviderService::open_mmap_with(&dir, 1 << 20, opts, ServiceCosts::zero()).unwrap();
        let mut ctx = ServerCtx::new(0);
        for round in 0..6u8 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, 0),
                        data: PageBuf::from_vec(vec![round; 2048]),
                    },
                ),
            );
            parse_response::<()>(&resp).unwrap();
        }
        wait_for_stats(&p, |s| s.dead_bytes < 2048);
        assert_eq!(p.stats().pages, 1);
        assert!(p.background_compactions() >= 1);
        // The live entry survived the swap with the newest contents.
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::GET_PAGE, &GetPage { key: key(1, 0) }),
        );
        let got = parse_response::<PageBuf>(&resp).unwrap();
        assert_eq!(got, PageBuf::from_vec(vec![5u8; 2048]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_compaction_preserves_concurrent_writes() {
        // The point of the two-phase protocol: writers keep landing
        // while the maintenance thread rewrites the log underneath
        // them, and nothing they wrote is lost — in the serving index
        // or across a restart.
        let dir = temp_dir("bg-concurrent");
        let opts = crate::backend::LogOptions {
            compact_min_dead_bytes: 1024,
            compact_dead_ratio: 0.1,
            ..Default::default()
        };
        let p = Arc::new(
            DataProviderService::open_mmap_with(&dir, 1 << 22, opts, ServiceCosts::zero()).unwrap(),
        );
        // Four writers on disjoint key spaces: re-puts and removes
        // generate dead bytes continuously, so the trigger fires many
        // times mid-traffic.
        let expected: Vec<Vec<(PageKey, Option<Vec<u8>>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let p = Arc::clone(&p);
                    s.spawn(move || {
                        let mut ctx = ServerCtx::new(0);
                        let mut last: Vec<(PageKey, Option<Vec<u8>>)> =
                            (0..8).map(|i| (key(t + 1, i), None)).collect();
                        for round in 0..120u64 {
                            let i = (round % 8) as usize;
                            let k = last[i].0;
                            if round % 16 == 9 {
                                let resp = p.handle(
                                    &mut ctx,
                                    &Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: k }),
                                );
                                parse_response::<bool>(&resp).unwrap();
                                last[i].1 = None;
                            } else {
                                let val =
                                    vec![(t as u8) ^ (round as u8); 512 + (round as usize % 512)];
                                let resp = p.handle(
                                    &mut ctx,
                                    &Frame::from_msg(
                                        method::PUT_PAGE,
                                        &PutPage {
                                            key: k,
                                            data: PageBuf::from_vec(val.clone()),
                                        },
                                    ),
                                );
                                parse_response::<()>(&resp).unwrap();
                                last[i].1 = Some(val);
                            }
                        }
                        last
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The trigger must have fired (the drain may still be running
        // just after the writers stop — give it its deadline).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while p.background_compactions() == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "the maintenance thread never compacted under traffic"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        // Every key serves exactly what its writer last did to it.
        let check = |p: &DataProviderService| {
            for per_thread in &expected {
                for (k, want) in per_thread {
                    match want {
                        Some(v) => assert_eq!(
                            p.page(k).as_ref().map(|b| b.as_slice()),
                            Some(v.as_slice()),
                            "key {k:?} lost or corrupted by background compaction"
                        ),
                        None => assert!(!p.contains(k), "removed key {k:?} resurrected"),
                    }
                }
            }
        };
        check(&p);
        // And the same after a restart — live pages byte-identical
        // (removed keys may legitimately resurrect if their removal
        // post-dates the last compaction, so only presence of live
        // content is checked here).
        drop(Arc::try_unwrap(p).ok().expect("sole owner"));
        let p2 =
            DataProviderService::open_mmap_with(&dir, 1 << 22, opts, ServiceCosts::zero()).unwrap();
        for per_thread in &expected {
            for (k, want) in per_thread {
                if let Some(v) = want {
                    assert_eq!(
                        p2.page(k).as_ref().map(|b| b.as_slice()),
                        Some(v.as_slice()),
                        "key {k:?} not recovered after restart"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_log_with_dead_bytes_compacts_and_accepts_the_put() {
        // A log can fill while dead bytes sit below the auto-trigger
        // threshold. The put path must treat "full but reclaimable" as
        // compact-then-retry, never as a permanent "provider full".
        let dir = temp_dir("salvage");
        // Room for exactly four 512-byte records, each with its marker;
        // thresholds high enough that the auto-trigger never fires.
        let opts = crate::backend::LogOptions::default();
        let capacity = 4 * (48 + 512 + 48);
        let p = DataProviderService::open_mmap_with(&dir, capacity, opts, ServiceCosts::zero())
            .unwrap();
        let mut ctx = ServerCtx::new(0);
        let put = |i: u64, ctx: &mut ServerCtx| {
            let resp = p.handle(
                ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, i),
                        data: PageBuf::from_vec(vec![i as u8; 512]),
                    },
                ),
            );
            parse_response::<()>(&resp)
        };
        for i in 0..4 {
            put(i, &mut ctx).unwrap();
        }
        for i in 0..2u64 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: key(1, i) }),
            );
            assert!(parse_response::<bool>(&resp).unwrap());
        }
        assert!(p.stats().dead_bytes > 0, "reclaimable space exists");
        // The log is full, but not really: the put compacts and lands.
        put(9, &mut ctx).expect("full-but-reclaimable log accepts the put");
        assert_eq!(p.stats().pages, 3);
        assert_eq!(p.stats().dead_bytes, 0, "the salvage compaction ran");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn superseding_re_put_counts_the_old_record_dead() {
        let dir = temp_dir("supersede");
        let p = DataProviderService::open_mmap(&dir, 1 << 20, ServiceCosts::zero()).unwrap();
        let mut ctx = ServerCtx::new(0);
        for _ in 0..2 {
            let resp = p.handle(
                &mut ctx,
                &Frame::from_msg(
                    method::PUT_PAGE,
                    &PutPage {
                        key: key(1, 0),
                        data: PageBuf::from_vec(vec![5u8; 4096]),
                    },
                ),
            );
            parse_response::<()>(&resp).unwrap();
        }
        let stats = p.stats();
        assert_eq!(stats.pages, 1);
        assert_eq!(stats.bytes, 4096, "logical bytes count the live entry once");
        assert!(
            stats.dead_bytes >= 4096,
            "the superseded record is dead log weight: {}",
            stats.dead_bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mmap_provider_remove_drops_index_but_not_log() {
        let dir = temp_dir("remove");
        let p = DataProviderService::open_mmap(&dir, 1 << 20, ServiceCosts::zero()).unwrap();
        let mut ctx = ServerCtx::new(0);
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(
                method::PUT_PAGE,
                &PutPage {
                    key: key(1, 0),
                    data: PageBuf::from_vec(vec![3u8; 1024]),
                },
            ),
        );
        parse_response::<()>(&resp).unwrap();
        let mapped = p.stats().mapped_bytes;
        let resp = p.handle(
            &mut ctx,
            &Frame::from_msg(method::REMOVE_PAGE, &RemovePage { key: key(1, 0) }),
        );
        assert!(parse_response::<bool>(&resp).unwrap());
        assert_eq!(p.stats().bytes, 0, "logical bytes freed");
        assert_eq!(
            p.stats().mapped_bytes,
            mapped,
            "append-only log retains the record until compaction"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
