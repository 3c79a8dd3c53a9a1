//! Storage backends for the data provider: where page bytes actually
//! live.
//!
//! The paper's providers "physically store in their local memory the
//! pages created by the WRITE operations" — PR 1–3 reproduced exactly
//! that ([`MemoryBackend`]): pages evaporate with the process. This
//! module adds the persistent variant the paper's storage nodes imply
//! at survey scale ([`MmapBackend`]): every acknowledged page lives in
//! a per-provider **page log** (a self-indexing sequence of
//! `header + payload` records sealed by **commit markers**) and is
//! *served as a refcounted slice of a read-only memory mapping of that
//! log* — zero heap copies on the read path, and a provider restarted
//! on the same directory replays the log to re-serve everything it
//! ever acknowledged.
//!
//! # Log format and crash model
//!
//! The page log is a client of the record-then-commit engine in
//! [`blobseer_util::recordlog`], which owns the on-disk format (the
//! format header, compact varint record headers, tombstones, sequenced
//! commit markers), the reserve → write → group-commit append protocol,
//! marker-by-marker replay, and the `<base>.g<N>.log` generation files —
//! see its module docs. What this module adds:
//!
//! * the **page record**: its own kind, header fields `a/b/c` = the
//!   page key (blob, write, index), payload = the page bytes. The log's
//!   format header names the page log's format number ([`FORMAT`]); a
//!   log of another number, or one written before format headers, is
//!   refused at open, untouched;
//! * the file is `pages.g<N>.log`, sparse pre-sized to the provider's
//!   capacity and memory-mapped read-only exactly once, so the
//!   engine's [`Appender`] is bounded by the mapping and an append's
//!   payload offset *is* the serving slice;
//! * replay runs over the mapping and slices it — recovery copies no
//!   page.
//!
//! An append is acknowledged only once a commit marker covers it
//! (optionally `fdatasync`ed: [`LogOptions::fsync_on_commit`]), and
//! replay surfaces records only up to the last valid, in-sequence
//! marker — so a *process* crash between two in-flight concurrent
//! appends can tear at most the uncommitted tail, never a page that
//! was acknowledged.
//!
//! # Space model: online compaction
//!
//! The log is append-only, so removed and superseded records
//! accumulate as **dead bytes** ([`StorageBackend::dead_bytes`]). When
//! they exceed the configured threshold
//! ([`LogOptions::compact_dead_ratio`] of the log, at least
//! [`LogOptions::compact_min_dead_bytes`]), the provider rewrites the
//! live records into a fresh generation file `pages.g<N+1>.log`
//! (staged, sealed and installed by the engine's
//! [`GenerationWriter`]) and swaps the in-memory mapping. Readers are
//! never invalidated: the old mapping is immutable and refcounted, so
//! every [`PageBuf`] served before the swap keeps reading its bytes
//! until it drops — generation swap, not invalidation. A crash mid-compaction leaves either a `.tmp` (the
//! swap never happened: the old generation wins) or both `pages.g<N>`
//! and `pages.g<N+1>` (the rename happened: the newest complete
//! generation wins); [`MmapBackend::open`] scans the directory,
//! keeps the highest sealed generation, and removes the debris.
//!
//! Copy discipline: a backend never meters a payload copy.
//! [`MemoryBackend`] stores the very buffer the RPC layer lent out;
//! [`MmapBackend`] writes payloads (and compaction rewrites) with
//! positioned I/O — kernel-side, exactly like a socket write, not a
//! memcpy the meter tracks — and serves mapped bytes by refcount. The
//! one sanctioned write-path copy remains the client's
//! `copy_from_slice` of the caller's buffer.
//!
//! Capacity discipline: a backend enforces its own notion of fullness —
//! heap bytes for [`MemoryBackend`], generation-file bytes (headers and
//! markers included) for [`MmapBackend`] — and reports the split
//! through [`StorageBackend::resident`], which the provider surfaces
//! as `ProviderStats::{heap_bytes, mapped_bytes}`. During a compaction
//! window two generation files exist on disk, but `resident` always
//! reports exactly **one** generation (the serving one), so a page
//! being carried across never counts twice against the manager's
//! capacity reservations.

use blobseer_proto::tree::PageKey;
use blobseer_proto::{BlobError, BlobId, WriteId};
pub use blobseer_util::recordlog::CompactReport;
use blobseer_util::recordlog::{
    self, Appender, Client, CompactTrigger, Format, GenerationWriter, LogError, Record,
    RecordLogOptions, FIRST_CLIENT_KIND,
};
use blobseer_util::PageBuf;
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which storage backend a data provider runs on (selectable per
/// deployment, like the transport).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Pages live in process memory (the paper's RAM providers); a
    /// restart loses everything.
    #[default]
    Memory,
    /// Pages live in a crash-consistent mapped page log on disk; served
    /// as slices of the mapping, re-served after a restart on the same
    /// directory.
    Mmap,
}

/// A backend's resident backing bytes, split by where they live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidentBytes {
    /// Heap-allocation footprint (freed by removes).
    pub heap: u64,
    /// Mapped page-log footprint of the **serving generation** only,
    /// record headers and commit markers included. Grows append-only
    /// within a generation; shrinks when compaction swaps in a fresh
    /// one.
    pub mapped: u64,
}

/// Tuning knobs for the persistent page log (durability and space
/// reclamation). Carried by `DeploymentConfig` so a deployment selects
/// its durability regime the same way it selects transport and backend.
#[derive(Clone, Copy, Debug)]
pub struct LogOptions {
    /// `fdatasync` the log on every commit marker. Off (the default),
    /// an acknowledged append survives a process crash (the kernel
    /// holds the bytes); on, it also survives power loss — one sync per
    /// *group* commit, amortized across the batch.
    pub fsync_on_commit: bool,
    /// How long a group-commit leader waits for concurrent appends to
    /// join its batch before sealing the marker. Zero (the default)
    /// still batches naturally: every append that completes while a
    /// commit is in flight is sealed by the next marker.
    pub group_commit_window: Duration,
    /// Compact once dead bytes exceed this fraction of the log
    /// (`0.0 < r < 1.0`; `0` disables the automatic trigger —
    /// explicit compaction keeps working).
    pub compact_dead_ratio: f64,
    /// …and at least this many dead bytes (so tiny logs don't churn).
    pub compact_min_dead_bytes: u64,
}

impl LogOptions {
    /// The compaction thresholds as the engine's [`CompactTrigger`] —
    /// the metadata journal compacts on the same rule.
    pub fn trigger(&self) -> CompactTrigger {
        CompactTrigger {
            dead_ratio: self.compact_dead_ratio,
            min_dead_bytes: self.compact_min_dead_bytes,
        }
    }
}

impl Default for LogOptions {
    fn default() -> Self {
        let trigger = CompactTrigger::default();
        Self {
            fsync_on_commit: false,
            group_commit_window: Duration::ZERO,
            compact_dead_ratio: trigger.dead_ratio,
            compact_min_dead_bytes: trigger.min_dead_bytes,
        }
    }
}

/// A successful compaction: the fresh serving buffers for every live
/// page (slices of the new generation's mapping) plus the report.
pub struct CompactOutcome {
    /// `key → fresh PageBuf` for every entry of the `current` index the
    /// caller passed to [`StorageBackend::compact_install`], in the
    /// same order; the caller re-points its serving index at these.
    pub entries: Vec<(PageKey, PageBuf)>,
    /// Space accounting of the swap.
    pub report: CompactReport,
}

/// The output of [`StorageBackend::compact_prepare`]: a fully written,
/// sealed, fsynced — but **not yet serving** — next generation, plus
/// the snapshot it was built from. Opaque: the only thing to do with
/// one is hand it to [`StorageBackend::compact_install`] (or drop it,
/// which removes the staged file).
pub struct PreparedCompaction {
    /// The staged generation, sealed up to the end of the snapshot —
    /// the durable point if nothing moved during the window, and where
    /// catch-up appends.
    staged: GenerationWriter,
    map: PageBuf,
    /// `key → (payload offset, len)` in the new file, snapshot order.
    ranges: Vec<(PageKey, usize, usize)>,
    /// The snapshot itself, kept alive so install can compare the
    /// caller's current buffers against it by slice identity.
    snapshot: Vec<(PageKey, PageBuf)>,
    /// Generation number the snapshot was taken against.
    old_number: u64,
}

/// Where a data provider's page bytes live. The provider keeps the
/// serving index (`PageKey → PageBuf`) and logical-byte accounting; the
/// backend owns persistence, capacity enforcement, and the
/// backing-byte split.
pub trait StorageBackend: Send + Sync {
    /// Which kind this backend is.
    fn kind(&self) -> BackendKind;

    /// Ingest one page: persist it if the backend is persistent and
    /// return the buffer the provider should *serve* (for
    /// [`MmapBackend`]: a slice of the log mapping). `replaced` is the
    /// byte length of an index entry this put *probably* replaces
    /// (idempotent client re-put) — a credit applied to the capacity
    /// check only; the footprint itself is charged in full, and the
    /// caller reports the bytes an index replacement actually freed via
    /// [`StorageBackend::on_remove`], so racing puts of one key cannot
    /// drift the accounting. Fails — persisting nothing — when the
    /// backend is full. A persistent backend returns only once the
    /// page is **committed** (covered by a commit marker), so
    /// "acknowledged" always means "recoverable".
    fn ingest(
        &self,
        key: &PageKey,
        data: &PageBuf,
        replaced: Option<u64>,
    ) -> Result<PageBuf, BlobError>;

    /// Account the removal of the stored entry of `key`, `len` bytes
    /// (heap backends free; the page log counts its record as dead bytes
    /// a future compaction reclaims).
    fn on_remove(&self, key: &PageKey, len: u64);

    /// Current backing-byte footprint, split heap vs mapped.
    fn resident(&self) -> ResidentBytes;

    /// Log bytes owed to removed or superseded records (what compaction
    /// would reclaim). Always 0 for backends that free eagerly.
    fn dead_bytes(&self) -> u64 {
        0
    }

    /// True when dead bytes crossed the configured compaction
    /// threshold and the caller should run
    /// [`StorageBackend::compact`].
    fn wants_compaction(&self) -> bool {
        false
    }

    /// Compaction phase 1 — the expensive part, safe to run with
    /// **concurrent mutations**: rewrite the `live` snapshot into a
    /// fresh not-yet-serving generation (write, seal, fsync), without
    /// touching the serving state. Returns `None` for backends with
    /// nothing to compact (the memory backend frees eagerly — the no-op
    /// path). Pages ingested, superseded, or removed while this runs
    /// are reconciled by [`StorageBackend::compact_install`].
    fn compact_prepare(
        &self,
        live: &[(PageKey, PageBuf)],
    ) -> Result<Option<PreparedCompaction>, BlobError> {
        let _ = live;
        Ok(None)
    }

    /// Compaction phase 2 — the swap, **mutually exclusive with
    /// `ingest`/`on_remove`** (the caller holds its maintenance gate):
    /// catch the prepared generation up with whatever moved since the
    /// snapshot (`current` is the caller's index as of now — entries
    /// that changed identity are appended under a second marker), make
    /// it the serving generation, and reclaim the old one. Concurrent
    /// *reads* stay fine — previously served buffers keep the old
    /// mapping alive by refcount.
    fn compact_install(
        &self,
        prepared: PreparedCompaction,
        current: &[(PageKey, PageBuf)],
    ) -> Result<Option<CompactOutcome>, BlobError> {
        let _ = (prepared, current);
        Ok(None)
    }

    /// One-shot compaction: [`StorageBackend::compact_prepare`] and
    /// [`StorageBackend::compact_install`] back to back, for callers
    /// that exclude mutations for the whole duration (tests, the
    /// salvage path on a full log).
    fn compact(&self, live: &[(PageKey, PageBuf)]) -> Result<Option<CompactOutcome>, BlobError> {
        match self.compact_prepare(live)? {
            None => Ok(None),
            Some(prepared) => self.compact_install(prepared, live),
        }
    }

    /// Replay persisted pages in acknowledgement order (startup
    /// recovery). Volatile backends recover nothing.
    fn recover(&self) -> Result<Vec<(PageKey, PageBuf)>, BlobError> {
        Ok(Vec::new())
    }

    /// Force persisted bytes to stable storage (no-op for volatile
    /// backends).
    fn sync(&self) -> Result<(), BlobError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Memory backend
// ---------------------------------------------------------------------------

/// The PR 1 regime: pages are heap buffers shared by refcount; the
/// backend only enforces the provider's RAM capacity.
pub struct MemoryBackend {
    capacity: u64,
    heap: AtomicU64,
}

impl MemoryBackend {
    /// Backend with `capacity` bytes of RAM.
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            heap: AtomicU64::new(0),
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn ingest(
        &self,
        _key: &PageKey,
        data: &PageBuf,
        replaced: Option<u64>,
    ) -> Result<PageBuf, BlobError> {
        let len = data.len() as u64;
        let credit = replaced.unwrap_or(0);
        // Charge the full length; `replaced` is a credit for the
        // *capacity check only* (an idempotent re-put — client retry
        // after a lost ack — must not fail on a full-but-consistent
        // provider). The bytes an insert actually frees are returned via
        // `on_remove` once the index replacement happens, so the heap
        // counter is exactly the sum of indexed + in-flight entries and
        // can never drift, even when two puts of one key race the probe.
        self.heap
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                let projected = cur + len;
                (projected.saturating_sub(credit) <= self.capacity).then_some(projected)
            })
            .map_err(|_| BlobError::Internal("provider out of memory"))?;
        Ok(data.clone())
    }

    fn on_remove(&self, _key: &PageKey, len: u64) {
        let _ = self
            .heap
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(len))
            });
    }

    fn resident(&self) -> ResidentBytes {
        ResidentBytes {
            heap: self.heap.load(Ordering::Relaxed),
            mapped: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Mmap backend
// ---------------------------------------------------------------------------

/// The page log's format: generation files `pages.g<N>.log`, format
/// number 1. A log whose head is anything but this header — one written
/// before format headers (whose 48-byte page records began with the
/// magic `BSPGLOG1`, `…2` or `…3`), or one of another number — is
/// refused at open as a typed [`BlobError::Recovery`] and left
/// untouched; it is never replayed as empty.
pub const FORMAT: Format = Format {
    client: Client::PageLog,
    number: 1,
};

/// Kind of a page record: `a`, `b`, `c` = blob, write id, page index.
const PAGE_KIND: u8 = FIRST_CLIENT_KIND;

/// The page record of `key → data`.
fn page_record<'a>(key: &PageKey, data: &'a PageBuf) -> Record<'a> {
    Record {
        kind: PAGE_KIND,
        a: key.blob.0,
        b: key.write.0,
        c: key.index,
        payload: data.as_slice(),
    }
}

/// Log bytes of the page record of `key` over `len` payload bytes: what
/// a remove or a supersede leaves dead, and what a compaction reclaims.
fn page_record_bytes(key: &PageKey, len: u64) -> u64 {
    recordlog::footprint(key.blob.0, key.write.0, key.index, len)
}

/// Surface an engine error as the provider's typed error.
fn log_err(e: LogError) -> BlobError {
    BlobError::Internal(match e {
        LogError::Io(op) => op,
        LogError::Full => "provider page log full",
        LogError::WriteFailed { .. } => "provider page log write failed",
        LogError::Poisoned => "provider page log poisoned",
        LogError::CommitFailed => "provider page log commit failed",
        LogError::WrongFormat => "provider page log in another format",
    })
}

/// One mapped generation file of the page log.
struct Generation {
    number: u64,
    /// The engine's append/commit half, bounded by the mapping.
    log: Appender,
    /// The whole-capacity read-only mapping served slices borrow,
    /// tagged with the generation number.
    map: PageBuf,
    path: PathBuf,
    /// The file held no bytes when this generation was opened.
    created_empty: bool,
}

impl Generation {
    /// Open (or create) generation `number` under `dir`, extend it
    /// sparsely to `capacity`, and map it exactly once.
    fn open(
        dir: &Path,
        number: u64,
        capacity: u64,
        opts: RecordLogOptions,
    ) -> Result<Self, BlobError> {
        let (file, path) =
            recordlog::open_generation(dir, FORMAT.client.base(), number).map_err(log_err)?;
        let existing = file
            .metadata()
            .map_err(|_| BlobError::Internal("stat provider page log"))?
            .len();
        // Another format is refused before the file is extended,
        // resumed or appended over; a fresh file gets its header first.
        recordlog::claim_format(&file, FORMAT).map_err(|e| BlobError::Recovery {
            file: path.display().to_string(),
            offset: 0,
            detail: e.detail(),
        })?;
        let map_len = capacity.max(existing);
        if map_len > existing {
            file.set_len(map_len)
                .map_err(|_| BlobError::Internal("extend provider page log"))?;
        }
        recordlog::sync_dir(dir, opts.fsync_on_commit).map_err(log_err)?;
        let map = PageBuf::map_file_tagged(&file, number)
            .map_err(|_| BlobError::Internal("map provider page log"))?;
        Ok(Self {
            number,
            log: Appender::new(file, map.len() as u64, opts, FORMAT.start()),
            map,
            path,
            created_empty: existing == 0,
        })
    }
}

/// The persistent backend: a crash-consistent page log, memory-mapped
/// read-only once per generation (full capacity, sparse), with pages
/// served as [`PageBuf`] slices of the mapping.
///
/// * **Append** is the engine's ([`Appender::append`]): lock-free
///   reservation, positioned writes — no user-space copy — and an
///   acknowledgement only once a group-commit marker covers the
///   record.
/// * **Serve** is `map.slice(payload_range)`: a refcount bump on the
///   generation mapping, zero copies.
/// * **Recover** replays the mapping ([`recordlog::replay`]) and
///   slices it; appends resume at the last durable marker. A log that
///   was created empty and is still empty is not replayed.
/// * **Compact** rewrites live records into the next generation file
///   and atomically swaps it in; see the module docs for the crash
///   story.
pub struct MmapBackend {
    dir: PathBuf,
    capacity: u64,
    opts: LogOptions,
    /// The serving generation. Swapped whole by compaction; read-side
    /// is an uncontended data-plane lock (like the provider's sharded
    /// page index, deliberately outside the lockmeter).
    gen: RwLock<Arc<Generation>>,
    /// Log bytes owed to removed or superseded records.
    dead: AtomicU64,
    /// Auto-trigger backoff after a failed compaction: retry only once
    /// dead bytes reach this floor (0 = no backoff; reset by success).
    compact_floor: AtomicU64,
}

impl MmapBackend {
    /// Open (or create) the page log under `dir` with default
    /// [`LogOptions`]. See [`MmapBackend::open_with`].
    pub fn open(dir: &Path, capacity: u64) -> Result<Self, BlobError> {
        Self::open_with(dir, capacity, LogOptions::default())
    }

    /// Open (or create) the page log under `dir` with room for
    /// `capacity` log bytes per generation, record headers included.
    /// Keeps the highest generation file (the newest *renamed*
    /// generation — an interrupted compaction's `.tmp` never wins),
    /// removes the debris, and maps the survivor exactly once. A log
    /// that already holds records keeps them — call
    /// [`StorageBackend::recover`] to replay.
    pub fn open_with(dir: &Path, capacity: u64, opts: LogOptions) -> Result<Self, BlobError> {
        let newest = recordlog::newest_generation(dir, FORMAT.client.base()).map_err(log_err)?;
        let durability = RecordLogOptions {
            fsync_on_commit: opts.fsync_on_commit,
            group_commit_window: opts.group_commit_window,
        };
        let generation = Generation::open(dir, newest, capacity, durability)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            capacity: generation.map.len() as u64,
            opts,
            gen: RwLock::new(Arc::new(generation)),
            dead: AtomicU64::new(0),
            compact_floor: AtomicU64::new(0),
        })
    }

    /// The directory this backend persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The serving generation's number (0 at creation, +1 per
    /// compaction).
    pub fn generation(&self) -> u64 {
        self.gen.read().number
    }

    /// Committed log bytes of the serving generation (record headers
    /// and markers included).
    pub fn log_bytes(&self) -> u64 {
        self.gen.read().log.log_bytes()
    }

    /// A compaction failed: back the auto-trigger off so a persistent
    /// failure doesn't turn every remove into a full-log rewrite.
    fn back_off_compaction(&self) {
        let dead = self.dead.load(Ordering::Relaxed);
        self.compact_floor
            .store(dead.saturating_mul(2), Ordering::Relaxed);
    }
}

impl StorageBackend for MmapBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Mmap
    }

    fn ingest(
        &self,
        key: &PageKey,
        data: &PageBuf,
        _replaced: Option<u64>,
    ) -> Result<PageBuf, BlobError> {
        let gen = Arc::clone(&self.gen.read());
        // The log is append-only within a generation, so a re-put
        // appends a fresh record; the superseded one becomes dead bytes
        // (credited via `on_remove` when the index replacement happens)
        // that the next compaction reclaims — `replaced` earns no
        // capacity credit here.
        let payload_at = gen.log.append(page_record(key, data)).map_err(|e| {
            if let LogError::WriteFailed { wasted } = e {
                self.dead.fetch_add(wasted, Ordering::Relaxed);
            }
            log_err(e)
        })?;

        // Serve the mapped bytes: the MAP_SHARED mapping sees the write
        // through the unified page cache. The append fit below the
        // mapping's length, a `usize`.
        let s = payload_at as usize;
        Ok(gen.map.slice(s..s + data.len()))
    }

    fn on_remove(&self, key: &PageKey, len: u64) {
        // The record stays in the log but is now dead weight; the next
        // compaction reclaims it (header included).
        self.dead
            .fetch_add(page_record_bytes(key, len), Ordering::Relaxed);
    }

    fn resident(&self) -> ResidentBytes {
        ResidentBytes {
            heap: 0,
            mapped: self.log_bytes(),
        }
    }

    fn dead_bytes(&self) -> u64 {
        self.dead.load(Ordering::Relaxed)
    }

    fn wants_compaction(&self) -> bool {
        let dead = self.dead.load(Ordering::Relaxed);
        // `compact_floor` backs the automatic trigger off after a
        // failed compaction: retry only once dead bytes have grown
        // past the floor, not on every subsequent remove.
        let trigger = CompactTrigger {
            min_dead_bytes: self
                .compact_floor
                .load(Ordering::Relaxed)
                .max(self.opts.compact_min_dead_bytes),
            ..self.opts.trigger()
        };
        trigger.fires(dead, self.log_bytes())
    }

    fn compact_prepare(
        &self,
        live: &[(PageKey, PageBuf)],
    ) -> Result<Option<PreparedCompaction>, BlobError> {
        let old = Arc::clone(&self.gen.read());
        self.write_snapshot(&old, live).map(Some).map_err(|e| {
            self.back_off_compaction();
            log_err(e)
        })
    }

    fn compact_install(
        &self,
        prepared: PreparedCompaction,
        current: &[(PageKey, PageBuf)],
    ) -> Result<Option<CompactOutcome>, BlobError> {
        // A failure leaves the serving generation untouched: nothing
        // fails past the rename, and the staged file removes itself.
        match self.catch_up_and_swap(prepared, current) {
            Ok(outcome) => {
                self.compact_floor.store(0, Ordering::Relaxed);
                Ok(Some(outcome))
            }
            Err(e) => {
                self.back_off_compaction();
                Err(e)
            }
        }
    }

    /// Replay the serving generation ([`recordlog::replay`] over its
    /// mapping), serve every committed page as a slice of it, and resume
    /// appends at the last durable marker.
    ///
    /// A generation whose file was empty when it was opened, with
    /// nothing appended since, is not replayed and its mapping is not
    /// touched: it has nothing to surface and its appender already
    /// starts after the format header, while the first header read of the
    /// sparse mapping would fault in a whole readahead window
    /// (`read_ahead_kb`) of zero-filled page cache. Every other
    /// generation — a restart, a compacted one — replays in full.
    fn recover(&self) -> Result<Vec<(PageKey, PageBuf)>, BlobError> {
        let gen = Arc::clone(&self.gen.read());
        if gen.created_empty && gen.log.log_bytes() == FORMAT.start().durable {
            return Ok(Vec::new());
        }
        let mut visible = Vec::new();
        let resume = recordlog::replay(gen.map.as_slice(), |r| {
            // Only page records are this log's; a committed record of
            // any other kind serves nothing.
            if r.kind == PAGE_KIND {
                let key = PageKey {
                    blob: BlobId(r.a),
                    write: WriteId(r.b),
                    index: r.c,
                };
                visible.push((key, gen.map.slice(r.payload)));
            }
        });
        gen.log.resume_at(resume);
        Ok(visible)
    }

    fn sync(&self) -> Result<(), BlobError> {
        self.gen.read().log.sync().map_err(log_err)
    }
}

impl MmapBackend {
    /// Compaction phase 1 body: stage the `live` snapshot as the next
    /// generation (records in index order, sealed by one commit marker
    /// — the payload bytes come straight off the old mapping, a
    /// kernel-side rewrite, not a metered copy) and map it. Nothing
    /// here touches the serving generation, so concurrent ingests and
    /// removes are fine — the install phase reconciles them.
    fn write_snapshot(
        &self,
        old: &Generation,
        live: &[(PageKey, PageBuf)],
    ) -> Result<PreparedCompaction, LogError> {
        let next = old.number + 1;
        let mut staged = GenerationWriter::create(&self.dir, FORMAT, next, self.capacity)?;
        staged
            .file()
            .set_len(self.capacity)
            .map_err(|_| LogError::Io("extend compaction file"))?;
        let mut ranges: Vec<(PageKey, usize, usize)> = Vec::with_capacity(live.len());
        for (key, buf) in live {
            let payload_at = staged.put(page_record(key, buf))?;
            ranges.push((*key, payload_at as usize, buf.len()));
        }
        staged.seal()?;

        // Map now, not at install (the mapping is inode-based, not
        // name-based): catch-up appends written through the file are
        // coherent with this mapping, and install must not be able to
        // fail past its swap point.
        let map = PageBuf::map_file_tagged(staged.file(), next)
            .map_err(|_| LogError::Io("map compaction file"))?;

        Ok(PreparedCompaction {
            staged,
            ranges,
            map,
            // lint: allow(unmetered-copy) — live-record index snapshot for compaction
            // planning, not payload bytes
            snapshot: live.to_vec(),
            old_number: old.number,
        })
    }

    /// Compaction phase 2 body (caller holds the maintenance gate):
    /// append every `current` entry that is not byte-identical to its
    /// snapshot record — pages ingested or re-put during the prepare
    /// window — after the sealed snapshot, under a second commit marker;
    /// then install the generation and swap it in. Snapshot records
    /// whose key was superseded or removed during the window stay in
    /// the new file as its opening dead bytes.
    fn catch_up_and_swap(
        &self,
        prepared: PreparedCompaction,
        current: &[(PageKey, PageBuf)],
    ) -> Result<CompactOutcome, BlobError> {
        let old = Arc::clone(&self.gen.read());
        if old.number != prepared.old_number {
            // Another install won the race (callers serialize, so this
            // is defense in depth): the snapshot no longer describes the
            // serving generation's lineage.
            return Err(BlobError::Internal("stale prepared compaction"));
        }
        let old_bytes = old.log.log_bytes();
        let PreparedCompaction {
            mut staged,
            ranges,
            map,
            snapshot,
            old_number: _,
        } = prepared;

        // Identity-match `current` against the snapshot: a key whose
        // serving buffer is still the *same slice* (pointer + length)
        // was untouched during the window and serves from its snapshot
        // record; anything else — new key, or re-put (even of identical
        // bytes, which may occupy a fresh allocation) — is caught up by
        // appending. `same_allocation` would be too coarse: two slices
        // of one mapping share an allocation without being the same
        // bytes.
        let mut snap_idx: std::collections::HashMap<PageKey, usize> =
            std::collections::HashMap::new();
        for (i, (key, _)) in snapshot.iter().enumerate() {
            snap_idx.insert(*key, i);
        }
        let identical = |i: usize, buf: &PageBuf| {
            let s = snapshot[i].1.as_slice();
            let c = buf.as_slice();
            std::ptr::eq(s.as_ptr(), c.as_ptr()) && s.len() == c.len()
        };

        let snapshot_end = staged.log_bytes();
        let mut placed: Vec<(usize, usize)> = Vec::with_capacity(current.len());
        let mut matched = vec![false; snapshot.len()];
        for (key, buf) in current {
            match snap_idx.get(key) {
                Some(&i) if identical(i, buf) => {
                    matched[i] = true;
                    let (_, s, l) = ranges[i];
                    placed.push((s, l));
                }
                _ => {
                    let payload_at = staged.put(page_record(key, buf)).map_err(log_err)?;
                    placed.push((payload_at as usize, buf.len()));
                }
            }
        }
        if staged.log_bytes() > snapshot_end {
            // Seal the catch-up batch under the second marker — exactly
            // the shape recovery replays — durable before the swap.
            staged.seal().map_err(log_err)?;
        }
        // Snapshot records superseded or removed during the window open
        // the new generation already dead; carry them so the next
        // trigger fires on truth. (A removal's disappearance was never
        // marker-covered — recovery has always resurrected removed-
        // but-uncompacted records; the catch-up batch narrows that
        // window, it doesn't change the contract.)
        let dead_in_new: u64 = matched
            .iter()
            .zip(&ranges)
            .filter(|(&hit, _)| !hit)
            .map(|(_, (key, _, l))| page_record_bytes(key, *l as u64))
            .sum();

        let (log, path) = staged.install(&old.log, &old.path).map_err(log_err)?;

        let entries: Vec<(PageKey, PageBuf)> = current
            .iter()
            .zip(&placed)
            .map(|((key, _), &(s, l))| (*key, map.slice(s..s + l)))
            .collect();
        let generation = old.number + 1;
        let new_bytes = log.log_bytes();
        *self.gen.write() = Arc::new(Generation {
            number: generation,
            log,
            map,
            path,
            created_empty: false,
        });
        self.dead.store(dead_in_new, Ordering::Relaxed);
        Ok(CompactOutcome {
            entries,
            report: CompactReport {
                generation,
                old_log_bytes: old_bytes,
                new_log_bytes: new_bytes,
                reclaimed_bytes: old_bytes.saturating_sub(new_bytes),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_util::copymeter;
    use blobseer_util::recordlog::{
        footprint, header, payload_digest, write_at, ResumePoint, COMMIT_KIND, TOMBSTONE_KIND,
    };

    fn gen_file_name(n: u64) -> String {
        format!("{}.g{n}.log", FORMAT.client.base())
    }

    /// White-box for crash tests: the raw file of generation 0.
    fn raw_log(dir: &Path) -> std::fs::File {
        std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(gen_file_name(0)))
            .expect("open generation 0")
    }

    fn key(w: u64, i: u64) -> PageKey {
        PageKey {
            blob: BlobId(1),
            write: WriteId(w),
            index: i,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("blobseer-backend-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Where a fresh log's first record lands: after its format header.
    fn start() -> u64 {
        FORMAT.start().durable
    }

    /// A page record's on-disk footprint.
    fn rec(key: PageKey, len: u64) -> u64 {
        page_record_bytes(&key, len)
    }

    /// A commit marker's on-disk footprint.
    fn marker(seq: u64, covered_from: u64) -> u64 {
        footprint(seq, covered_from, 0, 0)
    }

    /// Log bytes of a fresh log after records of these footprints were
    /// appended one at a time, each sealed by its own marker.
    fn sealed_one_by_one(records: &[u64]) -> u64 {
        (0u64..).zip(records).fold(start(), |durable, (seq, r)| {
            durable + r + marker(seq, durable)
        })
    }

    /// Bytes of the committed page records generation `n` under `dir`
    /// holds, dead ones included: what a compaction can reclaim is the
    /// difference between two generations'.
    fn record_bytes(dir: &Path, n: u64) -> u64 {
        let image = std::fs::read(dir.join(gen_file_name(n))).unwrap();
        let mut bytes = 0;
        recordlog::replay(&image, |r| {
            bytes += footprint(r.a, r.b, r.c, r.payload.len() as u64);
        });
        bytes
    }

    /// The header of a page record of `key` over `data`.
    fn page_header(key: PageKey, data: &PageBuf) -> Vec<u8> {
        let (a, b, c) = (key.blob.0, key.write.0, key.index);
        let digest = payload_digest(data.as_slice());
        header(PAGE_KIND, a, b, c, data.len() as u64, digest)
    }

    #[test]
    fn memory_backend_enforces_capacity_with_replacement_credit() {
        let b = MemoryBackend::new(8192);
        let page = PageBuf::from_vec(vec![7u8; 4096]);
        b.ingest(&key(1, 0), &page, None).unwrap();
        b.ingest(&key(1, 1), &page, None).unwrap();
        assert!(b.ingest(&key(1, 2), &page, None).is_err(), "full");
        // Idempotent re-put: the replaced length is a check-time credit;
        // the caller reports the actually freed entry via on_remove
        // (here: the index replacement frees the old 4096).
        b.ingest(&key(1, 0), &page, Some(4096)).unwrap();
        b.on_remove(&key(1, 0), 4096);
        assert_eq!(
            b.resident(),
            ResidentBytes {
                heap: 8192,
                mapped: 0
            }
        );
        b.on_remove(&key(1, 0), 4096);
        assert_eq!(b.resident().heap, 4096);
        assert_eq!(b.dead_bytes(), 0, "the heap frees eagerly");
        assert!(!b.wants_compaction());
        assert!(b.compact(&[]).unwrap().is_none(), "no-op path");
    }

    #[test]
    fn memory_backend_accounting_cannot_drift_under_racing_re_puts() {
        // Model two clients re-putting the same key concurrently: both
        // probe before either inserts, so both ingest with no credit;
        // the index replacement then frees exactly one old entry. The
        // heap counter must land on the truth (one live entry), not
        // accumulate a phantom.
        let b = MemoryBackend::new(1 << 20);
        let page = PageBuf::from_vec(vec![7u8; 4096]);
        b.ingest(&key(1, 0), &page, None).unwrap(); // first put, inserts fresh
        b.ingest(&key(1, 0), &page, None).unwrap(); // racer probed None too
        b.on_remove(&key(1, 0), 4096); // second insert replaced the first entry
        assert_eq!(b.resident().heap, 4096, "exactly one live entry");
        b.on_remove(&key(1, 0), 4096); // eventual remove of the key
        assert_eq!(b.resident().heap, 0, "no phantom bytes remain");
    }

    #[test]
    fn mmap_backend_appends_serves_mapped_and_recovers() {
        let dir = temp_dir("roundtrip");
        let b = MmapBackend::open(&dir, 1 << 20).unwrap();
        let p0: PageBuf = PageBuf::from_vec((0..4096u32).map(|i| (i % 251) as u8).collect());
        let p1: PageBuf = PageBuf::from_vec(vec![9u8; 4096]);

        let before = copymeter::thread_snapshot();
        let s0 = b.ingest(&key(1, 0), &p0, None).unwrap();
        let s1 = b.ingest(&key(1, 1), &p1, None).unwrap();
        assert_eq!(
            before.bytes_since(),
            0,
            "appending to and serving from the log must meter zero copies"
        );
        assert_eq!(s0, p0);
        assert_eq!(s1, p1);
        assert!(s0.is_mapped() && s1.is_mapped());
        assert!(s0.same_allocation(&b.gen.read().map.clone()));
        assert_eq!(s0.mapping_generation(), Some(0));
        // Two records, each sealed by its own marker (single-threaded
        // appends commit one by one).
        let two = [rec(key(1, 0), 4096), rec(key(1, 1), 4096)];
        assert_eq!(b.resident().mapped, sealed_one_by_one(&two));
        assert_eq!(b.resident().heap, 0);

        // A fresh backend on the same directory replays both records.
        drop(b);
        let b2 = MmapBackend::open(&dir, 1 << 20).unwrap();
        let before = copymeter::thread_snapshot();
        let recovered = b2.recover().unwrap();
        assert_eq!(before.bytes_since(), 0, "recovery lends from the mapping");
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].0, key(1, 0));
        assert_eq!(recovered[0].1, p0);
        assert_eq!(recovered[1].0, key(1, 1));
        assert_eq!(recovered[1].1, p1);
        assert!(recovered.iter().all(|(_, p)| p.is_mapped()));
        // Appends resume after the replayed durable tail.
        let replayed_tail = sealed_one_by_one(&two);
        assert_eq!(b2.log_bytes(), replayed_tail);
        b2.ingest(&key(2, 0), &p0, None).unwrap();
        assert_eq!(
            b2.log_bytes(),
            replayed_tail + rec(key(2, 0), 4096) + marker(2, replayed_tail)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_tail_is_discarded_and_overwritten() {
        // A complete record with no covering marker (the crash hit
        // between the record landing and the commit) is exactly an
        // unacknowledged append: replay must drop it and let appends
        // resume over it.
        let dir = temp_dir("uncommitted");
        let pa = PageBuf::from_vec(vec![1u8; 512]);
        let pb = PageBuf::from_vec(vec![2u8; 512]);
        let committed_end;
        {
            let b = MmapBackend::open(&dir, 1 << 16).unwrap();
            b.ingest(&key(1, 0), &pa, None).unwrap();
            committed_end = b.log_bytes();
            // Handcraft a complete-but-uncommitted record at the tail.
            let h = page_header(key(7, 7), &pb);
            write_at(&raw_log(&dir), &h, committed_end).unwrap();
            let payload_at = committed_end + h.len() as u64;
            write_at(&raw_log(&dir), pb.as_slice(), payload_at).unwrap();
        }
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        let recovered = b.recover().unwrap();
        assert_eq!(recovered.len(), 1, "uncommitted tail is not recovered");
        assert_eq!(recovered[0].0, key(1, 0));
        assert_eq!(b.log_bytes(), committed_end, "appends resume at the marker");
        // The next append overwrites the stale tail and commits.
        let pc = PageBuf::from_vec(vec![3u8; 256]);
        b.ingest(&key(2, 0), &pc, None).unwrap();
        drop(b);
        let b2 = MmapBackend::open(&dir, 1 << 16).unwrap();
        let recovered = b2.recover().unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].0, key(2, 0));
        assert_eq!(recovered[1].1, pc);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_skips_tombstone_directly_before_a_marker() {
        // A failed concurrent append leaves a tombstone; the batch's
        // marker seals right past it. Replay must step over the
        // tombstone and keep every committed page — including when the
        // tombstone is the last record before the marker.
        let dir = temp_dir("tombstone");
        let pa = PageBuf::from_vec(vec![1u8; 512]);
        let pc = PageBuf::from_vec(vec![3u8; 512]);
        let sealed_end;
        {
            let b = MmapBackend::open(&dir, 1 << 16).unwrap();
            b.ingest(&key(1, 0), &pa, None).unwrap();
            let f = raw_log(&dir);
            let tail = b.log_bytes();
            // Handcraft the aftermath of a batch {page C, failed append}
            // sealed by one marker: C's record, a tombstone over the
            // failed 512-byte range, then the marker covering both.
            let c_at = tail;
            let ch = page_header(key(2, 7), &pc);
            write_at(&f, &ch, c_at).unwrap();
            write_at(&f, pc.as_slice(), c_at + ch.len() as u64).unwrap();
            let tomb_at = c_at + rec(key(2, 7), 512);
            let tomb = header(TOMBSTONE_KIND, 0, 0, 0, 512, 0);
            write_at(&f, &tomb, tomb_at).unwrap();
            let marker_at = tomb_at + tomb.len() as u64 + 512;
            // seq 1: the ingest above already sealed marker 0.
            let marker = header(COMMIT_KIND, 1, tail, 0, 0, 0);
            write_at(&f, &marker, marker_at).unwrap();
            sealed_end = marker_at + marker.len() as u64;
        }
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        let recovered = b.recover().unwrap();
        assert_eq!(recovered.len(), 2, "tombstone skipped, both pages kept");
        assert_eq!(recovered[0].0, key(1, 0));
        assert_eq!(recovered[0].1, pa);
        assert_eq!(recovered[1].0, key(2, 7));
        assert_eq!(recovered[1].1, pc);
        // Appends resume after the second marker, not at the hole.
        assert_eq!(b.log_bytes(), sealed_end);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_sequence_marker_ends_replay() {
        // A marker whose check word is valid but whose sequence number
        // (or coverage) is wrong is stale bytes from an earlier
        // incarnation, not a commit: replay must stop at the previous
        // durable point and never surface the records it "covers".
        let dir = temp_dir("ooseq");
        let pa = PageBuf::from_vec(vec![1u8; 512]);
        let pb = PageBuf::from_vec(vec![2u8; 512]);
        {
            let b = MmapBackend::open(&dir, 1 << 16).unwrap();
            b.ingest(&key(1, 0), &pa, None).unwrap();
            let f = raw_log(&dir);
            let tail = b.log_bytes();
            let bh = page_header(key(9, 9), &pb);
            write_at(&f, &bh, tail).unwrap();
            write_at(&f, pb.as_slice(), tail + bh.len() as u64).unwrap();
            // A checksum-valid marker with seq 7 (expected: 1).
            let marker = header(COMMIT_KIND, 7, tail, 0, 0, 0);
            write_at(&f, &marker, tail + rec(key(9, 9), 512)).unwrap();
        }
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        let recovered = b.recover().unwrap();
        assert_eq!(recovered.len(), 1, "out-of-sequence marker commits nothing");
        assert_eq!(recovered[0].0, key(1, 0));
        assert_eq!(b.log_bytes(), sealed_one_by_one(&[rec(key(1, 0), 512)]));

        // Same story for a marker with the right sequence number but
        // the wrong coverage offset.
        let f = raw_log(&dir);
        let tail = b.log_bytes();
        let bh = page_header(key(9, 9), &pb);
        write_at(&f, &bh, tail).unwrap();
        write_at(&f, pb.as_slice(), tail + bh.len() as u64).unwrap();
        let marker = header(COMMIT_KIND, 1, tail + 8, 0, 0, 0);
        write_at(&f, &marker, tail + rec(key(9, 9), 512)).unwrap();
        drop(f);
        drop(b);
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        assert_eq!(b.recover().unwrap().len(), 1, "wrong coverage is no commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_rejects_torn_payload() {
        // A record whose header is intact but whose payload bytes were
        // torn (crash between the two positioned writes) must fail the
        // digest and never be served — nor may any marker beyond the
        // tear commit anything.
        let dir = temp_dir("torn");
        {
            let b = MmapBackend::open(&dir, 1 << 16).unwrap();
            b.ingest(&key(1, 0), &PageBuf::from_vec(vec![1u8; 512]), None)
                .unwrap();
            b.ingest(&key(1, 1), &PageBuf::from_vec(vec![2u8; 512]), None)
                .unwrap();
            // Tear one payload byte of the second record.
            let second = sealed_one_by_one(&[rec(key(1, 0), 512)]);
            let second_payload = second + rec(key(1, 1), 512) - 512;
            write_at(&raw_log(&dir), &[0xEE], second_payload + 100).unwrap();
        }
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        let recovered = b.recover().unwrap();
        assert_eq!(recovered.len(), 1, "torn record rejected by digest");
        assert_eq!(recovered[0].0, key(1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_reservation_reserves_nothing() {
        let dir = temp_dir("rollback");
        // Room for one 512-byte record and its marker, not for two.
        let one = sealed_one_by_one(&[rec(key(1, 0), 512)]);
        let b = MmapBackend::open(&dir, one + rec(key(1, 1), 512) - 1).unwrap();
        let page = PageBuf::from_vec(vec![1u8; 512]);
        b.ingest(&key(1, 0), &page, None).unwrap();
        let tail = b.log_bytes();
        // Log full: the reservation itself fails, offset untouched.
        assert!(b.ingest(&key(1, 1), &page, None).is_err());
        assert_eq!(b.log_bytes(), tail, "failed reservation reserves nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mmap_backend_recovery_stops_at_corruption() {
        let dir = temp_dir("corrupt");
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        let page = PageBuf::from_vec(vec![5u8; 512]);
        b.ingest(&key(1, 0), &page, None).unwrap();
        b.ingest(&key(1, 1), &page, None).unwrap();
        // Flip a byte in the second record's header check word (the
        // header's last eight bytes).
        let second = sealed_one_by_one(&[rec(key(1, 0), 512)]);
        let check = second + rec(key(1, 1), 512) - 512 - 1;
        let byte = std::fs::read(dir.join(gen_file_name(0))).unwrap()[check as usize];
        write_at(&raw_log(&dir), &[!byte], check).unwrap();
        drop(b);
        let b2 = MmapBackend::open(&dir, 1 << 16).unwrap();
        let recovered = b2.recover().unwrap();
        assert_eq!(recovered.len(), 1, "replay stops at the corrupt record");
        assert_eq!(recovered[0].0, key(1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mmap_backend_enforces_log_capacity_and_tracks_dead_bytes() {
        let dir = temp_dir("capacity");
        // Room for two records, each with its own marker (of at most
        // 16 bytes in a log this small), not for a third.
        let r = rec(key(1, 0), 1024);
        let b = MmapBackend::open(&dir, start() + 2 * (r + 16)).unwrap();
        let page = PageBuf::from_vec(vec![1u8; 1024]);
        b.ingest(&key(1, 0), &page, None).unwrap();
        b.ingest(&key(1, 1), &page, None).unwrap();
        let err = b.ingest(&key(1, 2), &page, None);
        assert!(err.is_err(), "log full");
        // Removes reclaim nothing immediately — the record becomes dead
        // bytes for compaction.
        b.on_remove(&key(1, 0), 1024);
        assert!(b.ingest(&key(1, 3), &page, None).is_err());
        assert_eq!(b.resident().mapped, sealed_one_by_one(&[r, r]));
        assert_eq!(b.dead_bytes(), r);
        b.sync().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_group_commit_and_all_recover() {
        // The concurrency story end to end: many appenders, every
        // acknowledged page recovers after "crash" (drop + reopen), and
        // group commit means strictly fewer markers than appends.
        let dir = temp_dir("group");
        let pages: Vec<(PageKey, PageBuf)> = (0..64u64)
            .map(|i| {
                let len = 128 + (i as usize % 512);
                (
                    key(i, 0),
                    PageBuf::from_vec((0..len).map(|j| (i as u8).wrapping_mul(j as u8)).collect()),
                )
            })
            .collect();
        {
            let b = Arc::new(MmapBackend::open(&dir, 1 << 20).unwrap());
            std::thread::scope(|s| {
                for chunk in pages.chunks(8) {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        for (k, p) in chunk {
                            b.ingest(k, p, None).unwrap();
                        }
                    });
                }
            });
            let records: u64 = pages.iter().map(|(k, p)| rec(*k, p.len() as u64)).sum();
            // Each marker here takes 13 to 15 bytes: one at least, one
            // per append at most.
            let markers = b.log_bytes() - start() - records;
            assert!((13..=64 * 15).contains(&markers), "marker bytes: {markers}");
        }
        let b = MmapBackend::open(&dir, 1 << 20).unwrap();
        let recovered = b.recover().unwrap();
        assert_eq!(recovered.len(), pages.len(), "every acknowledged page");
        let by_key: std::collections::HashMap<_, _> = recovered.into_iter().collect();
        for (k, p) in &pages {
            assert_eq!(by_key.get(k), Some(p), "page {k:?} byte-identical");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_on_commit_appends_and_recovers() {
        let dir = temp_dir("fsync");
        let opts = LogOptions {
            fsync_on_commit: true,
            ..LogOptions::default()
        };
        {
            let b = MmapBackend::open_with(&dir, 1 << 16, opts).unwrap();
            b.ingest(&key(1, 0), &PageBuf::from_vec(vec![8u8; 512]), None)
                .unwrap();
        }
        let b = MmapBackend::open_with(&dir, 1 << 16, opts).unwrap();
        assert_eq!(b.recover().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_window_still_commits_single_appends() {
        let dir = temp_dir("window");
        let opts = LogOptions {
            group_commit_window: Duration::from_micros(200),
            ..LogOptions::default()
        };
        let b = MmapBackend::open_with(&dir, 1 << 16, opts).unwrap();
        b.ingest(&key(1, 0), &PageBuf::from_vec(vec![4u8; 256]), None)
            .unwrap();
        assert_eq!(b.log_bytes(), sealed_one_by_one(&[rec(key(1, 0), 256)]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_reclaims_dead_space_and_reserves_only_one_generation() {
        let dir = temp_dir("compact");
        let b = MmapBackend::open(&dir, 1 << 20).unwrap();
        let pages: Vec<(PageKey, PageBuf)> = (0..16u64)
            .map(|i| (key(1, i), PageBuf::from_vec(vec![i as u8; 1024])))
            .collect();
        let mut served = Vec::new();
        for (k, p) in &pages {
            served.push((*k, b.ingest(k, p, None).unwrap()));
        }
        // Drop the even-indexed half.
        let (dead, live): (Vec<_>, Vec<_>) =
            served.into_iter().partition(|(k, _)| k.index % 2 == 0);
        for (k, p) in &dead {
            b.on_remove(k, p.len() as u64);
        }
        let dead_records: u64 = dead.iter().map(|(k, p)| rec(*k, p.len() as u64)).sum();
        let live_records: u64 = live.iter().map(|(k, p)| rec(*k, p.len() as u64)).sum();
        assert_eq!(b.dead_bytes(), dead_records);
        assert!(b.wants_compaction() || b.dead_bytes() < 64 * 1024);
        let old_bytes = b.log_bytes();
        let old_records = record_bytes(&dir, 0);
        let old_mapping = b.gen.read().map.clone();

        // A reader holds a page from before the swap.
        let pre_swap_page = live[0].1.clone();

        let before = copymeter::thread_snapshot();
        let outcome = b.compact(&live).unwrap().expect("mmap compacts");
        assert_eq!(before.bytes_since(), 0, "compaction is a kernel rewrite");
        assert_eq!(outcome.report.old_log_bytes, old_bytes);
        assert_eq!(
            outcome.report.new_log_bytes,
            start() + live_records + marker(0, start())
        );
        assert_eq!(
            outcome.report.reclaimed_bytes,
            old_bytes - outcome.report.new_log_bytes
        );
        // The dead bytes counted are exactly the record bytes the
        // compaction reclaimed (markers are the log's, not a record's).
        assert_eq!(old_records - record_bytes(&dir, 1), dead_records);
        assert_eq!(outcome.report.generation, 1);
        assert_eq!(b.generation(), 1);
        assert_eq!(b.dead_bytes(), 0, "dead bytes reset with the generation");
        // resident() reports exactly the new generation — never the sum
        // of both (the page exists in two files during the window).
        assert_eq!(b.resident().mapped, outcome.report.new_log_bytes);

        // Fresh entries serve from the new mapping, old readers keep
        // the old one alive by refcount.
        for (k, p) in &outcome.entries {
            let (_, want) = live.iter().find(|(lk, _)| lk == k).unwrap();
            assert_eq!(p, want, "live page {k:?} carried byte-identical");
            assert_eq!(p.mapping_generation(), Some(1));
        }
        assert_eq!(pre_swap_page.mapping_generation(), Some(0));
        assert!(pre_swap_page.same_allocation(&old_mapping));
        assert_eq!(pre_swap_page.as_slice()[0], 1, "old slice still readable");
        assert!(
            !dir.join(gen_file_name(0)).exists(),
            "old generation unlinked"
        );
        assert!(dir.join(gen_file_name(1)).exists());

        // The compacted generation replays on restart — only the live
        // half.
        drop(b);
        let b2 = MmapBackend::open(&dir, 1 << 20).unwrap();
        let recovered = b2.recover().unwrap();
        assert_eq!(recovered.len(), 8);
        for (k, p) in &recovered {
            let (_, want) = live.iter().find(|(lk, _)| lk == k).unwrap();
            assert_eq!(p, want);
        }
        // And appends continue on the new generation.
        b2.ingest(&key(9, 0), &PageBuf::from_vec(vec![7u8; 128]), None)
            .unwrap();
        assert_eq!(b2.generation(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_catches_up_mutations_from_the_prepare_window() {
        // The two-phase protocol under fire: mutations land *between*
        // prepare and install — a re-put, a brand-new key, a removal —
        // and install reconciles all three with a catch-up batch under
        // a second marker, durable across a crash.
        let dir = temp_dir("two-phase");
        let b = MmapBackend::open(&dir, 1 << 20).unwrap();
        let keep = key(1, 0);
        let reput = key(1, 1);
        let gone = key(1, 2);
        let v_keep = b
            .ingest(&keep, &PageBuf::from_vec(vec![1u8; 256]), None)
            .unwrap();
        let v_old = b
            .ingest(&reput, &PageBuf::from_vec(vec![2u8; 256]), None)
            .unwrap();
        let v_gone = b
            .ingest(&gone, &PageBuf::from_vec(vec![3u8; 256]), None)
            .unwrap();

        // Phase 1 against the index as of now.
        let snapshot = vec![
            (keep, v_keep.clone()),
            (reput, v_old.clone()),
            (gone, v_gone.clone()),
        ];
        let prepared = b
            .compact_prepare(&snapshot)
            .unwrap()
            .expect("mmap prepares");

        // The window: everything a concurrent writer can do.
        let v_new = b
            .ingest(&reput, &PageBuf::from_vec(vec![9u8; 300]), Some(256))
            .unwrap();
        b.on_remove(&reput, 256); // the superseded `reput` record
        let fresh = key(2, 0);
        let v_fresh = b
            .ingest(&fresh, &PageBuf::from_vec(vec![7u8; 128]), None)
            .unwrap();
        b.on_remove(&gone, 256); // `gone` removed outright

        // Phase 2 against the index as of *install* time.
        let current = vec![
            (keep, v_keep.clone()),
            (reput, v_new.clone()),
            (fresh, v_fresh.clone()),
        ];
        let before = copymeter::thread_snapshot();
        let outcome = b
            .compact_install(prepared, &current)
            .unwrap()
            .expect("mmap installs");
        assert_eq!(
            before.bytes_since(),
            0,
            "catch-up is a kernel rewrite like the snapshot"
        );
        assert_eq!(outcome.report.generation, 1);
        assert_eq!(b.generation(), 1);

        // Entries re-point the whole current index, in order,
        // byte-identical, all served from the new mapping.
        assert_eq!(outcome.entries.len(), current.len());
        for ((k, p), (ck, cp)) in outcome.entries.iter().zip(&current) {
            assert_eq!(k, ck);
            assert_eq!(p.as_slice(), cp.as_slice());
            assert_eq!(p.mapping_generation(), Some(1));
        }

        // The stale snapshot records (superseded `reput`, removed
        // `gone`) open the new generation already dead.
        assert_eq!(b.dead_bytes(), rec(reput, 256) + rec(gone, 256));

        // Crash + reopen: the catch-up batch replays after the
        // snapshot, so `reput` recovers its NEW bytes and `fresh`
        // exists. `gone` resurrects from its stale snapshot record —
        // removal durability has always waited for a compaction that
        // sees the key absent, and the window removal happened after
        // this one's snapshot.
        drop(b);
        let b2 = MmapBackend::open(&dir, 1 << 20).unwrap();
        let recovered = b2.recover().unwrap();
        assert_eq!(
            recovered.len(),
            5,
            "3 snapshot + 2 catch-up, dupes included"
        );
        let by_key: std::collections::HashMap<_, _> = recovered.into_iter().collect();
        assert_eq!(by_key[&keep].as_slice(), &[1u8; 256][..]);
        assert_eq!(by_key[&reput].as_slice(), &[9u8; 300][..], "re-put wins");
        assert_eq!(by_key[&fresh].as_slice(), &[7u8; 128][..]);
        assert_eq!(by_key[&gone].as_slice(), &[3u8; 256][..]);
        // And appends continue over the catch-up marker.
        b2.ingest(&key(9, 9), &PageBuf::from_vec(vec![6u8; 64]), None)
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn install_with_no_window_mutations_degenerates_to_the_one_shot_path() {
        // Identity-matching must not append anything when nothing
        // moved: same file shape as the one-shot compact.
        let dir = temp_dir("two-phase-quiet");
        let b = MmapBackend::open(&dir, 1 << 20).unwrap();
        let k = key(1, 0);
        let v = b
            .ingest(&k, &PageBuf::from_vec(vec![5u8; 512]), None)
            .unwrap();
        let live = vec![(k, v)];
        let prepared = b.compact_prepare(&live).unwrap().unwrap();
        let outcome = b.compact_install(prepared, &live).unwrap().unwrap();
        assert_eq!(
            outcome.report.new_log_bytes,
            sealed_one_by_one(&[rec(k, 512)])
        );
        assert_eq!(b.dead_bytes(), 0);
        drop(b);
        let b2 = MmapBackend::open(&dir, 1 << 20).unwrap();
        assert_eq!(b2.recover().unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_before_rename_recovers_old_generation() {
        // Crash after the new generation file is written but before the
        // rename: the `.tmp` never wins; open removes it and replays
        // the old generation in full.
        let dir = temp_dir("interrupted-tmp");
        {
            let b = MmapBackend::open(&dir, 1 << 16).unwrap();
            b.ingest(&key(1, 0), &PageBuf::from_vec(vec![1u8; 512]), None)
                .unwrap();
            // Half-done compaction debris: a would-be generation 1
            // written under its temp name.
            std::fs::write(dir.join("pages.g1.log.tmp"), b"half-written").unwrap();
        }
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        assert_eq!(b.generation(), 0, "the un-renamed generation never wins");
        assert_eq!(b.recover().unwrap().len(), 1);
        assert!(!dir.join("pages.g1.log.tmp").exists(), "debris removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_compaction_after_rename_recovers_new_generation() {
        // Crash after the rename but before the old file is unlinked:
        // both generations present; the newest (renamed, hence sealed)
        // one wins and the old file is removed at open.
        let dir = temp_dir("interrupted-both");
        let live: Vec<(PageKey, PageBuf)> = vec![(key(1, 1), PageBuf::from_vec(vec![2u8; 512]))];
        {
            let b = MmapBackend::open(&dir, 1 << 16).unwrap();
            b.ingest(&key(1, 0), &PageBuf::from_vec(vec![1u8; 512]), None)
                .unwrap();
            b.ingest(&key(1, 1), &live[0].1, None).unwrap();
            b.on_remove(&key(1, 0), 512);
            b.compact(&live).unwrap().expect("compacts");
            // Re-create the old generation file as the crash would have
            // left it (compact unlinked it; put it back from a byte
            // copy so both files coexist).
            std::fs::write(dir.join(gen_file_name(0)), b"stale old generation").unwrap();
        }
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        assert_eq!(b.generation(), 1, "the renamed generation wins");
        let recovered = b.recover().unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, key(1, 1));
        assert_eq!(recovered[0].1, live[0].1);
        assert!(!dir.join(gen_file_name(0)).exists(), "old file removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_log_recovers_nothing() {
        let dir = temp_dir("empty");
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        assert!(b.recover().unwrap().is_empty());
        assert_eq!(b.log_bytes(), start());
        assert_eq!(b.generation(), 0);
        assert_eq!(b.kind(), BackendKind::Mmap);
        assert_eq!(MemoryBackend::new(1).kind(), BackendKind::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Major faults the calling thread has taken: field 12 of
    /// `/proc/thread-self/stat`, counted past the parenthesised name.
    #[cfg(target_os = "linux")]
    fn thread_majflt() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        let fields = &stat[stat.rfind(')').unwrap() + 1..];
        fields
            .split_whitespace()
            .nth(12 - 3)
            .unwrap()
            .parse()
            .unwrap()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn fresh_log_opens_without_a_page_fault() {
        // A read of the sparse mapping would fault a readahead window of
        // zeroed page cache in. The first open warms this thread's code
        // path, so only the second one is counted.
        for (name, counted) in [("fresh-warmup", false), ("fresh", true)] {
            let dir = temp_dir(name);
            let before = thread_majflt();
            let b = MmapBackend::open(&dir, 256 << 20).unwrap();
            assert!(b.recover().unwrap().is_empty());
            if counted {
                assert_eq!(thread_majflt(), before, "opening an empty log faulted");
            }
            assert_eq!(b.log_bytes(), start());
            let page = PageBuf::from_vec(vec![3u8; 512]);
            assert_eq!(b.ingest(&key(1, 0), &page, None).unwrap(), page);
            drop(b);
            let b = MmapBackend::open(&dir, 256 << 20).unwrap();
            assert_eq!(b.recover().unwrap().len(), 1, "a written log replays");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn page_log_written_before_format_headers_is_refused_untouched() {
        // The file the 48-byte-header format leaves after one committed
        // 100-byte page of key (1, 1, 0), sparse pre-sized to 64 KiB: a
        // `BSPGLOG3` record and a `BSPGCMT1` marker, header words and
        // check words as that format wrote them.
        let mut image = vec![0u8; 1 << 16];
        let words = |at: usize, image: &mut [u8], words: [u64; 6]| {
            for (i, w) in words.into_iter().enumerate() {
                image[at + i * 8..at + i * 8 + 8].copy_from_slice(&w.to_le_bytes());
            }
        };
        words(
            0,
            &mut image,
            [0x4253_5047_4c4f_4733, 1, 1, 0, 100, 0x070a_f395_66ed_3055],
        );
        image[48..148].copy_from_slice(&(0..100u8).collect::<Vec<_>>());
        words(
            148,
            &mut image,
            [0x4253_5047_434d_5431, 0, 0, 0, 0, 0x4e2e_37c1_20c7_f245],
        );
        // It has no format header, so a bare replay opens it empty.
        assert_eq!(
            recordlog::replay(&image, |_| panic!("nothing replays")),
            ResumePoint::default()
        );
        let dir = temp_dir("before-headers");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(gen_file_name(0));
        std::fs::write(&path, &image).unwrap();
        match MmapBackend::open(&dir, 1 << 16) {
            Err(BlobError::Recovery { file, offset, .. }) => {
                assert!(file.ends_with("pages.g0.log"), "{file}");
                assert_eq!(offset, 0);
            }
            Err(other) => panic!("expected Recovery, got {other:?}"),
            Ok(_) => panic!("a page log without a format header opened"),
        }
        assert!(
            std::fs::read(&path).unwrap() == image,
            "the refused file is byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dead_bytes_are_exactly_what_a_compaction_reclaims() {
        // Keys whose varints take one to three bytes, pages of mixed
        // lengths, removes, supersedes, and removes and re-puts landing
        // between a compaction's two phases.
        let dir = temp_dir("dead-exact");
        let b = MmapBackend::open(&dir, 1 << 22).unwrap();
        let key = |w: u64, i: u64| PageKey {
            blob: BlobId(3),
            write: WriteId(w),
            index: i,
        };
        let page = |len: usize| PageBuf::from_vec(vec![7u8; len]);
        let mut index: std::collections::HashMap<PageKey, PageBuf> = Default::default();
        let put = |index: &mut std::collections::HashMap<PageKey, PageBuf>, k, len| {
            let served = b.ingest(&k, &page(len), None).unwrap();
            if let Some(old) = index.insert(k, served) {
                b.on_remove(&k, old.len() as u64);
            }
        };
        let remove = |index: &mut std::collections::HashMap<PageKey, PageBuf>, k| {
            let old: PageBuf = index.remove(&k).unwrap();
            b.on_remove(&k, old.len() as u64);
        };
        for (n, w) in [1u64, 200, 20_000].into_iter().enumerate() {
            for i in [0u64, 5, 300, 70_000] {
                put(&mut index, key(w, i), 100 + 37 * n + i as usize % 500);
            }
        }
        put(&mut index, key(200, 5), 4096);
        put(&mut index, key(1, 0), 3);
        remove(&mut index, key(20_000, 300));
        remove(&mut index, key(1, 70_000));
        let snapshot: Vec<(PageKey, PageBuf)> = index.clone().into_iter().collect();
        let prepared = b.compact_prepare(&snapshot).unwrap().unwrap();
        // The window: a re-put and a remove of snapshot keys, and a new
        // key.
        put(&mut index, key(20_000, 5), 900);
        remove(&mut index, key(200, 300));
        put(&mut index, key(9, 9), 64);
        let dead = b.dead_bytes();
        let old = record_bytes(&dir, 0);
        let current: Vec<(PageKey, PageBuf)> = index.clone().into_iter().collect();
        let outcome = b.compact_install(prepared, &current).unwrap().unwrap();
        // The window's dead records ride along into generation 1, and
        // are all it carries as dead.
        let carried = b.dead_bytes();
        let new = record_bytes(&dir, 1);
        assert_eq!(old - new, dead - carried);
        assert!(carried > 0);
        b.compact(&outcome.entries).unwrap().unwrap();
        assert_eq!(new - record_bytes(&dir, 2), carried);
        assert_eq!(b.dead_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// FNV-1a over the image: independent of the engine's own digest.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn golden_image_pins_the_page_log_format() {
        // A fixed single-threaded history; the pins below hold its
        // bytes (see the note on them for their last change). Any drift
        // in record, tombstone or marker bytes — or in what a
        // compaction writes — fails here.
        let dir = temp_dir("golden");
        let b = MmapBackend::open(&dir, 1 << 16).unwrap();
        let page = |seed: u8, len: usize| {
            PageBuf::from_vec((0..len).map(|i| seed.wrapping_add(i as u8)).collect())
        };
        let a = b.ingest(&key(1, 0), &page(1, 100), None).unwrap();
        let old = b.ingest(&key(1, 1), &page(2, 257), None).unwrap();
        let gone = b.ingest(&key(2, 0), &page(3, 64), None).unwrap();
        let new = b.ingest(&key(1, 1), &page(4, 300), Some(257)).unwrap();
        b.on_remove(&key(1, 1), old.len() as u64);
        b.on_remove(&key(2, 0), gone.len() as u64);
        let image = std::fs::read(dir.join("pages.g0.log")).unwrap();
        let g0 = &image[..b.log_bytes() as usize];
        assert_eq!(
            (g0.len(), fnv1a(g0)),
            GOLDEN_G0,
            "generation 0 image drifted"
        );
        b.compact(&[(key(1, 0), a), (key(1, 1), new)])
            .unwrap()
            .expect("mmap compacts");
        b.ingest(&key(3, 0), &page(5, 33), None).unwrap();
        b.ingest(&key(3, 1), &page(6, 1), None).unwrap();
        let image = std::fs::read(dir.join("pages.g1.log")).unwrap();
        let g1 = &image[..b.log_bytes() as usize];
        assert_eq!(
            (g1.len(), fnv1a(g1)),
            GOLDEN_G1,
            "generation 1 image drifted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Re-pinned for the format header and the compact record header
    // (were 1,105 and 770 bytes, hashes 14504815563185757129 and
    // 7986801911345907384). g0, 843 B: the 13 B format header; page
    // records of 13 + 100, 14 + 257, 13 + 64 and 14 + 300 B (the header
    // is 14 B where `len` takes two varint bytes); markers of 13 B, then
    // 14 B once their coverage offset passes 127. g1, 541 B: format
    // header, the two live records under one 13 B marker, then 13 + 33
    // and 13 + 1 B records each under a 14 B marker. Payloads are the
    // same bytes; every header shrank from 48 B.
    const GOLDEN_G0: (usize, u64) = (843, 10887287398635697526);
    const GOLDEN_G1: (usize, u64) = (541, 14546345349041530937);
}
