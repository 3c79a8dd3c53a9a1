//! The version manager's durability seam: an incremental write-ahead
//! log over the shared record-then-commit engine
//! ([`blobseer_util::recordlog`]), closing the paper's §VI gap ("the
//! version manager ... currently a single point of failure") for cold
//! restarts.
//!
//! ## Log format
//!
//! One generation file `version.g<N>.log` of 48-byte-header records:
//!
//! * **snapshot** (`BSVRSNP2`): payload is a [`crate::recovery`]
//!   snapshot of the whole registry. At most one per generation, always
//!   first — written by the checkpoint-on-open rewrite.
//! * **create** (`BSVRCRE2`): `a` = blob id, `b` = total size, `c` =
//!   page size; no payload. Appended *before* the blob id is
//!   acknowledged to the client.
//! * **publish** (`BSVRPUB2`): `a` = blob id, `b` = version, `c` =
//!   write id; payload = 16 LE bytes `(offset, size)` of the patched
//!   segment. Appended **before** the version becomes observable
//!   (write-ahead): a reader that ever saw `latest >= v` is guaranteed
//!   to see `v` again after a crash. The publishers of one version
//!   grant arrive together; the engine's group commit seals their
//!   records under one marker — there is no publish queue here.
//! * group-commit markers / tombstones as defined by the engine.
//!
//! ## Crash model and replay
//!
//! `SIGKILL` at any byte offset. Replay surfaces the committed prefix:
//! the snapshot (if any) seeds the registry, creates re-register blobs,
//! and publishes are re-applied **per blob in contiguous version order**
//! from the published watermark up. A gap (version assigned to a writer
//! that never completed — its publish record is absent) ends the
//! contiguous prefix; later buffered publishes are dropped, exactly
//! like in-flight writes in a [`crate::recovery`] failover. Because a
//! write-ahead publish may be committed yet never acknowledged, those
//! dropped version numbers will be handed out again — which is why
//! [`VersionLog::open`] **checkpoints** a journal that holds anything:
//! it rewrites the log to a single snapshot of the surfaced state, so
//! stale publish records can never resurface under a reused version
//! number, and replaying twice is identical to replaying once. An
//! empty journal file — a fresh deployment — has no history to collapse
//! and no stale tail to drop, so it is opened as it is: no snapshot is
//! staged, and no `fdatasync`, rename or directory sync is paid.
//!
//! Committed-but-undecodable bytes are a typed
//! [`BlobError::Recovery`] carrying file + offset, never a panic.

use crate::recovery::{restore_with, snapshot};
use crate::state::{RegistryConfig, VersionRegistry};
use blobseer_proto::{BlobError, BlobId, Geometry, Segment, Version, WriteId};
use blobseer_util::recordlog::{LogError, OwnedRecord, Record, RecordLog, RecordLogOptions};
use std::collections::BTreeMap;
use std::path::Path;

/// Magic of a blob-create record ("BSVRCRE2"). The three version
/// magics replaced `BSVRCRE1` / `BSVRPUB1` / `BSVRSNAP`, the same
/// records under the engine's retired single-chain payload digest
/// ([`blobseer_util::recordlog::RETIRED_MAGICS`]): a journal holding
/// them is refused at open, before the checkpoint could rewrite it.
pub const VERSION_CREATE_MAGIC: u64 = 0x4253_5652_4352_4532;

/// Magic of a publish record ("BSVRPUB2").
pub const VERSION_PUBLISH_MAGIC: u64 = 0x4253_5652_5055_4232;

/// Magic of a registry-snapshot record ("BSVRSNP2").
pub const VERSION_SNAPSHOT_MAGIC: u64 = 0x4253_5652_534e_5032;

/// Map an engine error onto the typed recovery error.
fn log_err(path: &Path, e: LogError) -> BlobError {
    BlobError::Recovery {
        file: path.display().to_string(),
        offset: e.offset(),
        detail: e.detail(),
    }
}

/// The version manager's write-ahead journal. See the module docs for
/// the record format and replay rules.
#[derive(Debug)]
pub struct VersionLog {
    log: RecordLog,
}

impl VersionLog {
    /// [`open_with`](Self::open_with) under a default-config registry
    /// with the given publish `window`.
    pub fn open(
        dir: &Path,
        opts: RecordLogOptions,
        window: usize,
    ) -> Result<(Self, VersionRegistry), BlobError> {
        Self::open_with(
            dir,
            opts,
            RegistryConfig {
                window,
                ..RegistryConfig::default()
            },
        )
    }

    /// Open (or create) the journal under `dir`, replay it into a fresh
    /// [`VersionRegistry`] under `config` (one shard of a sharded
    /// version manager replays only its own journal), then checkpoint
    /// unless the journal file is empty: the on-disk log is rewritten to
    /// a single snapshot of the surfaced state (making replay idempotent
    /// and version-number reuse safe — see module docs).
    pub fn open_with(
        dir: &Path,
        opts: RecordLogOptions,
        config: RegistryConfig,
    ) -> Result<(Self, VersionRegistry), BlobError> {
        let (mut log, records) = RecordLog::open_reporting_file(dir, "version", opts)
            .map_err(|(e, file)| log_err(&file, e))?;
        let registry = replay(&log, &records, config)?;
        if log.opened_bytes() == 0 {
            // A fresh journal: no history to collapse, no tail to drop.
            return Ok((Self { log }, registry));
        }
        // Checkpoint-on-open: collapse history to one snapshot record.
        let snap = snapshot(&registry);
        log.rewrite(&[Record {
            magic: VERSION_SNAPSHOT_MAGIC,
            a: 0,
            b: 0,
            c: 0,
            payload: &snap,
        }])
        .map_err(|e| log_err(&log.path(), e))?;
        Ok((Self { log }, registry))
    }

    /// Journal a blob creation. Must return before the blob id is
    /// acknowledged.
    pub fn record_create(&self, blob: BlobId, geom: &Geometry) -> Result<(), BlobError> {
        self.log
            .append(Record {
                magic: VERSION_CREATE_MAGIC,
                a: blob.0,
                b: geom.total_size,
                c: geom.page_size,
                payload: &[],
            })
            .map_err(|e| log_err(&self.log.path(), e))
    }

    /// Journal a publication (write-ahead: call **before** the version
    /// becomes observable via `complete_write`). Returns only once a
    /// commit marker covers the record. Concurrent publishers — the
    /// members of one version grant — are combined by the engine's
    /// group commit: their records land in parallel and one leader's
    /// marker (and `fdatasync`) acknowledges them all.
    pub fn record_publish(
        &self,
        blob: BlobId,
        version: Version,
        write: WriteId,
        seg: &Segment,
    ) -> Result<(), BlobError> {
        let mut payload = [0u8; 16];
        payload[..8].copy_from_slice(&seg.offset.to_le_bytes());
        payload[8..].copy_from_slice(&seg.size.to_le_bytes());
        self.log
            .append(Record {
                magic: VERSION_PUBLISH_MAGIC,
                a: blob.0,
                b: version,
                c: write.0,
                payload: &payload,
            })
            .map_err(|e| log_err(&self.log.path(), e))
    }

    /// Journal size in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.log.log_bytes()
    }
}

/// Replay committed records into a fresh registry. Publishes are
/// buffered per blob and applied as a contiguous version prefix; gaps
/// (never-acknowledged in-flight writes) drop the tail.
fn replay(
    log: &RecordLog,
    records: &[OwnedRecord],
    config: RegistryConfig,
) -> Result<VersionRegistry, BlobError> {
    let recovery = |offset: u64, detail: &'static str| BlobError::Recovery {
        file: log.path().display().to_string(),
        offset,
        detail,
    };
    let mut registry = VersionRegistry::with_config(config);
    // blob -> version -> (write, segment), sorted by version.
    let mut pending: BTreeMap<u64, BTreeMap<u64, (u64, Segment)>> = BTreeMap::new();
    for rec in records {
        match rec.magic {
            VERSION_SNAPSHOT_MAGIC => {
                // A snapshot resets everything before it.
                registry = restore_with(&rec.payload, config)
                    .map_err(|_| recovery(rec.offset, "undecodable registry snapshot"))?;
                pending.clear();
            }
            VERSION_CREATE_MAGIC => {
                let geom = Geometry::new(rec.b, rec.c)
                    .map_err(|_| recovery(rec.offset, "invalid geometry in create record"))?;
                if registry.get(BlobId(rec.a)).is_err() {
                    registry.create_blob_with_id(BlobId(rec.a), geom);
                }
            }
            VERSION_PUBLISH_MAGIC => {
                if rec.payload.len() != 16 {
                    return Err(recovery(rec.offset, "malformed publish payload"));
                }
                // lint: allow(panic-on-serving-path) — payload length was checked
                // to be exactly 16 just above
                let offset = u64::from_le_bytes(rec.payload[..8].try_into().unwrap());
                // lint: allow(panic-on-serving-path) — same 16-byte check as above
                let size = u64::from_le_bytes(rec.payload[8..].try_into().unwrap());
                // Creates are logged before their id escapes, so a
                // committed publish for an unknown blob is corruption.
                registry
                    .get(BlobId(rec.a))
                    .map_err(|_| recovery(rec.offset, "publish for unknown blob"))?;
                pending
                    .entry(rec.a)
                    .or_default()
                    .insert(rec.b, (rec.c, Segment::new(offset, size)));
            }
            _ => return Err(recovery(rec.offset, "unknown version record magic")),
        }
    }
    for (blob, versions) in pending {
        let state = registry.get(BlobId(blob))?;
        let mut next = state.latest() + 1;
        while let Some((write, seg)) = versions.get(&next) {
            let ticket = state.request_version(WriteId(*write), *seg)?;
            debug_assert_eq!(ticket.version, next);
            state.complete_write(ticket.version)?;
            next += 1;
        }
        // Anything past the first gap was write-ahead-logged but never
        // observable: dropped, like in-flight writes in a failover.
    }
    Ok(registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::DEFAULT_WINDOW;
    use blobseer_util::recordlog::{encode_header, payload_digest, write_at, COMMIT_MAGIC};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "verwal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn geom() -> Geometry {
        Geometry::new(8192, 1024).unwrap()
    }

    fn opts() -> RecordLogOptions {
        RecordLogOptions::default()
    }

    /// Drive one create + n publishes through the durable protocol the
    /// way the service does: log create, then per write log publish
    /// before completing.
    fn publish_n(dir: &Path, n: u64) -> BlobId {
        let (wal, registry) = VersionLog::open(dir, opts(), DEFAULT_WINDOW).unwrap();
        let state = registry.create_blob(geom());
        wal.record_create(state.blob, &state.geom).unwrap();
        for w in 1..=n {
            let t = state
                .request_version(WriteId(w), Segment::new(0, 1024))
                .unwrap();
            wal.record_publish(state.blob, t.version, WriteId(w), &Segment::new(0, 1024))
                .unwrap();
            state.complete_write(t.version).unwrap();
        }
        state.blob
    }

    #[test]
    fn creates_and_publishes_replay() {
        let dir = tmp_dir("replay");
        let blob = publish_n(&dir, 3);
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        let b = reg.get(blob).unwrap();
        assert_eq!(b.latest(), 3);
        assert_eq!(b.record(2).unwrap().write, WriteId(2));
        assert_eq!(b.geom, geom());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_is_idempotent_restart_twice_equals_once() {
        let dir = tmp_dir("idem");
        let blob = publish_n(&dir, 5);
        let (_, reg1) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        // Second restart must surface the identical registry (the
        // checkpoint made the first restart's state canonical).
        let (_, reg2) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        for reg in [&reg1, &reg2] {
            let b = reg.get(blob).unwrap();
            assert_eq!(b.latest(), 5);
        }
        assert_eq!(snapshot(&reg1), snapshot(&reg2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gap_in_publishes_drops_tail_like_in_flight_writes() {
        let dir = tmp_dir("gap");
        {
            let (wal, registry) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
            let state = registry.create_blob(geom());
            wal.record_create(state.blob, &state.geom).unwrap();
            // v1 published; v2 assigned but its publish never logged
            // (writer died); v3 write-ahead-logged but crash before the
            // in-memory complete => gap at 2 must drop 3.
            for w in [1u64, 2, 3] {
                let t = state
                    .request_version(WriteId(w), Segment::new(0, 1024))
                    .unwrap();
                if w != 2 {
                    wal.record_publish(state.blob, t.version, WriteId(w), &Segment::new(0, 1024))
                        .unwrap();
                }
                if w == 1 {
                    state.complete_write(t.version).unwrap();
                }
            }
        }
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        let b = reg.states().pop().unwrap();
        assert_eq!(b.latest(), 1, "v3 is unreachable past the v2 gap");
        // The dropped version numbers are handed out afresh...
        let t = b
            .request_version(WriteId(9), Segment::new(0, 1024))
            .unwrap();
        assert_eq!(t.version, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reused_version_numbers_cannot_resurrect_stale_publishes() {
        // The checkpoint-on-open guarantee: after a gap dropped v2/v3,
        // a *new* v2 published post-restart wins over the stale logged
        // v3 even across another restart.
        let dir = tmp_dir("reuse");
        let blob;
        {
            let (wal, registry) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
            let state = registry.create_blob(geom());
            blob = state.blob;
            wal.record_create(state.blob, &state.geom).unwrap();
            for w in [1u64, 2, 3] {
                let t = state
                    .request_version(WriteId(w), Segment::new(0, 1024))
                    .unwrap();
                if w != 2 {
                    wal.record_publish(state.blob, t.version, WriteId(w), &Segment::new(0, 1024))
                        .unwrap();
                }
                if w == 1 {
                    state.complete_write(t.version).unwrap();
                }
            }
        }
        {
            let (wal, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
            let b = reg.get(blob).unwrap();
            assert_eq!(b.latest(), 1);
            let t = b
                .request_version(WriteId(77), Segment::new(1024, 1024))
                .unwrap();
            assert_eq!(t.version, 2);
            wal.record_publish(blob, 2, WriteId(77), &Segment::new(1024, 1024))
                .unwrap();
            b.complete_write(2).unwrap();
        }
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        let b = reg.get(blob).unwrap();
        assert_eq!(b.latest(), 2);
        let rec = b.record(2).unwrap();
        assert_eq!(rec.write, WriteId(77), "stale write-3 publish must not win");
        assert_eq!(rec.seg, Segment::new(1024, 1024));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_then_crash_before_marker_falls_back() {
        // A checkpoint rewrite that reached the new generation file but
        // died before its commit marker: the snapshot record is torn
        // tail, replay surfaces an empty registry — and the *next* open
        // checkpoints cleanly on top.
        let dir = tmp_dir("tornsnap");
        std::fs::create_dir_all(&dir).unwrap();
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        let t = b
            .request_version(WriteId(1), Segment::new(0, 1024))
            .unwrap();
        b.complete_write(t.version).unwrap();
        let snap = snapshot(&reg);
        let path = dir.join("version.g0.log");
        let file = std::fs::File::create(&path).unwrap();
        let header = encode_header(
            VERSION_SNAPSHOT_MAGIC,
            0,
            0,
            0,
            snap.len() as u64,
            payload_digest(&snap),
        );
        write_at(&file, &header, 0).unwrap();
        write_at(&file, &snap, 48).unwrap();
        // No commit marker: the record is not durable.
        drop(file);
        let (_, recovered) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        assert!(recovered.is_empty(), "uncommitted snapshot must not replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn marker_without_snapshot_is_plain_incremental_log() {
        // A generation holding only committed create/publish records
        // (no snapshot at all) replays fine: the snapshot record is an
        // optimization, not a requirement.
        let dir = tmp_dir("nosnap");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("version.g0.log");
        let file = std::fs::File::create(&path).unwrap();
        let mut off = 0u64;
        let mut put = |magic: u64, a: u64, b: u64, c: u64, payload: &[u8]| {
            let h = encode_header(
                magic,
                a,
                b,
                c,
                payload.len() as u64,
                payload_digest(payload),
            );
            write_at(&file, &h, off).unwrap();
            write_at(&file, payload, off + 48).unwrap();
            off += 48 + payload.len() as u64;
        };
        put(VERSION_CREATE_MAGIC, 7, 8192, 1024, &[]);
        let mut seg = [0u8; 16];
        seg[..8].copy_from_slice(&0u64.to_le_bytes());
        seg[8..].copy_from_slice(&1024u64.to_le_bytes());
        put(VERSION_PUBLISH_MAGIC, 7, 1, 42, &seg);
        // Commit marker covering everything: seq 0 from offset 0
        // (markers carry digest 0, not the empty-payload digest).
        let marker = encode_header(COMMIT_MAGIC, 0, 0, 0, 0, 0);
        write_at(&file, &marker, off).unwrap();
        drop(file);
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        let b = reg.get(BlobId(7)).unwrap();
        assert_eq!(b.latest(), 1);
        assert_eq!(b.record(1).unwrap().write, WriteId(42));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interleaved_concurrent_publishers_replay_completely() {
        // Many writers interleaving create/publish appends from
        // threads, all acknowledged: every version must survive.
        let dir = tmp_dir("interleave");
        let blob;
        {
            let (wal, registry) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
            let state = registry.create_blob(geom());
            blob = state.blob;
            wal.record_create(state.blob, &state.geom).unwrap();
            let state = &state;
            let wal = &wal;
            std::thread::scope(|s| {
                for w in 1..=16u64 {
                    s.spawn(move || {
                        let t = state
                            .request_version(WriteId(w), Segment::new(0, 1024))
                            .unwrap();
                        wal.record_publish(
                            state.blob,
                            t.version,
                            WriteId(w),
                            &Segment::new(0, 1024),
                        )
                        .unwrap();
                        state.complete_write(t.version).unwrap();
                    });
                }
            });
            assert_eq!(state.latest(), 16);
        }
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        assert_eq!(reg.get(blob).unwrap().latest(), 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_publishes_replay_like_singles() {
        let dir = tmp_dir("batch");
        let blob;
        {
            let (wal, registry) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
            let state = registry.create_blob(geom());
            blob = state.blob;
            wal.record_create(state.blob, &state.geom).unwrap();
            // Four publish records appended contiguously under one
            // commit marker (`RecordLog::append_batch`, what
            // `META_PUT_BATCH` journals through).
            let mut seg = [0u8; 16];
            seg[8..].copy_from_slice(&1024u64.to_le_bytes());
            let records: Vec<Record<'_>> = (1..=4u64)
                .map(|w| {
                    let t = state
                        .request_version(WriteId(w), Segment::new(0, 1024))
                        .unwrap();
                    Record {
                        magic: VERSION_PUBLISH_MAGIC,
                        a: state.blob.0,
                        b: t.version,
                        c: w,
                        payload: &seg,
                    }
                })
                .collect();
            wal.log.append_batch(&records).unwrap();
            for r in &records {
                state.complete_write(r.b).unwrap();
            }
        }
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        let b = reg.get(blob).unwrap();
        assert_eq!(b.latest(), 4);
        for v in 1..=4u64 {
            assert_eq!(b.record(v).unwrap().write, WriteId(v));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leader_crash_between_grant_and_wal_commit_acks_nothing() {
        // A grant leader assigned versions 1..=3 and appended their
        // BSVRPUB2 batch, but the process died before the batch's commit
        // marker reached disk. No follower may have acked — and indeed
        // replay must surface none of the batch.
        let dir = tmp_dir("grantcrash");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("version.g0.log");
        let file = std::fs::File::create(&path).unwrap();
        let mut off = 0u64;
        let mut put = |magic: u64, a: u64, b: u64, c: u64, payload: &[u8], commit: bool| {
            let digest = if commit { 0 } else { payload_digest(payload) };
            let h = encode_header(magic, a, b, c, payload.len() as u64, digest);
            write_at(&file, &h, off).unwrap();
            write_at(&file, payload, off + 48).unwrap();
            off += 48 + payload.len() as u64;
        };
        put(VERSION_CREATE_MAGIC, 7, 8192, 1024, &[], false);
        // Marker: the create is durable (the blob id was acknowledged).
        put(COMMIT_MAGIC, 0, 0, 0, &[], true);
        let mut seg = [0u8; 16];
        seg[8..].copy_from_slice(&1024u64.to_le_bytes());
        for v in 1..=3u64 {
            put(VERSION_PUBLISH_MAGIC, 7, v, 40 + v, &seg, false);
        }
        // Crash: no commit marker for the publish batch.
        drop(file);
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        let b = reg.get(BlobId(7)).unwrap();
        assert_eq!(b.latest(), 0, "uncommitted grant batch must not replay");
        assert!(b.record(1).is_none());
        // The whole version run is handed out afresh.
        let t = b
            .request_version(WriteId(9), Segment::new(0, 1024))
            .unwrap();
        assert_eq!(t.version, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grant_spanning_restart_drops_the_unused_ticket_tail() {
        // A grant handed out versions 1..=4; only v1 and v2 published
        // (write-ahead + ack) before the whole cluster restarted. The
        // unused tail of the ticket run (v3, v4) must not resurrect —
        // the same gap-drop rule as in-flight writes, extended to grant
        // runs — and the recovered shard reuses the numbers.
        let dir = tmp_dir("grantspan");
        let blob;
        {
            let (wal, registry) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
            let state = registry.create_blob(geom());
            blob = state.blob;
            wal.record_create(state.blob, &state.geom).unwrap();
            // The grant: four tickets assigned in one batch.
            let tickets: Vec<u64> = (1..=4u64)
                .map(|w| {
                    state
                        .request_version(WriteId(w), Segment::new(0, 1024))
                        .unwrap()
                        .version
                })
                .collect();
            assert_eq!(tickets, vec![1, 2, 3, 4]);
            // Only the first two writers got to the publish step.
            for v in [1u64, 2] {
                wal.record_publish(blob, v, WriteId(v), &Segment::new(0, 1024))
                    .unwrap();
            }
            state.complete_write(1).unwrap();
            state.complete_write(2).unwrap();
        }
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        let b = reg.get(blob).unwrap();
        assert_eq!(b.latest(), 2, "acked prefix survives");
        assert!(b.record(3).is_none(), "unused ticket tail dropped");
        let t = b
            .request_version(WriteId(9), Segment::new(0, 1024))
            .unwrap();
        assert_eq!(t.version, 3, "dropped run is reissued");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_publishes_share_commit_markers() {
        // Group commit is the publish combining: while one leader
        // lingers, every publisher that lands its record rides the
        // leader's marker — strictly fewer markers than publishes, and
        // every acknowledged version replays.
        let dir = tmp_dir("grouped");
        let lingering = RecordLogOptions {
            group_commit_window: std::time::Duration::from_millis(20),
            ..opts()
        };
        let blob;
        {
            let (wal, registry) = VersionLog::open(&dir, lingering, DEFAULT_WINDOW).unwrap();
            let state = registry.create_blob(geom());
            blob = state.blob;
            wal.record_create(state.blob, &state.geom).unwrap();
            let before = wal.log_bytes();
            let start = std::sync::Barrier::new(16);
            let (state, wal, start) = (&state, &wal, &start);
            std::thread::scope(|s| {
                for w in 1..=16u64 {
                    s.spawn(move || {
                        let t = state
                            .request_version(WriteId(w), Segment::new(0, 1024))
                            .unwrap();
                        start.wait();
                        wal.record_publish(
                            state.blob,
                            t.version,
                            WriteId(w),
                            &Segment::new(0, 1024),
                        )
                        .unwrap();
                        state.complete_write(t.version).unwrap();
                    });
                }
            });
            assert_eq!(state.latest(), 16);
            let markers = (wal.log_bytes() - before - 16 * (48 + 16)) / 48;
            assert!((1..16).contains(&markers), "markers: {markers}");
        }
        let (_, reg) = VersionLog::open(&dir, opts(), DEFAULT_WINDOW).unwrap();
        assert_eq!(reg.get(blob).unwrap().latest(), 16);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_journal_replays_under_its_own_config() {
        // Shard 1 of 2 journals its residue-class blobs and replays them
        // under the same config: ids and state round-trip, and fresh
        // allocations stay in the shard's class.
        let cfg = RegistryConfig {
            shard: 1,
            shards: 2,
            ..RegistryConfig::default()
        };
        let dir = tmp_dir("shardwal");
        let ids: Vec<u64>;
        {
            let (wal, registry) = VersionLog::open_with(&dir, opts(), cfg).unwrap();
            ids = (0..3)
                .map(|_| {
                    let b = registry.create_blob(geom());
                    wal.record_create(b.blob, &b.geom).unwrap();
                    let t = b
                        .request_version(WriteId(1), Segment::new(0, 1024))
                        .unwrap();
                    wal.record_publish(b.blob, t.version, WriteId(1), &Segment::new(0, 1024))
                        .unwrap();
                    b.complete_write(t.version).unwrap();
                    b.blob.0
                })
                .collect();
            assert_eq!(ids, vec![1, 3, 5]);
        }
        let (_, reg) = VersionLog::open_with(&dir, opts(), cfg).unwrap();
        for id in &ids {
            assert_eq!(reg.get(BlobId(*id)).unwrap().latest(), 1);
        }
        assert_eq!(reg.create_blob(geom()).blob.0, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_in_a_retired_format_is_refused_untouched() {
        // The journal the previous format leaves after opening an empty
        // directory (checkpoint → generation 1), creating blob 1 and
        // publishing one write: `BSVRSNAP`, `BSVRCRE1` and `BSVRPUB1`
        // records whose check words the single-chain digest computed,
        // each sealed by its own marker.
        let dir = tmp_dir("retired");
        std::fs::create_dir_all(&dir).unwrap();
        let empty_snapshot = snapshot(&VersionRegistry::default());
        assert_eq!(empty_snapshot.len(), 12);
        let mut seg = [0u8; 16];
        seg[8..].copy_from_slice(&1024u64.to_le_bytes());
        let records: [([u64; 6], &[u8]); 3] = [
            (
                [0x4253_5652_534e_4150, 0, 0, 0, 12, 0x6edb_bab4_05a0_0d1d],
                &empty_snapshot,
            ),
            (
                [
                    0x4253_5652_4352_4531,
                    1,
                    8192,
                    1024,
                    0,
                    0x5c44_0f1d_2a4d_69d5,
                ],
                &[],
            ),
            (
                [0x4253_5652_5055_4231, 1, 1, 1, 16, 0x70fb_f726_1c2d_ff62],
                &seg,
            ),
        ];
        let mut image = Vec::new();
        for (seq, (words, payload)) in (0u64..).zip(records) {
            let covered_from = image.len() as u64;
            image.extend(words.iter().flat_map(|w| w.to_le_bytes()));
            image.extend_from_slice(payload);
            image.extend_from_slice(&encode_header(COMMIT_MAGIC, seq, covered_from, 0, 0, 0));
        }
        assert_eq!(image.len(), 316);
        let path = dir.join("version.g1.log");
        std::fs::write(&path, &image).unwrap();
        let err = match VersionLog::open(&dir, opts(), DEFAULT_WINDOW) {
            Err(e) => e,
            Ok(_) => panic!("a retired journal opened"),
        };
        assert!(
            matches!(err, BlobError::Recovery { offset: 0, .. }),
            "got {err:?}"
        );
        // The refusal names the generation file it refused.
        let BlobError::Recovery { file, .. } = &err else {
            unreachable!()
        };
        assert_eq!(Path::new(file), path);
        // Refused before the checkpoint: no generation 2 was written and
        // the old file is byte-identical.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["version.g1.log"]);
        assert_eq!(std::fs::read(&path).unwrap(), image);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_garbage_is_typed_error_not_panic() {
        let dir = tmp_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("version.g0.log");
        let file = std::fs::File::create(&path).unwrap();
        let payload = b"bogus";
        let h = encode_header(
            0xDEAD_BEEF,
            0,
            0,
            0,
            payload.len() as u64,
            payload_digest(payload),
        );
        write_at(&file, &h, 0).unwrap();
        write_at(&file, payload, 48).unwrap();
        let m = encode_header(COMMIT_MAGIC, 0, 0, 0, 0, 0);
        write_at(&file, &m, 48 + payload.len() as u64).unwrap();
        drop(file);
        let err = match VersionLog::open(&dir, opts(), DEFAULT_WINDOW) {
            Err(e) => e,
            Ok(_) => panic!("committed garbage must not replay"),
        };
        assert!(
            matches!(err, BlobError::Recovery { offset: 0, .. }),
            "got {err:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
