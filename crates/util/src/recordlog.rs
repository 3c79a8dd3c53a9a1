//! The record-then-commit append-only log engine — the one copy of the
//! crash protocol every durable component journals through.
//!
//! Every record is `48-byte header + payload`, the header six
//! little-endian `u64`s (`magic, a, b, c, len, check`), and nothing is
//! acknowledged until a **commit marker** covering it is on disk
//! (optionally fsynced). Replay makes records visible marker by marker
//! and stops at the first invalid or out-of-sequence record, so a torn
//! tail can never surface un-acknowledged state. A log lives in a
//! directory as `<base>.g<N>.log` **generation** files; a rewrite
//! stages the next generation under a `.tmp` name, seals and fsyncs
//! it, renames it, and unlinks the predecessor, so a crash at any
//! point leaves exactly one winner.
//!
//! # The three pieces
//!
//! * [`Appender`] — the append/commit half, on a caller-supplied file
//!   with a capacity bound: CAS-reserve a range (keeping headroom for
//!   the marker), positioned writes, tombstone-or-poison on a failed
//!   write, group commit (a [`Combiner`] round: one leader seals one
//!   marker covering every append queued in it).
//!   [`Appender::append`] returns the payload's file offset.
//! * [`replay`] — a pure function over `&[u8]` that visits the
//!   committed records (header words + payload *range*) marker by
//!   marker and returns the [`ResumePoint`] appends continue from.
//! * [`GenerationWriter`] — stages, seals and installs the next
//!   generation file; [`newest_generation`] is the matching directory
//!   scan (highest renamed generation wins, debris is removed).
//!
//! # Who uses which
//!
//! * The provider's page log (`pages.g<N>.log`, sparse pre-sized and
//!   memory-mapped) runs an [`Appender`] bounded by the mapping's
//!   length and serves `map.slice(payload offset)`; it replays
//!   `map.as_slice()` and slices the mapping — no page is copied; its
//!   compaction stages a [`GenerationWriter`] in two steps (snapshot
//!   sealed while writes continue, catch-up batch under a second
//!   marker at install).
//! * [`RecordLog`] is the plain-file client for small control-plane
//!   records (`meta.g<N>.log`, `version.g<N>.log`): an unbounded
//!   [`Appender`], replay over the bytes of one `fs::read` with
//!   payloads copied out, and a [`Rewrite`] over a [`GenerationWriter`]
//!   in the page log's two steps behind a generation gate (the metadata
//!   journal's compaction), or in one ([`RecordLog::rewrite`], the
//!   version journal's checkpoint-on-open).
//! * [`CompactTrigger`] is the one dead-bytes threshold both compacting
//!   logs run, and [`CompactReport`] what a rewrite reclaimed.
//!
//! # The check word and the payload digest
//!
//! A header's `check` is a splitmix64 hash of the other five words and
//! of [`payload_digest`] of the payload (commit markers and tombstones
//! fold digest 0). The digest is built from one step,
//! `step(acc, w) = (acc ^ w).rotl(23) · 0x2545_f491_4f6c_dd1d`, which is
//! a bijection in `acc` for a fixed word and in `w` for a fixed state
//! (xor, rotate and multiplication by an odd constant are each
//! invertible):
//!
//! 1. eight lanes start from `0x9e37_79b9_7f4a_7c15 · (lane + 1)`;
//!    word `j` (little-endian) of every whole 64-byte block feeds lane
//!    `j` through `step`;
//! 2. the lanes fold, in order, through `step` into an accumulator
//!    seeded with `0x9e37_79b9_7f4a_7c15`;
//! 3. the sub-64-byte tail follows: whole words through `step`, then
//!    each byte `b` as `(acc ^ b).rotl(9) · 0x100_0000_01b3`.
//!
//! Because every step is a bijection in both arguments, two payloads
//! of the same length that differ in **one word** — one aligned 8-byte
//! word of a whole block or of the tail — or in one tail byte always
//! digest differently: the changed step moves its lane (or the
//! accumulator), and every later step, with unchanged input, carries
//! the difference through. That covers any single flipped bit and any
//! corruption confined to one aligned word. Anything wider (a zeroed
//! suffix, two swapped words) is caught unless the two 64-bit digests
//! collide; the unit tests pin those shapes too. The lanes are
//! independent chains, so the digest runs at the multiplier's
//! throughput rather than its latency.
//!
//! Payload-bearing magics a client used under an earlier digest or an
//! earlier payload encoding are [`RETIRED_MAGICS`]. [`check_format`] — run by every client on the
//! log file before it resumes, rewrites or appends — refuses a log
//! whose head holds one as [`LogError::RetiredFormat`] and leaves the
//! file as it was.

use crate::combine::Combiner;
use crate::rng::splitmix64;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Bytes of one log-record header: six little-endian `u64`s —
/// `magic, a, b, c, len, check`.
pub const REC_HEADER: u64 = 48;

/// Magic of a tombstone record ("BSPGDEAD"): a reserved range whose
/// write failed while later appenders had already reserved beyond it.
/// Replay skips it instead of stopping, so the records committed
/// *after* the failure stay recoverable.
pub const TOMBSTONE_MAGIC: u64 = 0x4253_5047_4445_4144;

/// Magic of a commit marker ("BSPGCMT1"): field `a` is the marker's
/// sequence number, `b` the offset the previous marker sealed up to;
/// the marker commits every record between that offset and itself.
pub const COMMIT_MAGIC: u64 = 0x4253_5047_434d_5431;

/// Magics of the payload-bearing records the engine's clients wrote
/// under an earlier format: the page log's `BSPGLOG1` (no commit
/// markers) and `BSPGLOG2`, the metadata journal's `BSMTPUT1` /
/// `BSMTDEL1`, the version journal's `BSVRCRE1` / `BSVRPUB1` /
/// `BSVRSNAP` (all under the single-chain payload digest). Their check
/// words no longer validate, so replay would end at their first record
/// and the log would open empty; [`check_format`] refuses them instead.
/// The metadata journal's `BSMTPUT2` / `BSMTDEL2` validate but carry
/// fixed-width tree nodes, which the varint decoder would misread, so
/// they are refused the same way. A client never reuses one.
pub const RETIRED_MAGICS: [u64; 9] = [
    0x4253_5047_4c4f_4731, // BSPGLOG1
    0x4253_5047_4c4f_4732, // BSPGLOG2
    0x4253_4d54_5055_5431, // BSMTPUT1
    0x4253_4d54_4445_4c31, // BSMTDEL1
    0x4253_4d54_5055_5432, // BSMTPUT2
    0x4253_4d54_4445_4c32, // BSMTDEL2
    0x4253_5652_4352_4531, // BSVRCRE1
    0x4253_5652_5055_4231, // BSVRPUB1
    0x4253_5652_534e_4150, // BSVRSNAP
];

/// Seed of the digest's fold, and (times `lane + 1`) of each lane.
const DIGEST_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The digest's eight lane seeds: `DIGEST_SEED · (lane + 1)`.
const LANE_SEEDS: [u64; 8] = {
    let mut seeds = [0u64; 8];
    let mut lane = 0;
    while lane < 8 {
        seeds[lane] = DIGEST_SEED.wrapping_mul(lane as u64 + 1);
        lane += 1;
    }
    seeds
};

/// One digest step: a bijection in `acc` for a fixed `word`, and in
/// `word` for a fixed `acc`.
fn digest_step(acc: u64, word: u64) -> u64 {
    (acc ^ word)
        .rotate_left(23)
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Fast 64-bit digest of the payload bytes, folded into the record
/// check word so a torn record — valid header, partial payload — fails
/// validation at replay instead of surfacing corrupt bytes. Eight
/// independent lanes take the interleaved words of each 64-byte block,
/// the lanes fold into one accumulator, and the tail follows as words,
/// then bytes (see the module docs for the definition and what it
/// always detects: any change confined to one aligned word).
pub fn payload_digest(data: &[u8]) -> u64 {
    let (blocks, tail) = data.as_chunks::<64>();
    let mut lanes = LANE_SEEDS;
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
            *lane = digest_step(*lane, u64::from_le_bytes(*word));
        }
    }
    let mut acc = lanes.into_iter().fold(DIGEST_SEED, digest_step);
    let (words, bytes) = tail.as_chunks::<8>();
    for word in words {
        acc = digest_step(acc, u64::from_le_bytes(*word));
    }
    for &b in bytes {
        acc = (acc ^ u64::from(b))
            .rotate_left(9)
            .wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// The header check word: a splitmix64 hash over every header field and
/// the payload digest, so a single flipped bit anywhere in the record
/// fails validation.
pub fn check_word(magic: u64, a: u64, b: u64, c: u64, len: u64, digest: u64) -> u64 {
    let mut s = magic
        ^ a.rotate_left(17)
        ^ b.rotate_left(34)
        ^ c.rotate_left(51)
        ^ len
        ^ digest.rotate_left(7);
    splitmix64(&mut s)
}

/// Encode one record header (`magic, a, b, c, len, check`).
pub fn encode_header(magic: u64, a: u64, b: u64, c: u64, len: u64, digest: u64) -> [u8; 48] {
    let mut header = [0u8; REC_HEADER as usize];
    for (i, word) in [magic, a, b, c, len, check_word(magic, a, b, c, len, digest)]
        .into_iter()
        .enumerate()
    {
        header[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
    }
    header
}

/// Positioned write: the whole buffer at `off`, no seek on the shared
/// handle (`pwrite`).
pub fn write_at(file: &File, buf: &[u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, off)
}

/// What can go wrong appending to or opening a log. The `&'static str`
/// names the failed operation; callers add file context when surfacing
/// it (e.g. as `BlobError::Recovery`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// An I/O operation failed.
    Io(&'static str),
    /// The reservation (record plus the marker that must seal it) does
    /// not fit below the capacity bound; nothing was reserved.
    Full,
    /// The record's positioned write failed. `wasted` log bytes stay
    /// reserved under a tombstone replay steps over (0 when the range
    /// was still the tail and the reservation was rolled back).
    WriteFailed {
        /// Reserved bytes the failure left behind as dead weight.
        wasted: u64,
    },
    /// The medium failed in a way that could strand committed-but-
    /// unreplayable records; no further append may be acknowledged.
    Poisoned,
    /// A commit marker could not be sealed (the append's bytes are on
    /// disk but un-acknowledged — replay will not surface them).
    CommitFailed,
    /// The log was written in a retired format ([`RETIRED_MAGICS`]): its
    /// first record, at `offset`, would not replay. The file is left
    /// untouched.
    RetiredFormat {
        /// Byte offset of the refused record's header.
        offset: u64,
    },
}

impl LogError {
    /// A short static description (the `detail` of a typed error).
    pub fn detail(self) -> &'static str {
        match self {
            LogError::Io(op) => op,
            LogError::Full => "log full",
            LogError::WriteFailed { .. } => "log record write failed",
            LogError::Poisoned => "log poisoned by an earlier media failure",
            LogError::CommitFailed => "log commit marker could not be sealed",
            LogError::RetiredFormat { .. } => "log written in a retired record format",
        }
    }

    /// The log offset the error names (0 when it names no record).
    pub fn offset(self) -> u64 {
        match self {
            LogError::RetiredFormat { offset } => offset,
            _ => 0,
        }
    }
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Io(op) => write!(f, "log I/O failed: {op}"),
            other => f.write_str(other.detail()),
        }
    }
}

impl std::error::Error for LogError {}

/// Durability knobs of an [`Appender`] (the page log's `LogOptions`
/// carries the same two fields plus its compaction thresholds).
#[derive(Debug, Clone, Copy)]
pub struct RecordLogOptions {
    /// `fdatasync` on every commit marker: an acknowledged append
    /// survives power loss, not just a process crash. One sync per
    /// *group* commit — concurrent appenders share it. Also makes a
    /// failed directory sync after creating or renaming a generation
    /// file fatal (an un-durable name drops every "durable" marker in
    /// the file with it).
    pub fsync_on_commit: bool,
    /// How long a group-commit leader lingers before sealing, so
    /// concurrent appenders can join the same marker (and fsync): the
    /// linger of the appender's [`Combiner`], whose one policy the
    /// version manager's grant queue shares.
    pub group_commit_window: Duration,
}

impl Default for RecordLogOptions {
    fn default() -> Self {
        Self {
            fsync_on_commit: false,
            group_commit_window: Duration::ZERO,
        }
    }
}

/// One record to append: header words + payload. `magic` must not be
/// [`COMMIT_MAGIC`] or [`TOMBSTONE_MAGIC`] (those are the engine's).
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// Record-type magic (caller-defined).
    pub magic: u64,
    /// First header word.
    pub a: u64,
    /// Second header word.
    pub b: u64,
    /// Third header word.
    pub c: u64,
    /// Payload bytes (digest-protected).
    pub payload: &'a [u8],
}

impl Record<'_> {
    /// On-disk footprint: header + payload.
    fn footprint(&self) -> u64 {
        REC_HEADER + self.payload.len() as u64
    }

    /// Land `header | payload` at `off` with two positioned writes.
    fn write_to(&self, file: &File, off: u64) -> std::io::Result<()> {
        debug_assert!(self.magic != COMMIT_MAGIC && self.magic != TOMBSTONE_MAGIC);
        let header = encode_header(
            self.magic,
            self.a,
            self.b,
            self.c,
            self.payload.len() as u64,
            payload_digest(self.payload),
        );
        write_at(file, &header, off)?;
        write_at(file, self.payload, off + REC_HEADER)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// One committed record surfaced by [`replay`]: the header words and
/// where the payload sits in the replayed bytes.
#[derive(Debug, Clone)]
pub struct RecordRef {
    /// Record-type magic.
    pub magic: u64,
    /// First header word.
    pub a: u64,
    /// Second header word.
    pub b: u64,
    /// Third header word.
    pub c: u64,
    /// Byte offset of the record header in the log.
    pub offset: u64,
    /// The payload's byte range in the replayed buffer.
    pub payload: Range<usize>,
}

/// Where appends continue after a replay (or after a sealed
/// [`GenerationWriter`]): everything below `durable` is marker-sealed,
/// and the next marker carries `next_seq`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumePoint {
    /// End of the last valid in-sequence marker.
    pub durable: u64,
    /// Sequence number the next marker must carry.
    pub next_seq: u64,
}

/// One parsed record.
enum Parsed {
    Payload(RecordRef),
    Tombstone,
    Commit { seq: u64, covered_from: u64 },
}

/// The little-endian `u64` at `at`, or `None` past the end of `buf`.
fn read_word(buf: &[u8], at: usize) -> Option<u64> {
    let bytes = buf.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(bytes.try_into().ok()?))
}

/// Parse the record at `off`, returning it with the offset one past
/// its end; `None` is an invalid record (torn, corrupt, out of bounds)
/// — replay ends at the last durable point before it.
fn parse_record(buf: &[u8], off: usize) -> Option<(Parsed, usize)> {
    let mut words = [0u64; 6];
    for (i, word) in words.iter_mut().enumerate() {
        *word = read_word(buf, off + i * 8)?;
    }
    let [magic, a, b, c, len, check] = words;
    let body = off + words.len() * 8;
    let end = body.checked_add(usize::try_from(len).ok()?)?;
    let payload = buf.get(body..end)?;
    // Markers and tombstones check the header only: a marker has no
    // payload, and a tombstone's range is whatever the failed write
    // left behind.
    let digest = match magic {
        COMMIT_MAGIC | TOMBSTONE_MAGIC => 0,
        _ => payload_digest(payload),
    };
    if check != check_word(magic, a, b, c, len, digest) {
        return None;
    }
    let parsed = match magic {
        COMMIT_MAGIC if len != 0 => return None,
        COMMIT_MAGIC => Parsed::Commit {
            seq: a,
            covered_from: b,
        },
        TOMBSTONE_MAGIC => Parsed::Tombstone,
        _ => Parsed::Payload(RecordRef {
            magic,
            a,
            b,
            c,
            offset: off as u64,
            payload: body..end,
        }),
    };
    Some((parsed, end))
}

/// Replay a log image: `visit` sees every **committed** record in
/// append order, marker by marker — a record becomes visible only once
/// a valid commit marker with the expected sequence number and
/// coverage offset follows it. Replay ends at the first invalid
/// record, or at a checksum-valid marker that is out of sequence or
/// claims the wrong coverage (stale bytes from an earlier incarnation,
/// not a commit); tombstones are stepped over. Everything beyond the
/// returned [`ResumePoint`] — complete-but-uncommitted records
/// included — was never acknowledged, and appends resume over it.
pub fn replay(buf: &[u8], mut visit: impl FnMut(RecordRef)) -> ResumePoint {
    let mut at = ResumePoint::default();
    let mut pending: Vec<RecordRef> = Vec::new();
    let mut off = 0usize;
    while let Some((parsed, end)) = parse_record(buf, off) {
        match parsed {
            Parsed::Payload(rec) => pending.push(rec),
            Parsed::Tombstone => {}
            Parsed::Commit { seq, covered_from } => {
                if seq != at.next_seq || covered_from != at.durable {
                    break;
                }
                at = ResumePoint {
                    durable: end as u64,
                    next_seq: seq + 1,
                };
                pending.drain(..).for_each(&mut visit);
            }
        }
        off = end;
    }
    at
}

/// Refuse a log file written in a retired format: step over the valid
/// header-only records at its head (tombstones, markers) and fail with
/// [`LogError::RetiredFormat`] if the first record after them carries
/// one of [`RETIRED_MAGICS`]. Reads only those headers, with positioned
/// reads, and never writes. Every client calls it before anything
/// resumes, rewrites or appends over the file — [`replay`] alone would
/// open such a log as empty and let appends overwrite it.
pub fn check_format(file: &File) -> Result<(), LogError> {
    let mut header = [0u8; REC_HEADER as usize];
    let mut off = 0u64;
    loop {
        if !read_at(file, &mut header, off).map_err(|_| LogError::Io("read log head"))? {
            return Ok(());
        }
        let mut words = [0u64; 6];
        for (word, bytes) in words.iter_mut().zip(header.as_chunks::<8>().0) {
            *word = u64::from_le_bytes(*bytes);
        }
        let [magic, a, b, c, len, check] = words;
        if RETIRED_MAGICS.contains(&magic) {
            return Err(LogError::RetiredFormat { offset: off });
        }
        let header_only = magic == TOMBSTONE_MAGIC || (magic == COMMIT_MAGIC && len == 0);
        if !header_only || check != check_word(magic, a, b, c, len, 0) {
            return Ok(());
        }
        match len.checked_add(REC_HEADER).and_then(|n| off.checked_add(n)) {
            Some(end) => off = end,
            None => return Ok(()),
        }
    }
}

/// Positioned read of exactly `buf.len()` bytes at `off` (`pread`);
/// `Ok(false)` when the file ends first.
fn read_at(file: &File, buf: &mut [u8], off: u64) -> std::io::Result<bool> {
    use std::os::unix::fs::FileExt;
    match file.read_exact_at(buf, off) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// Append + group commit
// ---------------------------------------------------------------------------

/// Commit bookkeeping, guarded by the appender's mutex.
#[derive(Debug, Default)]
struct CommitState {
    /// Every byte below this offset is sealed by a marker (the marker
    /// bytes included). Replay never recovers past it.
    durable: u64,
    /// Contiguous completed-bytes frontier: every reserved range below
    /// it has finished its write (record, tombstone, or marker).
    frontier: u64,
    /// Completed ranges that landed out of order (`start → end`),
    /// merged into `frontier` as the gap before them closes.
    completed: BTreeMap<u64, u64>,
    /// Sequence number the next marker carries.
    next_seq: u64,
    /// No further commit may succeed.
    poisoned: bool,
}

/// The append/commit half of the engine, on a caller-supplied file.
///
/// * **Append** reserves a record range with a CAS on the tail offset
///   (concurrent appenders never interleave bytes; the reservation
///   keeps headroom below `capacity` for the marker that will seal it,
///   and a reservation that does not fit reserves nothing), writes
///   `header + payload` with positioned I/O — no lock, no user-space
///   copy — then blocks until a group-commit marker covers it: only
///   committed records are acknowledged, and only committed records
///   replay. Group commit is a [`Combiner`] round: an append no marker
///   covers yet queues its end, and the round's leader seals one marker
///   at the tail (and one optional fsync) for every end in the round.
/// * A **failed write** unreserves its range if it is still the tail;
///   otherwise later appenders own bytes beyond it, so it is branded a
///   tombstone replay steps over — a hole there would truncate the
///   recovery of every record committed after it. If not even the
///   tombstone lands, the log is poisoned: nothing further is ever
///   acknowledged.
///
/// The commit mutex/condvar is durability machinery on the ack path,
/// not a control-plane serialization point; it is deliberately outside
/// the lockmeter. The condvar has one waiter at most: a round's leader
/// waiting for the records below its marker slot to land.
pub struct Appender {
    file: File,
    capacity: u64,
    opts: RecordLogOptions,
    /// Reservation frontier: appends CAS disjoint ranges off it.
    tail: AtomicU64,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Group commit: the record ends awaiting a marker.
    group: Combiner<u64, Result<(), LogError>>,
}

impl fmt::Debug for Appender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Appender")
            .field("tail", &self.tail.load(Ordering::Relaxed))
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Appender {
    /// Append to `file` from `at`, never reserving past `capacity`
    /// bytes (`u64::MAX` for a plain file that grows as needed; the
    /// mapping's length for a pre-sized mapped log).
    pub fn new(file: File, capacity: u64, opts: RecordLogOptions, at: ResumePoint) -> Self {
        let log = Self {
            file,
            capacity,
            opts,
            tail: AtomicU64::new(0),
            commit: Mutex::new(CommitState::default()),
            commit_cv: Condvar::new(),
            group: Combiner::new(opts.group_commit_window),
        };
        log.resume_at(at);
        log
    }

    /// Restart appending at `at`, forgetting everything in flight
    /// (what a [`replay`] of this file returned).
    pub fn resume_at(&self, at: ResumePoint) {
        *self.commit.lock() = CommitState {
            durable: at.durable,
            frontier: at.durable,
            next_seq: at.next_seq,
            ..CommitState::default()
        };
        self.tail.store(at.durable, Ordering::Relaxed);
    }

    /// Current log size in bytes (reserved tail, headers and markers
    /// included).
    pub fn log_bytes(&self) -> u64 {
        self.tail.load(Ordering::Relaxed)
    }

    /// Append one record, block until a commit marker covers it, and
    /// return the file offset of its **payload**.
    pub fn append(&self, rec: Record<'_>) -> Result<u64, LogError> {
        Ok(self.append_batch(std::slice::from_ref(&rec))? + REC_HEADER)
    }

    /// Append a batch of records contiguously and block until one
    /// commit marker covers them all (one marker, one optional fsync —
    /// the durability analogue of RPC aggregation). Returns the offset
    /// of the first record's header.
    pub fn append_batch(&self, recs: &[Record<'_>]) -> Result<u64, LogError> {
        let total: u64 = recs.iter().map(Record::footprint).sum();
        if total == 0 {
            return Ok(self.log_bytes());
        }
        let start = self
            .tail
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                cur.checked_add(total + REC_HEADER)
                    .filter(|&projected| projected <= self.capacity)
                    .map(|_| cur + total)
            })
            .map_err(|_| LogError::Full)?;
        let end = start + total;
        let mut off = start;
        for r in recs {
            if r.write_to(&self.file, off).is_err() {
                return Err(self.abandon(start, end));
            }
            off += r.footprint();
        }
        self.complete(start, end);
        self.commit_covering(end)?;
        Ok(start)
    }

    /// Settle the reserved range `[start, end)` whose write failed:
    /// roll the reservation back, or leave a tombstone (or poison).
    fn abandon(&self, start: u64, end: u64) -> LogError {
        let rolled_back = self
            .tail
            .compare_exchange(end, start, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok();
        if rolled_back {
            return LogError::WriteFailed { wasted: 0 };
        }
        let tomb = encode_header(TOMBSTONE_MAGIC, 0, 0, 0, end - start - REC_HEADER, 0);
        if write_at(&self.file, &tomb, start).is_err() {
            self.poison();
        }
        // Either way the range is settled — committers must not stall
        // waiting for it.
        self.complete(start, end);
        LogError::WriteFailed {
            wasted: end - start,
        }
    }

    /// `fdatasync` the file (explicit durability point for callers
    /// running without `fsync_on_commit`).
    pub fn sync(&self) -> Result<(), LogError> {
        self.file.sync_data().map_err(|_| LogError::Io("sync log"))
    }

    /// Stop acknowledging: every in-flight and future commit fails.
    pub fn poison(&self) {
        self.commit.lock().poisoned = true;
    }

    /// Record that the reserved range `[start, end)` finished its
    /// write, advancing the contiguous frontier when the gap before it
    /// closed, and wake the leader if it waits on the frontier.
    fn complete(&self, start: u64, end: u64) {
        let mut st = self.commit.lock();
        if st.frontier == start {
            st.frontier = end;
            loop {
                let f = st.frontier;
                match st.completed.remove(&f) {
                    Some(e) => st.frontier = e,
                    None => break,
                }
            }
        } else {
            st.completed.insert(start, end);
        }
        self.commit_cv.notify_one();
    }

    /// Group commit: block until a marker covering `my_end` is durable.
    /// An append already covered returns at once; the others queue on
    /// the combiner, and each round's leader seals one marker covering
    /// every end in it (and the same optional fsync), unless an earlier
    /// marker already covers them all.
    fn commit_covering(&self, my_end: u64) -> Result<(), LogError> {
        if self.covered(my_end)? {
            return Ok(());
        }
        self.group.submit(my_end, |ends| {
            let last = ends.rest.iter().fold(ends.own, |last, &end| last.max(end));
            let sealed = match self.covered(last) {
                Ok(false) => self.seal(),
                // An earlier marker covers the whole round (no marker is
                // added), or the log is poisoned.
                covered => covered.map(drop),
            };
            ends.map(|_| sealed)
        })
    }

    /// Whether a marker already covers `end`; a poisoned log covers
    /// nothing more.
    fn covered(&self, end: u64) -> Result<bool, LogError> {
        let st = self.commit.lock();
        match (st.durable >= end, st.poisoned) {
            (true, _) => Ok(true),
            (false, true) => Err(LogError::Poisoned),
            (false, false) => Ok(false),
        }
    }

    /// A round leader's seal: reserve the marker slot at the tail
    /// (after every record its round's appends completed), wait for
    /// every record below it to finish writing, seal, and (optionally)
    /// fsync.
    fn seal(&self) -> Result<(), LogError> {
        let marker_at = self
            .tail
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                cur.checked_add(REC_HEADER)
                    .filter(|&projected| projected <= self.capacity)
            })
            .map_err(|_| LogError::Full)?;
        let (seq, covered_from) = {
            let mut st = self.commit.lock();
            while st.frontier < marker_at {
                if st.poisoned {
                    return Err(LogError::Poisoned);
                }
                self.commit_cv.wait(&mut st);
            }
            // Re-check under the same lock: a failed append below the
            // marker slot poisons *before* completing its range, so a
            // frontier that already reached the slot can carry an
            // un-skippable hole — sealing a marker over it would
            // acknowledge records replay can never reach.
            if st.poisoned {
                return Err(LogError::Poisoned);
            }
            debug_assert_eq!(st.frontier, marker_at, "marker slot is the frontier");
            (st.next_seq, st.durable)
        };
        let header = encode_header(COMMIT_MAGIC, seq, covered_from, 0, 0, 0);
        if write_at(&self.file, &header, marker_at).is_err() {
            // The marker slot would be an un-skippable hole: a later
            // marker could commit records replay can never reach. Brand
            // the slot a tombstone so replay steps over it; if even
            // that fails, poison the log.
            let tomb = encode_header(TOMBSTONE_MAGIC, 0, 0, 0, 0, 0);
            let mut st = self.commit.lock();
            if write_at(&self.file, &tomb, marker_at).is_err() {
                st.poisoned = true;
            }
            drop(st);
            self.complete(marker_at, marker_at + REC_HEADER);
            return Err(LogError::CommitFailed);
        }
        if self.opts.fsync_on_commit && self.file.sync_data().is_err() {
            // The marker bytes may or may not be durable; conservatively
            // stop acknowledging anything further.
            self.poison();
            self.complete(marker_at, marker_at + REC_HEADER);
            return Err(LogError::CommitFailed);
        }
        {
            let mut st = self.commit.lock();
            st.next_seq = seq + 1;
            st.durable = marker_at + REC_HEADER;
        }
        self.complete(marker_at, marker_at + REC_HEADER);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Generation files
// ---------------------------------------------------------------------------

/// `<base>.g<n>.log`.
fn generation_file_name(base: &str, n: u64) -> String {
    format!("{base}.g{n}.log")
}

/// Flush `dir`'s entries — the *name* of a generation file just created
/// or renamed — to stable storage. Best effort unless `strict` (the
/// `fsync_on_commit` regime), where a failure is an error: a power
/// loss that drops the name drops every "durable" marker in the file.
pub fn sync_dir(dir: &Path, strict: bool) -> Result<(), LogError> {
    match File::open(dir).and_then(|d| d.sync_all()) {
        Err(_) if strict => Err(LogError::Io("sync log dir")),
        _ => Ok(()),
    }
}

/// Create `dir` if needed and find the generation to open: the highest
/// `<base>.g<N>.log` (the newest *renamed* generation — an interrupted
/// rewrite's `.tmp` never wins; 0 for a fresh directory). Older
/// generations and `.tmp` files are debris and are removed.
pub fn newest_generation(dir: &Path, base: &str) -> Result<u64, LogError> {
    std::fs::create_dir_all(dir).map_err(|_| LogError::Io("create log dir"))?;
    let prefix = format!("{base}.g");
    let mut generations: Vec<(u64, PathBuf)> = Vec::new();
    let mut debris: Vec<PathBuf> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|_| LogError::Io("scan log dir"))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(rest) = name.to_str().and_then(|n| n.strip_prefix(&prefix)) else {
            continue;
        };
        if rest.ends_with(".tmp") {
            debris.push(entry.path());
        } else if let Some(n) = rest.strip_suffix(".log").and_then(|n| n.parse().ok()) {
            generations.push((n, entry.path()));
        }
    }
    generations.sort();
    let newest = generations.pop().map_or(0, |(n, _)| n);
    for stale in debris
        .into_iter()
        .chain(generations.into_iter().map(|(_, p)| p))
    {
        let _ = std::fs::remove_file(stale);
    }
    Ok(newest)
}

/// Open (or create) generation `number` of `<base>` under `dir` for
/// reading and appending. A caller that may have created the file
/// follows up with [`sync_dir`] before acknowledging anything in it.
pub fn open_generation(dir: &Path, base: &str, number: u64) -> Result<(File, PathBuf), LogError> {
    let path = dir.join(generation_file_name(base, number));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(&path)
        .map_err(|_| LogError::Io("open log file"))?;
    Ok((file, path))
}

/// A staged generation's `.tmp` name. Dropping it unlinks the name, so
/// an abandoned or failed rewrite leaves no debris; after the rename
/// claimed the file the unlink finds nothing and is a no-op.
#[derive(Debug)]
struct TmpName(PathBuf);

impl Drop for TmpName {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Writes the next generation of a log: records land in
/// `<base>.g<N>.log.tmp`, [`seal`](Self::seal) commits them under a
/// marker and fsyncs, [`install`](Self::install) renames the file into
/// place. A crash before the rename leaves a `.tmp` that never wins;
/// after it, the newest renamed generation wins
/// ([`newest_generation`]). More records may be staged after a seal
/// (under the next marker) — page-log compaction seals its snapshot
/// while writes continue and catches up at install.
#[derive(Debug)]
pub struct GenerationWriter {
    file: File,
    tmp: TmpName,
    dir: PathBuf,
    path: PathBuf,
    capacity: u64,
    /// Where the next record lands.
    off: u64,
    /// What the seals so far cover.
    sealed: ResumePoint,
}

impl GenerationWriter {
    /// Stage generation `number` of `<base>` under `dir`, holding at
    /// most `capacity` bytes.
    pub fn create(dir: &Path, base: &str, number: u64, capacity: u64) -> Result<Self, LogError> {
        let name = generation_file_name(base, number);
        let path = dir.join(&name);
        let tmp = TmpName(dir.join(format!("{name}.tmp")));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp.0)
            .map_err(|_| LogError::Io("create generation file"))?;
        Ok(Self {
            file,
            tmp,
            dir: dir.to_path_buf(),
            path,
            capacity,
            off: 0,
            sealed: ResumePoint::default(),
        })
    }

    /// The staged file (the page log pre-sizes and maps it; a mapping
    /// is inode-based, so it survives the rename).
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Bytes staged so far (records and markers).
    pub fn log_bytes(&self) -> u64 {
        self.off
    }

    /// Stage one record, keeping headroom for the marker that must
    /// seal it; returns the file offset of its payload.
    pub fn put(&mut self, rec: Record<'_>) -> Result<u64, LogError> {
        let end = self.off + rec.footprint();
        if end
            .checked_add(REC_HEADER)
            .is_none_or(|m| m > self.capacity)
        {
            return Err(LogError::Full);
        }
        rec.write_to(&self.file, self.off)
            .map_err(|_| LogError::Io("write generation record"))?;
        let payload_at = self.off + REC_HEADER;
        self.off = end;
        Ok(payload_at)
    }

    /// Commit everything staged since the previous seal under the next
    /// marker and fsync the file.
    pub fn seal(&mut self) -> Result<(), LogError> {
        let marker = encode_header(
            COMMIT_MAGIC,
            self.sealed.next_seq,
            self.sealed.durable,
            0,
            0,
            0,
        );
        write_at(&self.file, &marker, self.off).map_err(|_| LogError::Io("seal generation"))?;
        self.file
            .sync_data()
            .map_err(|_| LogError::Io("sync generation"))?;
        self.off += REC_HEADER;
        self.sealed = ResumePoint {
            durable: self.off,
            next_seq: self.sealed.next_seq + 1,
        };
        Ok(())
    }

    /// The swap point: rename the sealed file into place, sync the
    /// directory, unlink the predecessor at `old_path`, and hand back
    /// the appender that continues the new generation (with `old`'s
    /// options) plus its path. Before the rename a crash recovers the
    /// old generation, after it the new one. Under `fsync_on_commit` an
    /// un-durable rename is fatal — a power loss could revert the
    /// directory to the old generation, dropping commits acknowledged
    /// after the swap — so the rename is undone and the error returned;
    /// if even the undo fails, `old` is poisoned so disk and memory
    /// cannot disagree about which generation is acknowledging.
    pub fn install(self, old: &Appender, old_path: &Path) -> Result<(Appender, PathBuf), LogError> {
        debug_assert_eq!(self.off, self.sealed.durable, "install an unsealed tail");
        std::fs::rename(&self.tmp.0, &self.path).map_err(|_| LogError::Io("rename generation"))?;
        if let Err(e) = sync_dir(&self.dir, old.opts.fsync_on_commit) {
            if std::fs::rename(&self.path, &self.tmp.0).is_err() {
                old.poison();
            }
            return Err(e);
        }
        // Readers of a mapped predecessor keep it alive by refcount;
        // the unlink only drops the name.
        let _ = std::fs::remove_file(old_path);
        let log = Appender::new(self.file, self.capacity, old.opts, self.sealed);
        Ok((log, self.path))
    }
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

/// When a log's dead bytes — records no replay needs any more — are
/// worth a rewrite: the one threshold rule of both logs that compact
/// online (the provider's page log and the metadata journal).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactTrigger {
    /// Dead bytes must reach this fraction of the log (`0` disables
    /// the trigger; an explicit compaction still runs).
    pub dead_ratio: f64,
    /// …and at least this many bytes (so a small log does not churn).
    pub min_dead_bytes: u64,
}

impl Default for CompactTrigger {
    fn default() -> Self {
        Self {
            dead_ratio: 0.5,
            min_dead_bytes: 64 * 1024,
        }
    }
}

impl CompactTrigger {
    /// True when `dead` of a `log_bytes` log crosses both thresholds.
    pub fn fires(&self, dead: u64, log_bytes: u64) -> bool {
        self.dead_ratio > 0.0
            && dead >= self.min_dead_bytes
            && dead as f64 >= self.dead_ratio * log_bytes as f64
    }
}

/// What one compaction accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactReport {
    /// The generation number compaction produced.
    pub generation: u64,
    /// Log bytes of the generation it replaced.
    pub old_log_bytes: u64,
    /// Log bytes of the fresh generation (live records and markers).
    pub new_log_bytes: u64,
    /// Bytes the swap reclaimed (`old - new`).
    pub reclaimed_bytes: u64,
}

// ---------------------------------------------------------------------------
// The plain-file client
// ---------------------------------------------------------------------------

/// One committed record surfaced by [`RecordLog::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedRecord {
    /// Record-type magic.
    pub magic: u64,
    /// First header word.
    pub a: u64,
    /// Second header word.
    pub b: u64,
    /// Third header word.
    pub c: u64,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Byte offset of the record header in the log file (error context
    /// for callers whose payload decode fails).
    pub offset: u64,
}

/// A crash-consistent append-only record log on a plain file: an
/// unbounded [`Appender`] over the newest `<base>.g<N>.log` under a
/// directory, replayed once at [`RecordLog::open`], swapped for a
/// compacted next generation by a [`Rewrite`] ([`RecordLog::rewrite`]
/// in one step).
///
/// Appends hold the read side of a generation gate through their
/// commit (and through the caller's `apply`, see
/// [`RecordLog::append_batch_then`]); a rewrite takes the write side
/// only to catch up and install. The gate is durability plumbing, like
/// the commit mutex: uncontended except during an install.
#[derive(Debug)]
pub struct RecordLog {
    dir: PathBuf,
    base: String,
    gen: RwLock<Current>,
    /// One rewrite at a time.
    rewriting: Mutex<()>,
    /// Size of the generation file when `open` read it.
    opened_bytes: u64,
}

/// The generation appends go to.
#[derive(Debug)]
struct Current {
    number: u64,
    path: PathBuf,
    log: Appender,
}

impl RecordLog {
    /// Open (or create) the log `<base>.g<N>.log` under `dir`
    /// ([`newest_generation`] picks `N` and removes the debris).
    /// Replays the survivor and returns every committed record in
    /// append order; appends resume at the last durable commit marker.
    /// A survivor in a retired format is refused untouched
    /// ([`check_format`]).
    pub fn open(
        dir: &Path,
        base: &str,
        opts: RecordLogOptions,
    ) -> Result<(Self, Vec<OwnedRecord>), LogError> {
        Self::open_reporting_file(dir, base, opts).map_err(|(e, _)| e)
    }

    /// [`open`](Self::open), reporting with an error the file it
    /// concerns: the generation file it opened for anything that failed
    /// after (a retired format, a failed read), `dir` before a file was
    /// opened.
    pub fn open_reporting_file(
        dir: &Path,
        base: &str,
        opts: RecordLogOptions,
    ) -> Result<(Self, Vec<OwnedRecord>), (LogError, PathBuf)> {
        let in_dir = |e| (e, dir.to_path_buf());
        let number = newest_generation(dir, base).map_err(in_dir)?;
        let (file, path) = open_generation(dir, base, number).map_err(in_dir)?;
        let in_file = |e| (e, path.clone());
        check_format(&file).map_err(in_file)?;
        if opts.fsync_on_commit {
            sync_dir(dir, true).map_err(in_file)?;
        }
        let buf = std::fs::read(&path).map_err(|_| in_file(LogError::Io("read log file")))?;
        let mut visible: Vec<OwnedRecord> = Vec::new();
        let at = replay(&buf, |r| {
            visible.push(OwnedRecord {
                magic: r.magic,
                a: r.a,
                b: r.b,
                c: r.c,
                // lint: allow(unmetered-copy) — replay materializes owned records
                // at recovery time, not on the steady-state path
                payload: buf[r.payload].to_vec(),
                offset: r.offset,
            })
        });
        let log = Self {
            dir: dir.to_path_buf(),
            base: base.to_string(),
            gen: RwLock::new(Current {
                number,
                path,
                log: Appender::new(file, u64::MAX, opts, at),
            }),
            rewriting: Mutex::new(()),
            opened_bytes: buf.len() as u64,
        };
        Ok((log, visible))
    }

    /// Path of the current generation file (error context).
    pub fn path(&self) -> PathBuf {
        self.gen.read().path.clone()
    }

    /// Current log size in bytes (reserved tail).
    pub fn log_bytes(&self) -> u64 {
        self.gen.read().log.log_bytes()
    }

    /// Bytes the generation file held when [`open`](Self::open) read it,
    /// an uncommitted tail included: 0 only for a log that never held a
    /// byte (a fresh one).
    pub fn opened_bytes(&self) -> u64 {
        self.opened_bytes
    }

    /// Append one record and block until a commit marker covers it.
    /// Concurrent callers group-commit: their record writes proceed in
    /// parallel and one leader's marker (and fsync) covers them all.
    pub fn append(&self, rec: Record<'_>) -> Result<(), LogError> {
        self.append_batch(std::slice::from_ref(&rec))
    }

    /// Append a batch of records contiguously and block until one
    /// commit marker covers them all.
    pub fn append_batch(&self, recs: &[Record<'_>]) -> Result<(), LogError> {
        self.append_batch_then(recs, || ())
    }

    /// [`append_batch`](Self::append_batch), then run `apply` — the
    /// caller's in-memory mutation — before a rewrite can install. A
    /// rewrite's catch-up therefore sees every acknowledged record
    /// applied: none is left behind in the generation it replaces.
    /// `apply` runs only once the batch is committed.
    pub fn append_batch_then<R>(
        &self,
        recs: &[Record<'_>],
        apply: impl FnOnce() -> R,
    ) -> Result<R, LogError> {
        let gen = self.gen.read();
        gen.log.append_batch(recs)?;
        Ok(apply())
    }

    /// Start writing the next generation while appends continue; one
    /// rewrite runs at a time (a second caller waits here).
    pub fn begin_rewrite(&self) -> Result<Rewrite<'_>, LogError> {
        let one = self.rewriting.lock();
        let number = self.gen.read().number;
        let next = GenerationWriter::create(&self.dir, &self.base, number + 1, u64::MAX)?;
        Ok(Rewrite {
            log: self,
            _one: one,
            next,
        })
    }

    /// Rewrite the log as a fresh generation containing exactly `recs`
    /// under one commit marker, atomically replacing the current file
    /// ([`GenerationWriter`]). Used to checkpoint after replay: stale
    /// records beyond the last durable marker are physically dropped,
    /// so identifiers they mention can be reused.
    pub fn rewrite(&mut self, recs: &[Record<'_>]) -> Result<(), LogError> {
        let mut next = self.begin_rewrite()?;
        for r in recs {
            next.put(*r)?;
        }
        next.seal()?;
        next.install(|_| Ok(())).map(|_| ())
    }
}

/// The next generation of a [`RecordLog`], staged while appends to the
/// current one continue (see [`RecordLog::begin_rewrite`]): stage a
/// snapshot with [`put`](Self::put), [`seal`](Self::seal) it, then
/// [`install`](Self::install). Dropping it unfinished removes the
/// staged file and leaves the log as it was.
pub struct Rewrite<'a> {
    log: &'a RecordLog,
    _one: MutexGuard<'a, ()>,
    next: GenerationWriter,
}

impl fmt::Debug for Rewrite<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rewrite")
            .field("next", &self.next)
            .finish_non_exhaustive()
    }
}

impl Rewrite<'_> {
    /// Stage one record.
    pub fn put(&mut self, rec: Record<'_>) -> Result<(), LogError> {
        self.next.put(rec).map(|_| ())
    }

    /// Commit everything staged so far under a marker and fsync.
    pub fn seal(&mut self) -> Result<(), LogError> {
        self.next.seal()
    }

    /// The swap. Under the write side of the generation gate — no
    /// append is in flight, none starts — run `catch_up`, which stages
    /// what changed since the snapshot; seal it under a second marker
    /// if it staged anything, and install the new generation
    /// ([`GenerationWriter::install`]: a crash before the rename
    /// recovers the old generation, after it the new one). Returns the
    /// space accounting of the swap and what `catch_up` returned.
    pub fn install<T>(
        mut self,
        catch_up: impl FnOnce(&mut Self) -> Result<T, LogError>,
    ) -> Result<(CompactReport, T), LogError> {
        let owner = self.log;
        let mut cur = owner.gen.write();
        let staged = self.next.log_bytes();
        let out = catch_up(&mut self)?;
        if self.next.log_bytes() > staged {
            self.next.seal()?;
        }
        let old_log_bytes = cur.log.log_bytes();
        let (log, path) = self.next.install(&cur.log, &cur.path)?;
        let new_log_bytes = log.log_bytes();
        *cur = Current {
            number: cur.number + 1,
            path,
            log,
        };
        let report = CompactReport {
            generation: cur.number,
            old_log_bytes,
            new_log_bytes,
            reclaimed_bytes: old_log_bytes.saturating_sub(new_log_bytes),
        };
        Ok((report, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    const MAGIC_A: u64 = 0x5445_5354_4d41_4731; // "TESTMAG1"
    const MAGIC_B: u64 = 0x5445_5354_4d41_4732;

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: TestCounter = TestCounter::new(0);
        let d = std::env::temp_dir().join(format!(
            "recordlog-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn rec(a: u64, payload: &[u8]) -> Record<'_> {
        Record {
            magic: MAGIC_A,
            a,
            b: a * 2,
            c: a * 3,
            payload,
        }
    }

    #[test]
    fn opened_bytes_counts_a_tail_no_marker_covers() {
        let dir = tmp_dir("opened");
        let (log, _) = RecordLog::open(&dir, "test", RecordLogOptions::default()).unwrap();
        assert_eq!(log.opened_bytes(), 0, "a fresh log");
        drop(log);
        // A record no marker covers: nothing replays and appends resume
        // at 0, but the file held bytes.
        let torn = Image::default().record(1, b"torn");
        std::fs::write(dir.join("test.g0.log"), &torn.0).unwrap();
        let (log, replayed) = RecordLog::open(&dir, "test", RecordLogOptions::default()).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(log.log_bytes(), 0);
        assert_eq!(log.opened_bytes(), torn.end());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_single_and_batch() {
        let dir = tmp_dir("roundtrip");
        {
            let (log, replayed) =
                RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open fresh log");
            assert!(replayed.is_empty());
            log.append(rec(1, b"one")).unwrap();
            log.append_batch(&[rec(2, b"two"), rec(3, b"three")])
                .unwrap();
        }
        let (log, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen log");
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].payload, b"one");
        assert_eq!(replayed[2].a, 3);
        assert_eq!(replayed[2].payload, b"three");
        // Appends resume cleanly after a replayed reopen.
        log.append(rec(4, b"four")).unwrap();
        let (_, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen again");
        assert_eq!(replayed.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_stops_at_last_marker() {
        let dir = tmp_dir("torn");
        let path = {
            let (log, _) =
                RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
            log.append(rec(1, b"committed")).unwrap();
            log.path().to_path_buf()
        };
        // Simulate a crash mid-append: a record header with a payload
        // that never finished (digest mismatch).
        let tail = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let header = encode_header(MAGIC_A, 9, 9, 9, 100, payload_digest(b"intended"));
        write_at(&file, &header, tail).unwrap();
        write_at(&file, b"torn", tail + REC_HEADER).unwrap();
        drop(file);
        let (_, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen");
        assert_eq!(replayed.len(), 1, "torn tail is invisible");
        assert_eq!(replayed[0].payload, b"committed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_records_do_not_replay() {
        let dir = tmp_dir("uncommitted");
        let path = {
            let (log, _) =
                RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
            log.append(rec(1, b"acked")).unwrap();
            log.path().to_path_buf()
        };
        // A fully valid record *without* a covering marker (crash after
        // the record write, before the group commit sealed).
        let tail = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let payload = b"never-acked";
        let header = encode_header(
            MAGIC_B,
            7,
            14,
            21,
            payload.len() as u64,
            payload_digest(payload),
        );
        write_at(&file, &header, tail).unwrap();
        write_at(&file, payload, tail + REC_HEADER).unwrap();
        drop(file);
        let (log, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen");
        assert_eq!(replayed.len(), 1, "uncommitted record must not surface");
        // The next append overwrites the dangling record and commits.
        log.append(rec(2, b"after")).unwrap();
        let (_, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen 2");
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].payload, b"after");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_swaps_generation_and_drops_history() {
        let dir = tmp_dir("rewrite");
        let (mut log, _) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
        for i in 0..10 {
            log.append(rec(i, b"bulk")).unwrap();
        }
        let before = log.log_bytes();
        log.rewrite(&[rec(99, b"checkpoint")]).unwrap();
        assert!(log.log_bytes() < before);
        assert!(log.path().to_string_lossy().contains(".g1.log"));
        // Appends after a rewrite land in the new generation.
        log.append(rec(100, b"incremental")).unwrap();
        drop(log);
        let (log, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen");
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].a, 99);
        assert_eq!(replayed[1].a, 100);
        assert!(
            !dir.join("test.g0.log").exists(),
            "old generation unlinked after rewrite"
        );
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_all_replay() {
        let dir = tmp_dir("concurrent");
        let (log, _) = RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
        let log = std::sync::Arc::new(log);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        log.append(rec(t * 1000 + i, b"payload")).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        drop(log);
        let (_, replayed) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("reopen");
        assert_eq!(replayed.len(), 200);
        let mut ids: Vec<u64> = replayed.iter().map(|r| r.a).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "every append replays exactly once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        // Hostile bytes: any file content must open to `Ok` (with
        // whatever committed prefix validates) or a typed error —
        // never a panic, never an out-of-bounds read.
        #[test]
        fn hostile_bytes_never_panic(bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096)) {
            let dir = tmp_dir("hostile");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("test.g0.log"), &bytes).unwrap();
            let _ = RecordLog::open(&dir, "test", RecordLogOptions::default());
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Truncating a valid log at any point never panics and never
        // surfaces a record that was not fully committed.
        #[test]
        fn truncation_never_panics(cut in 0usize..600) {
            let dir = tmp_dir("truncate");
            {
                let (log, _) =
                    RecordLog::open(&dir, "test", RecordLogOptions::default()).unwrap();
                log.append_batch(&[rec(1, b"alpha"), rec(2, b"beta")]).unwrap();
                log.append(rec(3, b"gamma")).unwrap();
            }
            let path = dir.join("test.g0.log");
            let bytes = std::fs::read(&path).unwrap();
            let cut = cut.min(bytes.len());
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (_, replayed) =
                RecordLog::open(&dir, "test", RecordLogOptions::default()).unwrap();
            // Whatever replays must be an exact prefix of what was acked.
            let acked: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma"];
            proptest::prop_assert!(replayed.len() <= acked.len());
            for (r, want) in replayed.iter().zip(acked) {
                proptest::prop_assert_eq!(&r.payload[..], want);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Under `fsync_on_commit` a rewrite whose rename cannot be made
    /// durable must fail and leave the old generation serving — not
    /// acknowledge appends into a file whose name a power loss may
    /// drop. The failure is provoked by making the directory
    /// unreadable (the rename still works, opening the directory to
    /// sync it does not), which only binds an unprivileged user: as
    /// root the directory opens anyway and the test has nothing to see.
    #[test]
    fn strict_rewrite_undoes_a_rename_it_cannot_make_durable() {
        use std::os::unix::fs::PermissionsExt;
        let dir = tmp_dir("strict-install");
        let strict = RecordLogOptions {
            fsync_on_commit: true,
            ..RecordLogOptions::default()
        };
        let (mut log, _) = RecordLog::open(&dir, "test", strict).expect("open");
        log.append(rec(1, b"kept")).unwrap();
        let set_mode = |mode| std::fs::set_permissions(&dir, PermissionsExt::from_mode(mode));
        set_mode(0o300).unwrap();
        if File::open(&dir).is_ok() {
            set_mode(0o700).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            return;
        }
        let refused = log.rewrite(&[rec(9, b"checkpoint")]);
        set_mode(0o700).unwrap();
        assert_eq!(refused, Err(LogError::Io("sync log dir")));
        assert!(log.path().ends_with("test.g0.log"), "old generation serves");
        assert!(!dir.join("test.g1.log").exists(), "rename undone");
        assert!(!dir.join("test.g1.log.tmp").exists(), "staged file removed");
        log.append(rec(2, b"still appendable")).unwrap();
        drop(log);
        let (_, replayed) = RecordLog::open(&dir, "test", strict).expect("reopen");
        assert_eq!(replayed.iter().map(|r| r.a).collect::<Vec<_>>(), [1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A handcrafted log image for the replay table.
    #[derive(Default)]
    struct Image(Vec<u8>);

    impl Image {
        fn record(mut self, a: u64, payload: &[u8]) -> Self {
            let len = payload.len() as u64;
            self.0.extend_from_slice(&encode_header(
                MAGIC_A,
                a,
                0,
                0,
                len,
                payload_digest(payload),
            ));
            self.0.extend_from_slice(payload);
            self
        }

        fn marker(mut self, seq: u64, covered_from: u64) -> Self {
            self.0
                .extend_from_slice(&encode_header(COMMIT_MAGIC, seq, covered_from, 0, 0, 0));
            self
        }

        /// A tombstone over `len` bytes of whatever the failed write
        /// left behind.
        fn tombstone(mut self, len: usize) -> Self {
            self.0
                .extend_from_slice(&encode_header(TOMBSTONE_MAGIC, 0, 0, 0, len as u64, 0));
            self.0.extend(std::iter::repeat_n(0xAB, len));
            self
        }

        fn flip(mut self, at: usize) -> Self {
            self.0[at] ^= 0xFF;
            self
        }

        fn end(&self) -> u64 {
            self.0.len() as u64
        }
    }

    #[test]
    fn replay_table_every_crash_shape_over_vec_and_mapping() {
        // Every shape shares the committed prefix `record 1 | marker 0`
        // (ends at 48 + 5 + 48 = 101) and differs in what follows.
        let prefix = || Image::default().record(1, b"first").marker(0, 0);
        let first = prefix().end();
        let second_payload = first as usize + 48;
        let second_marker = second_payload + 6;
        /// Visible records' `a` words + where appends resume.
        type Outcome = (Vec<u64>, ResumePoint);
        let committed_prefix: Outcome = (
            vec![1],
            ResumePoint {
                durable: first,
                next_seq: 1,
            },
        );
        let cases: Vec<(&str, Image, Outcome)> = vec![
            (
                "torn payload: no marker beyond the tear commits anything",
                prefix()
                    .record(2, b"second")
                    .marker(1, first)
                    .flip(second_payload + 3),
                committed_prefix.clone(),
            ),
            (
                "torn marker",
                prefix()
                    .record(2, b"second")
                    .marker(1, first)
                    .flip(second_marker + 9),
                committed_prefix.clone(),
            ),
            (
                "checksum-valid marker out of sequence",
                prefix().record(2, b"second").marker(7, first),
                committed_prefix.clone(),
            ),
            (
                "checksum-valid marker with the wrong coverage word",
                prefix().record(2, b"second").marker(1, first + 8),
                committed_prefix.clone(),
            ),
            (
                "record past the last marker was never acknowledged",
                prefix().record(2, b"second"),
                committed_prefix.clone(),
            ),
            {
                let image = prefix().record(2, b"second").tombstone(32).marker(1, first);
                let at = ResumePoint {
                    durable: image.end(),
                    next_seq: 2,
                };
                (
                    "tombstone directly before a marker is stepped over",
                    image,
                    (vec![1, 2], at),
                )
            },
        ];
        let dir = tmp_dir("replay-table");
        std::fs::create_dir_all(&dir).unwrap();
        for (name, image, want) in cases {
            let run = |buf: &[u8]| {
                let mut seen = Vec::new();
                let at = replay(buf, |r| {
                    assert_eq!(&buf[r.payload.clone()], &image.0[r.payload.clone()]);
                    seen.push(r.a);
                });
                (seen, at)
            };
            assert_eq!(run(&image.0), want, "{name} (vec)");
            // The page log's shape: the image at the head of a sparse,
            // pre-sized, memory-mapped file.
            let path = dir.join("image.log");
            std::fs::write(&path, &image.0).unwrap();
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            file.set_len(image.end() + 8192).unwrap();
            let map = crate::PageBuf::map_file(&file).unwrap();
            assert_eq!(run(map.as_slice()), want, "{name} (mapped)");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_appender_refuses_a_reservation_without_marker_headroom() {
        let dir = tmp_dir("bounded");
        std::fs::create_dir_all(&dir).unwrap();
        let footprint = REC_HEADER + 7;
        let open = |capacity: u64| {
            // (one generation file per appender; the number is just a name)
            let (file, _) = open_generation(&dir, "cap", capacity).unwrap();
            let opts = RecordLogOptions::default();
            Appender::new(file, capacity, opts, ResumePoint::default())
        };
        // The record fits, the marker that must seal it does not: the
        // typed error, and nothing reserved.
        let tight = open(footprint + REC_HEADER - 1);
        assert_eq!(tight.append(rec(1, b"payload")), Err(LogError::Full));
        assert_eq!(tight.log_bytes(), 0, "failed reservation reserves nothing");
        // One more byte of capacity and it commits, payload offset back.
        let exact = open(footprint + REC_HEADER);
        assert_eq!(exact.append(rec(1, b"payload")), Ok(REC_HEADER));
        assert_eq!(exact.log_bytes(), footprint + REC_HEADER);
        assert_eq!(exact.append(rec(2, b"")), Err(LogError::Full));
        assert_eq!(exact.log_bytes(), footprint + REC_HEADER);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A payload with no zero byte, so zeroing any suffix changes it.
    fn nonzero_payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 % 255) as u8 + 1).collect()
    }

    /// Every single-bit flip among `positions`, every zeroed suffix
    /// starting at one of `cuts`, and every swap of two differing
    /// whole-block words in different lanes among `words` changes the
    /// digest of `data`.
    fn assert_detects(
        data: &[u8],
        positions: impl IntoIterator<Item = usize>,
        cuts: impl IntoIterator<Item = usize>,
        words: &[usize],
    ) {
        let len = data.len();
        let clean = payload_digest(data);
        let mut probe = data.to_vec();
        for at in positions {
            for bit in 0..8 {
                probe[at] ^= 1 << bit;
                assert_ne!(
                    payload_digest(&probe),
                    clean,
                    "len {len}: bit {bit} of byte {at}"
                );
                probe[at] ^= 1 << bit;
            }
        }
        for cut in cuts {
            probe[cut..].fill(0);
            assert_ne!(
                payload_digest(&probe),
                clean,
                "len {len}: suffix zeroed from {cut}"
            );
            probe[cut..].copy_from_slice(&data[cut..]);
        }
        let whole = len / 64 * 8;
        for &i in words.iter().filter(|&&i| i < whole) {
            for &k in words.iter().filter(|&&k| k < whole && k % 8 != i % 8) {
                let (wi, wk) = (i * 8..i * 8 + 8, k * 8..k * 8 + 8);
                if data[wi.clone()] == data[wk.clone()] {
                    continue;
                }
                probe[wi.clone()].copy_from_slice(&data[wk.clone()]);
                probe[wk.clone()].copy_from_slice(&data[wi.clone()]);
                assert_ne!(
                    payload_digest(&probe),
                    clean,
                    "len {len}: words {i} and {k} swapped"
                );
                probe[wi.clone()].copy_from_slice(&data[wi]);
                probe[wk.clone()].copy_from_slice(&data[wk]);
            }
        }
        assert_eq!(probe, data, "every probe restored");
    }

    #[test]
    fn digest_detects_flips_torn_tails_and_cross_lane_swaps() {
        // Every length up to three blocks plus a tail, and the block
        // edges: exhaustive over bits, suffixes and word pairs.
        let all_words: Vec<usize> = (0..32).collect();
        for len in (0..=200).chain([63, 64, 65, 127, 128, 129]) {
            let data = nonzero_payload(len);
            assert_detects(&data, 0..len, 0..len, &all_words);
        }
        // A 256 KiB page at seeded positions.
        let len = 256 * 1024;
        let data = nonzero_payload(len);
        let mut seed = 0x5eed_d16e_5700_0001_u64;
        let mut pick = |n: usize| (splitmix64(&mut seed) % n as u64) as usize;
        let positions: Vec<usize> = (0..48).map(|_| pick(len)).chain([0, len - 1]).collect();
        let cuts: Vec<usize> = (0..48).map(|_| pick(len)).chain([0, len - 1]).collect();
        let words: Vec<usize> = (0..24).map(|_| pick(len / 8)).collect();
        assert_detects(&data, positions, cuts, &words);
    }

    #[test]
    fn digest_of_a_fixed_pattern_is_pinned() {
        // Any edit to the digest's definition lands here, by name,
        // before it shows up as drifted golden images.
        let pattern: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(payload_digest(&pattern), DIGEST_1K_PATTERN);
        assert_eq!(payload_digest(&[]), DIGEST_EMPTY);
    }
    // Cross-checked against an independent implementation of the
    // module docs' definition.
    const DIGEST_1K_PATTERN: u64 = 0x2c10_742d_0f4c_d5b9;
    const DIGEST_EMPTY: u64 = 0xa665_a3dc_1ec1_29f7;

    #[test]
    fn retired_formats_are_refused_untouched() {
        let retired = |magic: u64| {
            let mut header = encode_header(MAGIC_A, 1, 0, 0, 5, payload_digest(b"old!!"));
            header[..8].copy_from_slice(&magic.to_le_bytes());
            [
                &header[..],
                b"old!!",
                &encode_header(COMMIT_MAGIC, 0, 0, 0, 0, 0),
            ]
            .concat()
        };
        let heads = tmp_dir("heads");
        std::fs::create_dir_all(&heads).unwrap();
        let check_image = |image: &[u8]| {
            let path = heads.join("head.log");
            std::fs::write(&path, image).unwrap();
            check_format(&File::open(&path).unwrap())
        };
        let tomb = encode_header(TOMBSTONE_MAGIC, 0, 0, 0, 16, 0);
        let marker = encode_header(COMMIT_MAGIC, 0, 0, 0, 0, 0);
        for magic in RETIRED_MAGICS {
            let image = retired(magic);
            assert_eq!(
                check_image(&image),
                Err(LogError::RetiredFormat { offset: 0 })
            );
            // Behind the header-only records a failed first append can
            // leave at the head.
            let behind = [&tomb[..], &[0xAB; 16], &marker, &image].concat();
            assert_eq!(
                check_image(&behind),
                Err(LogError::RetiredFormat { offset: 112 })
            );
            // RecordLog::open refuses before it resumes or appends: the
            // file is byte-identical and no generation is added.
            let dir = tmp_dir("retired");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("test.g0.log");
            std::fs::write(&path, &image).unwrap();
            let refused = RecordLog::open(&dir, "test", RecordLogOptions::default());
            assert_eq!(refused.err(), Some(LogError::RetiredFormat { offset: 0 }));
            assert_eq!(std::fs::read(&path).unwrap(), image);
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
        // The current format (also sparse-padded, as the page log
        // leaves it), an empty log, a bare marker and a tombstone whose
        // range runs past the end pass.
        let current = Image::default().record(1, b"new").marker(0, 0);
        assert_eq!(check_image(&current.0), Ok(()));
        assert_eq!(check_image(&[current.0, vec![0; 4096]].concat()), Ok(()));
        assert_eq!(check_image(&[]), Ok(()));
        assert_eq!(check_image(&marker), Ok(()));
        assert_eq!(check_image(&tomb), Ok(()));
        let _ = std::fs::remove_dir_all(&heads);
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn golden_image_pins_the_record_log_format() {
        let dir = tmp_dir("golden");
        let (mut log, _) =
            RecordLog::open(&dir, "test", RecordLogOptions::default()).expect("open");
        log.append(rec(1, b"one")).unwrap();
        log.append_batch(&[rec(2, b"two"), rec(3, b"")]).unwrap();
        assert_eq!(
            fnv1a(&std::fs::read(dir.join("test.g0.log")).unwrap()),
            GOLDEN_G0,
            "generation 0 image drifted"
        );
        log.rewrite(&[rec(9, b"checkpoint")]).unwrap();
        log.append(rec(10, b"after")).unwrap();
        assert_eq!(
            fnv1a(&std::fs::read(dir.join("test.g1.log")).unwrap()),
            GOLDEN_G1,
            "generation 1 image drifted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Re-pinned for the eight-lane digest (was 18291613202746257468 /
    // 17551492787344416262 under the single chain). Byte diff of the
    // old images against these: both are the same length (246 and 207
    // bytes) and differ only in bytes 40..48 — the check word — of the
    // five payload records (g0 at offsets 0, 99, 150; g1 at 0, 106;
    // the empty payload included). The test magic is not bumped, and
    // payloads and markers are identical.
    const GOLDEN_G0: u64 = 648087245581547038;
    const GOLDEN_G1: u64 = 15581045687951484820;
}
