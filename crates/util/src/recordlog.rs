//! The record-then-commit append-only log engine — the one copy of the
//! crash protocol every durable component journals through.
//!
//! A log is a sequence of records, each a compact header and a payload
//! (see "The format"), and nothing is acknowledged until a **commit
//! marker** covering it is on disk (optionally fsynced). Replay makes
//! records visible marker by marker and stops at the first invalid or
//! out-of-sequence record, so a torn tail can never surface
//! un-acknowledged state. A log lives in a directory as
//! `<base>.g<N>.log` **generation** files; a rewrite stages the next
//! generation under a `.tmp` name, seals and fsyncs it, renames it, and
//! unlinks the predecessor, so a crash at any point leaves exactly one
//! winner.
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
//!   committed records (header fields + payload *range*) marker by
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
//! # The format
//!
//! Every record — a client's, a commit marker, a tombstone, the file
//! header — starts with one header:
//!
//! | bytes  | field                                        |
//! |--------|----------------------------------------------|
//! | 1      | kind                                         |
//! | 1–10   | `a`, a varint                                |
//! | 1–10   | `b`, a varint                                |
//! | 1–10   | `c`, a varint                                |
//! | 1–10   | `len`, a varint: the payload bytes that follow |
//! | 8      | check word, little-endian                    |
//!
//! The varints are [`crate::varint`]'s LEB128 — shortest encoding
//! only, the codec the wire format's tree nodes use — so a header of
//! small numbers takes 13 B, and [`footprint`] says exactly what a
//! record takes. Kinds 1–3 are the engine's:
//!
//! * 1, the **format header**: `a` names the client ([`Client`]) and
//!   `b` its format number; no payload. Every generation file starts
//!   with exactly one.
//! * 2, a **commit marker**: `a` is its sequence number and `b` the
//!   offset the previous marker sealed up to (the format header's end
//!   for the first); no payload. It commits every record between that
//!   offset and itself.
//! * 3, a **tombstone**: a reserved range whose write failed while
//!   later appenders had already reserved beyond it. Its `len` spans the
//!   range (with `a` = 128 where a varint boundary would leave one byte
//!   over), and replay steps over it instead of stopping, so the records
//!   committed *after* the failure stay recoverable.
//!
//! Kinds from [`FIRST_CLIENT_KIND`] up are each client's own, and so are
//! their `a`, `b` and `c`. Kind 0 is no record: the zeros of a sparse or
//! freshly created file end replay.
//!
//! # The format number
//!
//! [`claim_format`] — run by every client on the generation file before
//! it resumes, rewrites or appends — compares the file's header with the
//! client's [`Format`]. A head of zeros (an empty file, or one whose
//! header never reached the disk) is a fresh log: it gets its header
//! then, with one positioned write and no fsync; under `fsync_on_commit`
//! the first marker's sync makes it durable with the records. Anything
//! else at the head — another client's header, another format number,
//! or a log written before the header existed (48-byte record headers
//! that start with an 8-byte magic) — is [`LogError::WrongFormat`], and
//! the file is left as it was. So a client changes its record format by
//! changing one number.
//!
//! # The check word and the payload digest
//!
//! A header's check word is a chain of splitmix64 steps over the kind,
//! `a`, `b`, `c`, `len` and [`payload_digest`] of the payload (markers,
//! tombstones and the format header fold digest 0). Each step is a
//! bijection of its state, so a header that differs in exactly one field
//! always checks differently; a flip that changes how the varints parse
//! also moves every later field and the check word itself, and passes
//! only if 64 bits collide.
//!
//! The digest is built from one step,
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

use crate::combine::Combiner;
use crate::rng::splitmix64;
use crate::varint;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Kind of the format header every generation file starts with.
const FORMAT_KIND: u8 = 1;

/// Kind of a commit marker.
pub const COMMIT_KIND: u8 = 2;

/// Kind of a tombstone.
pub const TOMBSTONE_KIND: u8 = 3;

/// The first kind a client's records may take; the kinds below are the
/// engine's (0 ends replay).
pub const FIRST_CLIENT_KIND: u8 = 4;

/// Bytes of the check word that ends every header.
const CHECK_BYTES: usize = 8;

/// The most bytes a header takes: the kind, four ten-byte varints and
/// the check word.
const MAX_HEADER: usize = 1 + 4 * varint::MAX_LEN + CHECK_BYTES;

/// The clients of the engine, each with its own file base name and its
/// own record kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Client {
    /// The provider's page log, `pages.g<N>.log`.
    PageLog = 1,
    /// A DHT node's metadata journal, `meta.g<N>.log`.
    Metadata = 2,
    /// The version manager's journal, `version.g<N>.log`.
    Version = 3,
}

impl Client {
    /// The base name of the client's generation files.
    pub fn base(self) -> &'static str {
        ["pages", "meta", "version"][self as usize - 1]
    }
}

/// What a log's format header names: the client, and the number of the
/// record format it writes. A client that changes what its records hold
/// raises the number, and a log of another number is refused at open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Format {
    /// Whose log it is.
    pub client: Client,
    /// The client's record format number.
    pub number: u64,
}

impl Format {
    /// The format header record.
    pub fn header(self) -> Vec<u8> {
        header(FORMAT_KIND, self.client as u64, self.number, 0, 0, 0)
    }

    /// Where a log of this format appends its first record: after the
    /// format header, before any marker — what a replay of the bare
    /// header returns.
    pub fn start(self) -> ResumePoint {
        replay(&self.header(), |_| ())
    }
}

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

/// The header check word: a splitmix64 chain over the kind, every
/// header field and the payload digest (see the module docs).
pub fn check_word(kind: u8, a: u64, b: u64, c: u64, len: u64, digest: u64) -> u64 {
    [a, b, c, len, digest]
        .into_iter()
        .fold(u64::from(kind), |acc, word| splitmix64(&mut (acc ^ word)))
}

/// The bytes a record with fields `a`, `b`, `c` and a `len`-byte
/// payload takes in a log: its header and its payload. Every log's
/// live and dead bytes are counted from it.
pub fn footprint(a: u64, b: u64, c: u64, len: u64) -> u64 {
    let varints: usize = [a, b, c, len].into_iter().map(varint::len).sum();
    (1 + varints + CHECK_BYTES) as u64 + len
}

/// One record header (see the module docs): the kind, varint `a`, `b`,
/// `c` and `len`, then the check word over them and the payload's
/// `digest` (0 for the engine's kinds).
pub fn header(kind: u8, a: u64, b: u64, c: u64, len: u64, digest: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAX_HEADER);
    out.push(kind);
    for field in [a, b, c, len] {
        varint::put(&mut out, field);
    }
    out.extend_from_slice(&check_word(kind, a, b, c, len, digest).to_le_bytes());
    out
}

/// The commit marker of sequence number `seq`, sealing everything from
/// `covered_from` to itself.
fn marker(seq: u64, covered_from: u64) -> Vec<u8> {
    header(COMMIT_KIND, seq, covered_from, 0, 0, 0)
}

/// A tombstone that, with the payload bytes it declares, spans exactly
/// `span` bytes; `None` below the smallest header. Twelve of its bytes
/// are fixed (the kind, one-byte `a`, `b` and `c`, the check word), and
/// `len` and its varint take the rest — but for the one byte a shorter
/// `len` varint can leave over, which `a` = 128 takes.
fn tombstone(span: u64) -> Option<Vec<u8>> {
    let rest = span.checked_sub(12)?;
    let len = rest.checked_sub(varint::len(rest) as u64)?;
    let over = rest - len - varint::len(len) as u64;
    Some(header(TOMBSTONE_KIND, over * 128, 0, 0, len, 0))
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
    /// The file's head is neither zeros nor the client's format header
    /// ([`claim_format`]). The file is left untouched.
    WrongFormat,
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
            LogError::WrongFormat => "log file does not start with this format's header",
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
/// carries the same two fields plus its compaction thresholds); both
/// off by default.
#[derive(Debug, Clone, Copy, Default)]
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

/// One record to append: its client's kind, header fields and payload.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    /// Record kind, [`FIRST_CLIENT_KIND`] or above (the client's own).
    pub kind: u8,
    /// First header field.
    pub a: u64,
    /// Second header field.
    pub b: u64,
    /// Third header field.
    pub c: u64,
    /// Payload bytes (digest-protected).
    pub payload: &'a [u8],
}

impl Record<'_> {
    /// The bytes the record takes in a log ([`footprint`]).
    pub fn footprint(&self) -> u64 {
        footprint(self.a, self.b, self.c, self.payload.len() as u64)
    }

    /// Land `header | payload` at `off` with two positioned writes;
    /// returns the payload's offset.
    fn write_to(&self, file: &File, off: u64) -> std::io::Result<u64> {
        debug_assert!(self.kind >= FIRST_CLIENT_KIND, "a client kind");
        let len = self.payload.len() as u64;
        let digest = payload_digest(self.payload);
        let header = header(self.kind, self.a, self.b, self.c, len, digest);
        write_at(file, &header, off)?;
        let payload_at = off + header.len() as u64;
        write_at(file, self.payload, payload_at)?;
        Ok(payload_at)
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// One committed record surfaced by [`replay`]: the header fields and
/// the payload — where it sits in the replayed bytes, or (an
/// [`OwnedRecord`]) a copy of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordRef<P = Range<usize>> {
    /// Record kind.
    pub kind: u8,
    /// First header field.
    pub a: u64,
    /// Second header field.
    pub b: u64,
    /// Third header field.
    pub c: u64,
    /// Byte offset of the record header in the log (error context for
    /// callers whose payload decode fails).
    pub offset: u64,
    /// The payload's byte range in the replayed buffer, or its bytes.
    pub payload: P,
}

/// One committed record surfaced by [`RecordLog::open`], its payload
/// copied out.
pub type OwnedRecord = RecordRef<Vec<u8>>;

/// Where appends continue after a replay (or after a sealed
/// [`GenerationWriter`]): everything below `durable` is marker-sealed,
/// and the next marker carries `next_seq`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumePoint {
    /// End of the last valid in-sequence marker (of the format header
    /// before the first marker).
    pub durable: u64,
    /// Sequence number the next marker must carry.
    pub next_seq: u64,
}

/// One parsed record.
enum Parsed {
    Format,
    Payload(RecordRef),
    Tombstone,
    Commit { seq: u64, covered_from: u64 },
}

/// Parse the record at `off`, returning it with the offset one past
/// its end; `None` is no valid record (kind 0, torn, corrupt, out of
/// bounds) — replay ends at the last durable point before it. Reads
/// only what the header declares, and allocates nothing.
fn parse_record(buf: &[u8], off: usize) -> Option<(Parsed, usize)> {
    let kind = *buf.get(off).filter(|&&kind| kind != 0)?;
    let mut at = off + 1;
    let mut fields = [0u64; 4];
    for field in &mut fields {
        let (value, width) = varint::take(buf.get(at..)?).ok()?;
        *field = value;
        at += width;
    }
    let [a, b, c, len] = fields;
    let check = buf.get(at..at.checked_add(CHECK_BYTES)?)?;
    let check = u64::from_le_bytes(check.try_into().ok()?);
    let body = at + CHECK_BYTES;
    let end = body.checked_add(usize::try_from(len).ok()?)?;
    let payload = buf.get(body..end)?;
    // The engine's records check the header only: they have no payload,
    // and a tombstone's range is whatever the failed write left behind.
    let digest = match kind {
        FORMAT_KIND | COMMIT_KIND | TOMBSTONE_KIND => 0,
        _ => payload_digest(payload),
    };
    if check != check_word(kind, a, b, c, len, digest) {
        return None;
    }
    let parsed = match kind {
        FORMAT_KIND | COMMIT_KIND if len != 0 => return None,
        FORMAT_KIND => Parsed::Format,
        COMMIT_KIND => Parsed::Commit {
            seq: a,
            covered_from: b,
        },
        TOMBSTONE_KIND => Parsed::Tombstone,
        _ => Parsed::Payload(RecordRef {
            kind,
            a,
            b,
            c,
            offset: off as u64,
            payload: body..end,
        }),
    };
    Some((parsed, end))
}

/// Replay a log image that starts with its format header
/// ([`claim_format`] checked it): `visit` sees every **committed**
/// record in append order, marker by marker — a record becomes visible
/// only once a valid commit marker with the expected sequence number
/// and coverage offset follows it. Replay ends at the first invalid
/// record (kind 0 among them: the zeros past a sparse file's records),
/// or at a checksum-valid marker that is out of sequence or claims the
/// wrong coverage (stale bytes from an earlier incarnation, not a
/// commit); tombstones are stepped over. Everything beyond the returned
/// [`ResumePoint`] — complete-but-uncommitted records included — was
/// never acknowledged, and appends resume over it. An image without a
/// format header replays nothing.
pub fn replay(buf: &[u8], mut visit: impl FnMut(RecordRef)) -> ResumePoint {
    let Some((Parsed::Format, start)) = parse_record(buf, 0) else {
        return ResumePoint::default();
    };
    let mut at = ResumePoint {
        durable: start as u64,
        next_seq: 0,
    };
    let mut pending: Vec<RecordRef> = Vec::new();
    let mut off = start;
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
            // A log has one format header, at its head.
            Parsed::Format => break,
        }
        off = end;
    }
    at
}

/// Claim a log file for `format` before anything resumes, rewrites or
/// appends over it: a head holding the format header is the client's
/// log; a head of zeros (an empty file, or one whose header never
/// reached the disk) is a fresh log, which gets its format header now —
/// one positioned write, no fsync — and appends from [`Format::start`].
/// Anything else is [`LogError::WrongFormat`], and the file is left
/// byte-identical: [`replay`] alone would open such a log as empty and
/// let appends overwrite it. Reads at most one header's bytes, with a
/// positioned read; an empty file reads nothing (a read of a sparse
/// file's hole would fault a readahead window of zeros in).
pub fn claim_format(file: &File, format: Format) -> Result<(), LogError> {
    use std::os::unix::fs::FileExt;
    let size = file
        .metadata()
        .map_err(|_| LogError::Io("stat log file"))?
        .len();
    let mut head = [0u8; MAX_HEADER];
    let head = &mut head[..usize::try_from(size).map_or(MAX_HEADER, |n| n.min(MAX_HEADER))];
    file.read_exact_at(head, 0)
        .map_err(|_| LogError::Io("read log head"))?;
    let ours = format.header();
    match &head[..] {
        head if head.starts_with(&ours) => Ok(()),
        head if head.iter().all(|&b| b == 0) => {
            write_at(file, &ours, 0).map_err(|_| LogError::Io("write log header"))
        }
        _ => Err(LogError::WrongFormat),
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

/// The headroom an append keeps below `capacity` for the marker that
/// must seal it: the largest marker a log of that capacity can write,
/// whose sequence number and coverage offset are both below it.
fn marker_headroom(capacity: u64) -> u64 {
    footprint(capacity, capacity, 0, 0)
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

    /// Current log size in bytes (reserved tail, the format header,
    /// record headers and markers included).
    pub fn log_bytes(&self) -> u64 {
        self.tail.load(Ordering::Relaxed)
    }

    /// Append one record, block until a commit marker covers it, and
    /// return the file offset of its **payload**.
    pub fn append(&self, rec: Record<'_>) -> Result<u64, LogError> {
        let at = self.append_batch(std::slice::from_ref(&rec))?;
        Ok(at + rec.footprint() - rec.payload.len() as u64)
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
                cur.checked_add(total + marker_headroom(self.capacity))
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
        self.bury(start, end);
        // Either way the range is settled — committers must not stall
        // waiting for it.
        self.complete(start, end);
        LogError::WriteFailed {
            wasted: end - start,
        }
    }

    /// Brand the reserved range `[start, end)` a tombstone replay steps
    /// over; if it cannot be written, poison the log.
    fn bury(&self, start: u64, end: u64) {
        let landed =
            tombstone(end - start).is_some_and(|tomb| write_at(&self.file, &tomb, start).is_ok());
        if !landed {
            self.poison();
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
    /// fsync. Rounds never overlap, so the marker's sequence number and
    /// coverage — hence its size — are known before its slot is.
    fn seal(&self) -> Result<(), LogError> {
        let (seq, covered_from) = {
            let st = self.commit.lock();
            (st.next_seq, st.durable)
        };
        let marker = marker(seq, covered_from);
        let size = marker.len() as u64;
        let marker_at = self
            .tail
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                cur.checked_add(size)
                    .filter(|&projected| projected <= self.capacity)
            })
            .map_err(|_| LogError::Full)?;
        {
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
        }
        let sealed_to = marker_at + size;
        if write_at(&self.file, &marker, marker_at).is_err() {
            // The marker slot would be an un-skippable hole: a later
            // marker could commit records replay can never reach. Brand
            // the slot a tombstone so replay steps over it; if even
            // that fails, poison the log.
            self.bury(marker_at, sealed_to);
            self.complete(marker_at, sealed_to);
            return Err(LogError::CommitFailed);
        }
        if self.opts.fsync_on_commit && self.file.sync_data().is_err() {
            // The marker bytes may or may not be durable; conservatively
            // stop acknowledging anything further.
            self.poison();
            self.complete(marker_at, sealed_to);
            return Err(LogError::CommitFailed);
        }
        {
            let mut st = self.commit.lock();
            st.next_seq = seq + 1;
            st.durable = sealed_to;
        }
        self.complete(marker_at, sealed_to);
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

/// Writes the next generation of a log: its format header and records
/// land in `<base>.g<N>.log.tmp`, [`seal`](Self::seal) commits them
/// under a marker and fsyncs, [`install`](Self::install) renames the file into
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
    /// Stage generation `number` of a `format` log under `dir`, holding
    /// at most `cap` bytes, and write its format header.
    pub fn create(dir: &Path, format: Format, number: u64, cap: u64) -> Result<Self, LogError> {
        let name = generation_file_name(format.client.base(), number);
        let path = dir.join(&name);
        let tmp = TmpName(dir.join(format!("{name}.tmp")));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp.0)
            .map_err(|_| LogError::Io("create generation file"))?;
        write_at(&file, &format.header(), 0).map_err(|_| LogError::Io("write log header"))?;
        let start = format.start();
        Ok(Self {
            file,
            tmp,
            dir: dir.to_path_buf(),
            path,
            capacity: cap,
            off: start.durable,
            sealed: start,
        })
    }

    /// The staged file (the page log pre-sizes and maps it; a mapping
    /// is inode-based, so it survives the rename).
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Bytes staged so far (the format header, records and markers).
    pub fn log_bytes(&self) -> u64 {
        self.off
    }

    /// Stage one record, keeping headroom for the marker that must
    /// seal it; returns the file offset of its payload.
    pub fn put(&mut self, rec: Record<'_>) -> Result<u64, LogError> {
        let end = self.off + rec.footprint();
        if end
            .checked_add(marker_headroom(self.capacity))
            .is_none_or(|m| m > self.capacity)
        {
            return Err(LogError::Full);
        }
        let payload_at = rec
            .write_to(&self.file, self.off)
            .map_err(|_| LogError::Io("write generation record"))?;
        self.off = end;
        Ok(payload_at)
    }

    /// Commit everything staged since the previous seal under the next
    /// marker and fsync the file.
    pub fn seal(&mut self) -> Result<(), LogError> {
        let marker = marker(self.sealed.next_seq, self.sealed.durable);
        write_at(&self.file, &marker, self.off).map_err(|_| LogError::Io("seal generation"))?;
        self.file
            .sync_data()
            .map_err(|_| LogError::Io("sync generation"))?;
        self.off += marker.len() as u64;
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

/// A crash-consistent append-only record log on a plain file: an
/// unbounded [`Appender`] over the newest generation file of its
/// [`Format`] under a directory, replayed once at [`RecordLog::open`], swapped for a
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
    format: Format,
    gen: RwLock<Current>,
    /// One rewrite at a time.
    rewriting: Mutex<()>,
    /// `open` found the generation file holding its format header and
    /// nothing more.
    opened_empty: bool,
}

/// The generation appends go to.
#[derive(Debug)]
struct Current {
    number: u64,
    path: PathBuf,
    log: Appender,
}

impl RecordLog {
    /// Open (or create) the `format` log under `dir`
    /// ([`newest_generation`] picks the generation and removes the
    /// debris). Replays the survivor and returns every committed record
    /// in append order; appends resume at the last durable commit
    /// marker. A survivor whose head is not `format`'s header is refused
    /// untouched ([`claim_format`]). An error comes with the file it
    /// concerns: the generation file for anything that failed after it
    /// was opened (a wrong format, a failed read), `dir` before.
    pub fn open(
        dir: &Path,
        format: Format,
        opts: RecordLogOptions,
    ) -> Result<(Self, Vec<OwnedRecord>), (LogError, PathBuf)> {
        let in_dir = |e| (e, dir.to_path_buf());
        let base = format.client.base();
        let number = newest_generation(dir, base).map_err(in_dir)?;
        let (file, path) = open_generation(dir, base, number).map_err(in_dir)?;
        let in_file = |e| (e, path.clone());
        claim_format(&file, format).map_err(in_file)?;
        if opts.fsync_on_commit {
            sync_dir(dir, true).map_err(in_file)?;
        }
        let buf = std::fs::read(&path).map_err(|_| in_file(LogError::Io("read log file")))?;
        let mut visible: Vec<OwnedRecord> = Vec::new();
        let at = replay(&buf, |r| {
            visible.push(OwnedRecord {
                kind: r.kind,
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
            format,
            gen: RwLock::new(Current {
                number,
                path,
                log: Appender::new(file, u64::MAX, opts, at),
            }),
            rewriting: Mutex::new(()),
            opened_empty: buf.len() as u64 == format.start().durable,
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

    /// True when [`open`](Self::open) found the generation file holding
    /// its format header and nothing more — a fresh log — and false when
    /// it held anything more, an uncommitted tail included.
    pub fn opened_empty(&self) -> bool {
        self.opened_empty
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
        let next = GenerationWriter::create(&self.dir, self.format, number + 1, u64::MAX)?;
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

    const KIND_A: u8 = FIRST_CLIENT_KIND;
    const KIND_B: u8 = FIRST_CLIENT_KIND + 1;

    /// The format of the tests' logs.
    const TEST: Format = Format {
        client: Client::Metadata,
        number: 7,
    };

    /// The tests' first generation file.
    const G0: &str = "meta.g0.log";

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
            kind: KIND_A,
            a,
            b: a * 2,
            c: a * 3,
            payload,
        }
    }

    fn open(dir: &Path) -> Result<(RecordLog, Vec<OwnedRecord>), LogError> {
        RecordLog::open(dir, TEST, RecordLogOptions::default()).map_err(|(e, _)| e)
    }

    /// The header of a payload record of `kind` over `payload`.
    fn record_header(kind: u8, a: u64, b: u64, c: u64, payload: &[u8]) -> Vec<u8> {
        let len = payload.len() as u64;
        header(kind, a, b, c, len, payload_digest(payload))
    }

    /// A handcrafted log image: the format header, then whatever the
    /// shape under test appends.
    struct Image(Vec<u8>);

    impl Image {
        fn new() -> Self {
            Self(TEST.header().to_vec())
        }

        fn record(mut self, a: u64, payload: &[u8]) -> Self {
            self.0
                .extend_from_slice(&record_header(KIND_A, a, 0, 0, payload));
            self.0.extend_from_slice(payload);
            self
        }

        fn marker(mut self, seq: u64, covered_from: u64) -> Self {
            self.0.extend_from_slice(&marker(seq, covered_from));
            self
        }

        /// A tombstone spanning `span` bytes over whatever the failed
        /// write left behind.
        fn tombstone(mut self, span: u64) -> Self {
            let tomb = tombstone(span).unwrap();
            self.0.extend_from_slice(&tomb);
            self.0
                .extend(std::iter::repeat_n(0xAB, span as usize - tomb.len()));
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

    /// The `a` fields of the records `buf` replays, and where appends
    /// resume.
    fn replayed(buf: &[u8]) -> (Vec<u64>, ResumePoint) {
        let mut seen = Vec::new();
        let at = replay(buf, |r| seen.push(r.a));
        (seen, at)
    }

    #[test]
    fn a_fresh_log_is_its_format_header_and_opens_empty() {
        let dir = tmp_dir("fresh");
        let (log, replayed) = open(&dir).unwrap();
        assert!(replayed.is_empty());
        assert!(log.opened_empty(), "a fresh log");
        assert_eq!(log.log_bytes(), TEST.start().durable);
        drop(log);
        // The header alone: still nothing past it.
        assert_eq!(std::fs::read(dir.join(G0)).unwrap(), &TEST.header()[..]);
        let (log, _) = open(&dir).unwrap();
        assert!(log.opened_empty());
        drop(log);
        // A head of zeros is a log whose header never reached the disk:
        // it opens with no record, gets its header, and appends after it.
        std::fs::write(dir.join(G0), [0u8; 100]).unwrap();
        let (log, replayed) = open(&dir).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(log.log_bytes(), TEST.start().durable);
        log.append(rec(1, b"one")).unwrap();
        drop(log);
        let (log, replayed) = open(&dir).unwrap();
        assert_eq!(replayed.len(), 1);
        assert!(!log.opened_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opened_empty_is_false_for_a_tail_no_marker_covers() {
        let dir = tmp_dir("opened");
        std::fs::create_dir_all(&dir).unwrap();
        // A record no marker covers: nothing replays and appends resume
        // after the format header, but the file held bytes.
        let torn = Image::new().record(1, b"torn");
        std::fs::write(dir.join(G0), &torn.0).unwrap();
        let (log, replayed) = open(&dir).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(log.log_bytes(), TEST.start().durable);
        assert!(!log.opened_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn roundtrip_single_and_batch() {
        let dir = tmp_dir("roundtrip");
        {
            let (log, replayed) = open(&dir).expect("open fresh log");
            assert!(replayed.is_empty());
            log.append(rec(1, b"one")).unwrap();
            log.append_batch(&[rec(2, b"two"), rec(3, b"three")])
                .unwrap();
        }
        let (log, replayed) = open(&dir).expect("reopen log");
        assert_eq!(replayed.len(), 3);
        assert_eq!(replayed[0].payload, b"one");
        assert_eq!(replayed[2].a, 3);
        assert_eq!(replayed[2].payload, b"three");
        // Appends resume cleanly after a replayed reopen.
        log.append(rec(4, b"four")).unwrap();
        let (_, replayed) = open(&dir).expect("reopen again");
        assert_eq!(replayed.len(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_stops_at_last_marker() {
        let dir = tmp_dir("torn");
        let path = {
            let (log, _) = open(&dir).expect("open");
            log.append(rec(1, b"committed")).unwrap();
            log.path().to_path_buf()
        };
        // Simulate a crash mid-append: a record header with a payload
        // that never finished (digest mismatch).
        let tail = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let header = header(KIND_A, 9, 9, 9, 100, payload_digest(b"intended"));
        write_at(&file, &header, tail).unwrap();
        write_at(&file, b"torn", tail + header.len() as u64).unwrap();
        drop(file);
        let (_, replayed) = open(&dir).expect("reopen");
        assert_eq!(replayed.len(), 1, "torn tail is invisible");
        assert_eq!(replayed[0].payload, b"committed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_records_do_not_replay() {
        let dir = tmp_dir("uncommitted");
        let path = {
            let (log, _) = open(&dir).expect("open");
            log.append(rec(1, b"acked")).unwrap();
            log.path().to_path_buf()
        };
        // A fully valid record *without* a covering marker (crash after
        // the record write, before the group commit sealed).
        let tail = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        let payload = b"never-acked";
        let header = record_header(KIND_B, 7, 14, 21, payload);
        write_at(&file, &header, tail).unwrap();
        write_at(&file, payload, tail + header.len() as u64).unwrap();
        drop(file);
        let (log, replayed) = open(&dir).expect("reopen");
        assert_eq!(replayed.len(), 1, "uncommitted record must not surface");
        // The next append overwrites the dangling record and commits.
        log.append(rec(2, b"after")).unwrap();
        let (_, replayed) = open(&dir).expect("reopen 2");
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1].payload, b"after");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_swaps_generation_and_drops_history() {
        let dir = tmp_dir("rewrite");
        let (mut log, _) = open(&dir).expect("open");
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
        let (log, replayed) = open(&dir).expect("reopen");
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].a, 99);
        assert_eq!(replayed[1].a, 100);
        assert!(
            !dir.join(G0).exists(),
            "old generation unlinked after rewrite"
        );
        drop(log);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_all_replay() {
        let dir = tmp_dir("concurrent");
        let (log, _) = open(&dir).expect("open");
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
        let (_, replayed) = open(&dir).expect("reopen");
        assert_eq!(replayed.len(), 200);
        let mut ids: Vec<u64> = replayed.iter().map(|r| r.a).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 200, "every append replays exactly once");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A header field of one to ten varint bytes.
    fn any_width() -> impl proptest::Strategy<Value = u64> {
        use proptest::prelude::*;
        (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
    }

    proptest::proptest! {
        // Hostile bytes, with or without a valid format header before
        // them: any file content must open to `Ok` (with whatever
        // committed prefix validates) or a typed error — never a panic,
        // never an out-of-bounds read.
        #[test]
        fn hostile_bytes_never_panic(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
            headed in proptest::prelude::any::<bool>(),
        ) {
            let dir = tmp_dir("hostile");
            std::fs::create_dir_all(&dir).unwrap();
            let image = if headed { [&TEST.header()[..], &bytes].concat() } else { bytes };
            std::fs::write(dir.join(G0), &image).unwrap();
            let _ = open(&dir);
            let _ = std::fs::remove_dir_all(&dir);
        }

        // Truncating a valid log at any point never panics and never
        // surfaces a record that was not fully committed.
        #[test]
        fn truncation_never_panics(cut in 0usize..400) {
            let dir = tmp_dir("truncate");
            {
                let (log, _) = open(&dir).unwrap();
                log.append_batch(&[rec(1, b"alpha"), rec(2, b"beta")]).unwrap();
                log.append(rec(3, b"gamma")).unwrap();
            }
            let path = dir.join(G0);
            let bytes = std::fs::read(&path).unwrap();
            let cut = cut.min(bytes.len());
            std::fs::write(&path, &bytes[..cut]).unwrap();
            // A cut inside the format header leaves a head that is
            // neither zeros nor the header: refused, untouched.
            let Ok((_, replayed)) = open(&dir) else {
                proptest::prop_assert!(cut > 0 && cut < TEST.header().len());
                proptest::prop_assert_eq!(std::fs::read(&path).unwrap(), &bytes[..cut]);
                let _ = std::fs::remove_dir_all(&dir);
                return;
            };
            // Whatever replays must be an exact prefix of what was acked.
            let acked: Vec<&[u8]> = vec![b"alpha", b"beta", b"gamma"];
            proptest::prop_assert!(replayed.len() <= acked.len());
            for (r, want) in replayed.iter().zip(acked) {
                proptest::prop_assert_eq!(&r.payload[..], want);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        // One compact header, drawn at every field width: it round-trips,
        // every single-bit flip anywhere in it (or in the marker that
        // commits it) is refused, and a header cut at any byte is a torn
        // tail that ends replay at the previous marker.
        #[test]
        fn compact_headers_roundtrip_and_refuse_every_flip_and_cut(
            kind in FIRST_CLIENT_KIND..=u8::MAX,
            a in any_width(),
            b in any_width(),
            c in any_width(),
            payload in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..80),
        ) {
            let prefix = Image::new().record(1, b"first").marker(0, TEST.start().durable);
            let durable = ResumePoint { durable: prefix.end(), next_seq: 1 };
            let header = record_header(kind, a, b, c, &payload);
            let rec_at = prefix.0.len();
            let marker_at = rec_at + header.len() + payload.len();
            let mut image = prefix.0.clone();
            image.extend_from_slice(&header);
            image.extend_from_slice(&payload);
            image.extend_from_slice(&marker(1, prefix.end()));
            proptest::prop_assert_eq!(
                header.len() as u64,
                footprint(a, b, c, payload.len() as u64) - payload.len() as u64
            );
            let mut seen = Vec::new();
            let at = replay(&image, |r| seen.push((r.kind, r.a, r.b, r.c, image[r.payload].to_vec())));
            proptest::prop_assert_eq!(at, ResumePoint { durable: image.len() as u64, next_seq: 2 });
            proptest::prop_assert_eq!(seen.len(), 2);
            proptest::prop_assert_eq!(&seen[1], &(kind, a, b, c, payload.clone()));
            // Every bit of the record's header and of its marker.
            let marker_end = image.len();
            for at in (rec_at..rec_at + header.len()).chain(marker_at..marker_end) {
                for bit in 0..8 {
                    image[at] ^= 1 << bit;
                    proptest::prop_assert_eq!(
                        replayed(&image),
                        (vec![1], durable),
                        "bit {} of byte {}", bit, at
                    );
                    image[at] ^= 1 << bit;
                }
            }
            // Every cut of the record's header, of its payload and of
            // its marker.
            for cut in rec_at..marker_end {
                proptest::prop_assert_eq!(replayed(&image[..cut]), (vec![1], durable), "cut at {}", cut);
            }
        }
    }

    #[test]
    fn a_len_past_the_end_is_refused_before_any_allocation() {
        // A header declaring 2^62 payload bytes: were anything sized
        // from it, the allocation would abort the test process.
        let mut image = Image::new()
            .record(1, b"first")
            .marker(0, TEST.start().durable);
        let durable = ResumePoint {
            durable: image.end(),
            next_seq: 1,
        };
        image
            .0
            .extend_from_slice(&header(KIND_A, 2, 0, 0, 1 << 62, 0));
        image.0.extend_from_slice(b"a few bytes");
        assert_eq!(replayed(&image.0), (vec![1], durable));
        let dir = tmp_dir("huge-len");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(G0), &image.0).unwrap();
        let (log, replayed) = open(&dir).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(log.log_bytes(), durable.durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tombstone_fits_every_range_a_failed_record_can_leave() {
        // The smallest record or marker is a 13-byte header. Exhaustive
        // over the first few thousand spans, then each varint boundary
        // of `len`, where one byte is left over unless `a` pads it.
        let boundaries = (2..10).flat_map(|width| {
            let edge = 1u64 << (7 * (width - 1));
            (edge - 20)..(edge + 20)
        });
        for span in (13..5000).chain(boundaries) {
            let tomb = tombstone(span).unwrap_or_else(|| panic!("no tombstone for {span}"));
            // Parse the header back: its declared payload ends the span.
            let mut fields = [0u64; 4];
            let mut at = 1;
            for field in &mut fields {
                let (v, width) = varint::take(&tomb[at..]).unwrap();
                *field = v;
                at += width;
            }
            assert_eq!(tomb[0], TOMBSTONE_KIND);
            assert_eq!(tomb.len() as u64 + fields[3], span, "span {span}");
            // Replay steps over it, from a whole image, for spans small
            // enough to build.
            if span < 20_000 {
                let first = Image::new().end();
                let image = Image::new()
                    .tombstone(span)
                    .record(1, b"after")
                    .marker(0, first);
                let at = ResumePoint {
                    durable: image.end(),
                    next_seq: 1,
                };
                assert_eq!(replayed(&image.0), (vec![1], at), "span {span}");
            }
        }
        assert!(tombstone(12).is_none());
    }

    #[test]
    fn the_marker_headroom_covers_the_largest_marker_a_log_can_write() {
        for capacity in [
            100,
            127,
            128,
            16_383,
            16_384,
            1 << 21,
            1 << 28,
            1 << 35,
            1 << 56,
            1 << 63,
            u64::MAX,
        ] {
            // Every marker is at least 13 bytes, so at most capacity / 13
            // of them fit, and each covers from an offset below its own.
            let largest = marker(capacity / 13, capacity - 13).len() as u64;
            assert!(marker_headroom(capacity) >= largest, "{capacity}");
        }
        // And a log filled to its capacity with single appends commits
        // every append it reserves, a refused one reserving nothing:
        // over every capacity from 60 to 399 B, and 16,370–16,419 B, so
        // that some fill ends exactly where a record fits and only the
        // marker's headroom decides, with coverage offsets of one to
        // three varint bytes.
        for capacity in (60..400).chain(16_370..16_420) {
            let dir = tmp_dir("headroom");
            std::fs::create_dir_all(&dir).unwrap();
            let (file, path) = open_generation(&dir, "meta", 0).unwrap();
            write_at(&file, &TEST.header(), 0).unwrap();
            let log = Appender::new(file, capacity, RecordLogOptions::default(), TEST.start());
            let mut acked = 0;
            loop {
                let before = log.log_bytes();
                match log.append(rec(acked, b"x")) {
                    Ok(_) => acked += 1,
                    Err(LogError::Full) => {
                        assert_eq!(log.log_bytes(), before, "nothing reserved");
                        break;
                    }
                    Err(e) => panic!("capacity {capacity}: append {acked} failed: {e}"),
                }
            }
            assert!(log.log_bytes() <= capacity && acked > 0);
            let (seen, at) = replayed(&std::fs::read(&path).unwrap());
            assert_eq!(seen, (0..acked).collect::<Vec<_>>(), "{capacity}");
            assert_eq!(at.durable, log.log_bytes());
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
        let (mut log, _) = RecordLog::open(&dir, TEST, strict).expect("open");
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
        assert!(log.path().ends_with(G0), "old generation serves");
        assert!(!dir.join("meta.g1.log").exists(), "rename undone");
        assert!(!dir.join("meta.g1.log.tmp").exists(), "staged file removed");
        log.append(rec(2, b"still appendable")).unwrap();
        drop(log);
        let (_, replayed) = RecordLog::open(&dir, TEST, strict).expect("reopen");
        assert_eq!(replayed.iter().map(|r| r.a).collect::<Vec<_>>(), [1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_table_every_crash_shape_over_vec_and_mapping() {
        // Every shape shares the committed prefix `format header |
        // record 1 | marker 0` and differs in what follows.
        let start = TEST.start().durable;
        let prefix = || Image::new().record(1, b"first").marker(0, start);
        let first = prefix().end();
        let second_payload = first + footprint(2, 0, 0, 6) - 6;
        let second_marker = second_payload + 6;
        let marker_len = marker(1, first).len() as u64;
        /// Visible records' `a` fields + where appends resume.
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
                    .flip(second_payload as usize + 3),
                committed_prefix.clone(),
            ),
            (
                "torn marker",
                prefix()
                    .record(2, b"second")
                    .marker(1, first)
                    .flip((second_marker + marker_len) as usize - 2),
                committed_prefix.clone(),
            ),
            (
                "checksum-valid marker out of sequence",
                prefix().record(2, b"second").marker(7, first),
                committed_prefix.clone(),
            ),
            (
                "checksum-valid marker with the wrong coverage offset",
                prefix().record(2, b"second").marker(1, first + 8),
                committed_prefix.clone(),
            ),
            (
                "record past the last marker was never acknowledged",
                prefix().record(2, b"second"),
                committed_prefix.clone(),
            ),
            (
                "a second format header is no record",
                {
                    let mut image = prefix();
                    image.0.extend_from_slice(&TEST.header());
                    image.marker(1, first)
                },
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
            (
                "no format header: nothing replays",
                {
                    let mut image = prefix();
                    image.0.drain(..start as usize);
                    image
                },
                (vec![], ResumePoint::default()),
            ),
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
        let record = rec(1, b"payload");
        let footprint = record.footprint();
        // Below 128 bytes of capacity the largest marker is 13 bytes.
        let headroom = marker_headroom(127);
        assert_eq!(headroom, 13);
        let open = |capacity: u64| {
            // (one generation file per appender; the number is just a name)
            let (file, _) = open_generation(&dir, "cap", capacity).unwrap();
            let opts = RecordLogOptions::default();
            Appender::new(file, capacity, opts, ResumePoint::default())
        };
        // The record fits, the marker that must seal it does not: the
        // typed error, and nothing reserved.
        let tight = open(footprint + headroom - 1);
        assert_eq!(tight.append(record), Err(LogError::Full));
        assert_eq!(tight.log_bytes(), 0, "failed reservation reserves nothing");
        // One more byte of capacity and it commits, payload offset back.
        let exact = open(footprint + headroom);
        assert_eq!(exact.append(record), Ok(footprint - 7));
        let marker = marker(0, 0).len() as u64;
        assert_eq!(exact.log_bytes(), footprint + marker);
        assert_eq!(exact.append(rec(2, b"")), Err(LogError::Full));
        assert_eq!(exact.log_bytes(), footprint + marker);
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
    fn a_head_but_this_formats_header_is_refused_untouched() {
        // A log of the 48-byte headers this format replaced: six u64s
        // (an 8-byte magic, a, b, c, len, check), payload, marker.
        let mut old = Vec::new();
        for word in [0x5445_5354_4d41_4731u64, 1, 0, 0, 5, 0x0123_4567_89ab_cdef] {
            old.extend_from_slice(&word.to_le_bytes());
        }
        old.extend_from_slice(b"old!!");
        let other_client = Format {
            client: Client::Version,
            ..TEST
        };
        let other_number = Format {
            number: TEST.number + 1,
            ..TEST
        };
        let heads: [(&str, Vec<u8>); 5] = [
            ("a 48-byte-header log", old),
            ("another client's log", other_client.header().to_vec()),
            ("another format number", other_number.header().to_vec()),
            ("a torn format header", TEST.header()[..5].to_vec()),
            (
                "a record where the header belongs",
                [&record_header(KIND_A, 1, 0, 0, b"x")[..], b"x"].concat(),
            ),
        ];
        for (name, head) in heads {
            let image = [&head[..], &Image::new().record(1, b"x").0].concat();
            let dir = tmp_dir("wrong-format");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(G0);
            std::fs::write(&path, &image).unwrap();
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            assert_eq!(
                claim_format(&file, TEST),
                Err(LogError::WrongFormat),
                "{name}"
            );
            // RecordLog::open refuses before it resumes or appends: the
            // file is byte-identical and no generation is added.
            assert_eq!(open(&dir).err(), Some(LogError::WrongFormat), "{name}");
            assert_eq!(std::fs::read(&path).unwrap(), image, "{name}");
            assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "{name}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        // The format's own header passes untouched, also sparse-padded as
        // the page log leaves it; an empty file and a head of zeros are
        // fresh, and get the header.
        let dir = tmp_dir("heads");
        std::fs::create_dir_all(&dir).unwrap();
        let claim = |image: &[u8]| {
            let path = dir.join("head.log");
            std::fs::write(&path, image).unwrap();
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            claim_format(&file, TEST).map(|()| std::fs::read(&path).unwrap())
        };
        let current = Image::new()
            .record(1, b"new")
            .marker(0, TEST.start().durable);
        let padded = [current.0.clone(), vec![0; 4096]].concat();
        for image in [&current.0[..], &padded, &TEST.header()] {
            assert_eq!(claim(image), Ok(image.to_vec()));
        }
        assert_eq!(claim(&[]), Ok(TEST.header()));
        assert_eq!(claim(&[0; 7]), Ok(TEST.header()));
        let zeros = claim(&[0; 4096]).unwrap();
        assert_eq!(zeros.len(), 4096);
        assert_eq!(zeros[..13], TEST.header()[..]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// FNV-1a over the image: independent of the engine's own digest.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn golden_image_pins_the_record_log_format() {
        let dir = tmp_dir("golden");
        let (mut log, _) = open(&dir).expect("open");
        log.append(rec(1, b"one")).unwrap();
        log.append_batch(&[rec(2, b"two"), rec(3, b"")]).unwrap();
        let g0 = std::fs::read(dir.join(G0)).unwrap();
        assert_eq!(
            (g0.len(), fnv1a(&g0)),
            GOLDEN_G0,
            "generation 0 image drifted"
        );
        log.rewrite(&[rec(9, b"checkpoint")]).unwrap();
        log.append(rec(10, b"after")).unwrap();
        let g1 = std::fs::read(dir.join("meta.g1.log")).unwrap();
        assert_eq!(
            (g1.len(), fnv1a(&g1)),
            GOLDEN_G1,
            "generation 1 image drifted"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Re-pinned for the compact header and the format header (were
    // 246 and 207 bytes under 48-byte headers). g0: the 13 B format
    // header, `one` (13 + 3 B) and its 13 B marker, `two` (16 B) and
    // the empty record (13 B) under one 13 B marker. g1: format header,
    // `checkpoint` (13 + 10 B) and its marker, `after` (13 + 5 B) and its
    // marker. Every header here is 13 B: each field fits one varint byte.
    const GOLDEN_G0: (usize, u64) = (84, 7231617958502035803);
    const GOLDEN_G1: (usize, u64) = (80, 3002398185330585803);
}
