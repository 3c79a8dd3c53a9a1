//! The binary wire codec, with a zero-copy payload path.
//!
//! The original system serialized RPC arguments with Boost.Serialization;
//! we use a hand-written little-endian format: fixed-width integers,
//! `u32` length prefixes, one tag byte for enums. Every message type in
//! [`crate::messages`] implements [`Wire`].
//!
//! # Varints
//!
//! Metadata tree nodes ([`crate::tree`]) and page keys write their
//! integers as LEB128 varints instead, through the one codec the log
//! record headers also use ([`blobseer_util::varint`]: seven bits per
//! byte, shortest encoding only). [`WireBuf::put_varint`] writes it and
//! [`Reader::take_varint`] refuses anything else — overlong, an 11th
//! byte, a 10th byte above 1 — as [`CodecError::BadVarint`]; a
//! truncated varint is [`CodecError::UnexpectedEof`]. A caller that
//! reads a count from one caps it as [`decode_len`] does.
//!
//! # Copy discipline
//!
//! Encoding appends to a [`WireBuf`] — an iovec-style builder that keeps
//! small header fields in a contiguous tail but attaches page-sized
//! [`PageBuf`] payloads as *shared segments* (a refcount bump, no copy).
//! The finished message is a [`ByteChain`]: an ordered list of shared
//! segments whose concatenation is the wire encoding. A real network
//! transport would gather-write the chain (`writev`); the in-process and
//! simulated transports hand the chain to the receiver as-is.
//!
//! Decoding reads from a [`Reader`] over any of: a plain `&[u8]` (the
//! "bytes arrived from a socket" case), a [`PageBuf`] (a received frame
//! whose sub-slices can be lent out by refcount), or a [`ByteChain`]
//! (in-process delivery). [`Reader::take_buf`] returns payload bytes as
//! a `PageBuf` **borrowed from the source by refcount** whenever the
//! source supports it; only the plain-slice source has to copy.
//!
//! The message *sizes* on the (simulated) wire are unchanged by all of
//! this: [`ByteChain::len`] is exactly the number of bytes a socket
//! would carry, which is what drives the bandwidth cost model.

use crate::error::CodecError;
use blobseer_util::{copymeter, varint, PageBuf};

/// Sanity cap on any single length prefix (1 GiB) — prevents a corrupt
/// length from causing an absurd allocation.
pub const MAX_LEN: u64 = 1 << 30;

/// Payloads at or above this size are attached to frames as shared
/// segments; smaller ones are cheaper to copy into the contiguous tail
/// than to track as separate segments.
pub const SHARE_THRESHOLD: usize = 512;

/// Cap on tail pre-allocation in [`WireBuf::with_capacity`]: message
/// `wire_hint`s include shared-payload bytes that never touch the
/// tail, and pre-allocating for them would strand a payload-sized
/// buffer on every frame.
const MAX_TAIL_HINT: usize = 1024;

// ---------------------------------------------------------------------------
// ByteChain
// ---------------------------------------------------------------------------

/// An ordered list of shared byte segments whose concatenation is one
/// wire-format byte string. Cloning is O(segments); no payload moves.
#[derive(Clone, Default)]
pub struct ByteChain {
    chunks: Vec<PageBuf>,
    len: usize,
}

impl ByteChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total byte length (what a socket would carry).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chain carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments (white-box metric for sharing assertions).
    pub fn segment_count(&self) -> usize {
        self.chunks.len()
    }

    /// The segments.
    pub fn segments(&self) -> &[PageBuf] {
        &self.chunks
    }

    /// Append a segment (refcount bump). Empty segments are dropped.
    pub fn push(&mut self, seg: PageBuf) {
        if !seg.is_empty() {
            self.len += seg.len();
            self.chunks.push(seg);
        }
    }

    /// Flatten into one contiguous vector (copies; metered).
    pub fn to_vec(&self) -> Vec<u8> {
        copymeter::record_copy(self.len);
        let mut out = Vec::with_capacity(self.len);
        for c in &self.chunks {
            out.extend_from_slice(c);
        }
        out
    }

    /// O(segments) sub-chain `[start, start + len)` sharing every
    /// overlapped segment by refcount.
    ///
    /// # Panics
    /// If the range exceeds the chain.
    pub fn subchain(&self, start: usize, len: usize) -> ByteChain {
        assert!(start + len <= self.len, "subchain out of range");
        let mut out = ByteChain::new();
        if len == 0 {
            return out;
        }
        let mut pos = 0usize;
        let (mut want_start, mut want_len) = (start, len);
        for c in &self.chunks {
            let clen = c.len();
            if want_start >= pos + clen {
                pos += clen;
                continue;
            }
            let begin = want_start - pos;
            let take = (clen - begin).min(want_len);
            out.push(c.slice(begin..begin + take));
            want_len -= take;
            if want_len == 0 {
                break;
            }
            want_start = pos + clen;
            pos += clen;
        }
        debug_assert_eq!(out.len(), len);
        out
    }
}

impl From<Vec<u8>> for ByteChain {
    fn from(v: Vec<u8>) -> Self {
        let mut c = ByteChain::new();
        c.push(PageBuf::from_vec(v));
        c
    }
}

impl From<PageBuf> for ByteChain {
    fn from(b: PageBuf) -> Self {
        let mut c = ByteChain::new();
        c.push(b);
        c
    }
}

impl PartialEq for ByteChain {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Compare without flattening: walk both segment lists.
        let mut a = self.chunks.iter().flat_map(|c| c.iter());
        let mut b = other.chunks.iter().flat_map(|c| c.iter());
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (x, y) if x == y => continue,
                _ => return false,
            }
        }
    }
}

impl Eq for ByteChain {}

impl std::fmt::Debug for ByteChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ByteChain({} bytes, {} segs)",
            self.len,
            self.chunks.len()
        )
    }
}

// ---------------------------------------------------------------------------
// WireBuf
// ---------------------------------------------------------------------------

/// Encode-side builder: a contiguous tail for small fields plus shared
/// segments for page payloads.
///
/// A builder can be **poisoned**: when a length prefix would not fit its
/// wire representation (see [`WireBuf::put_len_prefix`]), the error is
/// recorded instead of silently wrapping the length. Checked consumers
/// ([`WireBuf::finish_checked`], [`Wire::try_to_chain`]) surface it;
/// [`WireBuf::finish`] debug-asserts it never reaches an unchecked path.
#[derive(Default)]
pub struct WireBuf {
    chain: ByteChain,
    tail: Vec<u8>,
    poison: Option<CodecError>,
}

impl WireBuf {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with a tail capacity hint.
    ///
    /// The hint is clamped: the tail only ever holds header-scale
    /// fields, because payloads at or above [`SHARE_THRESHOLD`] are
    /// attached as shared segments. Passing a payload-inclusive
    /// `wire_hint()` here must not allocate (and then strand) a
    /// payload-sized tail.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            chain: ByteChain::new(),
            tail: Vec::with_capacity(n.min(MAX_TAIL_HINT)),
            poison: None,
        }
    }

    /// Bytes appended so far.
    pub fn len(&self) -> usize {
        self.chain.len() + self.tail.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one byte.
    #[inline]
    pub fn push(&mut self, b: u8) {
        self.tail.push(b);
    }

    /// Append a small byte slice (copied into the contiguous tail).
    #[inline]
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        // lint: allow(unmetered-copy) — builder tail holds header/control bytes;
        // payload pages ride PageBuf segments un-copied
        self.tail.extend_from_slice(s);
    }

    /// Append `v` as a LEB128 varint: its shortest encoding,
    /// [`varint::len`]`(v)` bytes, into the contiguous tail.
    #[inline]
    pub fn put_varint(&mut self, v: u64) {
        varint::put(&mut self.tail, v);
    }

    /// Append a `u32` length prefix, **checked**: a length above
    /// [`MAX_LEN`] (which subsumes `u32` overflow — the seed's silent
    /// wrap for ≥ 4 GiB bodies) poisons the builder instead of encoding
    /// a corrupt prefix. The cap mirrors [`decode_len`], so anything
    /// this encoder emits, the decoder accepts.
    pub fn put_len_prefix(&mut self, len: usize) {
        if len as u64 > MAX_LEN {
            self.poison(CodecError::LengthOverflow {
                declared: len as u64,
            });
            // Encode the poison sentinel so the buffer's framing stays
            // self-consistent for debug inspection; checked consumers
            // never let these bytes out.
            self.tail.extend_from_slice(&u32::MAX.to_le_bytes());
        } else {
            // lint: allow(truncating-cast) — guarded: the branch above bounds
            // len ≤ MAX_LEN (1 GiB), far below u32::MAX
            self.tail.extend_from_slice(&(len as u32).to_le_bytes());
        }
    }

    /// Record an encode-side error. The first poison wins.
    pub fn poison(&mut self, e: CodecError) {
        if self.poison.is_none() {
            self.poison = Some(e);
        }
    }

    /// The recorded encode-side error, if any.
    pub fn poisoned(&self) -> Option<CodecError> {
        self.poison
    }

    fn flush_tail(&mut self) {
        if !self.tail.is_empty() {
            let tail = std::mem::take(&mut self.tail);
            self.chain.push(PageBuf::from_vec(tail));
        }
    }

    /// Append a payload buffer. Large buffers are attached as shared
    /// segments (no copy); sub-threshold ones fold into the contiguous
    /// tail — a structural move of header-scale bytes, not counted as a
    /// payload copy.
    pub fn put_shared(&mut self, buf: &PageBuf) {
        if buf.len() >= SHARE_THRESHOLD {
            self.flush_tail();
            self.chain.push(buf.clone());
        } else {
            // lint: allow(unmetered-copy) — a sub-threshold payload is header-scale;
            // folding it into the tail is framing, not a payload copy
            self.tail.extend_from_slice(buf);
        }
    }

    /// Append a whole chain, preserving the sharing of its segments.
    pub fn put_chain(&mut self, chain: &ByteChain) {
        for seg in chain.segments() {
            self.put_shared(seg);
        }
    }

    /// Finish, yielding the encoded chain.
    ///
    /// Unchecked path: poisoning is a debug assertion here because every
    /// encoder that can legally produce an oversized length prefix
    /// (frame bodies, socket envelopes) goes through
    /// [`WireBuf::finish_checked`] / [`Wire::try_to_chain`].
    pub fn finish(mut self) -> ByteChain {
        debug_assert!(
            self.poison.is_none(),
            "poisoned WireBuf reached an unchecked finish: {:?}",
            self.poison
        );
        self.flush_tail();
        self.chain
    }

    /// Finish, surfacing any encode-side error instead of yielding a
    /// chain with a corrupt length prefix.
    pub fn finish_checked(mut self) -> Result<ByteChain, CodecError> {
        if let Some(e) = self.poison.take() {
            return Err(e);
        }
        self.flush_tail();
        Ok(self.chain)
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

enum Source<'a> {
    /// Borrowed plain bytes (network receive path, tests).
    Slice(&'a [u8]),
    /// A shared buffer whose sub-slices can be lent by refcount.
    Buf(&'a PageBuf),
    /// An in-process chain; payload segments are lent by refcount.
    Chain {
        chain: &'a ByteChain,
        /// Index of the chunk holding the next byte.
        chunk: usize,
        /// Offset of the next byte within that chunk.
        off: usize,
    },
}

/// A cursor with checked reads over a slice, buffer, or chain.
pub struct Reader<'a> {
    src: Source<'a>,
    /// Bytes consumed so far.
    pos: usize,
    /// Total bytes in the source.
    total: usize,
}

impl<'a> Reader<'a> {
    /// Read from plain bytes.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            src: Source::Slice(buf),
            pos: 0,
            total: buf.len(),
        }
    }

    /// Read from a shared buffer; `take_buf` lends sub-slices by
    /// refcount.
    pub fn from_buf(buf: &'a PageBuf) -> Self {
        Self {
            src: Source::Buf(buf),
            pos: 0,
            total: buf.len(),
        }
    }

    /// Read from a chain; `take_buf` lends whole-segment ranges by
    /// refcount.
    pub fn from_chain(chain: &'a ByteChain) -> Self {
        Self {
            src: Source::Chain {
                chain,
                chunk: 0,
                off: 0,
            },
            pos: 0,
            total: chain.len(),
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.total - self.pos
    }

    /// Consume exactly `n` bytes, borrowing them from the source.
    ///
    /// On a chain source the bytes must lie within one segment — true by
    /// construction for every message this codec encodes, because
    /// fixed-width fields are always written to a contiguous tail.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let run = self.segment_rest();
        if run.len() < n {
            // A fixed-width field straddling a chain's segment boundary
            // means the bytes were not produced by this encoder; refuse
            // cleanly rather than stitching.
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: run.len(),
            });
        }
        self.advance(n);
        Ok(&run[..n])
    }

    /// Consume exactly `n` payload bytes as a [`PageBuf`].
    ///
    /// Zero-copy (a refcount bump on the source allocation) for buffer
    /// sources always, and for chain sources when the range lies within
    /// one segment — which is how every payload this codec encodes is
    /// laid out. Falls back to a metered copy otherwise (plain-slice
    /// sources, sub-threshold payloads, straddling ranges).
    pub fn take_buf(&mut self, n: usize) -> Result<PageBuf, CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        if n == 0 {
            return Ok(PageBuf::new());
        }
        let share = n >= SHARE_THRESHOLD;
        let pos = self.pos;
        match &mut self.src {
            Source::Slice(buf) => {
                let out = PageBuf::copy_from_slice(&buf[pos..pos + n]);
                self.pos += n;
                Ok(out)
            }
            Source::Buf(buf) => {
                let out = if share {
                    buf.slice(pos..pos + n)
                } else {
                    PageBuf::copy_from_slice(&buf.as_slice()[pos..pos + n])
                };
                self.pos += n;
                Ok(out)
            }
            Source::Chain { chain, chunk, off } => {
                while *chunk < chain.segments().len() && *off >= chain.segments()[*chunk].len() {
                    *chunk += 1;
                    *off = 0;
                }
                let seg = &chain.segments()[*chunk];
                if share && seg.len() - *off >= n {
                    let out = seg.slice(*off..*off + n);
                    *off += n;
                    self.pos += n;
                    Ok(out)
                } else {
                    // Straddles segments (or below the threshold): stitch.
                    let mut v = Vec::with_capacity(n);
                    let mut left = n;
                    while left > 0 {
                        while *off >= chain.segments()[*chunk].len() {
                            *chunk += 1;
                            *off = 0;
                        }
                        let seg = &chain.segments()[*chunk];
                        let take = (seg.len() - *off).min(left);
                        v.extend_from_slice(&seg.as_slice()[*off..*off + take]);
                        *off += take;
                        left -= take;
                    }
                    copymeter::record_copy(n);
                    self.pos += n;
                    Ok(PageBuf::from_vec(v))
                }
            }
        }
    }

    /// Consume exactly `n` bytes as a sub-chain, sharing the source's
    /// segments by refcount (used for nested frame bodies).
    pub fn take_chain(&mut self, n: usize) -> Result<ByteChain, CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let pos = self.pos;
        match &mut self.src {
            Source::Slice(buf) => {
                let out = ByteChain::from(PageBuf::copy_from_slice(&buf[pos..pos + n]));
                self.pos += n;
                Ok(out)
            }
            Source::Buf(buf) => {
                let out = ByteChain::from(buf.slice(pos..pos + n));
                self.pos += n;
                Ok(out)
            }
            Source::Chain { chain, chunk, off } => {
                // `self.pos` already tracks the absolute chain offset.
                let out = chain.subchain(pos, n);
                // Advance the cursor by n.
                let mut left = n;
                while left > 0 {
                    while *off >= chain.segments()[*chunk].len() {
                        *chunk += 1;
                        *off = 0;
                    }
                    let seg_left = chain.segments()[*chunk].len() - *off;
                    let step = seg_left.min(left);
                    *off += step;
                    left -= step;
                }
                self.pos += n;
                Ok(out)
            }
        }
    }

    /// Consume one LEB128 varint ([`WireBuf::put_varint`]), refusing
    /// any encoding but the shortest and anything above `u64::MAX` (see
    /// [`blobseer_util::varint`]).
    ///
    /// Like every fixed-width field, a varint lies within one segment of
    /// a chain source: one that runs past its segment's end is an EOF.
    pub fn take_varint(&mut self) -> Result<u64, CodecError> {
        let run = self.segment_rest();
        match varint::take(run) {
            Ok((value, len)) => {
                self.advance(len);
                Ok(value)
            }
            Err(varint::Refused::Bad(reason)) => Err(CodecError::BadVarint { reason }),
            Err(varint::Refused::Eof) => Err(CodecError::UnexpectedEof {
                needed: run.len() + 1,
                remaining: run.len(),
            }),
        }
    }

    /// Consume a varint count of items that each take at least one
    /// byte, refused above [`MAX_LEN`] like every length prefix
    /// ([`decode_len`]). A caller reserves at most
    /// `count.min(self.remaining())`, so a hostile count allocates no
    /// more than the bytes that are really there.
    pub fn take_varint_count(&mut self) -> Result<usize, CodecError> {
        let count = self.take_varint()?;
        let overflow = CodecError::LengthOverflow { declared: count };
        if count > MAX_LEN {
            return Err(overflow);
        }
        usize::try_from(count).map_err(|_| overflow)
    }

    /// The unread bytes of the segment holding the next byte (all the
    /// unread bytes of a slice or buffer source), borrowed from the
    /// source; empty at the end.
    fn segment_rest(&mut self) -> &'a [u8] {
        match &mut self.src {
            Source::Slice(buf) => &buf[self.pos..],
            Source::Buf(buf) => &buf.as_slice()[self.pos..],
            Source::Chain { chain, chunk, off } => {
                let chain: &'a ByteChain = chain;
                // Skip to the chunk holding the next byte.
                while *chunk < chain.segments().len() && *off >= chain.segments()[*chunk].len() {
                    *chunk += 1;
                    *off = 0;
                }
                chain
                    .segments()
                    .get(*chunk)
                    .map_or(&[], |seg| &seg.as_slice()[*off..])
            }
        }
    }

    /// Step over `n` bytes of the current segment, which holds them.
    fn advance(&mut self, n: usize) {
        self.pos += n;
        if let Source::Chain { off, .. } = &mut self.src {
            *off += n;
        }
    }

    /// Error unless the source was fully consumed.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            Err(CodecError::TrailingBytes {
                remaining: self.remaining(),
            })
        } else {
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// Wire trait
// ---------------------------------------------------------------------------

/// Types that can be encoded to / decoded from the wire format.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode(&self, out: &mut WireBuf);

    /// Decode a value, advancing the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Encode into a segment chain (payloads shared, not copied).
    fn to_chain(&self) -> ByteChain {
        let mut out = WireBuf::with_capacity(self.wire_hint());
        self.encode(&mut out);
        out.finish()
    }

    /// Encode into a segment chain, surfacing an encode-side length
    /// overflow ([`WireBuf::put_len_prefix`]) instead of silently
    /// emitting a corrupt prefix. Use this wherever the value being
    /// encoded can carry an attacker- or workload-sized body (frame
    /// batching, socket transports).
    fn try_to_chain(&self) -> Result<ByteChain, CodecError> {
        let mut out = WireBuf::with_capacity(self.wire_hint());
        self.encode(&mut out);
        out.finish_checked()
    }

    /// Encode into one contiguous buffer (flattens; payload copies are
    /// metered). Prefer [`Wire::to_chain`] on hot paths.
    fn to_wire(&self) -> Vec<u8> {
        let chain = self.to_chain();
        match chain.segments() {
            // Single owned segment: the chain's vector *is* the wire
            // encoding of a payload-free message; avoid double-counting
            // a copy for the common tiny-message case.
            // lint: allow(unmetered-copy) — payload-free tiny-message flatten;
            // multi-segment chains go through the metered to_vec below
            [only] => only.as_slice().to_vec(),
            // lint: allow(unmetered-copy) — Chain::to_vec records the copy internally
            _ => chain.to_vec(),
        }
    }

    /// Decode from a complete byte slice, requiring full consumption.
    fn from_wire(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Decode from a complete shared buffer (payloads lent by refcount).
    fn from_buf(buf: &PageBuf) -> Result<Self, CodecError> {
        let mut r = Reader::from_buf(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Decode from a complete chain (payload segments lent by refcount).
    fn from_chain(chain: &ByteChain) -> Result<Self, CodecError> {
        let mut r = Reader::from_chain(chain);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Optional capacity hint for encoding.
    fn wire_hint(&self) -> usize {
        16
    }
}

macro_rules! wire_int {
    ($ty:ty, $n:expr) => {
        impl Wire for $ty {
            #[inline]
            fn encode(&self, out: &mut WireBuf) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let b = r.take($n)?;
                // lint: allow(panic-on-serving-path) — take($n) returned exactly
                // $n bytes; the conversion cannot fail
                Ok(<$ty>::from_le_bytes(b.try_into().unwrap()))
            }

            fn wire_hint(&self) -> usize {
                $n
            }
        }
    };
}

wire_int!(u8, 1);
wire_int!(u16, 2);
wire_int!(u32, 4);
wire_int!(u64, 8);
wire_int!(i64, 8);

impl Wire for bool {
    fn encode(&self, out: &mut WireBuf) {
        out.push(*self as u8);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { tag, ty: "bool" }),
        }
    }
}

/// Decode a `u32` length prefix, rejecting anything above [`MAX_LEN`]
/// before a single byte is allocated for it. Public so framing layers
/// (RPC frames, socket envelopes) apply the same sanity cap as the
/// built-in container decoders.
pub fn decode_len(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    let n = u32::decode(r)? as u64;
    if n > MAX_LEN {
        return Err(CodecError::LengthOverflow { declared: n });
    }
    Ok(n as usize)
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut WireBuf) {
        out.put_len_prefix(self.len());
        for item in self {
            item.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = decode_len(r)?;
        // Guard against hostile prefixes: cap the pre-allocation.
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }

    fn wire_hint(&self) -> usize {
        4 + self.iter().map(Wire::wire_hint).sum::<usize>()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut WireBuf) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag { tag, ty: "Option" }),
        }
    }
}

impl Wire for String {
    fn encode(&self, out: &mut WireBuf) {
        out.put_len_prefix(self.len());
        // lint: allow(unmetered-copy) — message field strings (names/paths), not payload
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = decode_len(r)?;
        let b = r.take(n)?;
        // lint: allow(unmetered-copy) — message field strings (names/paths), not payload
        String::from_utf8(b.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    fn wire_hint(&self) -> usize {
        4 + self.len()
    }
}

/// Length-prefixed payload bytes: the zero-copy carrier. Encoding
/// attaches the buffer as a shared segment; decoding lends a sub-slice
/// of the source by refcount.
impl Wire for PageBuf {
    fn encode(&self, out: &mut WireBuf) {
        out.put_len_prefix(self.len());
        out.put_shared(self);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = decode_len(r)?;
        r.take_buf(n)
    }

    fn wire_hint(&self) -> usize {
        4 + self.len()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut WireBuf) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }

    fn wire_hint(&self) -> usize {
        self.0.wire_hint() + self.1.wire_hint()
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut WireBuf) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }

    fn wire_hint(&self) -> usize {
        self.0.wire_hint() + self.1.wire_hint() + self.2.wire_hint()
    }
}

impl Wire for () {
    fn encode(&self, _out: &mut WireBuf) {}

    fn decode(_r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(())
    }

    fn wire_hint(&self) -> usize {
        0
    }
}

/// Derive-like helper: implement `Wire` for a struct by field order.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut $crate::wire::WireBuf) {
                $( self.$field.encode(out); )+
            }

            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::error::CodecError> {
                Ok(Self { $( $field: $crate::wire::Wire::decode(r)?, )+ })
            }

            fn wire_hint(&self) -> usize {
                0 $( + self.$field.wire_hint() )+
            }
        }
    };
}

/// Implement `Wire` for an id newtype wrapping a `Wire` integer.
#[macro_export]
macro_rules! wire_newtype {
    ($ty:ty) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, out: &mut $crate::wire::WireBuf) {
                self.0.encode(out);
            }

            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::error::CodecError> {
                Ok(Self($crate::wire::Wire::decode(r)?))
            }

            fn wire_hint(&self) -> usize {
                self.0.wire_hint()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        let back = T::from_wire(&bytes).expect("decode");
        assert_eq!(v, back);
        // The chain path must agree with the flat path.
        let chain = v.to_chain();
        assert_eq!(chain.to_vec(), bytes);
        let back = T::from_chain(&chain).expect("chain decode");
        assert_eq!(v, back);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(0xdeadu16);
        roundtrip(0xdead_beefu32);
        roundtrip(u64::MAX);
        roundtrip(-42i64);
        roundtrip(true);
        roundtrip(false);
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(Some(7u64));
        roundtrip(Option::<u64>::None);
        roundtrip("hello blobseer".to_string());
        roundtrip(String::new());
        roundtrip(PageBuf::copy_from_slice(b"page data"));
        roundtrip(PageBuf::from_vec(vec![9u8; 4096]));
        roundtrip((1u32, 2u64));
        roundtrip(vec![(1u64, PageBuf::copy_from_slice(b"x"))]);
    }

    #[test]
    fn large_payload_encodes_without_copy() {
        let page = PageBuf::from_vec(vec![7u8; 8192]);
        let before = copymeter::thread_snapshot();
        let chain = page.to_chain();
        assert_eq!(before.bytes_since(), 0, "encode must not copy the payload");
        assert_eq!(chain.len(), 4 + 8192);
        assert_eq!(chain.segment_count(), 2, "length prefix + shared payload");
        assert!(chain.segments()[1].same_allocation(&page));

        // Chain decode lends the payload back by refcount.
        let decoded = PageBuf::from_chain(&chain).unwrap();
        assert_eq!(
            before.bytes_since(),
            0,
            "chain decode must not copy the payload"
        );
        assert!(decoded.same_allocation(&page));
        assert_eq!(decoded, page);
    }

    #[test]
    fn buf_decode_shares_with_received_frame() {
        // The "contiguous bytes arrived" case: decoding a payload from a
        // PageBuf source lends a sub-slice of the receive buffer.
        let page = PageBuf::from_vec(vec![3u8; 2048]);
        let wire = PageBuf::from_vec(page.to_wire());
        let before = copymeter::thread_snapshot();
        let decoded = PageBuf::from_buf(&wire).unwrap();
        assert_eq!(before.bytes_since(), 0, "from_buf must slice, not copy");
        assert!(decoded.same_allocation(&wire));
        assert_eq!(decoded, page);
    }

    #[test]
    fn small_payloads_fold_into_tail() {
        let small = PageBuf::copy_from_slice(b"tiny");
        let chain = small.to_chain();
        assert_eq!(
            chain.segment_count(),
            1,
            "sub-threshold payloads stay contiguous"
        );
    }

    #[test]
    fn subchain_slices_across_segments() {
        let mut chain = ByteChain::new();
        chain.push(PageBuf::from_vec((0..10u8).collect()));
        chain.push(PageBuf::from_vec((10..20u8).collect()));
        chain.push(PageBuf::from_vec((20..30u8).collect()));
        assert_eq!(chain.len(), 30);
        let sub = chain.subchain(5, 20);
        assert_eq!(sub.to_vec(), (5..25u8).collect::<Vec<_>>());
        assert_eq!(chain.subchain(0, 0).len(), 0);
        assert_eq!(chain.subchain(29, 1).to_vec(), vec![29]);
    }

    #[test]
    fn eof_detected() {
        let bytes = 0xdead_beefu32.to_wire();
        assert!(matches!(
            u64::from_wire(&bytes),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 1u32.to_wire();
        bytes.push(0);
        assert!(matches!(
            u32::from_wire(&bytes),
            Err(CodecError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn bad_bool_tag() {
        assert!(matches!(
            bool::from_wire(&[7]),
            Err(CodecError::BadTag { tag: 7, ty: "bool" })
        ));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Declared length of u32::MAX elements must not allocate.
        let mut bytes = Vec::new();
        {
            let mut wb = WireBuf::new();
            (u32::MAX).encode(&mut wb);
            bytes.extend_from_slice(&wb.finish().to_vec());
        }
        assert!(matches!(
            Vec::<u64>::from_wire(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
        // Same for a payload length prefix.
        assert!(matches!(
            PageBuf::from_wire(&bytes),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn truncated_vec_fails_cleanly() {
        let mut wb = WireBuf::new();
        3u32.encode(&mut wb); // declares 3 elements
        1u64.encode(&mut wb); // provides 1
        let bytes = wb.finish().to_vec();
        assert!(matches!(
            Vec::<u64>::from_wire(&bytes),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut wb = WireBuf::new();
        2u32.encode(&mut wb);
        wb.extend_from_slice(&[0xff, 0xfe]);
        let bytes = wb.finish().to_vec();
        assert!(matches!(
            String::from_wire(&bytes),
            Err(CodecError::BadUtf8)
        ));
    }

    #[test]
    fn oversized_len_prefix_poisons_instead_of_wrapping() {
        let mut wb = WireBuf::new();
        wb.put_len_prefix((MAX_LEN + 1) as usize);
        assert!(matches!(
            wb.poisoned(),
            Some(CodecError::LengthOverflow { declared }) if declared == MAX_LEN + 1
        ));
        assert!(matches!(
            wb.finish_checked(),
            Err(CodecError::LengthOverflow { .. })
        ));
        // In-range prefixes stay on the fast path.
        let mut wb = WireBuf::new();
        wb.put_len_prefix(7);
        assert!(wb.poisoned().is_none());
        assert_eq!(wb.finish_checked().unwrap().to_vec(), 7u32.to_le_bytes());
    }

    #[test]
    fn try_to_chain_matches_to_chain_for_legal_values() {
        let v = vec![1u64, 2, 3];
        assert_eq!(v.try_to_chain().unwrap().to_vec(), v.to_chain().to_vec());
    }

    #[test]
    fn varints_roundtrip_at_every_length() {
        let mut values = vec![0, 1, 127, 128, 300, u64::MAX];
        for bits in 1..64 {
            values.extend([(1u64 << bits) - 1, 1 << bits]);
        }
        for v in values {
            let mut out = WireBuf::new();
            out.put_varint(v);
            let bytes = out.finish().to_vec();
            assert_eq!(bytes.len(), varint::len(v), "{v}");
            let mut r = Reader::new(&bytes);
            assert_eq!(r.take_varint(), Ok(v));
            r.finish().unwrap();
        }
        assert_eq!(varint::len(u64::MAX), varint::MAX_LEN);
    }

    #[test]
    fn non_canonical_varints_are_refused() {
        let take = |bytes: &[u8]| Reader::new(bytes).take_varint();
        let bad = |reason| Err(CodecError::BadVarint { reason });
        // Overlong: 0 as two bytes, 1 as three, 127 as two.
        assert_eq!(take(&[0x80, 0x00]), bad("overlong"));
        assert_eq!(take(&[0x81, 0x80, 0x00]), bad("overlong"));
        assert_eq!(take(&[0xff, 0x00]), bad("overlong"));
        // Nine continuation bytes, then a tenth that carries more than
        // bit 63 or continues.
        let mut long = vec![0xff; 9];
        long.push(0x01);
        assert_eq!(take(&long), Ok(u64::MAX));
        long[9] = 0x02;
        assert_eq!(take(&long), bad("overflows u64"));
        long[9] = 0x7f;
        assert_eq!(take(&long), bad("overflows u64"));
        long[9] = 0x81;
        long.push(0x01);
        assert_eq!(take(&long), bad("longer than ten bytes"));
        long[9] = 0x80;
        assert_eq!(take(&long), bad("longer than ten bytes"));
        // Truncated: a continuation bit with nothing after it.
        let eof = |needed, remaining| Err(CodecError::UnexpectedEof { needed, remaining });
        assert_eq!(take(&[0x80]), eof(2, 1));
        assert_eq!(take(&[]), eof(1, 0));
        assert_eq!(take(&long[..9]), eof(10, 9));
        // Within a chain, a varint never runs across segments.
        let mut chain = ByteChain::new();
        chain.push(PageBuf::from_vec(vec![0x81]));
        chain.push(PageBuf::from_vec(vec![0x01, 0x05]));
        let mut r = Reader::from_chain(&chain);
        assert_eq!(r.take_varint(), eof(2, 1));
        let mut chain = ByteChain::new();
        chain.push(PageBuf::from_vec(vec![0x05]));
        chain.push(PageBuf::from_vec(vec![0xac, 0x02]));
        let mut r = Reader::from_chain(&chain);
        assert_eq!(r.take_varint(), Ok(5));
        assert_eq!(r.take_varint(), Ok(300));
        r.finish().unwrap();
    }

    #[test]
    fn wire_hint_close_to_actual() {
        let v = vec![1u64, 2, 3];
        assert_eq!(v.wire_hint(), v.to_wire().len());
        let s = "abcd".to_string();
        assert_eq!(s.wire_hint(), s.to_wire().len());
        let p = PageBuf::from_vec(vec![0u8; 600]);
        assert_eq!(p.wire_hint(), p.to_chain().len());
    }
}
