//! Error types shared across the workspace.

use crate::geometry::Segment;
use crate::ids::{BlobId, ProviderId, Version};
use std::fmt;

/// Errors surfaced by the public blob API (`ALLOC` / `READ` / `WRITE`).
///
/// # Error taxonomy
///
/// Every variant names one failure domain; serving paths must preserve
/// the variant they received (in particular, [`BlobError::Overload`]
/// must never be demoted to [`BlobError::Unreachable`] — the static
/// lint rule `overload-erasure` enforces this on serving code).
///
/// | Variant | Domain | Retryable? |
/// |---|---|---|
/// | [`UnknownBlob`](BlobError::UnknownBlob) | caller asked about a blob the version manager never allocated | no |
/// | [`BadSegment`](BlobError::BadSegment) | request geometry invalid (misaligned / out of bounds) | no |
/// | [`VersionNotPublished`](BlobError::VersionNotPublished) | snapshot isolation: the requested version is not published yet | later, after publish |
/// | [`MissingMetadata`](BlobError::MissingMetadata) | metadata tree node absent (corruption or GC raced the reader) | no |
/// | [`MissingPage`](BlobError::MissingPage) | no replica could serve the page | no |
/// | [`Unreachable`](BlobError::Unreachable) | connectivity: peer dead, refused, timed out | yes (idempotent ops) |
/// | [`Overload`](BlobError::Overload) | admission control shed the request; capacity exists but is busy | yes — honor `retry_after_hint` |
/// | [`Codec`](BlobError::Codec) | wire bytes undecodable | no |
/// | [`Recovery`](BlobError::Recovery) | committed durable state failed to replay | no |
/// | [`Internal`](BlobError::Internal) | invariant violation surfaced as an error | no |
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The blob id is not known to the version manager.
    UnknownBlob(BlobId),
    /// A segment was rejected by geometry validation.
    BadSegment {
        /// The offending segment.
        segment: Segment,
        /// Human-readable reason (misalignment, out of bounds, ...).
        reason: &'static str,
    },
    /// `READ` asked for a version that has not been published yet — the
    /// paper specifies the read **fails** in this case.
    VersionNotPublished {
        /// Requested version.
        requested: Version,
        /// Latest published version at the time of the request.
        latest: Version,
    },
    /// A required metadata tree node was missing from the metadata
    /// provider (metadata corruption or GC raced the reader).
    MissingMetadata {
        /// Blob the node belongs to.
        blob: BlobId,
        /// Version of the missing node.
        version: Version,
    },
    /// A page could not be fetched from any replica.
    MissingPage {
        /// Providers that were tried.
        tried: Vec<ProviderId>,
    },
    /// The remote node is dead or unreachable (fault injection).
    Unreachable(&'static str),
    /// The request was **shed by admission control**: the node is alive
    /// but its bounded admission queue is full (or the connection slot
    /// table overflowed). Unlike [`Unreachable`](BlobError::Unreachable)
    /// this is a *typed, deliberate* rejection — the caller should back
    /// off and retry after roughly `retry_after_hint` milliseconds of
    /// virtual time. Serving paths must never rewrite this variant into
    /// `Unreachable` (lint rule `overload-erasure`).
    Overload {
        /// Server-suggested backoff before retrying, in milliseconds
        /// (derived from queue occupancy; 0 = retry at the caller's
        /// discretion).
        retry_after_hint: u64,
    },
    /// Codec failure on a wire message.
    Codec(CodecError),
    /// A durable log could not be opened or replayed: the on-disk bytes
    /// under `file` are unusable at `offset`. Replay of a *torn tail*
    /// (crash mid-append) is not an error — recovery stops at the last
    /// commit marker; this variant means a **committed** record failed
    /// to decode, or the log file itself could not be read — state that
    /// was acknowledged and should have been recoverable.
    Recovery {
        /// The log file (or directory) that failed to recover.
        file: String,
        /// Byte offset of the offending record (0 when the failure is
        /// file-level, e.g. the open itself failed).
        offset: u64,
        /// What went wrong.
        detail: &'static str,
    },
    /// Catch-all for internal invariant violations surfaced as errors.
    Internal(&'static str),
}

impl fmt::Display for BlobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlobError::UnknownBlob(b) => write!(f, "unknown blob {b}"),
            BlobError::BadSegment { segment, reason } => {
                write!(f, "bad segment {segment:?}: {reason}")
            }
            BlobError::VersionNotPublished { requested, latest } => write!(
                f,
                "version {requested} not published (latest published is {latest})"
            ),
            BlobError::MissingMetadata { blob, version } => {
                write!(f, "missing metadata for blob {blob} version {version}")
            }
            BlobError::MissingPage { tried } => {
                write!(f, "page unavailable on all {} replica(s)", tried.len())
            }
            BlobError::Unreachable(who) => write!(f, "{who} unreachable"),
            BlobError::Overload { retry_after_hint } => {
                write!(f, "overloaded: retry after {retry_after_hint} ms")
            }
            BlobError::Codec(e) => write!(f, "codec error: {e}"),
            BlobError::Recovery {
                file,
                offset,
                detail,
            } => {
                write!(f, "recovery failed in {file} at offset {offset}: {detail}")
            }
            BlobError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl BlobError {
    /// True when retrying the *same* request may succeed: connectivity
    /// failures ([`Unreachable`](BlobError::Unreachable)) and typed
    /// admission sheds ([`Overload`](BlobError::Overload)). Callers must
    /// additionally ensure the operation is idempotent before retrying.
    pub fn is_retryable(&self) -> bool {
        matches!(self, BlobError::Unreachable(_) | BlobError::Overload { .. })
    }

    /// The server-suggested backoff in milliseconds, when the error
    /// carries one ([`Overload`](BlobError::Overload)).
    pub fn retry_after_hint_ms(&self) -> Option<u64> {
        match self {
            BlobError::Overload { retry_after_hint } => Some(*retry_after_hint),
            _ => None,
        }
    }
}

impl std::error::Error for BlobError {}

impl From<CodecError> for BlobError {
    fn from(e: CodecError) -> Self {
        BlobError::Codec(e)
    }
}

/// Errors produced by the binary wire codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes remained than the decoder needed.
    UnexpectedEof {
        /// Bytes the decoder asked for.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An enum discriminant byte had no corresponding variant.
    BadTag {
        /// The unknown tag value.
        tag: u8,
        /// The type being decoded.
        ty: &'static str,
    },
    /// A declared length prefix exceeded the sanity limit.
    LengthOverflow {
        /// The declared length.
        declared: u64,
    },
    /// Bytes remained after a complete top-level decode.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
    /// A varint was not the one canonical LEB128 encoding of a value
    /// of its field's type ([`crate::wire::Reader::take_varint`]).
    BadVarint {
        /// What was wrong: `"overlong"`, `"longer than ten bytes"`,
        /// `"overflows u64"`, or the narrower type it overflows.
        reason: &'static str,
    },
    /// A UTF-8 string field contained invalid UTF-8.
    BadUtf8,
    /// A multiplexed response carried a correlation id with no call
    /// waiting on it — the stream framing can no longer be trusted.
    StrayCorrelation {
        /// The unmatched correlation id.
        corr: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => {
                write!(f, "unexpected EOF: needed {needed} bytes, had {remaining}")
            }
            CodecError::BadTag { tag, ty } => write!(f, "bad tag {tag} for {ty}"),
            CodecError::LengthOverflow { declared } => {
                write!(f, "length prefix {declared} exceeds sanity limit")
            }
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
            CodecError::BadVarint { reason } => write!(f, "bad varint: {reason}"),
            CodecError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::StrayCorrelation { corr } => {
                write!(f, "response for unknown correlation id {corr}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = BlobError::VersionNotPublished {
            requested: 9,
            latest: 4,
        };
        let s = e.to_string();
        assert!(s.contains('9') && s.contains('4'));

        let e = BlobError::BadSegment {
            segment: Segment { offset: 1, size: 2 },
            reason: "unaligned",
        };
        assert!(e.to_string().contains("unaligned"));

        let c = CodecError::UnexpectedEof {
            needed: 8,
            remaining: 3,
        };
        assert!(c.to_string().contains('8'));
    }

    #[test]
    fn codec_error_converts() {
        let b: BlobError = CodecError::BadUtf8.into();
        assert!(matches!(b, BlobError::Codec(CodecError::BadUtf8)));
    }
}
