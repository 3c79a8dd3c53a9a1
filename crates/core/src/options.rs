//! Per-call option structs for the [`BlobClient`](crate::BlobClient)
//! read/write entry points.
//!
//! Instead of multiplying method variants (`read`, `read_into`,
//! `read_buf`, `read_with_stats`, each times every knob), the canonical
//! entry points `read_with` / `write_with` take one options struct with
//! a [`Default`]; the historical signatures survive as thin forwards.

use blobseer_proto::Version;
use blobseer_rpc::RetryPolicy;

/// Options for one READ.
///
/// ```
/// use blobseer_core::ReadOptions;
/// let opts = ReadOptions::default();       // latest version, client policy
/// let pinned = ReadOptions::at_version(3); // paper semantics: fail if unpublished
/// assert_eq!(pinned.version, Some(3));
/// assert!(opts.version.is_none());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReadOptions {
    /// Version pin: `None` reads the latest published snapshot;
    /// `Some(v)` fails with `VersionNotPublished` if `v` is not
    /// published yet — exactly the paper's semantics.
    pub version: Option<Version>,
    /// Retry override. `None` uses the client's deployment-level
    /// [`RetryPolicy`]; `Some` replaces it for this call. Reads are
    /// idempotent, so every attempt is safe.
    pub retry: Option<RetryPolicy>,
    /// Admission deadline in milliseconds of virtual time: once this
    /// much has been spent (including backoff), the call stops retrying
    /// and surfaces the last error. `None` = bounded only by the retry
    /// policy's attempt cap.
    pub deadline_ms: Option<u64>,
}

impl ReadOptions {
    /// Read pinned at `version`.
    pub fn at_version(version: Version) -> Self {
        ReadOptions {
            version: Some(version),
            ..ReadOptions::default()
        }
    }

    /// Read the latest snapshot with an explicit retry override.
    pub fn with_retry(retry: RetryPolicy) -> Self {
        ReadOptions {
            retry: Some(retry),
            ..ReadOptions::default()
        }
    }
}

/// Options for one WRITE.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WriteOptions {
    /// Retry override for the **idempotent part** of the write pipeline
    /// only — the parallel page puts (pages are immutable, so re-putting
    /// a key re-stores identical bytes). When it gives up on a page, the
    /// write re-places the page on other providers. The version-publish
    /// leg (`REQUEST_VERSION` / `COMPLETE_WRITE`) is not idempotent and
    /// never retries, whatever this is set to.
    pub retry: Option<RetryPolicy>,
    /// Admission deadline in milliseconds of virtual time for the page
    /// puts; past it the write stops retrying a page on its providers and
    /// re-places it, failing with the last typed error only if no
    /// provider will take it.
    pub deadline_ms: Option<u64>,
}

impl WriteOptions {
    /// Write with an explicit retry override for the page-put leg.
    pub fn with_retry(retry: RetryPolicy) -> Self {
        WriteOptions {
            retry: Some(retry),
            ..WriteOptions::default()
        }
    }
}
