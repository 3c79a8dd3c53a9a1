//! Client-side retry with exponential backoff and deterministic jitter.
//!
//! The admission layer ([`crate::admission`]) answers overload with a
//! typed [`BlobError::Overload`] carrying a retry-after hint; this
//! module is the client half of that contract. A [`RetryPolicy`] decides
//! *whether* an error is worth retrying ([`BlobError::is_retryable`]:
//! `Overload` and `Unreachable` only), *how long* to back off (max of
//! the exponential schedule and the server's hint, jittered downward so
//! synchronized clients desynchronize), and *when to give up* (capped
//! attempts).
//!
//! Retries are only safe on **idempotent** operations — reads, page
//! fetches, and page puts (pages are immutable: re-putting the same key
//! re-stores identical bytes). The version-publish path (`REQUEST_VERSION`
//! / `COMPLETE_WRITE`) is *not* idempotent and must never run under a
//! retry loop; `BlobClient` enforces that split and the policy's tests
//! pin it.
//!
//! Time is injected: [`RetryPolicy::run_with`] takes the sleep function,
//! so unit tests drive a deterministic virtual clock while callers on a
//! real network pass a real sleeper.

use blobseer_proto::BlobError;
use blobseer_util::rng::splitmix64;
use std::time::Duration;

/// A typed retry schedule: exponential backoff with multiplicative
/// decrease-only jitter, capped attempts, capped per-try delay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total tries including the first (1 = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Exponential growth factor per retry (≥ 1.0).
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor drawn from `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(500),
            jitter: 0.5,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the default for non-idempotent
    /// paths).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// True when the policy allows at least one retry.
    pub fn retries(&self) -> bool {
        self.max_attempts > 1
    }

    /// The backoff to apply after failed attempt number `attempt`
    /// (0-based), or `None` when the policy is exhausted or `err` is
    /// not retryable. The delay is the larger of the exponential
    /// schedule and the server's retry-after hint, jittered downward
    /// deterministically from `seed` and `attempt`.
    pub fn backoff_for(&self, attempt: u32, err: &BlobError) -> Option<Duration> {
        if !err.is_retryable() || attempt + 1 >= self.max_attempts {
            return None;
        }
        let exp = self.base_backoff.as_secs_f64() * self.multiplier.max(1.0).powi(attempt as i32);
        let mut delay = Duration::from_secs_f64(exp.min(self.max_backoff.as_secs_f64()));
        if let Some(hint_ms) = err.retry_after_hint_ms() {
            let hint = Duration::from_millis(hint_ms).min(self.max_backoff);
            delay = delay.max(hint);
        }
        Some(self.jittered(attempt, delay))
    }

    /// Scale `delay` by a deterministic factor in `[1 - jitter, 1]`.
    fn jittered(&self, attempt: u32, delay: Duration) -> Duration {
        let j = self.jitter.clamp(0.0, 1.0);
        if j == 0.0 {
            return delay;
        }
        let mut state = self.seed ^ (u64::from(attempt).wrapping_mul(0xa076_1d64_78bd_642f));
        let draw = splitmix64(&mut state);
        // 53 high bits → uniform in [0, 1).
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 - j * unit;
        Duration::from_secs_f64(delay.as_secs_f64() * factor)
    }

    /// Run `op` under this policy, sleeping via `sleep` between
    /// attempts. `op` receives the 0-based attempt number. Stops on the
    /// first `Ok`, the first non-retryable error, or policy exhaustion.
    pub fn run_with<T>(
        &self,
        mut sleep: impl FnMut(Duration),
        mut op: impl FnMut(u32) -> Result<T, BlobError>,
    ) -> Result<T, BlobError> {
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => match self.backoff_for(attempt, &e) {
                    Some(delay) => {
                        sleep(delay);
                        attempt += 1;
                    }
                    None => return Err(e),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn overload(hint: u64) -> BlobError {
        BlobError::Overload {
            retry_after_hint: hint,
        }
    }

    #[test]
    fn caps_attempts_with_deterministic_clock() {
        let p = RetryPolicy {
            max_attempts: 3,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let slept = RefCell::new(Vec::new());
        let tries = RefCell::new(0u32);
        let out: Result<(), _> = p.run_with(
            |d| slept.borrow_mut().push(d),
            |_| {
                *tries.borrow_mut() += 1;
                Err(overload(0))
            },
        );
        assert!(matches!(out, Err(BlobError::Overload { .. })));
        assert_eq!(*tries.borrow(), 3);
        // Exponential, no jitter: 5 ms then 10 ms.
        assert_eq!(
            *slept.borrow(),
            vec![Duration::from_millis(5), Duration::from_millis(10)]
        );
    }

    #[test]
    fn honors_server_hint_when_larger_than_schedule() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let d = p.backoff_for(0, &overload(200)).unwrap();
        assert_eq!(d, Duration::from_millis(200));
        // And the hint is capped by max_backoff.
        let d = p.backoff_for(0, &overload(10_000)).unwrap();
        assert_eq!(d, p.max_backoff);
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        for attempt in 0..3 {
            let a = p.backoff_for(attempt, &overload(100)).unwrap();
            let b = p.backoff_for(attempt, &overload(100)).unwrap();
            assert_eq!(a, b, "same seed + attempt → same jitter");
            let full = Duration::from_millis(100);
            assert!(a <= full);
            assert!(a >= Duration::from_millis(50), "jitter floor is 1 - j");
        }
        // Different attempts draw different factors (with overwhelming
        // probability for this seed).
        let d0 = p.backoff_for(0, &overload(1_000_000)).unwrap();
        let d1 = p.backoff_for(1, &overload(1_000_000)).unwrap();
        assert_ne!(d0, d1);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let p = RetryPolicy::default();
        let tries = RefCell::new(0u32);
        let out: Result<(), _> = p.run_with(
            |_| {},
            |_| {
                *tries.borrow_mut() += 1;
                Err(BlobError::Internal("boom"))
            },
        );
        assert!(matches!(out, Err(BlobError::Internal(_))));
        assert_eq!(*tries.borrow(), 1);
    }

    #[test]
    fn unreachable_is_retryable_but_codec_is_not() {
        let p = RetryPolicy::default();
        assert!(p.backoff_for(0, &BlobError::Unreachable("x")).is_some());
        assert!(p
            .backoff_for(0, &BlobError::Codec(blobseer_proto::CodecError::BadUtf8))
            .is_none());
    }

    #[test]
    fn none_policy_never_retries() {
        let p = RetryPolicy::none();
        assert!(!p.retries());
        assert!(p.backoff_for(0, &overload(5)).is_none());
    }

    #[test]
    fn succeeds_after_backoff() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let tries = RefCell::new(0u32);
        let out = p.run_with(
            |_| {},
            |attempt| {
                *tries.borrow_mut() += 1;
                if attempt < 2 {
                    Err(overload(1))
                } else {
                    Ok(attempt)
                }
            },
        );
        assert_eq!(out.unwrap(), 2);
        assert_eq!(*tries.borrow(), 3);
    }
}
