//! File-descriptor limit introspection and raising.
//!
//! The C10K tests (`crates/rpc/tests/c10k.rs`) hold thousands of
//! sockets in one process; default `ulimit -n` soft limits (often 1024)
//! would fail them spuriously. [`raise_soft_to_hard`] lifts the soft
//! `RLIMIT_NOFILE` to whatever hard ceiling the process already has —
//! no privileges required — and returns the resulting soft limit so
//! callers can scale their connection targets to what the environment
//! actually allows.

use std::io;

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_int;

    pub const RLIMIT_NOFILE: c_int = 7;

    #[repr(C)]
    pub struct RLimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    extern "C" {
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
    }
}

/// Raise the soft `RLIMIT_NOFILE` to the hard limit and return the new
/// soft limit. On non-Linux platforms this is a no-op returning a
/// conservative guess (1024).
pub fn raise_soft_to_hard() -> io::Result<u64> {
    #[cfg(target_os = "linux")]
    {
        let mut lim = sys::RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: `lim` is a valid, live `#[repr(C)]` RLimit out-param;
        // getrlimit only writes within it.
        if unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.rlim_cur < lim.rlim_max {
            let want = sys::RLimit {
                rlim_cur: lim.rlim_max,
                rlim_max: lim.rlim_max,
            };
            // SAFETY: `want` is a valid `#[repr(C)]` RLimit read by the
            // kernel; setrlimit has no memory effects in this process.
            if unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &want) } != 0 {
                // Keep whatever we had; the caller scales to the return.
                return Ok(lim.rlim_cur);
            }
            return Ok(lim.rlim_max);
        }
        Ok(lim.rlim_cur)
    }
    #[cfg(not(target_os = "linux"))]
    {
        Ok(1024)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn soft_limit_reaches_hard_limit() {
        let soft = raise_soft_to_hard().unwrap();
        let mut lim = sys::RLimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        // SAFETY: valid out-param, as in raise_soft_to_hard.
        assert_eq!(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) }, 0);
        assert_eq!(soft, lim.rlim_cur);
        assert_eq!(lim.rlim_cur, lim.rlim_max);
    }
}
