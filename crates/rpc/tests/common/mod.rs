//! `/proc` readers shared by the connection-scaling test binaries
//! (`c10k.rs`, `handoffs.rs`). Linux-only, like the tests that use them;
//! each binary uses a subset, hence the `dead_code` allowance.

#![allow(dead_code)]

/// One numeric field (`"Threads:"`, `"VmRSS:"`, …) of `/proc/self/status`.
fn status_field(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"))
}

/// Current thread count of this process.
pub fn thread_count() -> usize {
    status_field("Threads:") as usize
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    status_field("VmRSS:") * 1024
}

/// `voluntary_ctxt_switches` summed over every thread of this process.
pub fn voluntary_switches() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .sum()
}
