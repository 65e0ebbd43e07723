//! Process memory accounting.
//!
//! The bounded-memory goal (ROADMAP, "Bounded memory by construction")
//! needs a measurement side before it can have an enforcement side. On
//! Linux the kernel already tracks exactly what we want in
//! `/proc/self/status`: `VmRSS` (current resident set) and `VmHWM` (the
//! high-water mark — peak RSS since the process started, maintained by the
//! kernel with no sampling thread on our side). Elsewhere these return
//! `None` and callers degrade to "not measured" rather than a misleading
//! zero.

/// Peak resident-set size of this process in bytes (`VmHWM`), or `None`
/// where the measurement is unavailable (non-Linux, or an unreadable or
/// unparseable `/proc/self/status`).
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_kib("VmHWM:").map(|kib| kib * 1024)
}

/// Current resident-set size of this process in bytes (`VmRSS`), or
/// `None` where unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_kib("VmRSS:").map(|kib| kib * 1024)
}

/// Reads one `kB` field from `/proc/self/status`. The file is small
/// (a few hundred bytes) and procfs reads don't touch disk, so this is
/// cheap enough to call once per run — it is *not* meant for per-record
/// hot paths.
#[cfg(target_os = "linux")]
fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            // Format: "VmHWM:\t   12345 kB"
            return rest.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

#[cfg(not(target_os = "linux"))]
fn proc_status_kib(_field: &str) -> Option<u64> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_is_measured_on_linux() {
        let peak = peak_rss_bytes().expect("VmHWM readable on Linux");
        let current = current_rss_bytes().expect("VmRSS readable on Linux");
        // A running test process certainly resides in more than a page and
        // (sanity bound) less than a terabyte.
        assert!(peak > 4096, "peak {peak}");
        assert!(current > 4096, "current {current}");
        assert!(peak < 1 << 40, "peak {peak}");
        // The high-water mark can never be below the current RSS reading
        // taken before it... but the two reads race, so allow equality-ish
        // by only requiring peak to be within the same order of magnitude.
        assert!(peak * 16 >= current, "peak {peak} vs current {current}");
    }

    #[test]
    #[cfg(not(target_os = "linux"))]
    fn rss_degrades_to_none_elsewhere() {
        assert_eq!(peak_rss_bytes(), None);
        assert_eq!(current_rss_bytes(), None);
    }
}
