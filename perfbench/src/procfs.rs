//! CPU and memory readings from `/proc`, standard library only.
//!
//! Resident-set figures come from `sqlog_obs::mem` (`VmRSS`/`VmHWM`);
//! this module adds the process CPU clock and the high-water-mark reset.

use std::time::Instant;

/// Kernel clock ticks per second (`USER_HZ`). Linux fixes it at 100 for
/// the `/proc` interface on every architecture the workspace builds for.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds consumed so far by the whole process (every
/// thread), from fields 14 and 15 of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so a
/// later [`peak_rss_mb`] covers only what ran after this call.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs is writable");
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    mib(sqlog_obs::mem::peak_rss_bytes())
}

/// Current resident set, in MiB.
pub fn rss_mb() -> f64 {
    mib(sqlog_obs::mem::current_rss_bytes())
}

fn mib(bytes: Option<u64>) -> f64 {
    bytes.expect("VmRSS/VmHWM readable in /proc/self/status") as f64 / (1024.0 * 1024.0)
}

/// Wall and CPU clocks started together.
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    /// Starts both clocks.
    pub fn start() -> Clock {
        Clock {
            cpu: cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, CPU seconds)` since [`Clock::start`].
    pub fn read(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu)
    }
}
