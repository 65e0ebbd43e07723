//! Per-layer timing from the benchmark's side of each layer call.
//!
//! An untraced iteration calls the layer directly; a traced one wraps the
//! call with a wall clock and, where asked, the process CPU clock and the
//! resident-set high-water mark. The program itself is not instrumented by
//! this module: what it already exposes through its `Recorder` is read
//! separately by the workloads.

use crate::procfs::{self, Clock};
use std::collections::BTreeMap;

/// What a traced layer call samples besides wall time.
#[derive(Clone, Copy, PartialEq)]
pub enum Sample {
    /// Wall time only (`<layer>.ms`).
    Wall,
    /// Wall and CPU time (`<layer>.cpu_ms`).
    Cpu,
    /// Wall, CPU and the resident-set growth (`<layer>.rss_delta_mb`): peak
    /// RSS during the call minus RSS at its start.
    CpuRss,
}

/// Collects one iteration's per-layer values; a no-op when off.
pub struct Tracer {
    on: bool,
    values: BTreeMap<String, f64>,
}

impl Tracer {
    /// A tracer that records (`on`) or passes calls straight through.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            values: BTreeMap::new(),
        }
    }

    /// Whether this iteration is traced.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs one layer call, timing it when tracing.
    pub fn call<T>(&mut self, layer: &str, sample: Sample, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let rss_before = (sample == Sample::CpuRss).then(|| {
            procfs::reset_peak_rss();
            procfs::rss_mb()
        });
        let clock = Clock::start();
        let out = f();
        let (wall, cpu) = clock.read();
        self.add(&format!("{layer}.ms"), wall * 1e3);
        if sample != Sample::Wall {
            self.add(&format!("{layer}.cpu_ms"), cpu * 1e3);
        }
        if let Some(before) = rss_before {
            self.add(
                &format!("{layer}.rss_delta_mb"),
                procfs::peak_rss_mb() - before,
            );
        }
        out
    }

    /// Adds `value` to a per-layer metric of this iteration (a no-op when
    /// untraced).
    pub fn add(&mut self, name: &str, value: f64) {
        if self.on {
            *self.values.entry(name.to_string()).or_insert(0.0) += value;
        }
    }

    /// The values recorded in this iteration.
    pub fn into_values(self) -> BTreeMap<String, f64> {
        self.values
    }
}
