//! The workload interface and the four workloads' set-up.

use crate::tracer::Tracer;
use crate::{adhoc, clean, replay};
use sqlog_core::PipelineConfig;
use sqlog_gen::{generate, GenConfig};
use sqlog_obs::Recorder;
use std::path::Path;

/// Worker threads of every pipeline stage (the machine the figures in
/// `perfbench/README.md` were taken on has two cores).
pub const THREADS: usize = 2;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "skyserver",
    "adhoc_tail",
    "checkpoint_resume",
    "minidb_replay",
];

/// Log entries generated for `skyserver`.
const SKYSERVER_ENTRIES: usize = 200_000;
/// Log entries generated for `adhoc_tail`.
const ADHOC_ENTRIES: usize = 100_000;
/// Log entries generated for `checkpoint_resume`.
const CHECKPOINT_ENTRIES: usize = 60_000;
/// Log entries of the slice whose SELECTs `minidb_replay` replays.
const REPLAY_ENTRIES: usize = 12_000;
/// Rows per photometric table of the `minidb_replay` database.
const REPLAY_DB_ROWS: usize = 400;

/// One measured iteration.
pub struct Iteration {
    /// Wall seconds of the timed part.
    pub wall_s: f64,
    /// User + system CPU seconds of the timed part.
    pub cpu_s: f64,
    /// Operations attempted (pipeline runs, or statements executed).
    pub attempted: u64,
    /// Operations whose output was wrong or that failed.
    pub failed: u64,
    /// Workload-specific end-to-end figures: name, unit, value.
    pub extra: Vec<(&'static str, &'static str, f64)>,
}

/// A prepared workload: its inputs exist, iterations can run.
pub trait Workload {
    /// Input size: log entries, or statements replayed.
    fn entries(&self) -> u64;

    /// Untimed work between set-up and measurement, such as computing a
    /// reference output.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Runs one iteration and checks its output. `Err` means the workload
    /// itself is broken (I/O error, or its defining property no longer
    /// holds); a wrong output is counted in [`Iteration::failed`].
    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Iteration, String>;

    /// The per-layer `ms` metrics that together make up one iteration,
    /// for the summary's coverage line.
    fn top_layers(&self) -> &'static [&'static str] {
        &[]
    }

    /// Lines for the human-readable summary.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Generates the inputs of workload `name` from `seed` under `work`.
pub fn setup(name: &str, seed: u64, work: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "skyserver" => {
            let log = generate(&GenConfig::with_scale(SKYSERVER_ENTRIES, seed));
            Box::new(clean::CleanWorkload::new(
                clean::Mode::InMemory {
                    min_hit_ratio: 0.95,
                    max_hit_ratio: 1.0,
                },
                &log,
                work,
            )?)
        }
        "adhoc_tail" => {
            let mut log = generate(&GenConfig::with_scale(ADHOC_ENTRIES, seed));
            adhoc::rewrite_human_tail(&mut log, seed);
            Box::new(clean::CleanWorkload::new(
                clean::Mode::InMemory {
                    min_hit_ratio: 0.0,
                    max_hit_ratio: 0.8,
                },
                &log,
                work,
            )?)
        }
        "checkpoint_resume" => {
            let log = generate(&GenConfig::with_scale(CHECKPOINT_ENTRIES, seed));
            Box::new(clean::CleanWorkload::new(
                clean::Mode::Checkpointed,
                &log,
                work,
            )?)
        }
        "minidb_replay" => Box::new(replay::Replay::new(seed, REPLAY_ENTRIES, REPLAY_DB_ROWS)),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// The pipeline configuration every workload runs: defaults, [`THREADS`]
/// workers, and the given recorder.
pub fn pipeline_config(recorder: Recorder) -> PipelineConfig {
    PipelineConfig {
        parallelism: THREADS,
        recorder,
        ..PipelineConfig::default()
    }
}
