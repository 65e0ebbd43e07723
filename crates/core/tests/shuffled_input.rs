//! A time-shuffled copy of a log cleans exactly like the sorted log.
//!
//! The user table numbers users by first appearance in *base* order, which
//! a shuffle changes; dedup and sessions renumber them by first appearance
//! in their own (time-ordered) sequences. So no output may show the base
//! order: not the clean and removal logs, not the statistics, and not the
//! sessions, mine, detect and solve checkpoints, at any thread count. The
//! dedup checkpoint stores base-log indices and the parse checkpoint shard-
//! dependent cache counters, so those two are left out.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlog_catalog::skyserver_catalog;
use sqlog_core::checkpoint::{run_checkpointed, CheckpointOptions, RunDir, Stage};
use sqlog_core::{Pipeline, PipelineConfig, PipelineResult};
use sqlog_gen::{generate, GenConfig};
use sqlog_log::{write_log_file, IngestPolicy, QueryLog};
use std::path::{Path, PathBuf};

fn pipeline_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        parallelism: threads,
        ..PipelineConfig::default()
    }
}

/// The sessions, mine, detect and solve checkpoint files of a complete
/// checkpointed run of the log at `input` (a header is a function of its
/// payload, so equal files mean equal payloads).
fn late_checkpoints(input: &Path, threads: usize) -> Vec<Vec<u8>> {
    let root = input.with_extension(format!("run-{threads}"));
    let _ = std::fs::remove_dir_all(&root);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(pipeline_config(threads));
    let dir = RunDir::create(&root).unwrap();
    let options = CheckpointOptions {
        input: input.to_path_buf(),
        policy: IngestPolicy::Strict,
        quarantine: None,
        resume: false,
        stop_after: None,
    };
    run_checkpointed(&pipeline, &dir, &options).unwrap();
    let files = [Stage::Sessions, Stage::Mine, Stage::Detect, Stage::Solve]
        .iter()
        .map(|&s| std::fs::read(dir.checkpoint_path(s)).unwrap())
        .collect();
    std::fs::remove_dir_all(&root).unwrap();
    files
}

fn temp_log(name: &str, log: &QueryLog) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqlog-shuffled-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    write_log_file(log, &path).unwrap();
    path
}

fn assert_same_result(a: &PipelineResult, b: &PipelineResult, label: &str) {
    assert_eq!(
        a.stats.with_zeroed_timings(),
        b.stats.with_zeroed_timings(),
        "stats: {label}"
    );
    assert_eq!(a.clean_log, b.clean_log, "clean log: {label}");
    assert_eq!(a.removal_log, b.removal_log, "removal log: {label}");
    assert_eq!(a.instances, b.instances, "instances: {label}");
    assert_eq!(a.mined.patterns, b.mined.patterns, "patterns: {label}");
}

#[test]
fn shuffled_log_cleans_like_the_sorted_log() {
    let sorted = generate(&GenConfig::with_scale(4_000, 31));
    assert!(sorted.is_time_sorted());
    let mut shuffled = sorted.clone();
    let mut rng = SmallRng::seed_from_u64(7);
    for i in (1..shuffled.len()).rev() {
        shuffled.entries.swap(i, rng.random_range(0..=i));
    }
    assert!(!shuffled.is_time_sorted());
    // The shuffle must reorder the users' first appearances, or the user
    // table would number both logs alike.
    assert_ne!(sorted.entries[0].user, shuffled.entries[0].user);

    let sorted_path = temp_log("sorted.tsv", &sorted);
    let shuffled_path = temp_log("shuffled.tsv", &shuffled);
    let catalog = skyserver_catalog();
    for threads in [1usize, 2, 8] {
        let run = |log: &QueryLog| {
            Pipeline::new(&catalog)
                .with_config(pipeline_config(threads))
                .run(log)
        };
        let label = format!("threads={threads}");
        assert_same_result(&run(&sorted), &run(&shuffled), &label);
        let (a, b) = (
            late_checkpoints(&sorted_path, threads),
            late_checkpoints(&shuffled_path, threads),
        );
        for (stage, (a, b)) in ["sessions", "mine", "detect", "solve"]
            .iter()
            .zip(a.iter().zip(&b))
        {
            assert!(a == b, "{label}: {stage} checkpoint differs");
        }
    }
    std::fs::remove_dir_all(sorted_path.parent().unwrap()).unwrap();
}
