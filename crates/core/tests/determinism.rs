//! Sharded execution is observably identical to sequential execution.
//!
//! The pipeline shards dedup, parsing, session building, mining, detection
//! and both solve passes across worker threads
//! (`PipelineConfig::parallelism`). These
//! tests pin the contract that makes that safe: for any thread count, every
//! output — statistics, instances, marks, clean/removal logs, mined
//! patterns, checkpoint files — is exactly the same as a sequential run.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::checkpoint::{run_checkpointed, CheckpointOptions, RunDir, Stage};
use sqlog_core::{
    decide_solutions, resolve_threads, splice_solutions, DetectCtx, Pipeline, PipelineConfig,
    PipelineResult, SolveOutcome, SolverSet, TemplateStore,
};
use sqlog_gen::{generate, GenConfig};
use sqlog_log::{write_log_file, IngestPolicy, QueryLog};
use sqlog_obs::Recorder;
use std::collections::HashSet;

fn run_with(log: &QueryLog, threads: usize) -> PipelineResult {
    run_with_cache(log, threads, true)
}

fn run_with_cache(log: &QueryLog, threads: usize, parse_cache: bool) -> PipelineResult {
    let catalog = skyserver_catalog();
    let cfg = PipelineConfig {
        parallelism: threads,
        parse_cache,
        ..PipelineConfig::default()
    };
    Pipeline::new(&catalog).with_config(cfg).run(log)
}

fn assert_identical(a: &PipelineResult, b: &PipelineResult, label: &str) {
    // Timings are wall-clock noise; everything else must match exactly.
    assert_eq!(
        a.stats.with_zeroed_timings(),
        b.stats.with_zeroed_timings(),
        "stats differ: {label}"
    );
    assert_eq!(a.instances, b.instances, "instances differ: {label}");
    assert_eq!(
        a.instance_entry_ids, b.instance_entry_ids,
        "entry ids differ: {label}"
    );
    assert_eq!(a.marks, b.marks, "marks differ: {label}");
    assert_eq!(a.clean_log, b.clean_log, "clean log differs: {label}");
    assert_eq!(a.removal_log, b.removal_log, "removal log differs: {label}");
    assert_eq!(
        a.mined.patterns, b.mined.patterns,
        "mined patterns differ: {label}"
    );
    assert_eq!(a.mined.total_queries, b.mined.total_queries);
    assert_eq!(a.store.len(), b.store.len(), "store size differs: {label}");
}

#[test]
fn sharded_pipeline_is_identical_for_all_thread_counts() {
    let log = generate(&GenConfig::with_scale(6_000, 4242));
    // The generator interleaves concurrent users — the interesting case for
    // user-sharded stages.
    let users: HashSet<&str> = log.entries.iter().map(|e| e.user_key()).collect();
    assert!(users.len() > 1, "workload should interleave users");

    let sequential = run_with(&log, 1);
    for threads in [2usize, 8] {
        let sharded = run_with(&log, threads);
        assert_identical(&sequential, &sharded, &format!("threads={threads}"));
    }
    // parallelism = 0 (auto) must agree too, whatever the core count.
    let auto = run_with(&log, 0);
    assert_identical(&sequential, &auto, "threads=auto");
}

#[test]
fn parse_cache_output_is_identical_to_uncached() {
    // The template-aware parse cache must be a pure optimization: for every
    // thread count, every output with the cache on equals the cache-off run
    // (which in turn equals sequential cache-off — the seed behavior).
    let log = generate(&GenConfig::with_scale(6_000, 4242));
    let baseline = run_with_cache(&log, 1, false);
    assert!(!baseline.stats.parse_cache.enabled);
    for threads in [1usize, 2, 8, 0] {
        for cache in [false, true] {
            let run = run_with_cache(&log, threads, cache);
            assert_eq!(run.stats.parse_cache.enabled, cache);
            if cache {
                // The generated workload repeats shapes heavily; the cache
                // must actually engage for the comparison to mean anything.
                assert!(
                    run.stats.parse_cache.hits > 0,
                    "no cache hits at threads={threads}"
                );
            }
            assert_identical(
                &baseline,
                &run,
                &format!("threads={threads}, cache={cache}"),
            );
        }
    }
}

#[test]
fn unsorted_input_is_sorted_identically_under_sharding() {
    let mut log = generate(&GenConfig::with_scale(2_000, 777));
    // Scramble the entry order deterministically; the pipeline must sort a
    // permutation (not clone the log) and still agree across thread counts.
    let n = log.entries.len();
    for i in 0..n / 2 {
        log.entries.swap(i, n - 1 - i);
    }
    assert!(!log.is_time_sorted());

    let sequential = run_with(&log, 1);
    for threads in [2usize, 8] {
        let sharded = run_with(&log, threads);
        assert_identical(
            &sequential,
            &sharded,
            &format!("unsorted, threads={threads}"),
        );
    }
}

#[test]
fn solve_decisions_and_logs_are_identical_for_all_thread_counts() {
    let catalog = skyserver_catalog();
    let log = generate(&GenConfig::with_scale(6_000, 4242));
    let pipeline = Pipeline::new(&catalog);
    let sorted = pipeline.op_sort(&log);
    let (pre_clean, _) = pipeline.op_dedup(&sorted);
    let store = TemplateStore::new();
    let parsed = pipeline.op_parse(&pre_clean, &store);
    let sessions = pipeline.op_sessions(&pre_clean, &parsed.records);
    let detected = pipeline.op_detect(&pre_clean, &parsed.records, &sessions, &store);
    let solve = |threads: usize| {
        let config = PipelineConfig {
            parallelism: threads,
            recorder: Recorder::new(),
            ..PipelineConfig::default()
        };
        let ctx = DetectCtx {
            log: &pre_clean,
            records: &parsed.records,
            sessions: &sessions.sessions,
            store: &store,
            catalog: &catalog,
            config: &config,
        };
        let (decisions, degraded) =
            decide_solutions(&ctx, &detected.instances, &SolverSet::builtin());
        assert_eq!(degraded, 0, "threads={threads}");
        let outcome = splice_solutions(
            &pre_clean,
            &parsed.records,
            &detected.instances,
            &decisions,
            resolve_threads(threads),
            &config.recorder,
        );
        let shards = |name: &str| {
            config
                .recorder
                .spans()
                .iter()
                .filter(|s| s.name == name)
                .count()
        };
        let expected = resolve_threads(threads).min(2);
        assert!(shards("solve.shard") >= expected, "threads={threads}");
        assert!(
            shards("solve.splice.shard") >= expected,
            "threads={threads}"
        );
        (decisions, outcome)
    };
    let (decisions, outcome) = solve(1);
    assert!(
        decisions.solved.len() > 100,
        "the log must exercise solving"
    );
    for threads in [2usize, 8, 0] {
        let (d, o) = solve(threads);
        assert_eq!(d, decisions, "decisions, threads={threads}");
        assert_eq!(
            o.clean_log, outcome.clean_log,
            "clean log, threads={threads}"
        );
        assert_eq!(
            o.removal_log, outcome.removal_log,
            "removal log, threads={threads}"
        );
        assert_eq!(o.solved_queries, outcome.solved_queries);
        assert_eq!(o.rewritten_statements, outcome.rewritten_statements);
        let ids = |o: &SolveOutcome| -> Vec<Vec<u64>> {
            o.rewrites.iter().map(|r| r.entry_ids.clone()).collect()
        };
        assert_eq!(ids(&o), ids(&outcome), "rewrites, threads={threads}");
    }
}

/// The six checkpoint files of one complete checkpointed run, in stage order.
fn checkpoint_files(log_path: &std::path::Path, threads: usize, parse_cache: bool) -> Vec<Vec<u8>> {
    let root = log_path.with_extension(format!("run-{threads}-{parse_cache}"));
    let _ = std::fs::remove_dir_all(&root);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(PipelineConfig {
        parallelism: threads,
        parse_cache,
        ..PipelineConfig::default()
    });
    let dir = RunDir::create(&root).unwrap();
    let options = CheckpointOptions {
        input: log_path.to_path_buf(),
        policy: IngestPolicy::Strict,
        quarantine: None,
        resume: false,
        stop_after: None,
    };
    run_checkpointed(&pipeline, &dir, &options).unwrap();
    let files = Stage::ALL
        .iter()
        .map(|&s| std::fs::read(dir.checkpoint_path(s)).unwrap())
        .collect();
    std::fs::remove_dir_all(&root).unwrap();
    files
}

/// Checkpoint payloads, the parse payload without its last `parse_trailing`
/// LEB128 varints. The header line is cut off: it is derived from the
/// payload (stage, schema, length, hash), so equal payloads mean equal files.
fn payloads(files: &[Vec<u8>], parse_trailing: usize) -> Vec<&[u8]> {
    Stage::ALL
        .iter()
        .zip(files)
        .map(|(&stage, file)| {
            let payload = &file[file.iter().position(|&b| b == b'\n').unwrap() + 1..];
            let mut end = payload.len();
            if stage == Stage::Parse {
                for _ in 0..parse_trailing {
                    // A varint's last byte has the high bit clear, the others set.
                    end -= 1;
                    while end > 0 && payload[end - 1] & 0x80 != 0 {
                        end -= 1;
                    }
                }
            }
            &payload[..end]
        })
        .collect()
}

fn assert_same_files(a: &[&[u8]], b: &[&[u8]], label: &str) {
    for ((stage, a), b) in Stage::ALL.iter().zip(a).zip(b) {
        assert!(a == b, "{label}: {stage} checkpoint differs");
    }
}

#[test]
fn checkpoint_files_are_identical_for_all_thread_counts() {
    let dir = std::env::temp_dir().join(format!("sqlog-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("input.tsv");
    write_log_file(&generate(&GenConfig::with_scale(6_000, 4242)), &log_path).unwrap();
    let run = |threads, cache| checkpoint_files(&log_path, threads, cache);

    let (one, eight) = (run(1, false), run(8, false));
    assert_same_files(
        &payloads(&one, 0),
        &payloads(&eight, 0),
        "cache off, 1 vs 8",
    );

    let (cached, again) = (run(8, true), run(8, true));
    assert_same_files(
        &payloads(&cached, 0),
        &payloads(&again, 0),
        "cache on, 8 vs 8",
    );

    // With the cache on, each worker's hits and misses depend on which
    // records it was handed, so runs at 1 and 8 threads may differ — but
    // only in the four parse-cache counters (hits, misses, fallbacks,
    // cross-checks) that end the parse payload.
    let sequential = run(1, true);
    assert_same_files(
        &payloads(&sequential, 4),
        &payloads(&cached, 4),
        "cache on, 1 vs 8",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
