//! `sqlog-clean` observability flags, end to end through the real binary.
//!
//! A run with `--trace-events` and `--stats-json` must produce valid NDJSON
//! (every line a complete JSON object of a known type), per-shard spans
//! covering every pipeline stage plus ingest and report, and a stats JSON
//! whose statistics render to exactly the block printed on stdout. An
//! unwritable sink path must fail before any pipeline work. Each stage is
//! timed by one clock: its `StageTimings` milliseconds are its spans'.

use sqlog::catalog::skyserver_catalog;
use sqlog::core::checkpoint::{run_checkpointed, CheckpointOptions, RunDir, Stage};
use sqlog::core::{render_statistics, Pipeline, PipelineConfig, RunReport, StageTimings};
use sqlog::gen::{generate, GenConfig};
use sqlog::logmodel::{write_log, write_log_file, IngestPolicy};
use sqlog::obs::Json;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_sqlog-clean");

/// A scratch directory unique to this test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sqlog-obs-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const STAGES: &[&str] = &[
    "ingest", "sort", "dedup", "parse", "sessions", "mine", "detect", "solve", "report",
];

#[test]
fn trace_events_and_stats_json_cover_the_run() {
    let scratch = Scratch::new("full");
    let input = scratch.path("input.tsv");
    let clean = scratch.path("clean.tsv");
    let trace = scratch.path("trace.ndjson");
    let stats = scratch.path("stats.json");
    let log = generate(&GenConfig::with_scale(2_000, 7));
    write_log_file(&log, &input).expect("write generated log");

    let out = Command::new(BIN)
        .args([
            "--in",
            input.to_str().unwrap(),
            "--out",
            clean.to_str().unwrap(),
            "--lenient",
            "--parallelism",
            "2",
            "--trace-events",
            trace.to_str().unwrap(),
            "--stats-json",
            stats.to_str().unwrap(),
        ])
        .output()
        .expect("run sqlog-clean");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "run failed\n{stderr}");

    // Every NDJSON line is a complete JSON object of a known type; the
    // stream opens with the meta line.
    let trace_text = std::fs::read_to_string(&trace).expect("read trace");
    let mut span_ids: HashMap<u64, String> = HashMap::new(); // id → span name
    let mut names: HashSet<String> = HashSet::new();
    let mut shard_parents: Vec<(String, u64)> = Vec::new();
    for (i, line) in trace_text.lines().enumerate() {
        let v = Json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        let ty = v.get("type").and_then(Json::as_str).expect("type field");
        assert!(
            ["meta", "span", "warning", "counter", "histogram"].contains(&ty),
            "unknown event type {ty:?}"
        );
        if i == 0 {
            assert_eq!(ty, "meta", "first line must be meta");
            assert_eq!(v.get("schema").and_then(Json::as_u64), Some(1));
            continue;
        }
        if ty == "span" {
            let name = v.get("name").and_then(Json::as_str).expect("span name");
            let id = v.get("id").and_then(Json::as_u64).expect("span id");
            span_ids.insert(id, name.to_string());
            names.insert(name.to_string());
            if let Some(stage) = name.strip_suffix(".shard") {
                let parent = v
                    .get("parent")
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("{name} span has no parent"));
                shard_parents.push((stage.to_string(), parent));
                assert!(
                    v.get("fields").and_then(|f| f.get("shard")).is_some(),
                    "{name} span lacks a shard field: {line}"
                );
            }
        }
    }
    for stage in STAGES {
        assert!(names.contains(*stage), "missing {stage} span: {names:?}");
    }
    assert!(names.contains("pipeline"), "missing pipeline root span");
    // `--out` is given, so the output write has its span.
    assert!(names.contains("write"), "missing write span: {names:?}");
    // Every shard span hangs under its own stage span.
    assert!(!shard_parents.is_empty(), "no shard spans recorded");
    for (stage, parent) in &shard_parents {
        assert_eq!(
            span_ids.get(parent).map(String::as_str),
            Some(stage.as_str()),
            "a {stage}.shard span is parented to the wrong span"
        );
    }

    // The stats JSON round-trips and its statistics render to exactly the
    // block printed on stdout — the two views cannot disagree.
    let stats_text = std::fs::read_to_string(&stats).expect("read stats");
    let report = RunReport::parse(&stats_text).expect("parse run report");
    assert_eq!(report.stats.original_size, log.len());
    assert!(
        stdout.contains(&render_statistics(&report.stats)),
        "stdout does not contain the serialized statistics block\n{stdout}"
    );
    // The aggregated observability section covers every stage.
    for stage in STAGES {
        assert!(
            report.obs.stages.contains_key(*stage),
            "obs report lacks stage {stage}: {:?}",
            report.obs.stages.keys().collect::<Vec<_>>()
        );
    }
}

#[test]
fn unwritable_trace_path_fails_before_the_run() {
    let scratch = Scratch::new("badpath");
    let input = scratch.path("input.tsv");
    write_log_file(&generate(&GenConfig::with_scale(50, 1)), &input).expect("write log");
    for flag in ["--trace-events", "--stats-json"] {
        let out = Command::new(BIN)
            .args([
                "--in",
                input.to_str().unwrap(),
                flag,
                "/nonexistent-dir/sink.out",
            ])
            .output()
            .expect("run sqlog-clean");
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("cannot create"), "{flag}: {stderr}");
        // Failed before ingesting anything.
        assert!(!stderr.contains("read "), "{flag}: ran anyway\n{stderr}");
        assert!(out.stdout.is_empty(), "{flag}: produced a report anyway");
    }
}

/// A `--run-dir` run and a plain run report the same ingest health and
/// the same span set: both go through one file-input path and one stage
/// sequence.
#[test]
fn run_dir_and_plain_runs_report_the_same_observability() {
    let scratch = Scratch::new("rundir");
    let input = scratch.path("input.tsv");
    let mut text = Vec::new();
    write_log(&generate(&GenConfig::with_scale(300, 5)), &mut text).expect("render log");
    text.extend_from_slice(b"not a log line\n");
    std::fs::write(&input, text).expect("write input");

    for leg in ["plain", "run-dir"] {
        let stats = scratch.path(&format!("{leg}-stats.json"));
        let mut cmd = Command::new(BIN);
        cmd.args([
            "--in",
            input.to_str().unwrap(),
            "--lenient",
            "--stats-json",
            stats.to_str().unwrap(),
        ])
        // Armed, but the marker matches no statement.
        .env("SQLOG_FAULT_MARKER", "no statement contains this marker")
        .env("SQLOG_FAULT_STAGE", "parse");
        if leg == "run-dir" {
            cmd.args(["--run-dir", scratch.path("run").to_str().unwrap()]);
        }
        let out = cmd.output().expect("run sqlog-clean");
        let stderr = String::from_utf8_lossy(&out.stderr);
        // The quarantined line makes the run degraded.
        assert_eq!(out.status.code(), Some(2), "{leg}\n{stderr}");

        let report = RunReport::parse(&std::fs::read_to_string(&stats).expect("read stats"))
            .expect("parse run report");
        assert_eq!(report.stats.run_health.quarantined_lines, 1, "{leg}");
        assert_eq!(
            report.obs.counters.get("ingest.quarantined_lines"),
            Some(&1),
            "{leg}: {:?}",
            report.obs.counters
        );
        for warning in ["quarantined 1 unreadable lines", "fault injection is ARMED"] {
            assert!(
                report.obs.warnings.iter().any(|w| w.contains(warning)),
                "{leg}: no {warning:?} warning in {:?}",
                report.obs.warnings
            );
        }
        for stage in STAGES.iter().chain(&["pipeline"]) {
            assert!(
                report.obs.stages.contains_key(*stage),
                "{leg}: no {stage} span"
            );
        }
    }
}

/// Accessor for one stage's field of [`StageTimings`].
type Pick = fn(&StageTimings) -> u64;

/// Every stage `StageTimings` names, with its field.
const TIMED: [(&str, Pick); 10] = [
    ("ingest", |t| t.ingest_ms),
    ("sort", |t| t.sort_ms),
    ("dedup", |t| t.dedup_ms),
    ("parse", |t| t.parse_ms),
    ("sessions", |t| t.sessions_ms),
    ("mine", |t| t.mine_ms),
    ("detect", |t| t.detect_ms),
    ("solve", |t| t.solve_ms),
    ("write", |t| t.write_ms),
    ("report", |t| t.report_ms),
];

/// Runs `sqlog-clean` with a trace, a run report and both output logs;
/// returns Σ ⌊`dur_us`/1000⌋ per span name and the run's timings.
fn traced_run(
    scratch: &Scratch,
    label: &str,
    args: &[&str],
) -> (HashMap<String, u64>, StageTimings) {
    let trace = scratch.path(&format!("{label}-trace.ndjson"));
    let stats = scratch.path(&format!("{label}-stats.json"));
    let out = Command::new(BIN)
        .args(args)
        .args([
            "--out",
            scratch
                .path(&format!("{label}-clean.tsv"))
                .to_str()
                .unwrap(),
        ])
        .args([
            "--removal",
            scratch
                .path(&format!("{label}-removal.tsv"))
                .to_str()
                .unwrap(),
        ])
        .args(["--trace-events", trace.to_str().unwrap()])
        .args(["--stats-json", stats.to_str().unwrap()])
        .output()
        .expect("run sqlog-clean");
    assert!(
        out.status.success(),
        "{label}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut span_ms: HashMap<String, u64> = HashMap::new();
    for line in std::fs::read_to_string(&trace).expect("read trace").lines() {
        let v = Json::parse(line).expect("trace line parses");
        if v.get("type").and_then(Json::as_str) == Some("span") {
            let name = v.get("name").and_then(Json::as_str).expect("span name");
            let dur_us = v.get("dur_us").and_then(Json::as_u64).expect("dur_us");
            *span_ms.entry(name.to_string()).or_default() += dur_us / 1000;
        }
    }
    let report = RunReport::parse(&std::fs::read_to_string(&stats).expect("read stats"))
        .expect("parse run report");
    (span_ms, report.stats.timings)
}

/// One clock per stage: each stage's `StageTimings` milliseconds are the
/// whole milliseconds of its spans, on a plain run at 1 and 2 threads and
/// on a resume whose loaded stages have neither time nor span. The stage
/// guards never overlap inside the pipeline guard, so `total_ms` is at
/// least their sum.
#[test]
fn each_stage_time_is_its_span_time() {
    let scratch = Scratch::new("one-clock");
    let input = scratch.path("input.tsv");
    write_log_file(&generate(&GenConfig::with_scale(3_000, 11)), &input).expect("write log");
    let input_arg = input.to_str().unwrap();
    let catalog = skyserver_catalog();

    for threads in ["1", "2"] {
        // A resume after a run the library stopped after detection: ingest,
        // solve, write and report run; sort and the loaded stages do not.
        let dir = scratch.path(&format!("run-{threads}"));
        let pipeline = Pipeline::new(&catalog).with_config(PipelineConfig {
            parallelism: threads.parse().unwrap(),
            ..PipelineConfig::default()
        });
        let opts = CheckpointOptions {
            input: input.clone(),
            policy: IngestPolicy::Strict,
            quarantine: None,
            resume: false,
            stop_after: Some(Stage::Detect),
        };
        let stopped = run_checkpointed(&pipeline, &RunDir::create(&dir).unwrap(), &opts);
        assert!(stopped.expect("cold leg").is_none(), "the cold leg stops");
        let resume = ["--in", input_arg, "--parallelism", threads];
        let resume = [&resume[..], &["--resume", dir.to_str().unwrap()]].concat();

        let legs = [
            ("plain", vec!["--in", input_arg, "--parallelism", threads]),
            ("resume", resume),
        ];
        for (leg, args) in legs {
            let label = format!("{leg}-{threads}");
            let (span_ms, t) = traced_run(&scratch, &label, &args);
            for (stage, pick) in TIMED {
                let spans = span_ms.get(stage).copied();
                let ran = leg == "plain" || ["ingest", "solve", "write", "report"].contains(&stage);
                if ran {
                    assert_eq!(spans, Some(pick(&t)), "{label}: {stage} ({t:?})");
                } else {
                    assert_eq!((spans, pick(&t)), (None, 0), "{label}: {stage} was loaded");
                }
            }
            assert!(
                t.total_ms >= t.stage_sum_ms(),
                "{label}: total below the stage sum: {t:?}"
            );
        }
    }
}
