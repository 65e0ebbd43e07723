//! `sqlog-report`, the run ledger and `--progress`, end to end through the
//! real binaries.
//!
//! Two identical `sqlog-clean` runs appended to one ledger must diff clean
//! (exit 0); a synthetic 2× stage slowdown injected into a copied report
//! must trip the gate (exit 2). `--progress` and `--ledger` must leave the
//! clean log byte-identical to a bare run at every parallelism × cache
//! combination, and progress output must land on stderr, never stdout.

use sqlog::core::RunReport;
use sqlog::gen::{generate, GenConfig};
use sqlog::logmodel::write_log_file;
use sqlog::obs::Json;
use std::path::PathBuf;
use std::process::Command;

const CLEAN: &str = env!("CARGO_BIN_EXE_sqlog-clean");
const REPORT: &str = env!("CARGO_BIN_EXE_sqlog-report");

/// A scratch directory unique to this test process, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sqlog-report-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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

fn write_fixture(scratch: &Scratch, scale: usize) -> PathBuf {
    let input = scratch.path("input.tsv");
    write_log_file(&generate(&GenConfig::with_scale(scale, 7)), &input).expect("write log");
    input
}

fn run_clean(args: &[&str]) -> std::process::Output {
    Command::new(CLEAN)
        .args(args)
        .output()
        .expect("run sqlog-clean")
}

fn run_report(args: &[&str]) -> std::process::Output {
    Command::new(REPORT)
        .args(args)
        .output()
        .expect("run sqlog-report")
}

#[test]
fn identical_runs_diff_clean_and_injected_slowdown_trips_the_gate() {
    let scratch = Scratch::new("diff");
    let input = write_fixture(&scratch, 1_000);
    let ledger = scratch.path("ledger");
    for i in 0..2 {
        let clean = scratch.path(&format!("clean-{i}.tsv"));
        let out = run_clean(&[
            "--in",
            input.to_str().unwrap(),
            "--out",
            clean.to_str().unwrap(),
            "--ledger",
            ledger.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "run {i} failed\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // Two identical runs on one machine: no regression, exit 0.
    let out = run_report(&["diff", "--ledger", ledger.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "identical runs must not regress\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("no regressions"), "{stdout}");

    // Inject a synthetic 2× slowdown into the parse stage of a copied
    // report and gate at --min-stage-ms 0 so tiny test timings count.
    let (entries, warnings) = sqlog::obs::Ledger::open(&ledger)
        .expect("open ledger")
        .entries()
        .expect("read ledger");
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(entries.len(), 2, "both runs appended");
    let baseline = scratch.path("baseline.json");
    let slowed = scratch.path("slowed.json");
    let report = RunReport::from_json(&entries[0].1.report).expect("parse ledger report");
    std::fs::write(&baseline, report.render()).unwrap();
    let mut slow = report.clone();
    slow.stats.timings.parse_ms = (slow.stats.timings.parse_ms.max(1)) * 2 + 100;
    slow.stats.timings.total_ms += slow.stats.timings.parse_ms;
    std::fs::write(&slowed, slow.render()).unwrap();

    let out = run_report(&[
        "diff",
        baseline.to_str().unwrap(),
        slowed.to_str().unwrap(),
        "--min-stage-ms",
        "0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(2),
        "2x slowdown must exit 2\n{stdout}"
    );
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stdout.contains("stage parse"), "{stdout}");

    // The reverse direction is an improvement, not a regression.
    let out = run_report(&[
        "diff",
        slowed.to_str().unwrap(),
        baseline.to_str().unwrap(),
        "--min-stage-ms",
        "0",
    ]);
    assert_eq!(
        out.status.code(),
        Some(2 - 2),
        "speedup must not regress\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn show_renders_the_dashboard_from_file_and_ledger() {
    let scratch = Scratch::new("show");
    let input = write_fixture(&scratch, 500);
    let ledger = scratch.path("ledger");
    let stats = scratch.path("stats.json");
    let clean = scratch.path("clean.tsv");
    let out = run_clean(&[
        "--in",
        input.to_str().unwrap(),
        "--out",
        clean.to_str().unwrap(),
        "--stats-json",
        stats.to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The output write is timed, and its time is part of the total.
    let text = std::fs::read_to_string(&stats).unwrap();
    assert!(text.contains("\"write_ms\""), "{text}");
    let t = RunReport::parse(&text).unwrap().stats.timings;
    assert!(t.total_ms >= t.write_ms, "{t:?}");

    for source in [
        vec!["show", stats.to_str().unwrap()],
        vec!["show", "--ledger", ledger.to_str().unwrap()],
    ] {
        let out = run_report(&source);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{source:?}\n{stdout}");
        // `eff` is each stage's parallel efficiency, derived from the stored
        // shard timings; the solve splice reports its shards on its own row.
        for needle in [
            "stage",
            "parse",
            "\nwrite ",
            "run health",
            "p50 us",
            "eff",
            "solve.splice",
            "throughput",
        ] {
            assert!(
                stdout.contains(needle),
                "{source:?}: missing {needle:?}\n{stdout}"
            );
        }
        // The ledger entry recorded peak RSS on Linux; the dashboard
        // surfaces whatever memory counters exist.
        assert!(
            stdout.contains("memory"),
            "{source:?}: no memory section\n{stdout}"
        );
    }
    // The ledger-sourced view carries the envelope line.
    let out = run_report(&["show", "--ledger", ledger.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("kind clean"), "{stdout}");
    assert!(stdout.contains("config fp"), "{stdout}");
}

#[test]
fn progress_and_ledger_leave_outputs_byte_identical() {
    let scratch = Scratch::new("identical");
    let input = write_fixture(&scratch, 800);
    for threads in ["1", "8"] {
        for cache in [true, false] {
            let label = format!("t{threads}-c{cache}");
            let base = scratch.path(&format!("base-{label}.tsv"));
            let mut args = vec![
                "--in".to_string(),
                input.to_str().unwrap().to_string(),
                "--out".to_string(),
                base.to_str().unwrap().to_string(),
                "--parallelism".to_string(),
                threads.to_string(),
            ];
            if !cache {
                args.push("--no-parse-cache".to_string());
            }
            let bare = run_clean(&args.iter().map(String::as_str).collect::<Vec<_>>());
            assert!(bare.status.success(), "{label}");

            let observed = scratch.path(&format!("obs-{label}.tsv"));
            let ledger = scratch.path(&format!("ledger-{label}"));
            let mut args2 = args.clone();
            args2[3] = observed.to_str().unwrap().to_string();
            args2.extend([
                "--progress".to_string(),
                "--ledger".to_string(),
                ledger.to_str().unwrap().to_string(),
            ]);
            let obs = run_clean(&args2.iter().map(String::as_str).collect::<Vec<_>>());
            assert!(obs.status.success(), "{label}");

            assert_eq!(
                std::fs::read(&base).unwrap(),
                std::fs::read(&observed).unwrap(),
                "{label}: --progress/--ledger changed the clean log"
            );
            // Progress and the ledger notice write to stderr only; stdout
            // carries the same report either way, modulo the wall-clock
            // timing line (which never repeats exactly between runs).
            let strip_timings = |bytes: &[u8]| -> String {
                String::from_utf8_lossy(bytes)
                    .lines()
                    .filter(|l| !l.starts_with("Stage timings"))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(
                strip_timings(&bare.stdout),
                strip_timings(&obs.stdout),
                "{label}: observability flags changed stdout"
            );
            let stderr = String::from_utf8_lossy(&obs.stderr);
            assert!(
                stderr.contains("appended run ledger entry"),
                "{label}: no ledger notice\n{stderr}"
            );
        }
    }
}

#[test]
fn report_rejects_garbage_and_missing_inputs() {
    let scratch = Scratch::new("errors");
    let garbage = scratch.path("garbage.json");
    std::fs::write(&garbage, "{\"not\": \"a report\"}").unwrap();
    let out = run_report(&["show", garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("neither a run report nor a ledger entry"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = run_report(&["show", scratch.path("missing.json").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));

    // Diffing a one-entry ledger is a usage error, not a panic.
    let ledger = scratch.path("ledger");
    let stats = scratch.path("stats.json");
    let input = write_fixture(&scratch, 100);
    let out = run_clean(&[
        "--in",
        input.to_str().unwrap(),
        "--stats-json",
        stats.to_str().unwrap(),
        "--ledger",
        ledger.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = run_report(&["diff", "--ledger", ledger.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("need 2"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A bare stats file also loads (not only ledger entries) — `show`
    // already covers it; `diff` with mixed sources must too.
    let out = run_report(&["diff", stats.to_str().unwrap(), stats.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn resumed_run_marks_skipped_stages_in_progress_output() {
    let scratch = Scratch::new("resume");
    let input = write_fixture(&scratch, 500);
    let run_dir = scratch.path("run");
    let first = scratch.path("first.tsv");
    let out = run_clean(&[
        "--in",
        input.to_str().unwrap(),
        "--out",
        first.to_str().unwrap(),
        "--run-dir",
        run_dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Resume from the completed run directory: every restored stage must
    // render as skipped in the progress stream, and stdout must say what
    // was resumed.
    let second = scratch.path("second.tsv");
    let out = run_clean(&[
        "--in",
        input.to_str().unwrap(),
        "--out",
        second.to_str().unwrap(),
        "--resume",
        run_dir.to_str().unwrap(),
        "--progress",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("skipped (restored from checkpoint)"),
        "no skipped-stage progress line\n{stderr}"
    );
    assert!(
        stdout.contains("Resumed from checkpoints"),
        "no resume row in the report\n{stdout}"
    );
    assert_eq!(
        std::fs::read(&first).unwrap(),
        std::fs::read(&second).unwrap(),
        "resume changed the clean log"
    );
}

#[test]
fn ledger_entry_carries_fingerprints_and_memory_counters() {
    let scratch = Scratch::new("entry");
    let input = write_fixture(&scratch, 300);
    let ledger_dir = scratch.path("ledger");
    let out = run_clean(&[
        "--in",
        input.to_str().unwrap(),
        "--ledger",
        ledger_dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let (path, entry) = sqlog::obs::Ledger::open(&ledger_dir)
        .expect("open")
        .latest()
        .expect("read")
        .expect("one entry");
    assert!(path.starts_with(&ledger_dir));
    assert_eq!(entry.schema, sqlog::obs::LEDGER_SCHEMA);
    assert_eq!(entry.kind, "clean");
    assert_ne!(entry.config_fingerprint, 0);
    let expected = std::fs::metadata(&input).unwrap().len();
    assert_eq!(entry.input_bytes, expected);
    assert_ne!(entry.input_fnv, 0);
    assert!(!entry.machine.os.is_empty());
    let report = RunReport::from_json(&entry.report).expect("embedded report");
    assert!(report.stats.original_size > 0);
    // Memory accounting flows into the ledger on Linux.
    if cfg!(target_os = "linux") {
        assert!(
            report.obs.counters.get("mem.peak_rss_bytes").copied() > Some(0),
            "no peak RSS counter: {:?}",
            report.obs.counters.keys().collect::<Vec<_>>()
        );
    }
    for key in ["mem.template_store_bytes", "mem.parse_records_bytes"] {
        assert!(
            report.obs.counters.get(key).copied() > Some(0),
            "{key}: {:?}",
            report.obs.counters.keys().collect::<Vec<_>>()
        );
    }
    // Quantiles ride along in the serialized histograms.
    let parse_hist = entry
        .report
        .get("obs")
        .and_then(|o| o.get("histograms"))
        .and_then(|h| h.get("parse.shard_us"))
        .expect("parse shard histogram in ledger JSON");
    for q in ["p50", "p95", "p99"] {
        assert!(
            parse_hist.get(q).and_then(Json::as_u64).is_some(),
            "missing {q} in serialized histogram"
        );
    }
}
