//! `sqlog-report` — inspect and compare sqlog run reports.
//!
//! Works on the run-report JSON written by `sqlog-clean --stats-json`, or
//! on the run-ledger entries appended by `--ledger DIR` (a directory of
//! schema-versioned run summaries; see `sqlog-obs`'s ledger module).
//!
//! ```text
//! sqlog-report show  (STATS.json | --ledger DIR)
//! sqlog-report diff  (OLD.json NEW.json | --ledger DIR)
//!                    [--max-stage-ratio R]  per-stage slowdown gate (default 1.5)
//!                    [--min-stage-ms MS]    ignore stages faster than this (default 50)
//!                    [--max-mem-ratio R]    peak-RSS growth gate (default 1.5)
//! ```
//!
//! `show` renders a terminal dashboard: per-stage wall and self time,
//! shard count and imbalance factor, p50/p95/p99 shard latency from the
//! log2 histograms, parse-cache hit rate, memory accounting, and the run
//! health verdict.
//!
//! `diff` compares two runs metric by metric and renders a verdict table.
//! A metric **regresses** when it slows down (or grows) past its ratio
//! gate; stages faster than `--min-stage-ms` in both runs are ignored as
//! noise. With `--ledger DIR` the last two entries are compared — the
//! natural CI gate: run the corpus, append to the ledger, diff.
//!
//! Exit codes: **0** = no regression; **2** = at least one regression;
//! **1** = fatal error (bad usage, unreadable or unparsable input).

use sqlog::core::{RunReport, StageTimings};
use sqlog::obs::{Json, Ledger, LedgerEntry, StageSummary};
use std::process::exit;

const USAGE: &str = "usage:
  sqlog-report show  (STATS.json | --ledger DIR)
  sqlog-report diff  (OLD.json NEW.json | --ledger DIR)
                     [--max-stage-ratio R] [--min-stage-ms MS] [--max-mem-ratio R]

Inputs may be run-report JSON files (from sqlog-clean --stats-json) or
individual run-ledger entry files; --ledger DIR reads the newest entries
from a ledger directory instead.";

fn fatal(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}

/// One loaded run: the report plus an optional ledger envelope. `report`
/// is `None` for ledger entries of a non-pipeline kind (e.g. `"conform"`),
/// whose embedded report follows its own schema.
struct LoadedRun {
    label: String,
    report: Option<RunReport>,
    entry: Option<LedgerEntry>,
}

impl LoadedRun {
    /// The pipeline run report, or a fatal error for entries of another
    /// kind (used by `diff`, which only compares pipeline runs).
    fn pipeline_report(&self) -> &RunReport {
        self.report.as_ref().unwrap_or_else(|| {
            let kind = self
                .entry
                .as_ref()
                .map(|e| e.kind.as_str())
                .unwrap_or("unknown");
            fatal(&format!(
                "{}: kind {kind:?} entries carry no pipeline run report; \
                 diff compares \"clean\" runs",
                self.label
            ))
        })
    }
}

/// Parses the report embedded in a ledger entry. Pipeline entries (kind
/// `"clean"`) must carry a well-formed run report; other kinds embed their
/// own schema and are rendered generically by `show`.
fn embedded_report(label: &str, entry: &LedgerEntry) -> Option<RunReport> {
    match RunReport::from_json(&entry.report) {
        Ok(report) => Some(report),
        Err(e) if entry.kind == "clean" => fatal(&format!("{label}: ledger entry report: {e}")),
        Err(_) => None,
    }
}

/// Parses a file that is either a bare run report or a ledger entry
/// wrapping one.
fn load_report_file(path: &str) -> LoadedRun {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fatal(&format!("cannot read {path}: {e}")));
    let v = Json::parse(&text).unwrap_or_else(|e| fatal(&format!("{path}: {e}")));
    if let Ok(report) = RunReport::from_json(&v) {
        return LoadedRun {
            label: path.to_string(),
            report: Some(report),
            entry: None,
        };
    }
    match LedgerEntry::from_json(&v) {
        Ok(entry) => LoadedRun {
            label: path.to_string(),
            report: embedded_report(path, &entry),
            entry: Some(entry),
        },
        Err(e) => fatal(&format!(
            "{path}: neither a run report nor a ledger entry: {e}"
        )),
    }
}

/// Loads the newest `n` entries of a ledger, oldest first.
fn load_ledger_tail(dir: &str, n: usize) -> Vec<LoadedRun> {
    let ledger =
        Ledger::open(dir).unwrap_or_else(|e| fatal(&format!("cannot open ledger {dir}: {e}")));
    let (entries, warnings) = ledger
        .entries()
        .unwrap_or_else(|e| fatal(&format!("cannot read ledger {dir}: {e}")));
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    if entries.len() < n {
        fatal(&format!(
            "ledger {dir} has {} readable entr{}, need {n}",
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" }
        ));
    }
    let skip = entries.len() - n;
    entries
        .into_iter()
        .skip(skip)
        .map(|(path, entry)| {
            let label = path.display().to_string();
            LoadedRun {
                report: embedded_report(&label, &entry),
                label,
                entry: Some(entry),
            }
        })
        .collect()
}

/// Accessor for one named wall-clock stage of [`StageTimings`].
type StagePick = fn(&StageTimings) -> u64;

/// The named wall-clock stages of [`StageTimings`], in pipeline order.
const STAGES: [(&str, StagePick); 10] = [
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

/// How much of a stage's shards-times-wall budget its shards spent
/// working: Σ shard `dur_us` / (stage `total_us` × shards). 100 % means
/// every shard ran for the whole stage; `None` without shards or time.
fn parallel_efficiency(s: &StageSummary) -> Option<f64> {
    let budget = s.total_us * s.shards.len() as u64;
    (budget > 0).then(|| s.shards.iter().map(|sh| sh.dur_us).sum::<u64>() as f64 / budget as f64)
}

fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = b as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

fn fmt_unix_ms(ms: u64) -> String {
    // Days-from-civil inverse (Howard Hinnant's algorithm), UTC. Avoids a
    // date-time dependency for one timestamp field.
    let secs = (ms / 1000) as i64;
    let days = secs.div_euclid(86_400);
    let rem = secs.rem_euclid(86_400);
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02} {h:02}:{m:02}:{s:02}Z")
}

fn run_health_line(report: &RunReport) -> String {
    let h = &report.stats.run_health;
    if h.is_clean() && h.interruptions == 0 {
        "clean".to_string()
    } else if h.is_clean() {
        format!(
            "clean (resumed after {} interruption{})",
            h.interruptions,
            if h.interruptions == 1 { "" } else { "s" }
        )
    } else {
        format!(
            "degraded (quarantined {}, invalid utf8 {}, limit rejected {}, \
             poison records {}, poison sessions {}, degraded shards {})",
            h.quarantined_lines,
            h.invalid_utf8_lines,
            h.limit_rejected,
            h.poison_records,
            h.poison_sessions,
            h.degraded_shards
        )
    }
}

/// Flat key/value rendering for non-pipeline reports (e.g. a conformance
/// run): top-level scalars, then one indented block per nested object.
fn show_generic(report: &Json) {
    let Json::Obj(fields) = report else {
        println!("{}", report.render());
        return;
    };
    for (key, value) in fields {
        match value {
            Json::Obj(inner) => {
                println!("{key}:");
                for (k, v) in inner {
                    if !matches!(v, Json::Obj(_) | Json::Arr(_)) {
                        println!("  {k:<30} {}", v.render());
                    }
                }
            }
            Json::Arr(items) => println!("{key:<32} [{} items]", items.len()),
            scalar => println!("{key:<32} {}", scalar.render()),
        }
    }
}

fn cmd_show(run: &LoadedRun) {
    println!("run report: {}", run.label);
    if let Some(entry) = &run.entry {
        println!(
            "  kind {}  recorded {}  config fp {:016x}  input {} (fnv {:016x})",
            entry.kind,
            fmt_unix_ms(entry.created_unix_ms),
            entry.config_fingerprint,
            fmt_bytes(entry.input_bytes),
            entry.input_fnv
        );
        println!(
            "  machine: {}/{} · {} cpu{} · {}",
            entry.machine.os,
            entry.machine.arch,
            entry.machine.cpus,
            if entry.machine.cpus == 1 { "" } else { "s" },
            if entry.machine.hostname.is_empty() {
                "<unknown host>"
            } else {
                &entry.machine.hostname
            }
        );
    }
    println!();

    let Some(report) = &run.report else {
        // Non-pipeline entry: no stage table to draw; show the embedded
        // report's own fields instead.
        show_generic(&run.entry.as_ref().expect("report or entry").report);
        return;
    };
    let stats = &report.stats;

    println!(
        "{:<12} {:>9} {:>7} {:>9} {:>6} {:>9} {:>9} {:>9}",
        "stage", "wall ms", "shards", "imbal", "eff", "p50 us", "p95 us", "p99 us"
    );
    // The timed stages, then the sub-passes that report their own shards
    // under a span of their own (the solve stage's `solve.splice`, whose
    // wall time is part of solve's and is read from its span).
    let timed = STAGES
        .iter()
        .map(|&(name, pick)| (name, pick(&stats.timings)));
    let sub_passes = report
        .obs
        .stages
        .iter()
        .filter(|(name, s)| !s.shards.is_empty() && !STAGES.iter().any(|(n, _)| n == name))
        .map(|(name, s)| (name.as_str(), s.total_us / 1000));
    for (name, wall) in timed.chain(sub_passes) {
        let summary = report.obs.stages.get(name);
        let hist = report.obs.histograms.get(&format!("{name}.shard_us"));
        let (shards, imbalance) = summary
            .map(|s| (s.shards.len(), s.imbalance))
            .unwrap_or((0, 0.0));
        let (p50, p95, p99) = hist
            .filter(|h| h.count > 0)
            .map(|h| (h.p50(), h.p95(), h.p99()))
            .unwrap_or((0, 0, 0));
        let imbal = if imbalance > 0.0 {
            format!("{imbalance:.2}x")
        } else {
            "-".to_string()
        };
        let eff = summary
            .and_then(parallel_efficiency)
            .map_or_else(|| "-".to_string(), |e| format!("{:.0}%", e * 100.0));
        println!("{name:<12} {wall:>9} {shards:>7} {imbal:>9} {eff:>6} {p50:>9} {p95:>9} {p99:>9}");
    }
    println!(
        "{:<12} {:>9}   (stage sum {} ms)",
        "total",
        stats.timings.total_ms,
        stats.timings.stage_sum_ms()
    );
    println!();

    let c = &stats.parse_cache;
    if c.enabled {
        let lookups = c.hits + c.misses + c.fallbacks;
        let rate = if lookups > 0 {
            c.hits as f64 * 100.0 / lookups as f64
        } else {
            0.0
        };
        println!(
            "parse cache: {rate:.1}% hit rate ({} hits, {} misses, {} fallbacks)",
            c.hits, c.misses, c.fallbacks
        );
    } else {
        println!("parse cache: disabled");
    }

    let throughput = throughput_qps(report);
    println!(
        "throughput: {} statements in {} ms{}",
        stats.original_size,
        stats.timings.total_ms,
        throughput
            .map(|t| format!(" ({t:.0} stmt/s)"))
            .unwrap_or_default()
    );

    let mem_rows: Vec<(String, u64)> = report
        .obs
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("mem.") || k.starts_with("checkpoint.bytes."))
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    if mem_rows.is_empty() {
        println!("memory: not recorded");
    } else {
        println!("memory:");
        for (k, v) in mem_rows {
            println!("  {k:<32} {}", fmt_bytes(v));
        }
    }

    println!("run health: {}", run_health_line(report));
    if !report.obs.warnings.is_empty() {
        println!("warnings ({}):", report.obs.warnings.len());
        for w in &report.obs.warnings {
            println!("  {w}");
        }
    }
}

/// Statements per second over the whole run; `None` when the run was too
/// fast to time (total_ms == 0).
fn throughput_qps(report: &RunReport) -> Option<f64> {
    let ms = report.stats.timings.total_ms;
    if ms == 0 {
        return None;
    }
    Some(report.stats.original_size as f64 * 1000.0 / ms as f64)
}

fn peak_rss(report: &RunReport) -> Option<u64> {
    report.obs.counters.get("mem.peak_rss_bytes").copied()
}

struct DiffGates {
    max_stage_ratio: f64,
    min_stage_ms: u64,
    max_mem_ratio: f64,
}

enum Verdict {
    Ok,
    Improved,
    Regressed,
    Skipped(&'static str),
}

struct DiffRow {
    metric: String,
    old: String,
    new: String,
    change: String,
    verdict: Verdict,
}

/// Ratio-gated comparison of a "lower is better" metric.
fn gate_slowdown(old: u64, new: u64, ratio: f64) -> Verdict {
    if old == 0 && new == 0 {
        return Verdict::Ok;
    }
    if old == 0 {
        // Nothing to scale a ratio from; flag only clearly material growth.
        return Verdict::Ok;
    }
    let r = new as f64 / old as f64;
    if r > ratio {
        Verdict::Regressed
    } else if r < 1.0 / ratio {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn change_pct(old: f64, new: f64) -> String {
    if old == 0.0 {
        return "-".to_string();
    }
    let pct = (new - old) * 100.0 / old;
    format!("{pct:+.1}%")
}

fn diff_rows(old: &RunReport, new: &RunReport, gates: &DiffGates) -> Vec<DiffRow> {
    let mut rows = Vec::new();

    for (name, pick) in STAGES {
        let (o, n) = (pick(&old.stats.timings), pick(&new.stats.timings));
        let verdict = if o < gates.min_stage_ms && n < gates.min_stage_ms {
            Verdict::Skipped("below --min-stage-ms")
        } else {
            gate_slowdown(o, n, gates.max_stage_ratio)
        };
        rows.push(DiffRow {
            metric: format!("stage {name} (ms)"),
            old: o.to_string(),
            new: n.to_string(),
            change: change_pct(o as f64, n as f64),
            verdict,
        });
    }

    let (o, n) = (old.stats.timings.total_ms, new.stats.timings.total_ms);
    let verdict = if o < gates.min_stage_ms && n < gates.min_stage_ms {
        Verdict::Skipped("below --min-stage-ms")
    } else {
        gate_slowdown(o, n, gates.max_stage_ratio)
    };
    rows.push(DiffRow {
        metric: "total (ms)".to_string(),
        old: o.to_string(),
        new: n.to_string(),
        change: change_pct(o as f64, n as f64),
        verdict,
    });

    // Throughput is total-time derived, so it inherits the same gate; it
    // exists as its own row because CI thresholds are easier to reason
    // about in statements/second than in milliseconds.
    match (throughput_qps(old), throughput_qps(new)) {
        (Some(ot), Some(nt)) => {
            let verdict = if old.stats.timings.total_ms < gates.min_stage_ms
                && new.stats.timings.total_ms < gates.min_stage_ms
            {
                Verdict::Skipped("below --min-stage-ms")
            } else if nt * gates.max_stage_ratio < ot {
                Verdict::Regressed
            } else if ot * gates.max_stage_ratio < nt {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            rows.push(DiffRow {
                metric: "throughput (stmt/s)".to_string(),
                old: format!("{ot:.0}"),
                new: format!("{nt:.0}"),
                change: change_pct(ot, nt),
                verdict,
            });
        }
        _ => rows.push(DiffRow {
            metric: "throughput (stmt/s)".to_string(),
            old: "-".to_string(),
            new: "-".to_string(),
            change: "-".to_string(),
            verdict: Verdict::Skipped("run too fast to time"),
        }),
    }

    match (peak_rss(old), peak_rss(new)) {
        (Some(o), Some(n)) => rows.push(DiffRow {
            metric: "peak RSS".to_string(),
            old: fmt_bytes(o),
            new: fmt_bytes(n),
            change: change_pct(o as f64, n as f64),
            verdict: gate_slowdown(o, n, gates.max_mem_ratio),
        }),
        _ => rows.push(DiffRow {
            metric: "peak RSS".to_string(),
            old: "-".to_string(),
            new: "-".to_string(),
            change: "-".to_string(),
            verdict: Verdict::Skipped("not recorded in both runs"),
        }),
    }

    rows
}

fn cmd_diff(old: &LoadedRun, new: &LoadedRun, gates: &DiffGates) -> i32 {
    println!("old: {}", old.label);
    println!("new: {}", new.label);
    if let (Some(a), Some(b)) = (&old.entry, &new.entry) {
        if a.config_fingerprint != b.config_fingerprint {
            println!(
                "note: config fingerprints differ ({:016x} vs {:016x}) — \
                 runs are not like-for-like",
                a.config_fingerprint, b.config_fingerprint
            );
        }
        if a.input_fnv != b.input_fnv {
            println!("note: input files differ — runs are not like-for-like");
        }
    }
    println!(
        "gates: stage ratio {:.2}x over {} ms, memory ratio {:.2}x",
        gates.max_stage_ratio, gates.min_stage_ms, gates.max_mem_ratio
    );
    println!();
    println!(
        "{:<22} {:>12} {:>12} {:>8}  verdict",
        "metric", "old", "new", "change"
    );
    let rows = diff_rows(old.pipeline_report(), new.pipeline_report(), gates);
    let mut regressions = 0usize;
    for row in &rows {
        let verdict = match &row.verdict {
            Verdict::Ok => "ok".to_string(),
            Verdict::Improved => "improved".to_string(),
            Verdict::Regressed => {
                regressions += 1;
                "REGRESSED".to_string()
            }
            Verdict::Skipped(why) => format!("skipped ({why})"),
        };
        println!(
            "{:<22} {:>12} {:>12} {:>8}  {verdict}",
            row.metric, row.old, row.new, row.change
        );
    }
    println!();
    if regressions > 0 {
        println!(
            "verdict: {regressions} regression{} detected",
            if regressions == 1 { "" } else { "s" }
        );
        2
    } else {
        println!("verdict: no regressions");
        0
    }
}

fn parse_f64(flag: &str, value: Option<String>) -> f64 {
    let v = value.unwrap_or_else(|| fatal(&format!("{flag} needs a value")));
    let parsed: f64 = v
        .parse()
        .unwrap_or_else(|_| fatal(&format!("{flag}: not a number: {v}")));
    if !parsed.is_finite() || parsed < 1.0 {
        fatal(&format!("{flag}: must be a finite ratio >= 1.0, got {v}"));
    }
    parsed
}

/// Restores the default SIGPIPE disposition so `sqlog-report show | head`
/// terminates quietly instead of panicking on the closed pipe. Rust's
/// runtime ignores SIGPIPE by default, which suits servers but not a
/// terminal tool whose output is routinely paged.
#[cfg(unix)]
fn reset_sigpipe() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    unsafe {
        signal(SIGPIPE, SIG_DFL);
    }
}

#[cfg(not(unix))]
fn reset_sigpipe() {}

fn main() {
    reset_sigpipe();
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| {
        eprintln!("{USAGE}");
        exit(1)
    });

    let mut files: Vec<String> = Vec::new();
    let mut ledger_dir: Option<String> = None;
    let mut gates = DiffGates {
        max_stage_ratio: 1.5,
        min_stage_ms: 50,
        max_mem_ratio: 1.5,
    };
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--ledger" => {
                ledger_dir = Some(argv.next().unwrap_or_else(|| fatal("--ledger needs a dir")))
            }
            "--max-stage-ratio" => gates.max_stage_ratio = parse_f64(&arg, argv.next()),
            "--max-mem-ratio" => gates.max_mem_ratio = parse_f64(&arg, argv.next()),
            "--min-stage-ms" => {
                let v = argv
                    .next()
                    .unwrap_or_else(|| fatal("--min-stage-ms needs a value"));
                gates.min_stage_ms = v
                    .parse()
                    .unwrap_or_else(|_| fatal(&format!("--min-stage-ms: not a number: {v}")));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ if arg.starts_with("--") => fatal(&format!("unknown flag {arg}\n{USAGE}")),
            _ => files.push(arg),
        }
    }

    match cmd.as_str() {
        "show" => {
            let run = match (&ledger_dir, files.as_slice()) {
                (Some(dir), []) => load_ledger_tail(dir, 1).pop().expect("tail of 1"),
                (None, [path]) => load_report_file(path),
                _ => fatal(&format!(
                    "show takes one report file or --ledger DIR\n{USAGE}"
                )),
            };
            cmd_show(&run);
        }
        "diff" => {
            let (old, new) = match (&ledger_dir, files.as_slice()) {
                (Some(dir), []) => {
                    let mut tail = load_ledger_tail(dir, 2);
                    let new = tail.pop().expect("tail of 2");
                    let old = tail.pop().expect("tail of 2");
                    (old, new)
                }
                (None, [a, b]) => (load_report_file(a), load_report_file(b)),
                _ => fatal(&format!(
                    "diff takes two report files or --ledger DIR\n{USAGE}"
                )),
            };
            exit(cmd_diff(&old, &new, &gates));
        }
        "--help" | "-h" | "help" => println!("{USAGE}"),
        other => fatal(&format!("unknown command {other:?}\n{USAGE}")),
    }
}
