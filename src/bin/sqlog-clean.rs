//! `sqlog-clean` — the framework as a command-line tool.
//!
//! Reads a query log in the `sqlog-log` TSV format, runs the cleaning
//! pipeline, writes the clean (and optionally removal) log, and prints the
//! Table-5-style statistics and the top patterns.
//!
//! ```text
//! sqlog-clean --in LOG.tsv [--out CLEAN.tsv] [--removal REMOVAL.tsv]
//!             [--schema SCHEMA.txt]
//!             [--run-dir DIR | --resume DIR]
//!             [--threshold-ms N | --threshold-unrestricted]
//!             [--session-gap-ms N] [--no-key-axiom] [--parallelism N] [--top K]
//!             [--no-parse-cache]
//!             [--lenient] [--quarantine BAD.tsv]
//!             [--trace-events EVENTS.ndjson] [--stats-json STATS.json]
//! ```
//!
//! The built-in SkyServer-like schema provides the key metadata for
//! Definition 11; `--no-key-axiom` drops that requirement (the paper's
//! discussed simplification), which also makes the tool fully
//! schema-independent.
//!
//! By default ingestion is strict: the first malformed or non-UTF-8 input
//! line aborts with a non-zero exit. `--lenient` skips such lines (copying
//! them verbatim to `--quarantine PATH` when given), reports their counts
//! in the run-health section, and always runs to completion.
//!
//! `--run-dir DIR` makes the run **crash-safe**: every pipeline stage
//! checkpoints its output into `DIR/checkpoints/` atomically as it
//! completes, and `DIR/MANIFEST.json` records the configuration
//! fingerprint and input hash. After a crash (power loss, OOM kill,
//! SIGKILL), `--resume DIR` picks the run up at the last completed stage
//! and produces output byte-identical to an uninterrupted run — at any
//! `--parallelism`, parse cache on or off. A resume refuses to start if
//! the input file or the semantic configuration changed; a corrupted or
//! torn checkpoint is reported and its stage simply re-runs. In lenient
//! mode the quarantine sidecar defaults to `DIR/quarantine.tsv`.
//!
//! All final artifacts (clean log, removal log, quarantine sidecar, trace
//! events, stats JSON) are written atomically — temp file, fsync, rename —
//! so a crash mid-write never leaves a torn file at the destination.
//!
//! Exit codes: **0** = clean success; **2** = the run completed but
//! degraded (quarantined lines, limit-rejected statements, poison records
//! or sessions, recovered shards — see the run-health section); **1** =
//! fatal error (bad usage, unreadable input, refused resume). A resumed
//! run that lost nothing exits 0: interruptions alone are not degradation.
//!
//! The template-aware parse cache is on by default: repeated query shapes
//! skip re-parsing, with byte-identical output either way (the cache
//! hit-rate is reported in the statistics). `--no-parse-cache` disables it,
//! e.g. for A/B timing runs.
//!
//! `--trace-events PATH` and `--stats-json PATH` enable the observability
//! recorder (see `sqlog-obs`): the first writes the full span/counter/
//! histogram/warning event stream as NDJSON, the second a machine-readable
//! run report (statistics + aggregated observability). Both sinks are
//! created *before* the run, so an unwritable path fails fast. Without
//! any observability flag the recorder stays disabled and the pipeline
//! output is byte-identical.
//!
//! `--progress` streams per-stage progress lines (items done, throughput,
//! ETA; checkpoint-restored stages render as skipped) to stderr while the
//! run executes. `--ledger DIR` appends a compact, schema-versioned run
//! summary — the run report plus config fingerprint, input hash, and
//! machine info — to a durable history directory that `sqlog-report` can
//! inspect and diff. Either flag enables the recorder; outputs stay
//! byte-identical.

use sqlog::catalog::{parse_schema, skyserver_catalog, Catalog};
use sqlog::core::checkpoint::{config_fingerprint, hash_file, CheckpointOptions, RunDir};
use sqlog::core::{
    render_pattern_table, render_statistics, top_patterns, Pipeline, PipelineConfig, RunReport,
};
use sqlog::logmodel::{write_log_file_atomic, AtomicFile, IngestPolicy};
use sqlog::obs::{mem, Ledger, LedgerEntry, MachineInfo, ObsReport, Recorder, LEDGER_SCHEMA};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

struct Args {
    input: String,
    output: Option<String>,
    removal: Option<String>,
    schema: Option<String>,
    run_dir: Option<String>,
    resume: Option<String>,
    config: PipelineConfig,
    top: usize,
    lenient: bool,
    quarantine: Option<String>,
    trace_events: Option<String>,
    stats_json: Option<String>,
    progress: bool,
    ledger: Option<String>,
}

const USAGE: &str = "usage: sqlog-clean --in LOG.tsv [--out CLEAN.tsv] [--removal REMOVAL.tsv]\n\
    [--schema SCHEMA.txt] [--run-dir DIR | --resume DIR]\n\
    [--threshold-ms N | --threshold-unrestricted]\n\
    [--session-gap-ms N] [--no-key-axiom] [--parallelism N] [--top K]\n\
    [--no-parse-cache]\n\
    [--lenient] [--quarantine BAD.tsv]\n\
    [--trace-events EVENTS.ndjson] [--stats-json STATS.json]\n\
    [--progress] [--ledger DIR]\n\
\n\
exit codes: 0 = clean success, 2 = completed but degraded (see run\n\
health), 1 = fatal error";

fn parse_args() -> Result<Args, String> {
    let mut input = None;
    let mut output = None;
    let mut removal = None;
    let mut schema = None;
    let mut run_dir = None;
    let mut resume = None;
    let mut config = PipelineConfig::default();
    let mut top = 15usize;
    let mut lenient = false;
    let mut quarantine = None;
    let mut trace_events = None;
    let mut stats_json = None;
    let mut progress = false;
    let mut ledger = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--in" => input = Some(value("--in")?),
            "--out" => output = Some(value("--out")?),
            "--removal" => removal = Some(value("--removal")?),
            "--schema" => schema = Some(value("--schema")?),
            "--run-dir" => run_dir = Some(value("--run-dir")?),
            "--resume" => resume = Some(value("--resume")?),
            "--threshold-ms" => {
                config.duplicate_threshold_ms = Some(
                    value("--threshold-ms")?
                        .parse()
                        .map_err(|e| format!("bad --threshold-ms: {e}"))?,
                );
            }
            "--threshold-unrestricted" => config.duplicate_threshold_ms = None,
            "--session-gap-ms" => {
                config.session_gap_ms = value("--session-gap-ms")?
                    .parse()
                    .map_err(|e| format!("bad --session-gap-ms: {e}"))?;
            }
            "--no-key-axiom" => config.require_key_attribute = false,
            "--parallelism" => {
                config.parallelism = value("--parallelism")?
                    .parse()
                    .map_err(|e| format!("bad --parallelism: {e}"))?;
            }
            "--top" => {
                top = value("--top")?
                    .parse()
                    .map_err(|e| format!("bad --top: {e}"))?;
            }
            "--no-parse-cache" => config.parse_cache = false,
            "--lenient" => lenient = true,
            "--quarantine" => quarantine = Some(value("--quarantine")?),
            "--trace-events" => trace_events = Some(value("--trace-events")?),
            "--stats-json" => stats_json = Some(value("--stats-json")?),
            "--progress" => progress = true,
            "--ledger" => ledger = Some(value("--ledger")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if quarantine.is_some() && !lenient {
        return Err("--quarantine requires --lenient".to_string());
    }
    if run_dir.is_some() && resume.is_some() {
        return Err("--run-dir starts fresh and --resume continues; pick one".to_string());
    }
    Ok(Args {
        input: input.ok_or("--in is required")?,
        output,
        removal,
        schema,
        run_dir,
        resume,
        config,
        top,
        lenient,
        quarantine,
        trace_events,
        stats_json,
        progress,
        ledger,
    })
}

/// Formats one live progress line for the current stage.
fn progress_line(p: &sqlog::obs::ProgressSnapshot) -> String {
    let mut line = if p.total > 0 {
        format!(
            "progress: {:<8} {}/{} ({:.1}%)",
            p.stage,
            p.done,
            p.total,
            p.done as f64 * 100.0 / p.total as f64
        )
    } else {
        format!("progress: {:<8} {} items", p.stage, p.done)
    };
    let rate = p.throughput_per_sec();
    if p.done > 0 && rate > 0.0 {
        line.push_str(&format!("  {rate:.0}/s"));
    }
    if let Some(eta) = p.eta_secs() {
        line.push_str(&format!("  ETA {eta:.1}s"));
    }
    line
}

/// Spawns the `--progress` printer: polls the recorder's stage gauge and
/// writes a stderr line whenever it advances. The poller only reads —
/// output artifacts stay byte-identical with or without it.
fn spawn_progress_printer(rec: Recorder, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut last = (0u64, u64::MAX);
        let mut skipped_seen = 0usize;
        // Skipped stages are consumed from the recorder's log rather than
        // the live gauge: several stages can be restored between two polls,
        // and each must still surface exactly once.
        let drain_skipped = |seen: &mut usize| {
            for stage in rec.skipped_stages().iter().skip(*seen) {
                eprintln!("progress: {stage:<8} skipped (restored from checkpoint)");
                *seen += 1;
            }
        };
        while !stop.load(Ordering::Relaxed) {
            drain_skipped(&mut skipped_seen);
            if let Some(p) = rec.progress() {
                if !p.skipped && (p.seq, p.done) != last {
                    last = (p.seq, p.done);
                    eprintln!("{}", progress_line(&p));
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        // Final state, so the last stage's completion is never swallowed.
        drain_skipped(&mut skipped_seen);
        if let Some(p) = rec.progress() {
            if !p.skipped && (p.seq, p.done) != last {
                eprintln!("{}", progress_line(&p));
            }
        }
    })
}

/// Creates an observability sink up front as an atomic file: an unwritable
/// path must fail before the run, not after minutes of pipeline work, and
/// a crash mid-write must not leave a torn artifact at the destination.
fn create_sink(path: Option<&str>) -> Result<Option<AtomicFile>, String> {
    path.map(|p| AtomicFile::create(p).map_err(|e| format!("cannot create {p}: {e}")))
        .transpose()
}

fn main() {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            exit(if msg.is_empty() { 0 } else { 1 });
        }
    };

    // Observability: either flag enables the recorder; the sinks are opened
    // before any work so a bad path cannot waste a run.
    let (mut trace_sink, mut stats_sink) = match (
        create_sink(args.trace_events.as_deref()),
        create_sink(args.stats_json.as_deref()),
    ) {
        (Ok(t), Ok(s)) => (t, s),
        (Err(msg), _) | (_, Err(msg)) => {
            eprintln!("error: {msg}");
            exit(1);
        }
    };
    // Any observability consumer enables the recorder; outputs are pinned
    // byte-identical either way.
    let rec =
        if trace_sink.is_some() || stats_sink.is_some() || args.progress || args.ledger.is_some() {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
    args.config.recorder = rec.clone();

    // The ledger directory is opened before the run: an unwritable history
    // must fail fast, like the other sinks.
    let ledger = match args.ledger.as_deref().map(Ledger::open).transpose() {
        Ok(l) => l,
        Err(e) => {
            eprintln!(
                "error: cannot open ledger {}: {e}",
                args.ledger.as_deref().unwrap_or_default()
            );
            exit(1);
        }
    };

    let progress_stop = Arc::new(AtomicBool::new(false));
    let progress_printer = args
        .progress
        .then(|| spawn_progress_printer(rec.clone(), Arc::clone(&progress_stop)));

    // A user-supplied schema replaces the built-in SkyServer-like one. The
    // catalog is needed up front: the run-directory manifest fingerprints it.
    let catalog: Catalog = match &args.schema {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: cannot read {path}: {e}");
                    exit(1);
                }
            };
            match parse_schema(&text) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    exit(1);
                }
            }
        }
        None => skyserver_catalog(),
    };

    // Captured before the config moves into the pipeline: the ledger entry
    // carries the same semantic fingerprint as a checkpoint manifest would.
    let cfg_fp = config_fingerprint(&args.config, &catalog);

    let run_dir = match (&args.run_dir, &args.resume) {
        (Some(path), None) => Some(RunDir::create(path)),
        (None, Some(path)) => Some(RunDir::open(path)),
        _ => None,
    }
    .transpose()
    .unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        exit(1);
    });

    // One file-input path, crash-safe or not: with a run directory every
    // stage checkpoints into it.
    let opts = CheckpointOptions {
        input: PathBuf::from(&args.input),
        policy: if args.lenient {
            IngestPolicy::Lenient
        } else {
            IngestPolicy::Strict
        },
        quarantine: args.quarantine.as_ref().map(PathBuf::from).or_else(|| {
            run_dir
                .as_ref()
                .filter(|_| args.lenient)
                .map(RunDir::quarantine_path)
        }),
        resume: args.resume.is_some(),
        stop_after: None,
    };
    let outcome = match Pipeline::new(&catalog)
        .with_config(args.config)
        .run_file(&opts, run_dir.as_ref())
    {
        Ok(Some(o)) => o,
        Ok(None) => unreachable!("no stop_after requested"),
        Err(msg) => {
            eprintln!("error: {msg}");
            exit(1);
        }
    };
    eprintln!(
        "read {} entries from {}",
        outcome.ingest_stats.entries, args.input
    );
    // Which stages a resume restored from checkpoints, for the report.
    let loaded_stages = outcome.loaded_stages;
    if !loaded_stages.is_empty() {
        eprintln!(
            "resumed from {}: loaded checkpoints for {}",
            args.resume.as_deref().unwrap_or_default(),
            loaded_stages.join(", ")
        );
    }
    let mut result = outcome.result;

    // The two output logs are written under the write span, before the
    // report, so the printed report carries the write's cost too.
    if args.output.is_some() || args.removal.is_some() {
        let write = rec.stage("write", 0);
        let outputs = [
            ("clean", &args.output, &result.clean_log),
            ("removal", &args.removal, &result.removal_log),
        ];
        for (kind, path, log) in outputs {
            let Some(path) = path else { continue };
            if let Err(e) = write_log_file_atomic(log, path) {
                eprintln!("error: cannot write {path}: {e}");
                exit(1);
            }
            eprintln!("wrote {kind} log ({} entries) to {path}", log.len());
        }
        let write_ms = write.finish().as_millis() as u64;
        result.stats.timings.write_ms = write_ms;
        result.stats.timings.total_ms += write_ms;
    }

    // The pipeline is done: account the process's peak footprint before
    // the report is built, so it lands in --stats-json and the ledger.
    if let Some(peak) = mem::peak_rss_bytes() {
        rec.counter("mem.peak_rss_bytes", peak);
    }

    // Render once under the report span to measure its cost, fold the
    // measurement into the timings, then render again so the printed (and
    // serialized) report carries its own cost.
    let report = rec.stage("report", 0);
    let _ = render_statistics(&result.stats);
    let rows = top_patterns(&result.mined, &result.marks, &result.store, args.top, 2);
    let report_ms = report.finish().as_millis() as u64;
    result.stats.timings.report_ms = report_ms;
    result.stats.timings.total_ms += report_ms;

    // The run body is over — stop the live progress stream before the
    // final report so its lines don't interleave with artifact messages.
    progress_stop.store(true, Ordering::Relaxed);
    if let Some(h) = progress_printer {
        let _ = h.join();
    }

    // render_statistics already reports the interruption count in its run
    // health row; the stage list rides below it in the same table layout.
    let resume_row = (!loaded_stages.is_empty()).then(|| {
        format!(
            "{:<44} {} stage{} ({})",
            "Resumed from checkpoints",
            loaded_stages.len(),
            if loaded_stages.len() == 1 { "" } else { "s" },
            loaded_stages.join(", ")
        )
    });
    print!("{}", render_statistics(&result.stats));
    if let Some(row) = &resume_row {
        println!("{row}");
    }
    println!();
    println!("top {} patterns (antipatterns marked):", args.top);
    println!("{}", render_pattern_table(&rows));

    if let Some(mut w) = trace_sink.take() {
        if let Err(e) = rec.write_events(&mut w).and_then(|()| w.commit()) {
            eprintln!("error: cannot write trace events: {e}");
            exit(1);
        }
        eprintln!(
            "wrote trace events to {}",
            args.trace_events.as_deref().unwrap_or_default()
        );
    }
    // One RunReport serves both consumers: the stats JSON sink and the
    // ledger entry.
    let run_report = (stats_sink.is_some() || ledger.is_some()).then(|| RunReport {
        stats: result.stats.clone(),
        obs: ObsReport::from_recorder(&rec),
    });
    if let Some(mut w) = stats_sink.take() {
        let report = run_report.as_ref().expect("built when a sink exists");
        if let Err(e) = writeln!(w, "{}", report.render()).and_then(|()| w.commit()) {
            eprintln!("error: cannot write stats json: {e}");
            exit(1);
        }
        eprintln!(
            "wrote run report to {}",
            args.stats_json.as_deref().unwrap_or_default()
        );
    }

    if let Some(ledger) = &ledger {
        let report = run_report.as_ref().expect("built when a ledger exists");
        // Input identity reuses the checkpoint manifest's hashing; a
        // vanished input (raced away mid-run) degrades to zeros rather
        // than losing the entry.
        let (input_bytes, input_fnv) =
            hash_file(std::path::Path::new(&args.input)).unwrap_or((0, 0));
        let entry = LedgerEntry {
            schema: LEDGER_SCHEMA,
            kind: "clean".to_string(),
            created_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            config_fingerprint: cfg_fp,
            input_bytes,
            input_fnv,
            machine: MachineInfo::capture(),
            report: report.to_json(),
        };
        match ledger.append(&entry) {
            Ok(path) => eprintln!("appended run ledger entry {}", path.display()),
            Err(e) => {
                eprintln!(
                    "error: cannot append to ledger {}: {e}",
                    ledger.dir().display()
                );
                exit(1);
            }
        }
    }

    // Every artifact is on disk: a checkpointed run is now complete, and a
    // later --resume of this directory replays checkpoints without counting
    // another interruption.
    if let Some(dir) = &run_dir {
        if let Err(msg) = dir.mark_completed() {
            eprintln!("error: {msg}");
            exit(1);
        }
    }

    if result.stats.run_health.completed_degraded() {
        eprintln!("run completed degraded (see run health above); exiting 2");
        exit(2);
    }
}
