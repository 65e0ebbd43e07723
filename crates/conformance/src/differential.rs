//! The differential matrix: one log, every execution configuration,
//! byte-identical output.
//!
//! The pipeline promises that thread count, the parse cache and the
//! ingestion policy are *pure* execution knobs — none of them may change
//! what comes out. The matrix serializes the generated log to its TSV wire
//! form, re-ingests it under every combination of
//! `threads {1, 2, 8, auto}` × `{cache, no-cache}` ×
//! `{strict, lenient, lenient-over-hostile-bytes}`, runs the full pipeline,
//! and diffs a byte digest (clean log ‖ removal log ‖ stable statistics)
//! against the reference leg.
//!
//! The hostile leg appends deliberately unreadable lines (structural
//! damage, invalid UTF-8) to the wire bytes; lenient ingestion must
//! quarantine exactly those lines and leave the surviving log — and thus
//! every downstream byte — untouched.
//!
//! A final **resumed leg** covers the crash-recovery promise: the same
//! input run through the checkpointing driver, interrupted after the mine
//! stage, and resumed at a *different* thread count must still match the
//! reference digest byte for byte, and leave the same stage checkpoints as
//! an uninterrupted 1-thread run.

use sqlog_catalog::Catalog;
use sqlog_core::checkpoint::{run_checkpointed, CheckpointOptions, RunDir, Stage};
use sqlog_core::{Pipeline, PipelineConfig, PipelineResult, Statistics};
use sqlog_log::{read_log_with, write_log, IngestPolicy, QueryLog};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread counts exercised by the matrix (0 = auto).
pub const THREAD_COUNTS: &[usize] = &[1, 2, 8, 0];

/// Unreadable lines injected into the hostile leg. Each one must be
/// rejected by the TSV reader: wrong field count, malformed numeric
/// fields, or invalid UTF-8.
pub const HOSTILE_LINES: &[&[u8]] = &[
    b"not a log line\n",
    b"\xff\xfe broken \xf0 utf8\tline\tx\ty\tz\tw\tv\n",
    b"42\tnot-a-timestamp\tu\t\t\t\tSELECT 1\n",
    b"7\t7000\tu\n",
];

/// Outcome of the matrix.
#[derive(Debug, Clone, Default)]
pub struct DifferentialReport {
    /// Pipeline runs executed (reference leg included).
    pub legs: usize,
    /// Hostile lines injected into the lenient-over-hostile-bytes leg.
    pub hostile_lines: usize,
    /// Entries of the reference ingest (every leg must agree).
    pub entries: usize,
    /// Human-readable description of every disagreeing leg (empty = pass).
    pub mismatches: Vec<String>,
}

impl DifferentialReport {
    /// Did every leg match the reference byte-for-byte?
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The three ingestion variants of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IngestLeg {
    StrictClean,
    LenientClean,
    LenientHostile,
}

impl IngestLeg {
    fn label(self) -> &'static str {
        match self {
            IngestLeg::StrictClean => "strict",
            IngestLeg::LenientClean => "lenient",
            IngestLeg::LenientHostile => "lenient+hostile",
        }
    }
}

/// Serializes a log to its TSV wire bytes.
pub fn wire_bytes(log: &QueryLog) -> Vec<u8> {
    let mut out = Vec::new();
    write_log(log, &mut out).expect("serialize log to memory");
    out
}

/// Interleaves the hostile lines into clean wire bytes at deterministic
/// positions: one garbage line before everything, then one after every
/// 97th log line, cycling through [`HOSTILE_LINES`]. Returns the bytes and
/// the number of injected lines.
pub fn inject_hostile(clean: &[u8]) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(clean.len() + 64);
    let mut injected = 0usize;
    let mut next = || {
        let line = HOSTILE_LINES[injected % HOSTILE_LINES.len()];
        injected += 1;
        line
    };
    out.extend_from_slice(next());
    for (i, line) in clean.split_inclusive(|&b| b == b'\n').enumerate() {
        out.extend_from_slice(line);
        if i % 97 == 96 {
            out.extend_from_slice(next());
        }
    }
    (out, injected)
}

/// The stable part of [`Statistics`]: every semantic count, none of the
/// timing or cache-counter rows (those legitimately differ between legs).
pub fn stable_stats(s: &Statistics) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "orig={} dup={} after={} sel={} err={} nonsel={} final={} removal={} \
         patterns={} maxfreq={} solved={} solvedq={} rewritten={} overlaps={} \
         limit={} poison={}/{}",
        s.original_size,
        s.duplicates_removed,
        s.after_dedup,
        s.select_count,
        s.syntax_errors,
        s.non_select,
        s.final_size,
        s.removal_size,
        s.pattern_count,
        s.max_pattern_frequency,
        s.solved_instances,
        s.solved_queries,
        s.rewritten_statements,
        s.skipped_overlaps,
        s.run_health.limit_rejected,
        s.run_health.poison_records,
        s.run_health.poison_sessions,
    );
    for (class, c) in &s.per_class {
        let _ = write!(
            out,
            " {}={}i/{}q/{}d",
            class, c.instances, c.queries, c.distinct
        );
    }
    out
}

/// The byte digest a leg is compared on: clean log ‖ removal log ‖ stable
/// statistics, separated by a byte that cannot occur in the TSV form.
pub fn digest(result: &PipelineResult) -> Vec<u8> {
    let mut out = wire_bytes(&result.clean_log);
    out.push(0x1f);
    out.extend_from_slice(&wire_bytes(&result.removal_log));
    out.push(0x1f);
    out.extend_from_slice(stable_stats(&result.stats).as_bytes());
    out
}

fn pipeline_config(threads: usize, cache: bool) -> PipelineConfig {
    PipelineConfig {
        parallelism: threads,
        parse_cache: cache,
        ..PipelineConfig::default()
    }
}

/// Runs the full matrix over a log. Returns the reference run's
/// [`PipelineResult`] (strict ingest, threads = 1, cache on) for reuse by
/// the oracle and recall scoring, plus the report.
pub fn run_matrix(log: &QueryLog, catalog: &Catalog) -> (PipelineResult, DifferentialReport) {
    let clean_bytes = wire_bytes(log);
    let (hostile_bytes, hostile_lines) = inject_hostile(&clean_bytes);

    let mut report = DifferentialReport {
        hostile_lines,
        ..DifferentialReport::default()
    };

    let mut reference: Option<(Vec<u8>, PipelineResult)> = None;
    for leg in [
        IngestLeg::StrictClean,
        IngestLeg::LenientClean,
        IngestLeg::LenientHostile,
    ] {
        let (bytes, policy, expect_quarantined) = match leg {
            IngestLeg::StrictClean => (&clean_bytes, IngestPolicy::Strict, 0),
            IngestLeg::LenientClean => (&clean_bytes, IngestPolicy::Lenient, 0),
            IngestLeg::LenientHostile => (&hostile_bytes, IngestPolicy::Lenient, hostile_lines),
        };
        let (ingested, stats) =
            match read_log_with(std::io::Cursor::new(bytes.as_slice()), policy, None) {
                Ok(r) => r,
                Err(e) => {
                    report
                        .mismatches
                        .push(format!("{}: ingest failed: {e}", leg.label()));
                    continue;
                }
            };
        if stats.quarantined != expect_quarantined {
            report.mismatches.push(format!(
                "{}: quarantined {} lines, expected {expect_quarantined}",
                leg.label(),
                stats.quarantined
            ));
        }
        if ingested.len() != log.len() {
            report.mismatches.push(format!(
                "{}: ingested {} entries, expected {}",
                leg.label(),
                ingested.len(),
                log.len()
            ));
            continue;
        }
        for &threads in THREAD_COUNTS {
            for cache in [true, false] {
                let result = Pipeline::new(catalog)
                    .with_config(pipeline_config(threads, cache))
                    .run(&ingested);
                report.legs += 1;
                let d = digest(&result);
                match &reference {
                    None => {
                        report.entries = ingested.len();
                        reference = Some((d, result));
                    }
                    Some((ref_digest, _)) => {
                        if d != *ref_digest {
                            let at = d
                                .iter()
                                .zip(ref_digest.iter())
                                .position(|(a, b)| a != b)
                                .unwrap_or_else(|| d.len().min(ref_digest.len()));
                            report.mismatches.push(format!(
                                "{} threads={threads} cache={cache}: output diverges \
                                 from reference at byte {at}",
                                leg.label()
                            ));
                        }
                    }
                }
            }
        }
    }

    let (ref_digest, reference) = reference.expect("at least the reference leg ran");
    run_resumed_leg(&clean_bytes, catalog, &ref_digest, &mut report);
    (reference, report)
}

/// The interrupted-and-resumed leg: checkpoint the run into a scratch run
/// directory, stop after the mine stage (a clean stand-in for a crash at
/// that boundary), then resume at a different thread count. The resumed
/// result must match the reference digest exactly; `interruptions` is the
/// only run-health field allowed to differ, and the digest ignores it by
/// construction (an interruption is not a semantic outcome). The resumed
/// run directory's six stage checkpoints must also match, payload for
/// payload, those of an uninterrupted 1-thread checkpointed run.
fn run_resumed_leg(
    clean_bytes: &[u8],
    catalog: &Catalog,
    ref_digest: &[u8],
    report: &mut DifferentialReport,
) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let scratch = std::env::temp_dir().join(format!(
        "sqlog-conf-resume-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let fail = |report: &mut DifferentialReport, msg: String| {
        report.mismatches.push(format!("resumed: {msg}"));
    };
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        return fail(report, format!("cannot create scratch dir: {e}"));
    }
    let input = scratch.join("input.tsv");
    let outcome = (|| -> Result<_, String> {
        std::fs::write(&input, clean_bytes).map_err(|e| format!("cannot write input: {e}"))?;
        let dir = RunDir::create(scratch.join("rundir"))?;
        let opts = |resume: bool, stop_after: Option<Stage>| CheckpointOptions {
            input: input.clone(),
            policy: IngestPolicy::Strict,
            quarantine: None,
            resume,
            stop_after,
        };
        // Interrupt a 2-thread run after mine; resume with 8 threads.
        let two = Pipeline::new(catalog).with_config(pipeline_config(2, true));
        run_checkpointed(&two, &dir, &opts(false, Some(Stage::Mine)))?;
        let eight = Pipeline::new(catalog).with_config(pipeline_config(8, true));
        let outcome = run_checkpointed(&eight, &dir, &opts(true, None))?
            .ok_or_else(|| "resumed run did not complete".to_string())?;
        // The checkpoints an uninterrupted 1-thread run writes.
        let reference = RunDir::create(scratch.join("reference"))?;
        let one = Pipeline::new(catalog).with_config(pipeline_config(1, true));
        run_checkpointed(&one, &reference, &opts(false, None))?;
        let read = |dir: &RunDir, stage: Stage| {
            std::fs::read(dir.checkpoint_path(stage))
                .map_err(|e| format!("cannot read the {stage} checkpoint: {e}"))
        };
        let mut differing = Vec::new();
        for stage in Stage::ALL {
            if checkpoint_payload(stage, &read(&dir, stage)?)
                != checkpoint_payload(stage, &read(&reference, stage)?)
            {
                differing.push(stage);
            }
        }
        Ok((outcome, differing))
    })();
    match outcome {
        Err(e) => fail(report, e),
        Ok((outcome, differing)) => {
            report.legs += 1;
            for stage in differing {
                fail(
                    report,
                    format!("{stage} checkpoint differs from an uninterrupted 1-thread run's"),
                );
            }
            if !outcome.warnings.is_empty() {
                fail(
                    report,
                    format!("unexpected warnings: {:?}", outcome.warnings),
                );
            }
            if outcome.result.stats.run_health.interruptions != 1 {
                fail(
                    report,
                    format!(
                        "expected 1 recorded interruption, got {}",
                        outcome.result.stats.run_health.interruptions
                    ),
                );
            }
            let d = digest(&outcome.result);
            if d != ref_digest {
                let at = d
                    .iter()
                    .zip(ref_digest.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or_else(|| d.len().min(ref_digest.len()));
                fail(
                    report,
                    format!("output diverges from reference at byte {at}"),
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A checkpoint file's payload, without the header line (derived from
/// the payload) and, for parse, without the four parse-cache counters
/// that end its payload: each worker's hits and misses depend on the
/// records it was handed, so they legitimately vary with sharding.
fn checkpoint_payload(stage: Stage, file: &[u8]) -> &[u8] {
    let payload = &file[file.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1)..];
    let mut end = payload.len();
    if stage == Stage::Parse {
        for _ in 0..4 {
            // A varint's last byte has the high bit clear, the others set.
            end = end.saturating_sub(1);
            while end > 0 && payload[end - 1] & 0x80 != 0 {
                end -= 1;
            }
        }
    }
    &payload[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_catalog::skyserver_catalog;
    use sqlog_log::{LogEntry, Timestamp};

    fn small_log() -> QueryLog {
        QueryLog::from_entries(
            [
                "SELECT name FROM Employee WHERE empId = 8",
                "SELECT name FROM Employee WHERE empId = 1",
                "SELECT * FROM photoprimary WHERE flags = NULL",
            ]
            .iter()
            .enumerate()
            .map(|(i, s)| {
                LogEntry::minimal(i as u64, *s, Timestamp::from_secs(i as i64)).with_user("u")
            })
            .collect(),
        )
    }

    #[test]
    fn hostile_lines_are_all_quarantined() {
        let bytes = wire_bytes(&small_log());
        let (hostile, n) = inject_hostile(&bytes);
        assert!(n >= 1);
        let (log, stats) = read_log_with(
            std::io::Cursor::new(hostile.as_slice()),
            IngestPolicy::Lenient,
            None,
        )
        .expect("lenient read survives");
        assert_eq!(stats.quarantined, n);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn matrix_passes_on_a_small_log() {
        let catalog = skyserver_catalog();
        let (reference, report) = run_matrix(&small_log(), &catalog);
        assert!(report.passed(), "{:?}", report.mismatches);
        assert_eq!(report.legs, 25); // 24 matrix legs + the resumed leg
        assert!(reference.rewrites.len() >= 2); // DW pair + SNC
    }

    #[test]
    fn digest_detects_a_changed_clean_log() {
        let catalog = skyserver_catalog();
        let log = small_log();
        let a = Pipeline::new(&catalog).run(&log);
        let mut b = Pipeline::new(&catalog).run(&log);
        b.clean_log.entries[0].statement.push(' ');
        assert_ne!(digest(&a), digest(&b));
    }
}
