//! Panic isolation under injected faults: the pipeline runs to completion.
//!
//! A corrupted fixture log (malformed line + invalid UTF-8 line + depth-bomb
//! statement) is ingested leniently and then run through the pipeline while
//! the `SQLOG_FAULT_MARKER`/`SQLOG_FAULT_STAGE` hook plants a panicking
//! record in each sharded stage in turn. For every stage and every thread
//! count the run must finish, the clean/removal logs must be byte-identical
//! to the sequential run, and `RunHealth` must account for every injected
//! fault exactly.
//!
//! Everything env-dependent lives in ONE test function: the fault hook reads
//! process-global environment variables, and `cargo test` runs test
//! functions of a binary concurrently. Env-free robustness tests live in
//! `run_to_completion.rs` (a separate binary) for the same reason.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::{Pipeline, PipelineConfig, PipelineResult, RunHealth};
use sqlog_log::{read_log_with, write_log, IngestPolicy, IngestStats, QueryLog};
use sqlog_obs::{FieldValue, Recorder};

/// Marker planted in a block comment: the statement parses cleanly while
/// disarmed (comments are stripped by the lexer) but its raw text trips the
/// dedup/parse/sessions/detect hooks.
const CMT_MARKER: &str = "POISON_CMT";
/// Marker planted in a block comment of one DW pair's first statement, for
/// the solve stage.
const SOLVE_MARKER: &str = "POISON_SOLVE";
/// Marker planted in a table name: the mine stage sees template ids, not
/// statement text, so its hook matches on `primary_table`.
const TBL_MARKER: &str = "poison_mine_tbl";

/// The corrupted fixture: 9 good entries across three users, one
/// structurally malformed line, one invalid-UTF-8 line, and one depth-bomb
/// statement that exceeds the parser's recursion guard.
fn corrupted_fixture() -> Vec<u8> {
    let mut raw: Vec<u8> = Vec::new();
    fn line(raw: &mut Vec<u8>, s: &str) {
        raw.extend_from_slice(s.as_bytes());
        raw.push(b'\n');
    }
    line(
        &mut raw,
        "0\t0\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 8",
    );
    line(
        &mut raw,
        &format!("1\t1000\tu1\t\t\t\tSELECT a FROM t WHERE x = 1 /* {CMT_MARKER} */"),
    );
    line(
        &mut raw,
        &format!("2\t2000\tu1\t\t\t\tSELECT a FROM {TBL_MARKER} WHERE x = 2"),
    );
    line(
        &mut raw,
        "3\t3000\tu1\t\t\t\tSELECT name FROM Employee WHERE empId = 1",
    );
    line(&mut raw, "this line is not a log entry at all");
    raw.extend_from_slice(b"4\t4000\tu2\t\t\t\tSELECT \xFF FROM t\n");
    line(&mut raw, "4\t0\tu2\t\t\t\tINSERT INTO t VALUES (1)");
    line(&mut raw, "5\t1000\tu2\t\t\t\tSELECT broken FROM");
    line(
        &mut raw,
        "6\t2000\tu2\t\t\t\tSELECT count(*) FROM photoprimary WHERE htmid>=1 and htmid<=2",
    );
    let bomb = format!("SELECT {}1{}", "(".repeat(10_000), ")".repeat(10_000));
    line(&mut raw, &format!("7\t0\tu3\t\t\t\t{bomb}"));
    line(
        &mut raw,
        "8\t1000\tu3\t\t\t\tSELECT ra, dec FROM photoprimary WHERE objid=3",
    );
    raw
}

fn ingest_lenient() -> (QueryLog, IngestStats) {
    read_log_with(&corrupted_fixture()[..], IngestPolicy::Lenient, None)
        .expect("lenient ingestion never aborts on data faults")
}

/// Runs the pipeline and patches in the ingestion counts, the way
/// `sqlog-clean --lenient` does.
fn run_with(log: &QueryLog, ingest: &IngestStats, threads: usize) -> PipelineResult {
    run_recorded(log, ingest, threads, Recorder::disabled())
}

/// [`run_with`] into `recorder`.
fn run_recorded(
    log: &QueryLog,
    ingest: &IngestStats,
    threads: usize,
    recorder: Recorder,
) -> PipelineResult {
    let catalog = skyserver_catalog();
    let cfg = PipelineConfig {
        parallelism: threads,
        recorder,
        ..PipelineConfig::default()
    };
    let mut result = Pipeline::new(&catalog).with_config(cfg).run(log);
    result.stats.run_health.quarantined_lines = ingest.quarantined;
    result.stats.run_health.invalid_utf8_lines = ingest.invalid_utf8;
    result
}

fn log_bytes(log: &QueryLog) -> Vec<u8> {
    let mut buf = Vec::new();
    write_log(log, &mut buf).expect("serializing to memory cannot fail");
    buf
}

/// The shard runner's one-line recovery summaries among `rec`'s warnings.
fn runner_summaries(rec: &Recorder) -> Vec<String> {
    rec.warnings()
        .into_iter()
        .map(|w| w.message)
        .filter(|m| m.starts_with("shard runner: "))
        .collect()
}

/// Re-runs `log` with an enabled recorder and checks the trace side of the
/// recovery `reference` went through: exactly one `<stage>.shard` span
/// carries `degraded = 1`, the `<stage>.degraded_shards` counter equals
/// `RunHealth::degraded_shards`, `poison_counter` equals `poison`, and one
/// runner summary warning names the stage and states `poison` — which is
/// `RunHealth`'s poison count for every stage but solve, whose poison
/// instances `RunHealth` does not count. The recorder only observes, so
/// the logs match `reference`'s.
fn assert_recovery_is_traced(
    log: &QueryLog,
    ingest: &IngestStats,
    threads: usize,
    stage: &str,
    (poison_counter, poison): (&str, usize),
    reference: &PipelineResult,
) {
    let rec = Recorder::new();
    let run = run_recorded(log, ingest, threads, rec.clone());
    let label = format!("stage={stage} threads={threads}");
    let shard_span = format!("{stage}.shard");
    let degraded_spans = rec
        .spans()
        .iter()
        .filter(|s| s.name == shard_span)
        .filter(|s| s.fields.contains(&("degraded", FieldValue::U64(1))))
        .count();
    assert_eq!(degraded_spans, 1, "degraded shard spans, {label}");
    let counters = rec.counters();
    let counter = |name: &str| counters.get(name).copied();
    assert_eq!(
        counter(&format!("{stage}.degraded_shards")),
        Some(run.stats.run_health.degraded_shards as u64),
        "degraded counter, {label}"
    );
    assert_eq!(
        counter(poison_counter),
        Some(poison as u64),
        "{poison_counter}, {label}"
    );
    let health = &run.stats.run_health;
    if stage != "solve" {
        assert_eq!(health.poison_records + health.poison_sessions, poison);
    }
    let summaries = runner_summaries(&rec);
    assert_eq!(
        summaries.len(),
        1,
        "runner summaries, {label}: {summaries:?}"
    );
    let stated = summaries[0]
        .strip_prefix(&format!("shard runner: {stage}: "))
        .and_then(|rest| rest.split_once(", "))
        .and_then(|(_, rest)| rest.split_once(" poison item(s) skipped"))
        .and_then(|(count, _)| count.parse::<usize>().ok());
    assert_eq!(stated, Some(poison), "summary poison count, {label}");
    assert_eq!(log_bytes(&run.clean_log), log_bytes(&reference.clean_log));
    assert_eq!(
        log_bytes(&run.removal_log),
        log_bytes(&reference.removal_log)
    );
}

fn clean_contains(result: &PipelineResult, needle: &str) -> bool {
    result
        .clean_log
        .entries
        .iter()
        .any(|e| e.statement.contains(needle))
}

/// Arms the fault hook for one stage; disarms on drop (including unwind),
/// so an assertion failure cannot leak an armed hook into later phases.
struct FaultEnv;

impl FaultEnv {
    fn arm(stage: &str, marker: &str) -> FaultEnv {
        std::env::set_var("SQLOG_FAULT_MARKER", marker);
        std::env::set_var("SQLOG_FAULT_STAGE", stage);
        FaultEnv
    }
}

impl Drop for FaultEnv {
    fn drop(&mut self) {
        std::env::remove_var("SQLOG_FAULT_MARKER");
        std::env::remove_var("SQLOG_FAULT_STAGE");
    }
}

#[test]
fn injected_faults_are_isolated_and_deterministic_across_thread_counts() {
    let (log, ingest) = ingest_lenient();
    assert_eq!(
        ingest,
        IngestStats {
            lines: 11,
            entries: 9,
            quarantined: 2,
            malformed: 1,
            invalid_utf8: 1,
        },
        "ingestion accounting for the corrupted fixture"
    );

    // Disarmed baseline: the marked statements are ordinary records (the
    // comment marker is stripped by the lexer, the table marker is just a
    // table name), and the only health findings are the ingestion damage
    // and the depth bomb.
    let baseline = run_with(&log, &ingest, 1);
    assert_eq!(
        baseline.stats.run_health,
        RunHealth {
            quarantined_lines: 2,
            invalid_utf8_lines: 1,
            limit_rejected: 1,
            poison_records: 0,
            poison_sessions: 0,
            degraded_shards: 0,
            interruptions: 0,
        }
    );
    assert!(clean_contains(&baseline, CMT_MARKER));
    assert!(clean_contains(&baseline, TBL_MARKER));
    let baseline_clean = log_bytes(&baseline.clean_log);
    for threads in [1usize, 8] {
        let rec = Recorder::new();
        run_recorded(&log, &ingest, threads, rec.clone());
        assert_eq!(
            runner_summaries(&rec),
            Vec::<String>::new(),
            "threads={threads}"
        );
    }

    // One scenario per sharded stage. `poison_records` counts individually
    // skipped records (dedup/parse/sessions recover per record);
    // `poison_sessions` counts skipped sessions (mine/detect recover per
    // session). A single poison record lands in exactly one shard at any
    // thread count, so `degraded_shards` is always exactly 1.
    struct Scenario {
        stage: &'static str,
        marker: &'static str,
        poison_records: usize,
        poison_sessions: usize,
        poison_counter: &'static str,
    }
    let scenarios = [
        Scenario {
            stage: "dedup",
            marker: CMT_MARKER,
            poison_records: 1,
            poison_sessions: 0,
            poison_counter: "dedup.poison_records",
        },
        Scenario {
            stage: "parse",
            marker: CMT_MARKER,
            poison_records: 1,
            poison_sessions: 0,
            poison_counter: "parse.poison_records",
        },
        Scenario {
            stage: "sessions",
            marker: CMT_MARKER,
            poison_records: 1,
            poison_sessions: 0,
            poison_counter: "sessions.poison_records",
        },
        Scenario {
            stage: "mine",
            marker: TBL_MARKER,
            poison_records: 0,
            poison_sessions: 1,
            poison_counter: "mine.poison_sessions",
        },
        Scenario {
            stage: "detect",
            marker: CMT_MARKER,
            poison_records: 0,
            poison_sessions: 1,
            poison_counter: "detect.poison_sessions",
        },
    ];

    for sc in &scenarios {
        let _armed = FaultEnv::arm(sc.stage, sc.marker);
        let reference = run_with(&log, &ingest, 1);
        assert_eq!(
            reference.stats.run_health,
            RunHealth {
                quarantined_lines: 2,
                invalid_utf8_lines: 1,
                limit_rejected: 1,
                poison_records: sc.poison_records,
                poison_sessions: sc.poison_sessions,
                degraded_shards: 1,
                interruptions: 0,
            },
            "health counts, stage={}",
            sc.stage
        );

        // Stage-specific isolation semantics: a record poisoned before
        // parsing vanishes from the output; one poisoned after parsing
        // passes through solving (it simply belongs to no session, so no
        // instance can consume it); poisoning mining changes no output log
        // at all (only pattern statistics).
        match sc.stage {
            "dedup" | "parse" => {
                assert!(!clean_contains(&reference, sc.marker), "stage={}", sc.stage)
            }
            "sessions" => assert!(clean_contains(&reference, sc.marker)),
            "mine" => assert_eq!(log_bytes(&reference.clean_log), baseline_clean),
            "detect" => {
                // The poisoned session is u1's — its DW pair goes
                // undetected and survives unsolved.
                assert!(clean_contains(&reference, "empId = 8"));
                assert!(clean_contains(&reference, "empId = 1"));
            }
            _ => unreachable!(),
        }

        let poison = sc.poison_records + sc.poison_sessions;
        for threads in [1usize, 8] {
            assert_recovery_is_traced(
                &log,
                &ingest,
                threads,
                sc.stage,
                (sc.poison_counter, poison),
                &reference,
            );
        }

        let ref_clean = log_bytes(&reference.clean_log);
        let ref_removal = log_bytes(&reference.removal_log);
        for threads in [2usize, 8, 0] {
            let run = run_with(&log, &ingest, threads);
            assert_eq!(
                run.stats.with_zeroed_timings(),
                reference.stats.with_zeroed_timings(),
                "stats, stage={} threads={threads}",
                sc.stage
            );
            assert_eq!(
                log_bytes(&run.clean_log),
                ref_clean,
                "clean log bytes, stage={} threads={threads}",
                sc.stage
            );
            assert_eq!(
                log_bytes(&run.removal_log),
                ref_removal,
                "removal log bytes, stage={} threads={threads}",
                sc.stage
            );
        }
    }

    solve_panic_leaves_the_poison_instance_unsolved();

    // The guard dropped after each scenario; a disarmed re-run must match
    // the original baseline bit for bit.
    let disarmed = run_with(&log, &ingest, 8);
    assert_eq!(log_bytes(&disarmed.clean_log), baseline_clean);
    assert_eq!(
        disarmed.stats.with_zeroed_timings(),
        baseline.stats.with_zeroed_timings()
    );
}

/// Two healthy DW pairs from two users, the first with [`SOLVE_MARKER`] in
/// a comment.
fn solve_fixture() -> QueryLog {
    let mut raw = Vec::new();
    for line in [
        format!("0\t0\tu5\t\t\t\tSELECT name FROM Employee WHERE empId = 3 /* {SOLVE_MARKER} */"),
        "1\t1000\tu5\t\t\t\tSELECT name FROM Employee WHERE empId = 4".to_string(),
        "2\t2000\tu6\t\t\t\tSELECT name FROM Employee WHERE empId = 5".to_string(),
        "3\t3000\tu6\t\t\t\tSELECT name FROM Employee WHERE empId = 6".to_string(),
    ] {
        raw.extend_from_slice(line.as_bytes());
        raw.push(b'\n');
    }
    read_log_with(&raw[..], IngestPolicy::Strict, None)
        .expect("the solve fixture is well formed")
        .0
}

/// A `panic`-action fault in the sharded solver pass: the shard is re-run
/// one instance at a time and the poison instance stays unsolved, its
/// queries kept verbatim, while the other pair is still rewritten. The run
/// completes degraded — `sqlog-clean`'s exit code 2 — with the same logs
/// and health at one and at eight threads.
fn solve_panic_leaves_the_poison_instance_unsolved() {
    let log = solve_fixture();
    let clean = IngestStats::default();
    let disarmed = run_with(&log, &clean, 1);
    assert_eq!(disarmed.stats.solved_instances, 2);
    assert!(!clean_contains(&disarmed, SOLVE_MARKER));
    assert!(disarmed.stats.run_health.is_clean());

    let _armed = FaultEnv::arm("solve", SOLVE_MARKER);
    let one = run_with(&log, &clean, 1);
    let eight = run_with(&log, &clean, 8);
    for (threads, run) in [(1, &one), (8, &eight)] {
        assert_eq!(
            run.stats.run_health,
            RunHealth {
                degraded_shards: 1,
                ..RunHealth::default()
            },
            "threads={threads}"
        );
        assert!(run.stats.run_health.completed_degraded(), "exit code 2");
        assert_eq!(run.stats.solved_instances, 1, "threads={threads}");
        assert!(clean_contains(run, SOLVE_MARKER), "threads={threads}");
        assert!(clean_contains(run, "empId = 4"), "threads={threads}");
        assert!(clean_contains(run, "IN (5, 6)"), "threads={threads}");
    }
    assert_eq!(log_bytes(&one.clean_log), log_bytes(&eight.clean_log));
    assert_eq!(log_bytes(&one.removal_log), log_bytes(&eight.removal_log));
    // RunHealth does not count poison instances; the fixture has one.
    for (threads, run) in [(1, &one), (8, &eight)] {
        assert_recovery_is_traced(
            &log,
            &clean,
            threads,
            "solve",
            ("solve.poison_instances", 1),
            run,
        );
    }
    assert_eq!(
        one.stats.with_zeroed_timings(),
        eight.stats.with_zeroed_timings()
    );
}
