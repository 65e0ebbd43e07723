//! In-process resume equivalence: a checkpointed run interrupted after any
//! stage and resumed produces output byte-identical to an uninterrupted
//! run — at every thread count, parse cache on or off — and validation
//! failures (changed input, changed config, corrupted checkpoint) behave
//! as specified: the first two refuse, the last re-runs the stage with a
//! warning.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::checkpoint::{
    run_checkpointed, CheckpointOptions, CheckpointOutcome, RunDir, Stage,
};
use sqlog_core::{Pipeline, PipelineConfig, PipelineResult};
use sqlog_gen::{generate, GenConfig};
use sqlog_log::{write_log, write_log_file, IngestPolicy, QueryLog};
use std::path::{Path, PathBuf};

struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("sqlog-ckpt-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
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

fn config(threads: usize, parse_cache: bool) -> PipelineConfig {
    PipelineConfig {
        parallelism: threads,
        parse_cache,
        ..PipelineConfig::default()
    }
}

fn opts(input: &Path, resume: bool, stop_after: Option<Stage>) -> CheckpointOptions {
    CheckpointOptions {
        input: input.to_path_buf(),
        policy: IngestPolicy::Strict,
        quarantine: None,
        resume,
        stop_after,
    }
}

fn expect_err(r: Result<Option<sqlog_core::checkpoint::CheckpointOutcome>, String>) -> String {
    match r {
        Err(e) => e,
        Ok(_) => panic!("expected the resume to be refused"),
    }
}

fn assert_identical(a: &PipelineResult, b: &PipelineResult, label: &str) {
    assert_eq!(
        a.stats.with_zeroed_timings(),
        b.stats.with_zeroed_timings(),
        "stats differ: {label}"
    );
    assert_eq!(a.instances, b.instances, "instances differ: {label}");
    assert_eq!(a.marks, b.marks, "marks differ: {label}");
    assert_eq!(a.clean_log, b.clean_log, "clean log differs: {label}");
    assert_eq!(a.removal_log, b.removal_log, "removal log differs: {label}");
    assert_eq!(
        a.mined.patterns, b.mined.patterns,
        "mined patterns differ: {label}"
    );
}

fn fixture(scratch: &Scratch) -> (PathBuf, QueryLog) {
    let log = generate(&GenConfig::with_scale(2_000, 4242));
    let input = scratch.path("input.tsv");
    write_log_file(&log, &input).unwrap();
    (input, log)
}

#[test]
fn interrupt_after_every_stage_then_resume_is_identical() {
    let scratch = Scratch::new("stages");
    let (input, log) = fixture(&scratch);
    let catalog = skyserver_catalog();

    // Reference: plain in-memory run (the seed behavior).
    let reference = Pipeline::new(&catalog)
        .with_config(config(1, true))
        .run(&log);

    for stage in Stage::ALL {
        let dir = RunDir::create(scratch.path(&format!("run-{stage}"))).unwrap();
        let pipeline = Pipeline::new(&catalog).with_config(config(1, true));
        // First leg: die (cleanly, via stop_after) right after `stage`.
        let early = run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(stage))).unwrap();
        assert!(early.is_none(), "stop_after {stage} should end the run");
        // Second leg: resume to completion.
        let resumed = run_checkpointed(&pipeline, &dir, &opts(&input, true, None))
            .unwrap()
            .expect("resumed run completes");
        assert!(
            resumed.loaded_stages.contains(&stage.name()),
            "resume after {stage} should load its checkpoint, loaded: {:?}",
            resumed.loaded_stages
        );
        assert!(
            resumed.warnings.is_empty(),
            "unexpected: {:?}",
            resumed.warnings
        );
        // A resume of an incomplete run counts as one interruption, and the
        // result is still *clean*: nothing was lost.
        assert_eq!(resumed.result.stats.run_health.interruptions, 1);
        assert!(!resumed.result.stats.run_health.completed_degraded());
        let mut r = resumed.result;
        r.stats.run_health.interruptions = 0;
        assert_identical(&reference, &r, &format!("resume after {stage}"));
    }
}

#[test]
fn resume_at_different_parallelism_and_cache_is_identical() {
    let scratch = Scratch::new("threads");
    let (input, log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let reference = Pipeline::new(&catalog)
        .with_config(config(1, false))
        .run(&log);

    // Interrupt a 1-thread cache-off run after parse; resume with 8 threads
    // and the cache on. Execution knobs are outside the config fingerprint,
    // so this must be accepted — and still byte-identical.
    let dir = RunDir::create(scratch.path("run")).unwrap();
    let one = Pipeline::new(&catalog).with_config(config(1, false));
    run_checkpointed(&one, &dir, &opts(&input, false, Some(Stage::Parse))).unwrap();

    let eight = Pipeline::new(&catalog).with_config(config(8, true));
    let resumed = run_checkpointed(&eight, &dir, &opts(&input, true, None))
        .unwrap()
        .expect("completes");
    let mut r = resumed.result;
    r.stats.run_health.interruptions = 0;
    // The parse checkpoint was taken cache-off, so cache stats stay off;
    // with_zeroed_timings already ignores them.
    assert_identical(&reference, &r, "resume 1→8 threads, cache off→on");
}

#[test]
fn corrupted_checkpoint_is_nonfatal_and_rerun() {
    let scratch = Scratch::new("corrupt");
    let (input, log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(2, true));
    let reference = Pipeline::new(&catalog)
        .with_config(config(2, true))
        .run(&log);

    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Sessions))).unwrap();

    // Flip bytes in the sessions checkpoint payload: the FNV in the header
    // no longer matches, so the load must fail *gracefully*.
    let ckpt = dir.checkpoint_path(Stage::Sessions);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let n = bytes.len();
    bytes[n - 2] ^= 0xff;
    std::fs::write(&ckpt, &bytes).unwrap();

    let resumed = run_checkpointed(&pipeline, &dir, &opts(&input, true, None))
        .unwrap()
        .expect("completes despite corruption");
    assert!(
        resumed
            .warnings
            .iter()
            .any(|w| w.contains("sessions") && w.contains("re-running")),
        "expected a sessions-corruption warning, got {:?}",
        resumed.warnings
    );
    // Dedup/parse load; sessions and everything after re-run.
    assert_eq!(resumed.loaded_stages, ["dedup", "parse"]);
    let mut r = resumed.result;
    r.stats.run_health.interruptions = 0;
    assert_identical(&reference, &r, "resume over corrupted checkpoint");
}

#[test]
fn truncated_checkpoint_is_detected_as_torn_write() {
    let scratch = Scratch::new("torn");
    let (input, _log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(1, true));

    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Dedup))).unwrap();

    // Chop the tail off the dedup checkpoint — the header's payload_bytes
    // no longer matches, which is exactly what a torn write looks like.
    let ckpt = dir.checkpoint_path(Stage::Dedup);
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();

    let resumed = run_checkpointed(&pipeline, &dir, &opts(&input, true, None))
        .unwrap()
        .expect("completes despite torn checkpoint");
    assert!(
        resumed.warnings.iter().any(|w| w.contains("dedup")),
        "expected a dedup warning, got {:?}",
        resumed.warnings
    );
    assert!(resumed.loaded_stages.is_empty());
}

#[test]
fn changed_input_refuses_to_resume() {
    let scratch = Scratch::new("input-drift");
    let (input, _log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(1, true));
    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Parse))).unwrap();

    // Append one line: length and hash both drift.
    let mut text = std::fs::read_to_string(&input).unwrap();
    text.push_str("999999\t0\textra\t\t0\t\tSELECT 1\n");
    std::fs::write(&input, text).unwrap();

    let err = expect_err(run_checkpointed(&pipeline, &dir, &opts(&input, true, None)));
    assert!(err.contains("has changed"), "diagnostic: {err}");
}

#[test]
fn changed_semantic_config_refuses_to_resume() {
    let scratch = Scratch::new("config-drift");
    let (input, _log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let dir = RunDir::create(scratch.path("run")).unwrap();
    let original = Pipeline::new(&catalog).with_config(config(1, true));
    run_checkpointed(&original, &dir, &opts(&input, false, Some(Stage::Parse))).unwrap();

    let drifted = Pipeline::new(&catalog).with_config(PipelineConfig {
        session_gap_ms: 1,
        ..config(1, true)
    });
    let err = expect_err(run_checkpointed(&drifted, &dir, &opts(&input, true, None)));
    assert!(err.contains("different configuration"), "diagnostic: {err}");
}

#[test]
fn changed_ingest_policy_refuses_to_resume() {
    let scratch = Scratch::new("policy-drift");
    let (input, _log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(1, true));
    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Dedup))).unwrap();

    let mut lenient = opts(&input, true, None);
    lenient.policy = IngestPolicy::Lenient;
    let err = expect_err(run_checkpointed(&pipeline, &dir, &lenient));
    assert!(err.contains("ingestion"), "diagnostic: {err}");
}

#[test]
fn double_interruption_counts_twice() {
    let scratch = Scratch::new("double");
    let (input, _log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(1, true));
    let dir = RunDir::create(scratch.path("run")).unwrap();

    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Dedup))).unwrap();
    // First resume is itself interrupted (after mine), second completes.
    run_checkpointed(&pipeline, &dir, &opts(&input, true, Some(Stage::Mine))).unwrap();
    let done = run_checkpointed(&pipeline, &dir, &opts(&input, true, None))
        .unwrap()
        .expect("completes");
    assert_eq!(done.result.stats.run_health.interruptions, 2);
    assert!(!done.result.stats.run_health.completed_degraded());
    // Everything checkpointed before the second crash (which hit after
    // mine) loads on the final leg; detect and solve run live.
    assert_eq!(done.loaded_stages, ["dedup", "parse", "sessions", "mine"]);
}

/// The manifest's counters are read from a file, so a resume must not
/// overflow them: at `u64::MAX` they stay there.
#[test]
fn resume_saturates_hostile_manifest_counters() {
    let scratch = Scratch::new("counters");
    let (input, _log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(1, true));
    let dir = RunDir::create(scratch.path("run")).unwrap();

    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Dedup))).unwrap();
    let mut manifest = dir.load_manifest().unwrap();
    manifest.attempts = u64::MAX;
    manifest.interruptions = u64::MAX;
    manifest.completed = false;
    dir.store_manifest(&manifest).unwrap();
    let done = run_checkpointed(&pipeline, &dir, &opts(&input, true, None))
        .unwrap()
        .expect("completes");
    assert_eq!(done.loaded_stages, ["dedup"]);
    assert_eq!(done.result.stats.run_health.interruptions as u64, u64::MAX);
    let manifest = dir.load_manifest().unwrap();
    assert_eq!(
        (manifest.attempts, manifest.interruptions),
        (u64::MAX, u64::MAX)
    );
}

/// Every leg re-reads the input, so a lenient resume must rebuild what the
/// ingest stage produced: the quarantine sidecar and the run-health counts.
#[test]
fn lenient_resume_rewrites_sidecar_and_health_identically() {
    let scratch = Scratch::new("lenient");
    let mut clean_input = Vec::new();
    write_log(
        &generate(&GenConfig::with_scale(1_500, 77)),
        &mut clean_input,
    )
    .unwrap();
    // Malformed rows and invalid UTF-8 spread through the file.
    let mut hostile = Vec::new();
    for (i, line) in clean_input.split_inclusive(|&b| b == b'\n').enumerate() {
        hostile.extend_from_slice(line);
        match i % 97 {
            13 => hostile.extend_from_slice(b"garbage without tabs\n"),
            41 => hostile.extend_from_slice(b"9\t0\tu\t\t\t\tSELECT \xff FROM t\n"),
            _ => {}
        }
    }
    let input = scratch.path("input.tsv");
    std::fs::write(&input, &hostile).unwrap();
    let catalog = skyserver_catalog();
    let run = |dir: &RunDir, threads, resume, stop_after| {
        let pipeline = Pipeline::new(&catalog).with_config(config(threads, true));
        let opts = CheckpointOptions {
            policy: IngestPolicy::Lenient,
            quarantine: Some(dir.quarantine_path()),
            ..opts(&input, resume, stop_after)
        };
        run_checkpointed(&pipeline, dir, &opts).unwrap()
    };

    let ref_dir = RunDir::create(scratch.path("ref")).unwrap();
    let reference = run(&ref_dir, 2, false, None).expect("completes");
    let dir = RunDir::create(scratch.path("run")).unwrap();
    assert!(run(&dir, 1, false, Some(Stage::Dedup)).is_none());
    // The resume leg must write the sidecar itself, not inherit it.
    std::fs::remove_file(dir.quarantine_path()).unwrap();
    let resumed = run(&dir, 4, true, None).expect("completes");
    assert_eq!(resumed.loaded_stages, ["dedup"]);

    let health = |o: &CheckpointOutcome| {
        let h = &o.result.stats.run_health;
        (h.quarantined_lines, h.invalid_utf8_lines)
    };
    let (quarantined, invalid_utf8) = health(&reference);
    assert!(
        quarantined > invalid_utf8 && invalid_utf8 > 0,
        "{quarantined} {invalid_utf8}"
    );
    assert_eq!(health(&resumed), health(&reference));
    let wire = |log: &QueryLog| {
        let mut bytes = Vec::new();
        write_log(log, &mut bytes).unwrap();
        bytes
    };
    let (r, want) = (&resumed.result, &reference.result);
    assert!(
        wire(&r.clean_log) == wire(&want.clean_log),
        "clean log differs"
    );
    assert!(
        wire(&r.removal_log) == wire(&want.removal_log),
        "removal log differs"
    );
    let sidecar = |d: &RunDir| std::fs::read(d.quarantine_path()).unwrap();
    assert!(sidecar(&dir) == sidecar(&ref_dir), "sidecar differs");
}

/// Every way of running the pipeline times its stages on one clock: the
/// stage timings never add up to more than the end-to-end time (each is
/// truncated to whole milliseconds, hence the slack), and a resumed run's
/// loaded stages read 0 ms because they did not run.
#[test]
fn stage_timings_reconcile_with_the_total() {
    let scratch = Scratch::new("timings");
    let (input, log) = fixture(&scratch);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(config(2, true));
    let reconciles = |t: &sqlog_core::StageTimings, label: &str| {
        assert!(
            t.stage_sum_ms() <= t.total_ms + 9,
            "{label}: stages sum to {} ms, total {} ms: {t:?}",
            t.stage_sum_ms(),
            t.total_ms
        );
    };

    let in_memory = pipeline.run(&log).stats.timings;
    assert_eq!(in_memory.ingest_ms, 0, "nothing is ingested in memory");
    reconciles(&in_memory, "Pipeline::run");

    let dir = RunDir::create(scratch.path("run")).unwrap();
    let fresh = run_checkpointed(&pipeline, &dir, &opts(&input, false, None))
        .unwrap()
        .expect("ran to completion");
    reconciles(&fresh.result.stats.timings, "fresh checkpointed run");

    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Detect))).unwrap();
    let resumed = run_checkpointed(&pipeline, &dir, &opts(&input, true, None))
        .unwrap()
        .expect("ran to completion");
    assert_eq!(
        resumed.loaded_stages,
        ["dedup", "parse", "sessions", "mine", "detect"]
    );
    let t = resumed.result.stats.timings;
    reconciles(&t, "resumed checkpointed run");
    let loaded = [
        t.sort_ms,
        t.dedup_ms,
        t.parse_ms,
        t.sessions_ms,
        t.mine_ms,
        t.detect_ms,
    ];
    assert_eq!(loaded, [0; 6], "loaded stages must read 0 ms: {t:?}");
}
