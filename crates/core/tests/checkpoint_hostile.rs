//! Hostile checkpoint payloads: every stage checkpoint is mutated — byte
//! flips, truncations, inserted bytes, a leading length prefix rewritten to
//! 2^40 and to `u64::MAX` — and its header's `payload_bytes`/`payload_fnv`
//! are rewritten to match, so the payload *decoder* sees the hostile bytes
//! instead of the hash check catching them first. Every resume must return
//! `Ok`: the stage either decodes or is reported and re-run; nothing panics.
//!
//! A checkpoint left by an older build (schema 1, JSON payload) is refused
//! the same non-fatal way, and the resumed output is byte-identical to an
//! in-memory run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlog_catalog::skyserver_catalog;
use sqlog_core::checkpoint::{
    run_checkpointed, CheckpointOptions, CheckpointOutcome, RunDir, Stage,
};
use sqlog_core::{Pipeline, PipelineConfig};
use sqlog_gen::{generate, GenConfig};
use sqlog_log::{write_log, write_log_file, IngestPolicy, QueryLog};
use sqlog_obs::Json;
use sqlog_skeleton::Fingerprint;
use std::path::{Path, PathBuf};

struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("sqlog-hostile-{label}-{}", std::process::id()));
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

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        parallelism: 2,
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

fn fixture(scratch: &Scratch, entries: usize) -> (PathBuf, QueryLog) {
    let log = generate(&GenConfig::with_scale(entries, 9091));
    let input = scratch.path("input.tsv");
    write_log_file(&log, &input).unwrap();
    (input, log)
}

/// Splits a checkpoint file into its header line and payload.
fn split(file: &[u8]) -> (&[u8], &[u8]) {
    let nl = file.iter().position(|&b| b == b'\n').expect("header line");
    (&file[..nl], &file[nl + 1..])
}

/// A checkpoint file whose header declares `payload` (length and FNV-1a)
/// for `stage` at `schema`.
fn checkpoint_file(stage: Stage, schema: u64, payload: &[u8]) -> Vec<u8> {
    let header = Json::obj(vec![
        ("stage", Json::Str(stage.name().to_string())),
        ("schema", Json::U64(schema)),
        ("payload_bytes", Json::U64(payload.len() as u64)),
        ("payload_fnv", Json::U64(Fingerprint::of_bytes(payload).0)),
    ])
    .render();
    let mut file = header.into_bytes();
    file.push(b'\n');
    file.extend_from_slice(payload);
    file
}

fn leb128(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

/// Every stage payload opens with a length prefix (a log's byte length or a
/// sequence count); replaces it with `len`.
fn rewrite_leading_length(payload: &[u8], len: u64) -> Vec<u8> {
    let skip = payload
        .iter()
        .position(|&b| b & 0x80 == 0)
        .map_or(0, |i| i + 1);
    let mut out = leb128(len);
    out.extend_from_slice(&payload[skip..]);
    out
}

/// The fixed-seed mutations of one payload, labelled.
fn mutations(payload: &[u8], seed: u64) -> Vec<(String, Vec<u8>)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..6 {
        let at = rng.random_range(0..payload.len());
        let mask = rng.random_range(1..=255u8);
        let mut m = payload.to_vec();
        m[at] ^= mask;
        out.push((format!("flip {mask:#04x} at {at}"), m));
    }
    for _ in 0..3 {
        let len = rng.random_range(0..payload.len());
        out.push((format!("truncate to {len}"), payload[..len].to_vec()));
    }
    for _ in 0..3 {
        let at = rng.random_range(0..=payload.len());
        let byte = rng.random_range(0..=255u8);
        let mut m = payload.to_vec();
        m.insert(at, byte);
        out.push((format!("insert {byte:#04x} at {at}"), m));
    }
    for len in [1u64 << 40, u64::MAX] {
        out.push((
            format!("leading length {len}"),
            rewrite_leading_length(payload, len),
        ));
    }
    out
}

fn resume(pipeline: &Pipeline<'_>, dir: &RunDir, input: &Path, label: &str) -> CheckpointOutcome {
    match run_checkpointed(pipeline, dir, &opts(input, true, None)) {
        Ok(Some(outcome)) => outcome,
        Ok(None) => panic!("{label}: resume stopped early"),
        Err(e) => panic!("{label}: resume failed: {e}"),
    }
}

#[test]
fn mutated_payloads_decode_or_rerun_never_panic() {
    let scratch = Scratch::new("mutate");
    let (input, _log) = fixture(&scratch, 600);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(pipeline_config());

    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Solve))).unwrap();
    let pristine: Vec<Vec<u8>> = Stage::ALL
        .iter()
        .map(|&s| std::fs::read(dir.checkpoint_path(s)).unwrap())
        .collect();
    let restore = || {
        for (s, bytes) in Stage::ALL.iter().zip(&pristine) {
            std::fs::write(dir.checkpoint_path(*s), bytes).unwrap();
        }
    };

    let mut rerun = 0usize;
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        let (_, payload) = split(&pristine[i]);
        assert!(!payload.is_empty(), "{stage}: empty payload");
        for (what, mutated) in mutations(payload, 0xC0FFEE + i as u64) {
            let label = format!("{stage}: {what}");
            restore();
            std::fs::write(
                dir.checkpoint_path(stage),
                checkpoint_file(stage, 2, &mutated),
            )
            .unwrap();
            let outcome = resume(&pipeline, &dir, &input, &label);
            let loaded = outcome.loaded_stages.contains(&stage.name());
            let reported = outcome
                .warnings
                .iter()
                .any(|w| w.contains(&format!("checkpoint {stage}")) && w.contains("re-running"));
            assert!(
                loaded != reported,
                "{label}: expected the stage to decode or be re-run with a warning \
                 (loaded {:?}, warnings {:?})",
                outcome.loaded_stages,
                outcome.warnings
            );
            if reported {
                rerun += 1;
                // Everything from the refused stage on re-ran.
                assert_eq!(outcome.loaded_stages.len(), i, "{label}");
            }
        }
    }
    // The length rewrites and truncations alone must be refused.
    assert!(rerun >= 7 * 5, "only {rerun} mutations were refused");
}

#[test]
fn schema_one_checkpoint_is_refused_and_rerun() {
    let scratch = Scratch::new("schema1");
    let (input, log) = fixture(&scratch, 1_000);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(pipeline_config());
    let reference = Pipeline::new(&catalog)
        .with_config(pipeline_config())
        .run(&log);

    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Parse))).unwrap();

    // The dedup checkpoint as an older build wrote it: a JSON payload of
    // base-log indices and counters under a schema-1 header.
    let sorted = pipeline.op_sort(&log);
    let (view, stats) = pipeline.op_dedup(&sorted);
    let u = |n: usize| Json::U64(n as u64);
    let payload = Json::obj(vec![
        (
            "kept",
            Json::Arr((0..view.len()).map(|i| u(view.base_index(i))).collect()),
        ),
        (
            "stats",
            Json::obj(vec![
                ("input", u(stats.input)),
                ("removed", u(stats.removed)),
                ("kept", u(stats.kept)),
                ("poison", u(stats.poison)),
                ("degraded_shards", u(stats.degraded_shards)),
            ]),
        ),
    ])
    .render();
    let ckpt = dir.checkpoint_path(Stage::Dedup);
    std::fs::write(&ckpt, checkpoint_file(Stage::Dedup, 1, payload.as_bytes())).unwrap();

    let outcome = resume(&pipeline, &dir, &input, "schema 1");
    assert!(
        outcome
            .warnings
            .iter()
            .any(|w| w.contains("checkpoint dedup: unsupported checkpoint schema 1")),
        "expected a schema warning, got {:?}",
        outcome.warnings
    );
    assert_eq!(outcome.loaded_stages, ["ingest"]);
    // The re-run rewrote the checkpoint in the current schema.
    let rewritten = std::fs::read(&ckpt).unwrap();
    let header = Json::parse(std::str::from_utf8(split(&rewritten).0).unwrap()).unwrap();
    assert_eq!(header.get("schema").and_then(Json::as_u64), Some(2));

    let wire = |log: &QueryLog| {
        let mut bytes = Vec::new();
        write_log(log, &mut bytes).unwrap();
        bytes
    };
    let r = outcome.result;
    assert_eq!(wire(&r.clean_log), wire(&reference.clean_log));
    assert_eq!(wire(&r.removal_log), wire(&reference.removal_log));
    let mut stats = r.stats.with_zeroed_timings();
    stats.run_health.interruptions = 0;
    assert_eq!(stats, reference.stats.with_zeroed_timings());
}
