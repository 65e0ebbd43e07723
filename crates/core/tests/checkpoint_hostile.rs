//! Hostile checkpoint payloads: every stage checkpoint is mutated — byte
//! flips, truncations, inserted bytes, a leading length prefix rewritten to
//! 2^40 and to `u64::MAX` — and its header's `payload_bytes`/`payload_fnv`
//! are rewritten to match, so the payload *decoder* sees the hostile bytes
//! instead of the hash check catching them first. Every resume must return
//! `Ok`: the stage either decodes or is reported and re-run; nothing panics.
//!
//! Solve decisions that decode but that the solver pass could not have made
//! (an index out of range or out of order, an unsolvable instance, two
//! decisions sharing a record), a parse shape table that is indexed out of
//! range or holds one shape twice, parse template ids that the records do
//! not introduce in first-appearance order, and checkpoints left by older
//! builds (schema 1 with a JSON payload; schema 3 with the shape facts
//! inline in every parse record; schema 4 with eight strings and two hashes
//! per template) are refused the same non-fatal way, and the resumed output
//! is byte-identical to an in-memory run.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlog_catalog::skyserver_catalog;
use sqlog_core::checkpoint::{
    run_checkpointed, CheckpointOptions, CheckpointOutcome, RunDir, Stage, CHECKPOINT_SCHEMA,
};
use sqlog_core::{Pipeline, PipelineConfig, PipelineResult};
use sqlog_gen::{generate, GenConfig};
use sqlog_log::{write_log, write_log_file, IngestPolicy, LogEntry, QueryLog, Timestamp};
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

/// Every stage payload opens with a length prefix (a sequence count);
/// replaces it with `len`.
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
                checkpoint_file(stage, CHECKPOINT_SCHEMA, &mutated),
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
    assert!(
        rerun >= Stage::ALL.len() * 5,
        "only {rerun} mutations were refused"
    );
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
    // Dedup is the first checkpointed stage: nothing loads.
    assert!(
        outcome.loaded_stages.is_empty(),
        "{:?}",
        outcome.loaded_stages
    );
    // The re-run rewrote the checkpoint in the current schema.
    assert_eq!(schema_of(&ckpt), Some(CHECKPOINT_SCHEMA));
    assert_matches_reference(outcome.result, &reference);

    // The parse checkpoint as schema-3 and schema-4 builds wrote it.
    let ckpt = dir.checkpoint_path(Stage::Parse);
    let current = std::fs::read(&ckpt).unwrap();
    let parsed = ParsePayload::split(split(&current).1);
    for (schema, old) in [(3, parsed.join_schema_3()), (4, parsed.join_schema_4())] {
        std::fs::write(&ckpt, checkpoint_file(Stage::Parse, schema, &old)).unwrap();
        let outcome = resume(&pipeline, &dir, &input, &format!("schema {schema}"));
        let expected = format!("checkpoint parse: unsupported checkpoint schema {schema}");
        assert!(
            outcome.warnings.iter().any(|w| w.contains(&expected)),
            "expected a schema warning, got {:?}",
            outcome.warnings
        );
        assert_eq!(outcome.loaded_stages, ["dedup"]);
        assert_eq!(schema_of(&ckpt), Some(CHECKPOINT_SCHEMA));
        assert_matches_reference(outcome.result, &reference);
    }
}

/// The schema in a checkpoint file's header.
fn schema_of(ckpt: &Path) -> Option<u64> {
    let file = std::fs::read(ckpt).unwrap();
    let header = Json::parse(std::str::from_utf8(split(&file).0).unwrap()).unwrap();
    header.get("schema").and_then(Json::as_u64)
}

#[test]
fn bad_parse_shape_tables_are_refused_and_rerun() {
    let scratch = Scratch::new("shapes");
    let (input, log) = fixture(&scratch, 1_000);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(pipeline_config());
    let reference = Pipeline::new(&catalog)
        .with_config(pipeline_config())
        .run(&log);

    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Parse))).unwrap();
    let pristine = std::fs::read(dir.checkpoint_path(Stage::Parse)).unwrap();
    let parsed = ParsePayload::split(split(&pristine).1);
    assert!(parsed.shapes.len() > 1 && parsed.records.len() > parsed.shapes.len());
    // The split is exact: joining it back gives the written payload.
    assert_eq!(parsed.join(), split(&pristine).1);

    let mut out_of_range = parsed.clone();
    out_of_range.records[0].2 = parsed.shapes.len() as u64;
    let mut duplicated = parsed.clone();
    duplicated.shapes.push(parsed.shapes[0]);
    for (reason, payload) in [
        ("record shape index", out_of_range.join()),
        ("duplicates an earlier one", duplicated.join()),
    ] {
        assert_parse_refused(&pipeline, &dir, &input, &reference, reason, &payload);
    }
}

#[test]
fn parse_template_ids_not_in_first_appearance_order_are_refused_and_rerun() {
    let scratch = Scratch::new("template-ids");
    let (input, log) = fixture(&scratch, 1_000);
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(pipeline_config());
    let reference = Pipeline::new(&catalog)
        .with_config(pipeline_config())
        .run(&log);

    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Parse))).unwrap();
    let pristine = std::fs::read(dir.checkpoint_path(Stage::Parse)).unwrap();
    let parsed = ParsePayload::split(split(&pristine).1);
    assert!(parsed.templates.len() > 1);

    // Templates 0 and 1 swapped, and every record re-pointed at its own
    // template: the same parse, but the first record introduces id 1.
    let mut swapped = parsed.clone();
    swapped.templates.swap(0, 1);
    for r in &mut swapped.records {
        r.1 = match r.1 {
            0 => 1,
            1 => 0,
            t => t,
        };
    }
    // One more template, with a fingerprint of its own, that no record uses.
    let strings: Vec<Vec<u8>> = ["z", "nowhere", "", "SELECT z FROM nowhere"]
        .iter()
        .map(|s| [leb128(s.len() as u64), s.as_bytes().to_vec()].concat())
        .collect();
    let mut unused = parsed.clone();
    unused
        .templates
        .push([&strings[0], &strings[1], &strings[2], &strings[3]]);
    for (reason, payload) in [
        ("appears before template 0", swapped.join()),
        (
            &*format!("template {} is used by no record", parsed.templates.len()),
            unused.join(),
        ),
    ] {
        assert_parse_refused(&pipeline, &dir, &input, &reference, reason, &payload);
    }
}

/// Writes `payload` as the current-schema parse checkpoint and resumes:
/// the parse stage must be refused with a warning naming `reason`, re-run
/// and rewritten, and the output must match the in-memory `reference`.
fn assert_parse_refused(
    pipeline: &Pipeline<'_>,
    dir: &RunDir,
    input: &Path,
    reference: &PipelineResult,
    reason: &str,
    payload: &[u8],
) {
    let ckpt = dir.checkpoint_path(Stage::Parse);
    std::fs::write(
        &ckpt,
        checkpoint_file(Stage::Parse, CHECKPOINT_SCHEMA, payload),
    )
    .unwrap();
    let outcome = resume(pipeline, dir, input, reason);
    assert!(
        outcome
            .warnings
            .iter()
            .any(|w| w.starts_with("checkpoint parse:") && w.contains(reason)),
        "{reason}: expected a parse warning, got {:?}",
        outcome.warnings
    );
    assert_eq!(outcome.loaded_stages, ["dedup"], "{reason}");
    // The re-run rewrote the checkpoint.
    assert_eq!(schema_of(&ckpt), Some(CHECKPOINT_SCHEMA), "{reason}");
    assert_matches_reference(outcome.result, reference);
}

/// A parse payload split at its shape table and records, so a test can
/// rewrite either and join the parts back.
#[derive(Clone)]
struct ParsePayload<'a> {
    /// Per template: its four length-prefixed strings (SSC, SFC, SWC, full).
    templates: Vec<[&'a [u8]; 4]>,
    /// Each shape-table entry's bytes.
    shapes: Vec<&'a [u8]>,
    /// Per record: entry index, template id, shape index, conjunct bytes.
    records: Vec<(u64, u64, u64, &'a [u8])>,
    /// The statistics after the records.
    tail: &'a [u8],
}

impl<'a> ParsePayload<'a> {
    fn split(payload: &'a [u8]) -> ParsePayload<'a> {
        let mut c = Cursor(payload, 0);
        let templates = (0..c.varint())
            .map(|_| {
                [(); 4].map(|()| {
                    let at = c.1;
                    c.skip_str();
                    &payload[at..c.1]
                })
            })
            .collect();
        let shapes = (0..c.varint())
            .map(|_| {
                let at = c.1;
                c.byte();
                for _ in 0..c.varint() {
                    c.skip_str();
                }
                if c.byte() == 1 {
                    c.skip_str();
                }
                &payload[at..c.1]
            })
            .collect();
        let records = (0..c.varint())
            .map(|_| {
                let (entry, template, shape) = (c.varint(), c.varint(), c.varint());
                let at = c.1;
                for _ in 0..c.varint() {
                    c.skip_predicate();
                }
                (entry, template, shape, &payload[at..c.1])
            })
            .collect();
        ParsePayload {
            templates,
            shapes,
            records,
            tail: &payload[c.1..],
        }
    }

    /// The current layout: four strings per template, the shape table,
    /// then records indexing it.
    fn join(&self) -> Vec<u8> {
        let mut out = leb128(self.templates.len() as u64);
        for t in &self.templates {
            out.extend(t.concat());
        }
        self.join_shapes_and_records(out)
    }

    fn join_shapes_and_records(&self, mut out: Vec<u8>) -> Vec<u8> {
        out.extend(leb128(self.shapes.len() as u64));
        for shape in &self.shapes {
            out.extend_from_slice(shape);
        }
        out.extend(leb128(self.records.len() as u64));
        for &(entry, template, shape, conjuncts) in &self.records {
            out.extend(leb128(entry));
            out.extend(leb128(template));
            out.extend(leb128(shape));
            out.extend_from_slice(conjuncts);
        }
        out.extend_from_slice(self.tail);
        out
    }

    /// The template table of schemas 3 and 4: SSC, SFC, SWC, the
    /// canonical SC, FC and WC (here copies of the skeletons), the tail
    /// (here empty), the full skeleton, then two fingerprints.
    fn old_templates(&self) -> Vec<u8> {
        let mut out = leb128(self.templates.len() as u64);
        for &[ssc, sfc, swc, full] in &self.templates {
            for s in [ssc, sfc, swc, ssc, sfc, swc, &[0], full] {
                out.extend_from_slice(s);
            }
            let fp = Fingerprint::of_bytes(full).0;
            out.extend(leb128(fp));
            out.extend(leb128(fp));
        }
        out
    }

    /// The schema-4 layout: the old template table, then the current rest.
    fn join_schema_4(&self) -> Vec<u8> {
        self.join_shapes_and_records(self.old_templates())
    }

    /// The schema-3 layout: the old template table, no shape table, each
    /// record's shape inline after its conjuncts.
    fn join_schema_3(&self) -> Vec<u8> {
        let mut out = self.old_templates();
        out.extend(leb128(self.records.len() as u64));
        for &(entry, template, shape, conjuncts) in &self.records {
            out.extend(leb128(entry));
            out.extend(leb128(template));
            out.extend_from_slice(conjuncts);
            out.extend_from_slice(self.shapes[shape as usize]);
        }
        out.extend_from_slice(self.tail);
        out
    }
}

/// A forward reader over well-formed payload bytes (panics past the end).
struct Cursor<'a>(&'a [u8], usize);

impl Cursor<'_> {
    fn byte(&mut self) -> u8 {
        self.1 += 1;
        self.0[self.1 - 1]
    }

    fn varint(&mut self) -> u64 {
        let (mut v, mut shift) = (0u64, 0);
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return v;
            }
            shift += 7;
        }
    }

    fn skip_str(&mut self) {
        self.1 += self.varint() as usize;
    }

    fn skip_value(&mut self) {
        match self.byte() {
            0 | 1 | 4 | 5 => self.skip_str(),
            3 => self.1 += 1,
            _ => {}
        }
    }

    /// One predicate: tag, column, then the kind's values and flags.
    fn skip_predicate(&mut self) {
        let tag = self.byte();
        if tag == 5 {
            return;
        }
        self.skip_str();
        match tag {
            0 => {
                self.byte();
                self.skip_value();
            }
            1 => {
                self.skip_value();
                self.skip_value();
            }
            2 => {
                for _ in 0..self.varint() {
                    self.skip_value();
                }
            }
            4 => self.skip_value(),
            _ => {}
        }
        if tag != 0 {
            self.byte();
        }
    }
}

fn assert_matches_reference(r: PipelineResult, reference: &PipelineResult) {
    let wire = |log: &QueryLog| {
        let mut bytes = Vec::new();
        write_log(log, &mut bytes).unwrap();
        bytes
    };
    assert_eq!(wire(&r.clean_log), wire(&reference.clean_log));
    assert_eq!(wire(&r.removal_log), wire(&reference.removal_log));
    let mut stats = r.stats.with_zeroed_timings();
    stats.run_health.interruptions = 0;
    assert_eq!(stats, reference.stats.with_zeroed_timings());
}

/// A solve payload (schemas 3 and 4) deciding `indices`, each rewritten into one
/// statement, with no skipped overlaps.
fn solve_payload(indices: &[usize]) -> Vec<u8> {
    let mut payload = leb128(indices.len() as u64);
    for &i in indices {
        payload.extend(leb128(i as u64));
        payload.extend(leb128(1));
        payload.extend(leb128(8));
        payload.extend_from_slice(b"SELECT 1");
    }
    payload.extend(leb128(0));
    payload
}

#[test]
fn impossible_solve_decisions_are_refused_and_rerun() {
    let scratch = Scratch::new("decisions");
    // The generated mix plus a DW run whose last query also opens a DS
    // pair: two solvable instances sharing a record.
    let mut log = generate(&GenConfig::with_scale(600, 9091));
    let last_id = log.entries.iter().map(|e| e.id).max().unwrap();
    let last_ts = log.entries.iter().map(|e| e.timestamp.0).max().unwrap();
    for (k, stmt) in [
        "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=1",
        "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=2",
        "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=3",
        "SELECT ra, dec FROM photoprimary WHERE objid=3",
    ]
    .into_iter()
    .enumerate()
    {
        let (id, ts) = (last_id + 1 + k as u64, last_ts + 1_000 * (1 + k as i64));
        log.entries
            .push(LogEntry::minimal(id, stmt, Timestamp(ts)).with_user("overlap"));
    }
    let input = scratch.path("input.tsv");
    write_log_file(&log, &input).unwrap();
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(pipeline_config());
    let reference = Pipeline::new(&catalog)
        .with_config(pipeline_config())
        .run(&log);
    let instances = &reference.instances;
    let solvable: Vec<usize> = (0..instances.len())
        .filter(|&i| instances[i].solvable)
        .collect();
    let unsolvable = (0..instances.len())
        .find(|&i| !instances[i].solvable)
        .expect("fixture has an unsolvable instance");
    let overlap = solvable
        .iter()
        .flat_map(|&i| solvable.iter().map(move |&j| (i, j)))
        .find(|&(i, j)| {
            i < j
                && instances[i]
                    .records
                    .iter()
                    .any(|r| instances[j].records.contains(r))
        })
        .expect("fixture has overlapping solvable instances");
    let (first, second) = (solvable[0], solvable[1]);
    let cases = [
        ("out of bounds", vec![first, instances.len()]),
        ("not above the previous", vec![first, first]),
        ("not above the previous", vec![second, first]),
        ("not solvable", vec![unsolvable]),
        ("overlaps an earlier", vec![overlap.0, overlap.1]),
    ];

    let dir = RunDir::create(scratch.path("run")).unwrap();
    run_checkpointed(&pipeline, &dir, &opts(&input, false, Some(Stage::Solve))).unwrap();
    let ckpt = dir.checkpoint_path(Stage::Solve);
    for (reason, indices) in cases {
        let label = &format!("{indices:?}");
        let payload = solve_payload(&indices);
        std::fs::write(
            &ckpt,
            checkpoint_file(Stage::Solve, CHECKPOINT_SCHEMA, &payload),
        )
        .unwrap();
        let outcome = resume(&pipeline, &dir, &input, label);
        assert!(
            outcome
                .warnings
                .iter()
                .any(|w| w.starts_with("checkpoint solve:") && w.contains(reason)),
            "{label}: expected a solve warning, got {:?}",
            outcome.warnings
        );
        assert_eq!(
            outcome.loaded_stages,
            ["dedup", "parse", "sessions", "mine", "detect"],
            "{label}"
        );
        assert_matches_reference(outcome.result, &reference);
    }
}
