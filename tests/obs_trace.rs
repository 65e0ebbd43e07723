//! Recorder wiring through the pipeline, in process: span nesting must be
//! correct at every thread count, in memory and checkpointed alike, and
//! instrumentation must only *observe* —
//! the pipeline's output is byte-identical with the recorder enabled or
//! disabled, at every thread count.

use sqlog::catalog::skyserver_catalog;
use sqlog::core::checkpoint::{run_checkpointed, CheckpointOptions, RunDir};
use sqlog::core::{resolve_threads, Pipeline, PipelineConfig, PipelineResult};
use sqlog::gen::{generate, GenConfig};
use sqlog::logmodel::{write_log, write_log_file, IngestPolicy};
use sqlog::obs::{FieldValue, Recorder};
use std::collections::HashMap;

/// Thread counts the satellite task pins down: 1, 2, 8 and auto (0).
const THREADS: &[usize] = &[1, 2, 8, 0];

fn rendered_logs(result: &PipelineResult) -> (Vec<u8>, Vec<u8>) {
    let mut clean = Vec::new();
    write_log(&result.clean_log, &mut clean).expect("render clean log");
    let mut removal = Vec::new();
    write_log(&result.removal_log, &mut removal).expect("render removal log");
    (clean, removal)
}

/// The span tree every run must record: a `pipeline` root, each stage
/// span directly under it, and each shard span under (and temporally
/// inside) its own stage span.
fn assert_span_tree(rec: &Recorder, label: &str) {
    let spans = rec.spans();
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();

    let pipeline = spans
        .iter()
        .find(|s| s.name == "pipeline")
        .unwrap_or_else(|| panic!("no pipeline root span: {label}"));
    assert_eq!(pipeline.parent, None, "{label}");

    // Every stage span is a direct child of the pipeline root.
    for stage in [
        "sort", "dedup", "parse", "sessions", "mine", "detect", "solve",
    ] {
        let s = spans
            .iter()
            .find(|s| s.name == stage)
            .unwrap_or_else(|| panic!("missing {stage} span: {label}"));
        assert_eq!(
            s.parent,
            Some(pipeline.id),
            "{stage} not under pipeline: {label}"
        );
    }

    // Every shard span hangs under its own stage span and fits inside it
    // temporally (same monotonic clock, child closes first).
    let mut shard_spans = 0usize;
    for s in &spans {
        let Some(stage) = s.name.strip_suffix(".shard") else {
            continue;
        };
        shard_spans += 1;
        let parent = &spans[by_id[&s.parent.expect("shard span has a parent")]];
        assert_eq!(parent.name, stage, "{label}");
        assert!(s.start_us >= parent.start_us, "{label}");
        assert!(
            s.start_us + s.dur_us <= parent.start_us + parent.dur_us,
            "{} does not fit inside {}: {label}",
            s.name,
            parent.name
        );
    }
    assert!(shard_spans > 0, "no shard spans: {label}");
}

#[test]
fn span_nesting_is_correct_at_every_thread_count() {
    let catalog = skyserver_catalog();
    let log = generate(&GenConfig::with_scale(1_500, 13));
    for &threads in THREADS {
        let rec = Recorder::new();
        let config = PipelineConfig {
            parallelism: threads,
            recorder: rec.clone(),
            ..PipelineConfig::default()
        };
        let _ = Pipeline::new(&catalog).with_config(config).run(&log);
        let label = format!("in memory, threads {threads}");
        assert_span_tree(&rec, &label);
        // Both solve passes run sharded: the solver pass under `solve`, the
        // splice under `solve.splice`.
        if resolve_threads(threads) > 1 {
            let spans = rec.spans();
            for name in ["solve.shard", "solve.splice.shard"] {
                let n = spans.iter().filter(|s| s.name == name).count();
                assert!(n >= 2, "{n} {name} spans: {label}");
            }
        }
    }
}

/// A checkpointed run goes through the same stage sequence, so it records
/// the same span tree, root fields included.
#[test]
fn checkpointed_run_records_the_same_span_tree() {
    let catalog = skyserver_catalog();
    let log = generate(&GenConfig::with_scale(1_500, 13));
    let dir = std::env::temp_dir().join(format!("sqlog-obs-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let input = dir.join("input.tsv");
    write_log_file(&log, &input).expect("write log");
    for threads in [1usize, 4] {
        let rec = Recorder::new();
        let config = PipelineConfig {
            parallelism: threads,
            recorder: rec.clone(),
            ..PipelineConfig::default()
        };
        let run_dir = RunDir::create(dir.join(format!("run-{threads}"))).expect("run dir");
        let opts = CheckpointOptions {
            input: input.clone(),
            policy: IngestPolicy::Strict,
            quarantine: None,
            resume: false,
            stop_after: None,
        };
        let pipeline = Pipeline::new(&catalog).with_config(config);
        run_checkpointed(&pipeline, &run_dir, &opts)
            .expect("checkpointed run")
            .expect("ran to completion");
        let label = format!("checkpointed, threads {threads}");
        assert_span_tree(&rec, &label);
        let spans = rec.spans();
        let root = spans.iter().find(|s| s.name == "pipeline").unwrap();
        let field = |name: &str| {
            root.fields
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(
            field("threads"),
            Some(FieldValue::U64(threads as u64)),
            "{label}"
        );
        assert_eq!(
            field("input"),
            Some(FieldValue::U64(log.len() as u64)),
            "{label}"
        );
        assert_eq!(
            rec.counters().get("ingest.entries"),
            Some(&(log.len() as u64)),
            "{label}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn output_is_byte_identical_with_recorder_enabled_or_disabled() {
    let catalog = skyserver_catalog();
    let log = generate(&GenConfig::with_scale(1_500, 13));
    let mut baseline: Option<(Vec<u8>, Vec<u8>)> = None;
    for &threads in THREADS {
        for enabled in [false, true] {
            let config = PipelineConfig {
                parallelism: threads,
                recorder: if enabled {
                    Recorder::new()
                } else {
                    Recorder::disabled()
                },
                ..PipelineConfig::default()
            };
            let result = Pipeline::new(&catalog).with_config(config).run(&log);
            let rendered = rendered_logs(&result);
            match &baseline {
                None => baseline = Some(rendered),
                Some(b) => assert_eq!(
                    *b, rendered,
                    "output differs at threads {threads}, recorder enabled={enabled}"
                ),
            }
        }
    }
}
