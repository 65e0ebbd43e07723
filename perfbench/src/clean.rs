//! The pipeline workloads: a log cleaned in memory (`skyserver`,
//! `adhoc_tail`) or through a checkpointed run that stops after detection
//! and is resumed (`checkpoint_resume`).

use crate::procfs::Clock;
use crate::tracer::{Sample, Tracer};
use crate::workload::{pipeline_config, Iteration, Workload, THREADS};
use sqlog_catalog::{skyserver_catalog, Catalog};
use sqlog_core::checkpoint::hash_file;
use sqlog_core::{
    ingest_file_traced, run_checkpointed, CheckpointOptions, Pipeline, PipelineResult, RunDir,
    Stage, StageTimings, TemplateStore,
};
use sqlog_log::{write_log_file, write_log_file_atomic, IngestPolicy, QueryLog};
use sqlog_obs::Recorder;
use sqlog_skeleton::Fingerprint;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How a pipeline workload cleans its input.
pub enum Mode {
    /// Ingest, every stage operator, assemble and write, in memory. The
    /// parse-cache hit ratio must stay in `[min_hit_ratio, max_hit_ratio]`:
    /// it is what tells the workloads apart.
    InMemory {
        min_hit_ratio: f64,
        max_hit_ratio: f64,
    },
    /// A checkpointed run into a fresh run directory, stopped after
    /// detection, then resumed to completion and written.
    Checkpointed,
}

/// Checkpointed stages the resume leg must load rather than recompute.
const STOPPED_AFTER: Stage = Stage::Detect;

/// Stage spans the recorder emits inside a checkpointed run.
const STAGE_SPANS: [&str; 8] = [
    "ingest", "sort", "dedup", "parse", "sessions", "mine", "detect", "solve",
];

pub struct CleanWorkload {
    mode: Mode,
    catalog: Catalog,
    input: PathBuf,
    entries: u64,
    input_bytes: u64,
    clean_out: PathBuf,
    removal_out: PathBuf,
    run_dir: PathBuf,
    /// Digest of the first iteration's output.
    first: Option<u64>,
    /// Digest of an in-memory run of the same input (checkpointed mode).
    reference: Option<u64>,
}

impl CleanWorkload {
    /// Writes `log` as the workload's input file under `work`.
    pub fn new(mode: Mode, log: &QueryLog, work: &Path) -> Result<CleanWorkload, String> {
        let input = work.join("input.tsv");
        write_log_file(log, &input)
            .map_err(|e| format!("cannot write {}: {e}", input.display()))?;
        Ok(CleanWorkload {
            mode,
            catalog: skyserver_catalog(),
            input_bytes: file_len(&input),
            input,
            entries: log.len() as u64,
            clean_out: work.join("clean.tsv"),
            removal_out: work.join("removal.tsv"),
            run_dir: work.join("run"),
            first: None,
            reference: None,
        })
    }

    /// Ingest, stage operators and assembly, each a traced layer call.
    fn clean_in_memory(
        &self,
        tracer: &mut Tracer,
        rec: &Recorder,
    ) -> Result<PipelineResult, String> {
        let pipeline = Pipeline::new(&self.catalog).with_config(pipeline_config(rec.clone()));
        let (log, _) = tracer
            .call("ingest", Sample::CpuRss, || {
                ingest_file_traced(&self.input, IngestPolicy::Strict, THREADS, None, rec, None)
            })
            .map_err(|e| format!("cannot ingest {}: {e}", self.input.display()))?;
        let sorted = tracer.call("sort", Sample::Wall, || pipeline.op_sort(&log));
        let (pre_clean, dedup_stats) =
            tracer.call("dedup", Sample::Cpu, || pipeline.op_dedup(&sorted));
        let store = TemplateStore::with_recorder(rec.clone());
        let parsed = tracer.call("parse", Sample::CpuRss, || {
            pipeline.op_parse(&pre_clean, &store)
        });
        let sessions = tracer.call("sessions", Sample::Wall, || {
            pipeline.op_sessions(&pre_clean, &parsed.records)
        });
        let mined = tracer.call("mine", Sample::Wall, || {
            pipeline.op_mine(&sessions, &parsed.records)
        });
        let detected = tracer.call("detect", Sample::Wall, || {
            pipeline.op_detect(&pre_clean, &parsed.records, &sessions, &store)
        });
        let outcome = tracer.call("solve", Sample::Cpu, || {
            pipeline.op_solve(&pre_clean, &parsed.records, &sessions, &store, &detected)
        });
        Ok(tracer.call("assemble", Sample::Wall, || {
            pipeline.assemble(
                log.len(),
                &pre_clean,
                &dedup_stats,
                parsed,
                &sessions,
                mined,
                detected,
                outcome,
                store,
                StageTimings::default(),
            )
        }))
    }

    /// The cold leg (stopped after detection) and the resume leg of a
    /// checkpointed run; returns the result and the resume leg's seconds.
    fn clean_checkpointed(
        &self,
        tracer: &mut Tracer,
        rec: &Recorder,
    ) -> Result<(PipelineResult, f64), String> {
        let pipeline = Pipeline::new(&self.catalog).with_config(pipeline_config(rec.clone()));
        let opts = |resume, stop_after| CheckpointOptions {
            input: self.input.clone(),
            policy: IngestPolicy::Strict,
            quarantine: None,
            resume,
            stop_after,
        };
        let t = Instant::now();
        let dir = RunDir::create(&self.run_dir)?;
        if run_checkpointed(&pipeline, &dir, &opts(false, Some(STOPPED_AFTER)))?.is_some() {
            return Err("the cold leg ran past its stop stage".into());
        }
        tracer.add("checkpoint.cold_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let outcome =
            run_checkpointed(&pipeline, &RunDir::open(&self.run_dir)?, &opts(true, None))?;
        let resume_s = t.elapsed().as_secs_f64();
        tracer.add("checkpoint.resume_ms", resume_s * 1e3);
        let outcome = outcome.ok_or("the resume leg stopped early")?;
        let expected_loads = Stage::ALL.iter().filter(|s| **s <= STOPPED_AFTER).count();
        if outcome.loaded_stages.len() != expected_loads || !outcome.warnings.is_empty() {
            return Err(format!(
                "resume loaded {:?} with warnings {:?}",
                outcome.loaded_stages, outcome.warnings
            ));
        }
        Ok((outcome.result, resume_s))
    }

    fn write(&self, tracer: &mut Tracer, result: &PipelineResult) -> Result<(), String> {
        tracer
            .call("write", Sample::Wall, || {
                write_log_file_atomic(&result.clean_log, &self.clean_out)?;
                write_log_file_atomic(&result.removal_log, &self.removal_out)
            })
            .map_err(|e| format!("cannot write the clean logs: {e}"))
    }

    /// The clean and removal logs' FNV-1a digests, combined. The files are
    /// streamed, so checking adds no buffer of their size to the RSS.
    fn output_digest(&self) -> Result<u64, String> {
        let (_, clean) = hash_file(&self.clean_out)?;
        let (_, removal) = hash_file(&self.removal_out)?;
        Ok(Fingerprint(clean).combine(Fingerprint(removal)).0)
    }

    fn checkpoint_bytes(&self) -> u64 {
        let dir = RunDir::open(&self.run_dir).expect("run directory exists after a run");
        Stage::ALL
            .iter()
            .map(|s| file_len(&dir.checkpoint_path(*s)))
            .sum()
    }
}

impl Workload for CleanWorkload {
    fn entries(&self) -> u64 {
        self.entries
    }

    fn top_layers(&self) -> &'static [&'static str] {
        match self.mode {
            Mode::InMemory { .. } => &[
                "ingest.ms",
                "sort.ms",
                "dedup.ms",
                "parse.ms",
                "sessions.ms",
                "mine.ms",
                "detect.ms",
                "solve.ms",
                "assemble.ms",
                "write.ms",
            ],
            Mode::Checkpointed => &["checkpoint.cold_ms", "checkpoint.resume_ms", "write.ms"],
        }
    }

    fn prepare(&mut self) -> Result<(), String> {
        if let Mode::Checkpointed = self.mode {
            let result = self.clean_in_memory(&mut Tracer::new(false), &Recorder::disabled())?;
            self.write(&mut Tracer::new(false), &result)?;
            self.reference = Some(self.output_digest()?);
        }
        Ok(())
    }

    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Iteration, String> {
        let rec = if tracer.is_on() {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let mut extra = Vec::new();
        let clock = Clock::start();
        let result = match self.mode {
            Mode::InMemory { .. } => self.clean_in_memory(tracer, &rec)?,
            Mode::Checkpointed => {
                let (result, resume_s) = self.clean_checkpointed(tracer, &rec)?;
                extra.push(("resume_s", "s", resume_s));
                result
            }
        };
        self.write(tracer, &result)?;
        let (wall_s, cpu_s) = clock.read();

        let stats = &result.stats;
        let hit_ratio = stats.parse_cache.hit_rate_pct() / 100.0;
        if let Mode::InMemory {
            min_hit_ratio,
            max_hit_ratio,
        } = self.mode
        {
            if !(min_hit_ratio..=max_hit_ratio).contains(&hit_ratio) {
                return Err(format!(
                    "parse-cache hit ratio {hit_ratio:.4} is outside \
                     [{min_hit_ratio}, {max_hit_ratio}]: the generated input no longer \
                     has the property this workload is defined by"
                ));
            }
        }
        let digest = self.output_digest()?;
        let first = *self.first.get_or_insert(digest);
        let wrong = digest != first
            || self.reference.is_some_and(|r| r != digest)
            || stats.run_health.completed_degraded();
        if let Mode::Checkpointed = self.mode {
            let ratio = self.checkpoint_bytes() as f64 / self.input_bytes as f64;
            extra.push(("stored_bytes_ratio", "ratio", ratio));
            tracer.add("checkpoint.stored_bytes_ratio", ratio);
        }

        if tracer.is_on() {
            self.record_layers(tracer, &rec, &result, hit_ratio);
        }
        Ok(Iteration {
            wall_s,
            cpu_s,
            attempted: 1,
            failed: wrong as u64,
            extra,
        })
    }
}

impl CleanWorkload {
    /// Per-layer counts of a traced iteration: from the result, and from
    /// what the program's recorder already counts.
    fn record_layers(
        &self,
        tracer: &mut Tracer,
        rec: &Recorder,
        result: &PipelineResult,
        hit_ratio: f64,
    ) {
        let counters = rec.counters();
        let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        let stats = &result.stats;
        tracer.add("dedup.removed", stats.duplicates_removed as f64);
        let probed = counter("dedup.prefilter_hits") + counter("dedup.prefilter_misses");
        if probed > 0.0 {
            tracer.add(
                "dedup.prefilter_hit_ratio",
                counter("dedup.prefilter_hits") / probed,
            );
        }
        tracer.add("parse.cache_hit_ratio", hit_ratio);
        tracer.add("parse.templates", result.store.len() as f64);
        tracer.add("mine.patterns", result.mined.patterns.len() as f64);
        tracer.add("detect.instances", result.instances.len() as f64);
        tracer.add("solve.rewrites", stats.rewritten_statements as f64);
        tracer.add(
            "solve.batched_templates",
            counter("solve.batched_templates"),
        );
        tracer.add(
            "write.bytes",
            (file_len(&self.clean_out) + file_len(&self.removal_out)) as f64,
        );
        if let Mode::Checkpointed = self.mode {
            // Inside run_checkpointed the benchmark cannot wrap the stage
            // operators; their wall time comes from the recorder's spans.
            for span in rec.spans() {
                if STAGE_SPANS.contains(&span.name) {
                    tracer.add(&format!("{}.ms", span.name), span.dur_us as f64 / 1e3);
                }
            }
            let histograms = rec.histograms();
            let sum_ms = |name: &str| histograms.get(name).map_or(0.0, |h| h.sum as f64 / 1e3);
            tracer.add("checkpoint.write_ms", sum_ms("checkpoint.write_us"));
            tracer.add("checkpoint.load_ms", sum_ms("checkpoint.load_us"));
            for stage in Stage::ALL {
                tracer.add(stage.bytes_counter(), counter(stage.bytes_counter()));
            }
        }
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
