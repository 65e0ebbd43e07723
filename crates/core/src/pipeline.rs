//! The full cleaning pipeline (Fig. 1 of the paper).
//!
//! ```text
//! Original log ─► delete duplicates ─► parse statements ─► templates
//!              ─► pattern mining ─► antipattern detection ─► solve
//!              ─► clean log + removal log + statistics
//! ```
//!
//! Each stage is an explicit **stage operator** (`op_sort`, `op_dedup`,
//! `op_parse`, `op_sessions`, `op_mine`, `op_detect`, `op_solve`,
//! `assemble`), and one private driver sequences them. Every stage runs
//! under one stage span ([`Recorder::stage`]), whose elapsed time is also
//! its [`StageTimings`] field. Every
//! checkpointed stage passes through one step, which — only when the run
//! has a run directory ([`RunDir`]) — loads it from its checkpoint or
//! stores it after computing it. [`Pipeline::run`] is that sequence over an
//! in-memory log with no run directory; [`Pipeline::run_file`] reads and
//! ingests a log file first, with or without one, and
//! [`crate::checkpoint::run_checkpointed`] is `run_file` with one. Loaded
//! or computed, a stage's output is the same, so every way of running the
//! pipeline produces byte-identical output.

use crate::checkpoint::{
    self, config_fingerprint, CheckpointOptions, CheckpointOutcome, Dec, Enc, RunDir, Stage,
};
use crate::config::PipelineConfig;
use crate::dedup::{dedup, DedupStats};
use crate::detect::{
    detect_builtin, sort_instances, AntipatternClass, AntipatternInstance, DetectCtx,
};
use crate::ext::ExtensionRegistry;
use crate::fault;
use crate::ingest::ingest_slice_traced;
use crate::mine::{build_sessions, mine_patterns, MinedPatterns, Sessions};
use crate::parse_step::{parse, ParsedLog, ParsedRecord};
use crate::shard::{plan_shards, resolve_threads, run_shards, ShardCtx, ShardTrace};
use crate::solve::{decide_solutions, splice_solutions, SolveDecisions, SolveOutcome};
use crate::stats::{ClassCounts, RunHealth, StageTimings, Statistics};
use crate::store::{TemplateId, TemplateStore};
use sqlog_catalog::Catalog;
use sqlog_log::{AtomicFile, IngestStats, LogView, QueryLog};
use sqlog_obs::{Recorder, SpanGuard};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The configured pipeline.
pub struct Pipeline<'a> {
    /// Tunables.
    pub config: PipelineConfig,
    /// Schema catalog for key-attribute checks.
    pub catalog: &'a Catalog,
    /// Extension antipatterns (§5.4).
    pub extensions: ExtensionRegistry<'a>,
}

/// Everything the pipeline produces.
pub struct PipelineResult {
    /// Table-5-style statistics.
    pub stats: Statistics,
    /// The clean log (antipatterns solved).
    pub clean_log: QueryLog,
    /// The removal log (antipattern queries dropped).
    pub removal_log: QueryLog,
    /// Mined patterns.
    pub mined: MinedPatterns,
    /// Pattern keys marked as antipatterns.
    pub marks: HashMap<Vec<TemplateId>, AntipatternClass>,
    /// Detected instances, in order of appearance.
    pub instances: Vec<AntipatternInstance>,
    /// For each instance, the original-log entry ids it covers (usable to
    /// join against workload-generator ground truth).
    pub instance_entry_ids: Vec<Vec<u64>>,
    /// Every applied rewrite as an (original sequence, replacement) pair —
    /// the input of a semantic oracle (see `sqlog-conformance`).
    pub rewrites: Vec<crate::solve::SolvedRewrite>,
    /// The interned templates.
    pub store: TemplateStore,
}

impl PipelineResult {
    /// Per-entry antipattern tags — the paper's Table 2 view, where each
    /// parsed statement is marked with every antipattern it belongs to
    /// (a statement can carry several: Table 2's queries 2–4 are both CTH
    /// and DW-Stifle).
    pub fn entry_tags(&self) -> HashMap<u64, Vec<AntipatternClass>> {
        let mut tags: HashMap<u64, Vec<AntipatternClass>> = HashMap::new();
        for (inst, entry_ids) in self.instances.iter().zip(&self.instance_entry_ids) {
            for &id in entry_ids {
                let t = tags.entry(id).or_default();
                if !t.contains(&inst.class) {
                    t.push(inst.class.clone());
                }
            }
        }
        tags
    }
}

impl<'a> Pipeline<'a> {
    /// A pipeline with default configuration and no extensions.
    pub fn new(catalog: &'a Catalog) -> Self {
        Pipeline {
            config: PipelineConfig::default(),
            catalog,
            extensions: ExtensionRegistry::new(),
        }
    }

    /// Sets the configuration.
    pub fn with_config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers extensions.
    pub fn with_extensions(mut self, extensions: ExtensionRegistry<'a>) -> Self {
        self.extensions = extensions;
        self
    }

    /// Runs the pipeline over a log.
    ///
    /// Every stage shards its work over [`PipelineConfig::parallelism`]
    /// worker threads — by user (dedup, sessions), by record chunk (parse),
    /// by session range (mining, detection), or by instance and record
    /// range (solving) — and merges shard outputs deterministically, so the
    /// result is identical for every thread count. Nothing is ingested, so
    /// `timings.ingest_ms` stays zero.
    pub fn run(&self, original: &QueryLog) -> PipelineResult {
        let pipeline = self.config.recorder.timed_span("pipeline");
        let mut driver = Driver::new(&self.config.recorder, None, false, None);
        self.stages(original, &mut driver, StageTimings::default(), pipeline)
            .expect("an in-memory run neither stops early nor writes")
    }

    /// Cleans the log file `opts.input`: reads it once, ingests it under
    /// `opts.policy` (skipped lines go to the `opts.quarantine` sidecar),
    /// then runs the stage sequence. With `dir` the run is checkpointed
    /// there: the manifest pins the configuration and the input bytes,
    /// `opts.resume` loads the longest valid prefix of stage checkpoints,
    /// and `opts.stop_after` ends the run early with `Ok(None)`. Without
    /// `dir` both are ignored and nothing is hashed or written besides the
    /// sidecar.
    ///
    /// The ingest counters (`ingest.entries`, and on quarantine
    /// `ingest.quarantined_lines`, `ingest.invalid_utf8_lines` and a
    /// warning) land in the recorder, and `stats.run_health` carries the
    /// ingest counts and the interruption tally.
    pub fn run_file(
        &self,
        opts: &CheckpointOptions,
        dir: Option<&RunDir>,
    ) -> Result<Option<CheckpointOutcome>, String> {
        let pipeline = self.config.recorder.timed_span("pipeline");
        let mut timings = StageTimings::default();
        let ingest = self.config.recorder.stage("ingest", 0);
        // One read per leg: the bytes hashed against the manifest are the
        // bytes ingested, so a file swapped mid-run cannot slip through.
        let input = std::fs::read(&opts.input)
            .map_err(|e| format!("cannot read {}: {e}", opts.input.display()))?;
        let manifest = match dir {
            Some(dir) => {
                Some(dir.begin_leg(opts, config_fingerprint(&self.config, self.catalog), &input)?)
            }
            None => None,
        };
        let (log, ingest_stats) = self.ingest(&input, opts)?;
        drop(input);
        timings.ingest_ms = ingest.finish().as_millis() as u64;

        let mut driver = Driver::new(&self.config.recorder, dir, opts.resume, opts.stop_after);
        let mut result = match self.stages(&log, &mut driver, timings, pipeline) {
            Ok(result) => result,
            Err(Halt::Stopped) => return Ok(None),
            Err(Halt::Failed(e)) => return Err(e),
        };
        let health = &mut result.stats.run_health;
        health.quarantined_lines = ingest_stats.quarantined;
        health.invalid_utf8_lines = ingest_stats.invalid_utf8;
        health.interruptions = manifest.map_or(0, |m| m.interruptions as usize);
        Ok(Some(CheckpointOutcome {
            result,
            ingest_stats,
            loaded_stages: driver.loaded_stages,
            warnings: driver.warnings,
        }))
    }

    /// Scans the input bytes under `opts.policy` — segmented and parallel,
    /// byte-identical to the sequential reader — streaming skipped lines
    /// into the atomically written sidecar, and records the ingest counters
    /// and the quarantine warning. The `ingest`-stage fault hook trips on
    /// matching statements after the scan, inside the stage window.
    fn ingest(
        &self,
        data: &[u8],
        opts: &CheckpointOptions,
    ) -> Result<(QueryLog, IngestStats), String> {
        let rec = &self.config.recorder;
        let mut sidecar = match &opts.quarantine {
            Some(path) => Some(
                AtomicFile::create(path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let (log, stats) = ingest_slice_traced(
            data,
            opts.policy,
            self.config.parallelism,
            sidecar.as_mut().map(|w| w as &mut dyn std::io::Write),
            rec,
            rec.current(),
        )
        .map_err(|e| format!("cannot read {}: {e}", opts.input.display()))?;
        if let Some(s) = sidecar {
            let path = s.path().to_path_buf();
            s.commit()
                .map_err(|e| format!("cannot write quarantine sidecar {}: {e}", path.display()))?;
        }
        let fault = fault::armed("ingest");
        if fault.is_some() {
            for e in &log.entries {
                fault::trip(&fault, &e.statement);
            }
        }
        rec.counter("ingest.entries", log.len() as u64);
        if stats.quarantined > 0 {
            let msg = format!(
                "quarantined {} unreadable lines ({} malformed, {} invalid UTF-8){}",
                stats.quarantined,
                stats.malformed,
                stats.invalid_utf8,
                opts.quarantine
                    .as_ref()
                    .map(|p| format!(", copied to {}", p.display()))
                    .unwrap_or_default()
            );
            eprintln!("{msg}");
            // Machine consumers of the trace must not need to scrape stderr.
            rec.warning(msg);
            rec.counter("ingest.quarantined_lines", stats.quarantined as u64);
            rec.counter("ingest.invalid_utf8_lines", stats.invalid_utf8 as u64);
        }
        Ok((log, stats))
    }

    /// The stage sequence: sort + dedup → parse → sessions → mine → detect
    /// → solve → assemble, each checkpointed stage through the driver.
    /// `timings` arrives with `ingest_ms` filled; the run's `pipeline` span,
    /// open since before ingest, closes after assembly as `total_ms`.
    fn stages(
        &self,
        log: &QueryLog,
        driver: &mut Driver<'_>,
        mut timings: StageTimings,
        mut pipeline: SpanGuard,
    ) -> Result<PipelineResult, Halt> {
        let rec = &self.config.recorder;
        pipeline.field("threads", resolve_threads(self.config.parallelism) as u64);
        pipeline.field("input", log.len() as u64);
        if rec.is_enabled() {
            // Route the fault-injection arming into the event stream too —
            // `fault::armed` already shouts on stderr, but machine consumers
            // of the trace must not need to scrape stderr for it.
            if let Some(desc) = fault::armed_description() {
                rec.warning(desc);
            }
        }

        // The sort runs only when dedup is computed, under its own guard
        // ahead of dedup's: the dedup checkpoint stores base-log indices,
        // so a resume past dedup never needs it.
        let (pre_clean, dedup_stats) =
            match driver.load(Stage::Dedup, |d| checkpoint::decode_dedup(d, log)) {
                Some(v) => v,
                None => {
                    let sort = rec.stage("sort", log.len() as u64);
                    let input = self.op_sort(log);
                    timings.sort_ms = sort.finish().as_millis() as u64;
                    driver.compute(
                        Stage::Dedup,
                        input.len() as u64,
                        &mut timings.dedup_ms,
                        checkpoint::encode_dedup,
                        || self.op_dedup(&input),
                    )?
                }
            };
        driver.stop(Stage::Dedup)?;

        let (store, parsed) = driver.step(
            Stage::Parse,
            pre_clean.len() as u64,
            &mut timings.parse_ms,
            |d| checkpoint::decode_parse(d, pre_clean.len(), rec),
            checkpoint::encode_parse,
            || {
                let store = TemplateStore::with_recorder(rec.clone());
                let parsed = self.op_parse(&pre_clean, &store);
                (store, parsed)
            },
        )?;
        let records = &parsed.records;

        let sessions = driver.step(
            Stage::Sessions,
            records.len() as u64,
            &mut timings.sessions_ms,
            |d| checkpoint::decode_sessions(d, records.len()),
            checkpoint::encode_sessions,
            || self.op_sessions(&pre_clean, records),
        )?;

        // Mining and detection shards report queries as their work unit.
        let session_queries = sessions
            .sessions
            .iter()
            .map(|s| s.records.len() as u64)
            .sum();
        let mined = driver.step(
            Stage::Mine,
            session_queries,
            &mut timings.mine_ms,
            |d| checkpoint::decode_mine(d, store.len()),
            checkpoint::encode_mine,
            || self.op_mine(&sessions, records),
        )?;

        let detected = driver.step(
            Stage::Detect,
            session_queries,
            &mut timings.detect_ms,
            |d| checkpoint::decode_detect(d, records.len(), store.len()),
            checkpoint::encode_detect,
            || self.op_detect(&pre_clean, records, &sessions, &store),
        )?;

        // The solve stage is the solver pass and the splice into the two
        // output logs; its checkpoint holds the pass's decisions, so the
        // splice runs on every path. A computed stage's guard spans both
        // (`solve.splice` nests in `solve`), and the checkpoint is stored
        // after it. The degraded shard count is not checkpointed: a resume
        // that loads the solve checkpoint reports none for solve.
        let decode_solve =
            |d: &mut Dec<'_>| checkpoint::decode_solve(d, &detected.instances, records.len());
        let (outcome, solve_degraded) = match driver.load(Stage::Solve, decode_solve) {
            Some(decisions) => (self.splice(&pre_clean, records, &detected, &decisions), 0),
            None => {
                let solve = rec.stage("solve", detected.instances.len() as u64);
                let (decisions, degraded) =
                    self.solve_decisions(&pre_clean, records, &sessions, &store, &detected);
                let outcome = self.splice(&pre_clean, records, &detected, &decisions);
                timings.solve_ms = solve.finish().as_millis() as u64;
                driver.store(Stage::Solve, checkpoint::encode_solve, &decisions)?;
                (outcome, degraded)
            }
        };
        driver.stop(Stage::Solve)?;

        let mut result = self.assemble(
            log.len(),
            &pre_clean,
            &dedup_stats,
            parsed,
            &sessions,
            mined,
            detected,
            outcome,
            store,
            timings,
        );
        result.stats.run_health.degraded_shards += solve_degraded;
        result.stats.timings.total_ms = pipeline.finish().as_millis() as u64;
        Ok(result)
    }

    /// Stage operator 0: order by time. A sorted *view* (index permutation)
    /// over the original entries — the log itself is never cloned.
    pub fn op_sort<'l>(&self, original: &'l QueryLog) -> LogView<'l> {
        LogView::sorted_by_time(original)
    }

    /// Stage operator 1: delete duplicates (§5.2), sharded by user.
    pub fn op_dedup<'l>(&self, input: &LogView<'l>) -> (LogView<'l>, DedupStats) {
        dedup(input, &self.config)
    }

    /// Stage operator 2: parse statements (§5.3); template ids follow
    /// first appearance in record order, whatever the thread count.
    /// The configured resource guards bound what the parser will attempt
    /// per statement. `store` must be empty (a fresh store per run).
    pub fn op_parse(&self, pre_clean: &LogView<'_>, store: &TemplateStore) -> ParsedLog {
        parse(pre_clean, store, &self.config)
    }

    /// Stage operator 3a: per-user sessions (§4.1, Def. 7).
    pub fn op_sessions(&self, pre_clean: &LogView<'_>, records: &[ParsedRecord]) -> Sessions {
        build_sessions(pre_clean, records, &self.config)
    }

    /// Stage operator 3b: pattern mining (Defs. 8–10).
    pub fn op_mine(&self, sessions: &Sessions, records: &[ParsedRecord]) -> MinedPatterns {
        mine_patterns(sessions, records, &self.config)
    }

    /// Stage operator 4: antipattern detection (Defs. 11–16 + extensions),
    /// sharded by contiguous session ranges. Detectors are session-local
    /// (see [`DetectCtx`]), so shard outputs concatenate cleanly; the final
    /// total-order sort makes the result independent of shard boundaries.
    pub fn op_detect(
        &self,
        pre_clean: &LogView<'_>,
        records: &[ParsedRecord],
        sessions: &Sessions,
        store: &TemplateStore,
    ) -> DetectOutput {
        let threads = resolve_threads(self.config.parallelism);
        let rec = &self.config.recorder;
        let detect_shard = |sess: &[crate::mine::Session], shard: &ShardCtx| {
            if shard.armed() {
                for session in sess {
                    for &ri in &session.records {
                        shard.trip(&pre_clean.entry(records[ri].entry_idx as usize).statement);
                    }
                }
            }
            let ctx = DetectCtx {
                log: pre_clean,
                records,
                sessions: sess,
                store,
                catalog: self.catalog,
                config: &self.config,
            };
            let mut out = detect_builtin(&ctx);
            for detector in &self.extensions.detectors {
                out.extend(detector.detect(&ctx));
            }
            out
        };
        let run = run_shards(
            plan_shards(
                threads,
                sessions.sessions.iter().map(|s| s.records.len() as u64),
            ),
            ShardTrace {
                rec,
                parent: rec.current(),
                stage: "detect",
                span_name: "detect.shard",
                hist_name: "detect.shard_us",
                degraded_counter: Some("detect.degraded_shards"),
            },
            // Work units = queries in the shard's session range.
            |r| {
                sessions.sessions[r.clone()]
                    .iter()
                    .map(|s| s.records.len() as u64)
                    .sum()
            },
            // A re-run detects each session on its own; a poison session
            // contributes no instances.
            |r, shard| shard.each(r, |sess| detect_shard(&sessions.sessions[sess], shard)),
        );
        rec.counter("detect.poison_sessions", run.poison as u64);
        let mut instances: Vec<AntipatternInstance> = Vec::new();
        for part in run.outputs.into_iter().flatten() {
            instances.extend(part);
        }
        sort_instances(&mut instances);
        DetectOutput {
            instances,
            poison_sessions: run.poison,
            degraded_shards: run.degraded,
        }
    }

    /// Stage operator 5: solve (§5.5), sharded over
    /// [`PipelineConfig::parallelism`] threads in both of its passes. The
    /// solver pass runs the solvers speculatively in instance shards and
    /// then decides first-wins over their results in log order; the splice
    /// builds the clean and removal logs from those decisions in record
    /// shards. A poison instance (its solver panicked) is left unsolved.
    /// The outcome carries no run health, so here its degraded shard shows
    /// only in the `solve.degraded_shards` counter; [`Pipeline::run`] also
    /// adds it to `stats.run_health`.
    pub fn op_solve(
        &self,
        pre_clean: &LogView<'_>,
        records: &[ParsedRecord],
        sessions: &Sessions,
        store: &TemplateStore,
        detected: &DetectOutput,
    ) -> SolveOutcome {
        let (decisions, _) = self.solve_decisions(pre_clean, records, sessions, store, detected);
        self.splice(pre_clean, records, detected, &decisions)
    }

    /// The solver pass of [`Pipeline::op_solve`], which a checkpointed run
    /// stores, and its degraded shard count.
    fn solve_decisions(
        &self,
        pre_clean: &LogView<'_>,
        records: &[ParsedRecord],
        sessions: &Sessions,
        store: &TemplateStore,
        detected: &DetectOutput,
    ) -> (SolveDecisions, usize) {
        let ctx = DetectCtx {
            log: pre_clean,
            records,
            sessions: &sessions.sessions,
            store,
            catalog: self.catalog,
            config: &self.config,
        };
        decide_solutions(&ctx, &detected.instances, &self.extensions.solver_set())
    }

    /// The splice of [`Pipeline::op_solve`]: the clean and removal logs
    /// from the solver pass's decisions, under a `solve.splice` guard of
    /// its own.
    fn splice(
        &self,
        pre_clean: &LogView<'_>,
        records: &[ParsedRecord],
        detected: &DetectOutput,
        decisions: &SolveDecisions,
    ) -> SolveOutcome {
        let rec = &self.config.recorder;
        let _splice = rec.stage("solve.splice", records.len() as u64);
        splice_solutions(
            pre_clean,
            records,
            &detected.instances,
            decisions,
            resolve_threads(self.config.parallelism),
            rec,
        )
    }

    /// Final assembly: statistics, pattern marks and entry-id joins from
    /// the completed stage outputs. Pure bookkeeping — no stage work.
    #[allow(clippy::too_many_arguments)] // one parameter per stage output
    pub fn assemble(
        &self,
        original_size: usize,
        pre_clean: &LogView<'_>,
        dedup_stats: &DedupStats,
        parsed: ParsedLog,
        sessions: &Sessions,
        mined: MinedPatterns,
        detected: DetectOutput,
        outcome: SolveOutcome,
        store: TemplateStore,
        timings: StageTimings,
    ) -> PipelineResult {
        let instances = detected.instances;
        // Pattern marks.
        let mut marks: HashMap<Vec<TemplateId>, AntipatternClass> = HashMap::new();
        for inst in &instances {
            for key in &inst.marker_keys {
                marks
                    .entry(key.clone())
                    .or_insert_with(|| inst.class.clone());
            }
        }

        let mut per_class: BTreeMap<String, ClassCounts> = BTreeMap::new();
        let mut distinct_per_class: HashMap<String, HashSet<Vec<TemplateId>>> = HashMap::new();
        for inst in &instances {
            let label = inst.class.label().to_string();
            let c = per_class.entry(label.clone()).or_default();
            c.instances += 1;
            c.queries += inst.records.len();
            distinct_per_class
                .entry(label)
                .or_default()
                .insert(inst.identity.clone());
        }
        for (label, set) in distinct_per_class {
            per_class.entry(label).or_default().distinct = set.len();
        }

        let stats = Statistics {
            original_size,
            duplicates_removed: dedup_stats.removed,
            after_dedup: pre_clean.len(),
            select_count: parsed.stats.selects,
            syntax_errors: parsed.stats.errors,
            non_select: parsed.stats.non_select_total(),
            final_size: outcome.clean_log.len(),
            removal_size: outcome.removal_log.len(),
            pattern_count: mined
                .patterns
                .values()
                .filter(|d| d.frequency >= self.config.min_pattern_frequency)
                .count(),
            max_pattern_frequency: mined
                .patterns
                .values()
                .map(|d| d.frequency)
                .max()
                .unwrap_or(0),
            per_class,
            solved_instances: outcome.solved_instances,
            solved_queries: outcome.solved_queries,
            rewritten_statements: outcome.rewritten_statements,
            skipped_overlaps: outcome.skipped_overlaps,
            timings,
            parse_cache: parsed.cache,
            run_health: RunHealth {
                // Ingestion counts and the interruption tally are filled by
                // the caller that read the log file (`run_file`).
                quarantined_lines: 0,
                invalid_utf8_lines: 0,
                limit_rejected: parsed.stats.limit_exceeded,
                poison_records: dedup_stats.poison + parsed.stats.poison + sessions.poison,
                poison_sessions: mined.poison_sessions + detected.poison_sessions,
                degraded_shards: dedup_stats.degraded_shards
                    + parsed.stats.degraded_shards
                    + sessions.degraded_shards
                    + mined.degraded_shards
                    + detected.degraded_shards,
                interruptions: 0,
            },
        };

        let instance_entry_ids = instances
            .iter()
            .map(|inst| {
                inst.records
                    .iter()
                    .map(|&ri| pre_clean.entry(parsed.records[ri].entry_idx as usize).id)
                    .collect()
            })
            .collect();

        PipelineResult {
            stats,
            clean_log: outcome.clean_log,
            removal_log: outcome.removal_log,
            mined,
            marks,
            instances,
            instance_entry_ids,
            rewrites: outcome.rewrites,
            store,
        }
    }
}

/// Output of the detection stage operator: the sorted instance list plus
/// the recovery accounting the statistics need.
#[derive(Debug, Clone, Default)]
pub struct DetectOutput {
    /// Detected instances, sorted by order of appearance in the log.
    pub instances: Vec<AntipatternInstance>,
    /// Sessions skipped because detection panicked on them.
    pub poison_sessions: usize,
    /// Detection shards that panicked and were recovered per-session.
    pub degraded_shards: usize,
}

/// Why the stage sequence ended without a result.
#[derive(Debug)]
enum Halt {
    /// [`CheckpointOptions::stop_after`] was reached; its checkpoint is on
    /// disk.
    Stopped,
    /// A checkpoint could not be written.
    Failed(String),
}

impl From<String> for Halt {
    fn from(e: String) -> Halt {
        Halt::Failed(e)
    }
}

/// The stage sequence's bookkeeping: the run directory (if any), whether
/// its checkpoint chain is still intact (once one stage re-runs, later
/// checkpoints are stale and must not be loaded), the stop stage, and
/// which stages were loaded and what went wrong non-fatally.
struct Driver<'r> {
    rec: &'r Recorder,
    dir: Option<&'r RunDir>,
    chain_intact: bool,
    stop_after: Option<Stage>,
    loaded_stages: Vec<&'static str>,
    warnings: Vec<String>,
}

impl<'r> Driver<'r> {
    /// Only a resume consults checkpoints: a fresh run starts with the
    /// chain already broken (`RunDir::create` cleared them anyway). Without
    /// a run directory nothing is loaded and the run never stops early.
    fn new(
        rec: &'r Recorder,
        dir: Option<&'r RunDir>,
        resume: bool,
        stop_after: Option<Stage>,
    ) -> Self {
        Driver {
            rec,
            dir,
            chain_intact: resume && dir.is_some(),
            stop_after: dir.and(stop_after),
            loaded_stages: Vec::new(),
            warnings: Vec::new(),
        }
    }

    /// Runs one stage: loads it from its checkpoint while the chain is
    /// intact, or computes it with [`Driver::compute`]; then ends the run
    /// if it is the stop stage.
    fn step<T>(
        &mut self,
        stage: Stage,
        total: u64,
        ms: &mut u64,
        decode: impl FnOnce(&mut Dec<'_>) -> Result<T, String>,
        encode: impl FnOnce(&mut Enc, &T),
        compute: impl FnOnce() -> T,
    ) -> Result<T, Halt> {
        let v = match self.load(stage, decode) {
            Some(v) => v,
            None => self.compute(stage, total, ms, encode, compute)?,
        };
        self.stop(stage)?;
        Ok(v)
    }

    /// Computes one stage under its stage guard, whose elapsed time goes
    /// into `ms`, and stores it. Loaded stages keep `ms` at zero.
    fn compute<T>(
        &self,
        stage: Stage,
        total: u64,
        ms: &mut u64,
        encode: impl FnOnce(&mut Enc, &T),
        compute: impl FnOnce() -> T,
    ) -> Result<T, Halt> {
        let guard = self.rec.stage(stage.name(), total);
        let v = compute();
        *ms = guard.finish().as_millis() as u64;
        self.store(stage, encode, &v)?;
        Ok(v)
    }

    /// With a run directory, checkpoints a computed stage.
    fn store<T>(&self, stage: Stage, encode: impl FnOnce(&mut Enc, &T), v: &T) -> Result<(), Halt> {
        if let Some(dir) = self.dir {
            checkpoint::write_checkpoint(dir, self.rec, stage, |e| encode(e, v))?;
        }
        Ok(())
    }

    /// Ends the run after [`CheckpointOptions::stop_after`]'s stage.
    fn stop(&self, stage: Stage) -> Result<(), Halt> {
        if self.stop_after == Some(stage) {
            return Err(Halt::Stopped);
        }
        Ok(())
    }

    /// A missing, unreadable or undecodable checkpoint breaks the chain:
    /// this stage and everything after it re-run. Only a missing one goes
    /// without a warning.
    fn load<T>(
        &mut self,
        stage: Stage,
        decode: impl FnOnce(&mut Dec<'_>) -> Result<T, String>,
    ) -> Option<T> {
        let dir = self.dir.filter(|_| self.chain_intact)?;
        match checkpoint::load_checkpoint(dir, self.rec, stage, decode) {
            Ok(Some(v)) => {
                self.rec.counter("resume.skip_stage", 1);
                self.rec.stage_skipped(stage.name());
                self.loaded_stages.push(stage.name());
                return Some(v);
            }
            Ok(None) => {}
            Err(e) => {
                let msg = format!("checkpoint {stage}: {e}; re-running the stage");
                eprintln!("warning: {msg}");
                self.rec.warning(msg.clone());
                self.warnings.push(msg);
            }
        }
        self.chain_intact = false;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_catalog::skyserver_catalog;
    use sqlog_log::{LogEntry, Timestamp};

    fn log_of(rows: &[(&str, i64, &str)]) -> QueryLog {
        QueryLog::from_entries(
            rows.iter()
                .enumerate()
                .map(|(i, (stmt, secs, user))| {
                    LogEntry::minimal(i as u64, *stmt, Timestamp::from_secs(*secs)).with_user(*user)
                })
                .collect(),
        )
    }

    #[test]
    fn end_to_end_paper_example() {
        // Table 1 shapes: duplicate, DW-run, CTH source, noise.
        let catalog = skyserver_catalog();
        let log = log_of(&[
            (
                "SELECT E.Id FROM Employees E WHERE E.department = 'sales'",
                0,
                "u",
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12",
                2,
                "u",
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12",
                2,
                "u",
            ), // dup
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 15",
                4,
                "u",
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 16",
                6,
                "u",
            ),
            ("INSERT INTO t VALUES (1)", 8, "u"),
            ("SELECT broken FROM", 9, "u"),
        ]);
        let result = Pipeline::new(&catalog).run(&log);
        let s = &result.stats;
        assert_eq!(s.original_size, 7);
        assert_eq!(s.duplicates_removed, 1);
        assert_eq!(s.after_dedup, 6);
        assert_eq!(s.select_count, 4);
        assert_eq!(s.syntax_errors, 1);
        assert_eq!(s.non_select, 1);
        // DW triple solved into one IN-query; source query kept.
        assert_eq!(s.final_size, 2);
        assert_eq!(s.solved_instances, 1);
        assert_eq!(s.solved_queries, 3);
        assert!(s.per_class.contains_key("DW-Stifle"));
        assert!(s.per_class.contains_key("CTH"));
        // Every query is in some instance → removal log is empty.
        assert_eq!(s.removal_size, 0);
        let clean_stmts: Vec<_> = result
            .clean_log
            .entries
            .iter()
            .map(|e| e.statement.as_str())
            .collect();
        assert!(
            clean_stmts[1].contains("IN (12, 15, 16)"),
            "{clean_stmts:?}"
        );
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let catalog = skyserver_catalog();
        let mut log = log_of(&[
            ("SELECT name FROM Employee WHERE empId = 1", 10, "u"),
            ("SELECT name FROM Employee WHERE empId = 8", 0, "u"),
        ]);
        log.entries.swap(0, 1);
        log.entries[0].id = 0;
        log.entries[1].id = 1;
        let result = Pipeline::new(&catalog).run(&log);
        assert_eq!(result.stats.per_class["DW-Stifle"].instances, 1);
    }

    #[test]
    fn instance_entry_ids_map_to_original_entries() {
        let catalog = skyserver_catalog();
        let log = log_of(&[
            ("SELECT name FROM Employee WHERE empId = 8", 0, "u"),
            ("SELECT name FROM Employee WHERE empId = 1", 1, "u"),
        ]);
        let result = Pipeline::new(&catalog).run(&log);
        assert_eq!(result.instances.len(), 1);
        assert_eq!(result.instance_entry_ids[0], vec![0, 1]);
    }

    #[test]
    fn marks_contain_dw_unigram() {
        let catalog = skyserver_catalog();
        let log = log_of(&[
            ("SELECT name FROM Employee WHERE empId = 8", 0, "u"),
            ("SELECT name FROM Employee WHERE empId = 1", 1, "u"),
        ]);
        let result = Pipeline::new(&catalog).run(&log);
        let t = result.instances[0].identity[0];
        assert_eq!(
            result.marks.get(&vec![t]),
            Some(&AntipatternClass::DwStifle)
        );
    }

    #[test]
    fn entry_tags_reproduce_table_2() {
        // Table 2: the source is CTH; queries 2–4 are CTH *and* DW-Stifle.
        let catalog = skyserver_catalog();
        let log = log_of(&[
            (
                "SELECT E.Id FROM Employees E WHERE E.department = 'sales'",
                0,
                "u",
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12",
                2,
                "u",
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 15",
                4,
                "u",
            ),
            (
                "SELECT E.name, E.surname FROM Employees E WHERE E.id = 16",
                6,
                "u",
            ),
        ]);
        let result = Pipeline::new(&catalog).run(&log);
        let tags = result.entry_tags();
        assert_eq!(tags[&0], vec![AntipatternClass::CthCandidate]);
        for id in 1..=3u64 {
            assert!(tags[&id].contains(&AntipatternClass::CthCandidate), "{id}");
            assert!(tags[&id].contains(&AntipatternClass::DwStifle), "{id}");
        }
    }

    #[test]
    fn empty_log() {
        let catalog = skyserver_catalog();
        let result = Pipeline::new(&catalog).run(&QueryLog::new());
        assert_eq!(result.stats.original_size, 0);
        assert_eq!(result.stats.final_size, 0);
        assert!(result.instances.is_empty());
    }

    #[test]
    fn recleaning_is_a_near_fixpoint() {
        // §5.5: after one cleaning pass, re-running finds (almost) nothing.
        let catalog = skyserver_catalog();
        let log = log_of(&[
            ("SELECT name FROM Employee WHERE empId = 8", 0, "u"),
            ("SELECT name FROM Employee WHERE empId = 1", 1, "u"),
            (
                "SELECT address, phone FROM Employee WHERE empId = 3",
                10,
                "u",
            ),
            ("SELECT name FROM Employee WHERE empId = 3", 11, "u"),
        ]);
        let first = Pipeline::new(&catalog).run(&log);
        assert!(first.stats.solved_instances >= 2);
        let second = Pipeline::new(&catalog).run(&first.clean_log);
        assert_eq!(second.stats.solved_instances, 0);
        assert_eq!(second.stats.final_size, first.stats.final_size);
    }
}
