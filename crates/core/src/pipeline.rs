//! The full cleaning pipeline (Fig. 1 of the paper).
//!
//! ```text
//! Original log ─► delete duplicates ─► parse statements ─► templates
//!              ─► pattern mining ─► antipattern detection ─► solve
//!              ─► clean log + removal log + statistics
//! ```
//!
//! The batch run is a sequence of explicit **stage operators** (`op_sort`,
//! `op_dedup`, `op_parse`, `op_sessions`, `op_mine`, `op_detect`,
//! `op_solve`, `assemble`): [`Pipeline::run`] drives them back to back,
//! while the checkpointed runner ([`crate::checkpoint`]) drives the same
//! operators with a serialization point after each one, so an interrupted
//! run can resume from the last completed stage. Both drivers produce
//! byte-identical output — the operators are the single source of truth
//! for what each stage does.

use crate::config::PipelineConfig;
use crate::dedup::{dedup_view_traced, DedupStats};
use crate::detect::{
    detect_builtin, sort_instances, AntipatternClass, AntipatternInstance, DetectCtx,
};
use crate::ext::{ExtensionRegistry, SolverSet};
use crate::fault;
use crate::mine::{build_sessions_view_traced, mine_patterns_traced, MinedPatterns, Sessions};
use crate::parse_step::{parse_view_traced, ParsedLog, ParsedRecord};
use crate::shard::{
    balance_chunks, guarded, resolve_threads, run_shards_traced, whole_range, ShardTrace,
};
use crate::solve::{apply_solutions, decide_solutions, SolveDecisions, SolveOutcome};
use crate::stats::{ClassCounts, RunHealth, StageTimings, Statistics};
use crate::store::{TemplateId, TemplateStore};
use sqlog_catalog::Catalog;
use sqlog_log::{LogView, QueryLog};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

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
    /// Every stage up to solving shards its work over
    /// [`PipelineConfig::parallelism`] worker threads — by user (dedup,
    /// sessions), by record chunk (parse), or by session range (mining,
    /// detection) — and merges shard outputs deterministically, so the
    /// result is identical for every thread count.
    pub fn run(&self, original: &QueryLog) -> PipelineResult {
        let t_total = Instant::now();
        let ms = |t: Instant| t.elapsed().as_millis() as u64;
        let rec = &self.config.recorder;
        let mut pipeline_span = rec.span("pipeline");
        pipeline_span.field("threads", resolve_threads(self.config.parallelism) as u64);
        pipeline_span.field("input", original.len() as u64);
        if rec.is_enabled() {
            // Route the fault-injection arming into the event stream too —
            // `fault::armed` already shouts on stderr, but machine consumers
            // of the trace must not need to scrape stderr for it.
            if let Some(desc) = fault::armed_description() {
                rec.warning(desc);
            }
        }

        let t = Instant::now();
        let input = self.op_sort(original);
        let sort_ms = ms(t);
        let t = Instant::now();
        let (pre_clean, dedup_stats) = self.op_dedup(&input);
        let dedup_ms = ms(t);
        let t = Instant::now();
        let store = TemplateStore::with_recorder(rec.clone());
        let parsed = self.op_parse(&pre_clean, &store);
        let parse_ms = ms(t);
        let t = Instant::now();
        let sessions = self.op_sessions(&pre_clean, &parsed.records);
        let sessions_ms = ms(t);
        let t = Instant::now();
        let mined = self.op_mine(&sessions, &parsed.records);
        let mine_ms = ms(t);
        let t = Instant::now();
        let detected = self.op_detect(&pre_clean, &parsed.records, &sessions, &store);
        let detect_ms = ms(t);
        let t = Instant::now();
        let outcome = self.op_solve(&pre_clean, &parsed.records, &sessions, &store, &detected);
        let solve_ms = ms(t);

        let timings = StageTimings {
            // Ingest and report happen outside the pipeline; the binary
            // that drives the run fills these (and extends total_ms).
            ingest_ms: 0,
            sort_ms,
            dedup_ms,
            parse_ms,
            sessions_ms,
            mine_ms,
            detect_ms,
            solve_ms,
            report_ms: 0,
            total_ms: ms(t_total),
        };
        self.assemble(
            original.len(),
            &pre_clean,
            &dedup_stats,
            parsed,
            &sessions,
            mined,
            detected,
            outcome,
            store,
            timings,
        )
    }

    /// Stage operator 0: order by time. A sorted *view* (index permutation)
    /// over the original entries — the log itself is never cloned.
    pub fn op_sort<'l>(&self, original: &'l QueryLog) -> LogView<'l> {
        self.config
            .recorder
            .stage_begin("sort", original.len() as u64);
        let _span = self.config.recorder.span("sort");
        LogView::sorted_by_time(original)
    }

    /// Stage operator 1: delete duplicates (§5.2), sharded by user.
    pub fn op_dedup<'l>(&self, input: &LogView<'l>) -> (LogView<'l>, DedupStats) {
        let rec = &self.config.recorder;
        rec.stage_begin("dedup", input.len() as u64);
        let span = rec.span("dedup");
        dedup_view_traced(
            input,
            self.config.duplicate_threshold_ms,
            resolve_threads(self.config.parallelism),
            rec,
            span.id(),
        )
    }

    /// Stage operator 2: parse statements (§5.3); template ids are
    /// canonicalized to first-appearance order after the parallel phase.
    /// The configured resource guards bound what the parser will attempt
    /// per statement. `store` must be empty (a fresh store per run).
    pub fn op_parse(&self, pre_clean: &LogView<'_>, store: &TemplateStore) -> ParsedLog {
        let rec = &self.config.recorder;
        rec.stage_begin("parse", pre_clean.len() as u64);
        let span = rec.span("parse");
        parse_view_traced(
            pre_clean,
            store,
            &self.config.parse_options(),
            resolve_threads(self.config.parallelism),
            rec,
            span.id(),
        )
    }

    /// Stage operator 3a: per-user sessions (§4.1, Def. 7).
    pub fn op_sessions(&self, pre_clean: &LogView<'_>, records: &[ParsedRecord]) -> Sessions {
        let rec = &self.config.recorder;
        rec.stage_begin("sessions", records.len() as u64);
        let span = rec.span("sessions");
        build_sessions_view_traced(
            pre_clean,
            records,
            self.config.session_gap_ms,
            resolve_threads(self.config.parallelism),
            rec,
            span.id(),
        )
    }

    /// Stage operator 3b: pattern mining (Defs. 8–10).
    pub fn op_mine(&self, sessions: &Sessions, records: &[ParsedRecord]) -> MinedPatterns {
        let rec = &self.config.recorder;
        if rec.is_enabled() {
            // Shards report queries as their work unit; sum the same unit
            // for the stage total (enabled-only: this walk is O(#sessions)).
            let total: u64 = sessions
                .sessions
                .iter()
                .map(|s| s.records.len() as u64)
                .sum();
            rec.stage_begin("mine", total);
        }
        let span = rec.span("mine");
        mine_patterns_traced(
            sessions,
            records,
            &self.config,
            resolve_threads(self.config.parallelism),
            rec,
            span.id(),
        )
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
        if rec.is_enabled() {
            let total: u64 = sessions
                .sessions
                .iter()
                .map(|s| s.records.len() as u64)
                .sum();
            rec.stage_begin("detect", total);
        }
        let detect_span = rec.span("detect");
        let detect_span_id = detect_span.id();
        let detect_shard = |sess: &[crate::mine::Session]| {
            let fault = fault::armed("detect");
            if fault.is_some() {
                for session in sess {
                    for &ri in &session.records {
                        let e = pre_clean.entry(records[ri].entry_idx as usize);
                        fault::trip(&fault, &e.statement);
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
        let ranges = if threads <= 1 || sessions.sessions.len() < 2 {
            whole_range(sessions.sessions.len())
        } else {
            let weights: Vec<u64> = sessions
                .sessions
                .iter()
                .map(|s| s.records.len() as u64)
                .collect();
            balance_chunks(&weights, threads)
        };
        let (detect_shards, detect_degraded) = run_shards_traced(
            ranges,
            ShardTrace {
                rec,
                parent: detect_span_id,
                span_name: "detect.shard",
                hist_name: "detect.shard_us",
            },
            // Work units = queries in the shard's session range.
            |r| {
                sessions.sessions[r.clone()]
                    .iter()
                    .map(|s| s.records.len() as u64)
                    .sum()
            },
            |r| (detect_shard(&sessions.sessions[r]), 0usize),
            |r| {
                // Degraded re-run: detect each session of the panicked shard
                // on its own; the poison session contributes no instances.
                let mut out = Vec::new();
                let mut poison = 0usize;
                for i in r {
                    match guarded(|| detect_shard(&sessions.sessions[i..i + 1])) {
                        Some(v) => out.extend(v),
                        None => poison += 1,
                    }
                }
                (out, poison)
            },
        );
        let mut instances: Vec<AntipatternInstance> = Vec::new();
        let mut poison_sessions = 0usize;
        for (shard, shard_poison) in detect_shards {
            instances.extend(shard);
            poison_sessions += shard_poison;
        }
        sort_instances(&mut instances);
        DetectOutput {
            instances,
            poison_sessions,
            degraded_shards: detect_degraded,
        }
    }

    /// Stage operator 5: solve (§5.5). Sequential: first-wins overlap
    /// resolution is inherently ordered across the whole instance list.
    pub fn op_solve(
        &self,
        pre_clean: &LogView<'_>,
        records: &[ParsedRecord],
        sessions: &Sessions,
        store: &TemplateStore,
        detected: &DetectOutput,
    ) -> SolveOutcome {
        self.solve_stage(
            pre_clean,
            records,
            sessions,
            store,
            detected,
            apply_solutions,
        )
    }

    /// The solver pass of [`Pipeline::op_solve`] alone, which the
    /// checkpointed runner stores; [`crate::solve::splice_solutions`]
    /// turns its decisions into the [`SolveOutcome`].
    pub fn op_solve_decisions(
        &self,
        pre_clean: &LogView<'_>,
        records: &[ParsedRecord],
        sessions: &Sessions,
        store: &TemplateStore,
        detected: &DetectOutput,
    ) -> SolveDecisions {
        self.solve_stage(
            pre_clean,
            records,
            sessions,
            store,
            detected,
            decide_solutions,
        )
    }

    fn solve_stage<T>(
        &self,
        pre_clean: &LogView<'_>,
        records: &[ParsedRecord],
        sessions: &Sessions,
        store: &TemplateStore,
        detected: &DetectOutput,
        solve: impl FnOnce(&DetectCtx<'_>, &[AntipatternInstance], &SolverSet<'_>) -> T,
    ) -> T {
        let ctx = DetectCtx {
            log: pre_clean,
            records,
            sessions: &sessions.sessions,
            store,
            catalog: self.catalog,
            config: &self.config,
        };
        let solvers = self.extensions.solver_set();
        self.config
            .recorder
            .stage_begin("solve", detected.instances.len() as u64);
        let _span = self.config.recorder.span("solve");
        solve(&ctx, &detected.instances, &solvers)
    }

    /// Final assembly: statistics, pattern marks and entry-id joins from
    /// the completed stage outputs. Pure bookkeeping — no stage work — so
    /// both drivers (batch and checkpointed) share it.
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
                // the caller that read the log / drove the checkpointed run.
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
