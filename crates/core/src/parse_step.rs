//! Step 2 of the pipeline: parsing statements (§5.3).
//!
//! Every statement of the pre-cleaned log is parsed into a syntax tree.
//! Statements with syntax errors are excluded (counted), non-SELECT
//! statements are excluded (counted per kind), and each surviving SELECT is
//! reduced to a compact [`ParsedRecord`]: its interned template id, its
//! predicate profile, and a shared [`RecordShape`] — the output columns and
//! primary table, which are the same for every statement of a shape and so
//! are stored once per shape, not once per record. The full AST is *not*
//! retained — records must stay small enough for multi-million-entry logs;
//! solvers that need an AST re-parse the one statement they rewrite.
//!
//! Parsing is embarrassingly parallel and runs on a scoped thread pool.
//! Each worker interns into a [`TemplateStore`] of its own, so its records
//! carry shard-local template ids and no worker touches the run's store.
//! The join walks the shard outputs in record order and interns a local
//! template into the run's store when the first record that uses it is
//! merged. Run ids are therefore first appearance in record order by
//! construction, so the ids (which flow into pattern keys, marks, and
//! instance identities) are identical for every thread count.

use crate::config::PipelineConfig;
use crate::parse_cache::{ShapeCache, CROSSCHECK_BUDGET};
use crate::shard::{resolve_threads, run_shards, ShardTrace};
use crate::store::{TemplateId, TemplateStore};
use serde::{Deserialize, Serialize};
use sqlog_log::LogView;
use sqlog_skeleton::{primary_table, FnvHashSet, OutputColumns, PredicateProfile, QueryTemplate};
use sqlog_sql::{parse_statements_with, ParseLimits, Statement, StatementKind};
use std::collections::HashMap;
use std::sync::Arc;

/// The literal-independent facts of a SELECT beyond its template: equal for
/// every statement of one query shape, so records share one copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RecordShape {
    /// Output columns of the projection (CTH, Def. 15).
    pub output: OutputColumns,
    /// The single base table, when the FROM clause is one plain table
    /// (the Stifle key check, Def. 11).
    pub primary_table: Option<String>,
}

impl RecordShape {
    /// Approximate bytes of one shared shape: the `Arc` allocation (counts
    /// plus the struct) and its heap-owned strings. Memory accounting only.
    pub(crate) fn approx_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<RecordShape>()
            + self.output.approx_heap_bytes()
            + self.primary_table.as_deref().map_or(0, str::len)
    }
}

/// A parsed SELECT statement, reduced to analysis facts.
///
/// Only the profile is owned per record — its slots hold the statement's
/// literals. The shape is shared: every cache hit of a shape points at the
/// `Arc` its first full parse built, and a decoded parse checkpoint gives
/// all records of one shape a single `Arc`. Equality compares by value.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// Index into the pre-cleaned log's entry vector.
    pub entry_idx: u32,
    /// Interned template.
    pub template: TemplateId,
    /// Classified WHERE-clause conjuncts.
    pub profile: PredicateProfile,
    /// Output columns and primary table, shared by the records of a shape.
    pub shape: Arc<RecordShape>,
}

/// Counters from the parse step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParseStats {
    /// Statements examined.
    pub total: usize,
    /// Statements kept (SELECTs that parsed).
    pub selects: usize,
    /// Statements dropped as unparseable — syntax errors plus resource-limit
    /// rejections (the paper's §5.3 drops both the same way).
    pub errors: usize,
    /// The subset of `errors` rejected by a parser resource guard
    /// ([`ParseLimits`]) rather than a grammar error.
    pub limit_exceeded: usize,
    /// Statements skipped because processing them panicked (poison records,
    /// isolated during a degraded shard re-run).
    pub poison: usize,
    /// Parse shards whose worker panicked and was recovered per-record.
    pub degraded_shards: usize,
    /// Statements dropped per non-SELECT kind.
    pub non_select: HashMap<StatementKind, usize>,
}

impl ParseStats {
    /// Total non-SELECT statements dropped.
    pub fn non_select_total(&self) -> usize {
        self.non_select.values().sum()
    }
}

/// Effectiveness counters of the template-aware parse cache
/// (the private `parse_cache` module).
///
/// Kept separate from [`ParseStats`]: each worker owns its cache, so the
/// hit/miss split depends on how statements shard across threads. The
/// *parse result* is identical either way; determinism comparisons zero
/// this struct alongside timings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseCacheStats {
    /// Whether the cache was enabled for this parse.
    pub enabled: bool,
    /// Statements served from a worker's shape cache.
    pub hits: u64,
    /// Statements that populated a new cache entry (full parse).
    pub misses: u64,
    /// Statements that bypassed the cache — unkeyable text, oversized, or
    /// an uncacheable shape (full parse).
    pub fallbacks: u64,
    /// Cache hits verified against a full parse (debug builds only).
    pub crosschecks: u64,
}

impl ParseCacheStats {
    /// Hit rate over the cache-eligible statements, in percent.
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.hits + self.misses + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            100.0 * self.hits as f64 / total as f64
        }
    }
}

/// The parsed log: records (in log order) plus statistics.
#[derive(Debug)]
pub struct ParsedLog {
    /// Records for the SELECT statements, ordered by log position.
    pub records: Vec<ParsedRecord>,
    /// Parse statistics.
    pub stats: ParseStats,
    /// Parse-cache effectiveness (all-zero when the cache is disabled).
    pub cache: ParseCacheStats,
}

pub(crate) enum Outcome {
    Select(ParsedRecord),
    NonSelect(StatementKind),
    Error { limit: bool },
}

pub(crate) fn parse_one(
    store: &TemplateStore,
    limits: &ParseLimits,
    entry_idx: u32,
    sql: &str,
) -> Outcome {
    match parse_statements_with(sql, limits) {
        Ok(stmts) => {
            // A log row occasionally contains a `;`-separated batch; the
            // analysis treats the first SELECT as the row's query, matching
            // the one-row-one-query model of the SkyServer log.
            for stmt in &stmts {
                if let Statement::Select(q) = stmt {
                    return Outcome::Select(ParsedRecord {
                        entry_idx,
                        template: store.intern(QueryTemplate::of_query(q)),
                        profile: PredicateProfile::of_select(&q.body),
                        shape: Arc::new(RecordShape {
                            output: OutputColumns::of_select(&q.body),
                            primary_table: primary_table(&q.body),
                        }),
                    });
                }
            }
            match stmts.first() {
                Some(Statement::Other(kind)) => Outcome::NonSelect(*kind),
                _ => Outcome::Error { limit: false },
            }
        }
        Err(e) => Outcome::Error {
            limit: e.is_limit(),
        },
    }
}

/// Parses a log view into records, interning templates in `store`, under
/// the config's parser resource limits ([`PipelineConfig::parse_limits`])
/// and parse cache ([`PipelineConfig::parse_cache`]).
///
/// Records are chunked over [`PipelineConfig::parallelism`] threads.
/// Records, statistics, and template ids are identical for every thread
/// count (new ids follow first appearance in record order; templates
/// already in `store` keep theirs), and identical whether or not the parse
/// cache is enabled. Shards that panic (a poison statement crashing the
/// parser) are re-run per-record: the poison statement alone is counted and
/// dropped, every other statement of the shard parses normally.
///
/// Observability: per-shard spans (`"parse.shard"`, under the recorder's
/// current span), a shard-latency histogram and outcome counters — including
/// template-interner effectiveness (`parse.templates_interned` vs
/// `parse.template_cache_hits`) and parse-cache effectiveness
/// (`parse.cache_hits` / `parse.cache_misses` / `parse.cache_fallbacks`) —
/// land in the config's recorder.
pub(crate) fn parse(view: &LogView<'_>, store: &TemplateStore, cfg: &PipelineConfig) -> ParsedLog {
    let n = view.len();
    let threads = resolve_threads(cfg.parallelism).min(n.max(1));
    let rec = &cfg.recorder;
    let limits = cfg.parse_limits();
    let preexisting = store.len();

    // Equal record chunks (not weight-balanced): the parse-cache counters
    // depend on these boundaries. An empty log still runs one empty shard.
    let chunk = n.div_ceil(threads).max(1);
    let ranges = (0..n.max(1))
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect();
    let run = run_shards(
        ranges,
        ShardTrace {
            rec,
            parent: rec.current(),
            stage: "parse",
            span_name: "parse.shard",
            hist_name: "parse.shard_us",
            degraded_counter: Some("parse.degraded_shards"),
        },
        |r| r.len() as u64,
        |r, shard| {
            // A poison statement is dropped whole. The shard's store and
            // shape cache insert entries only after a successful parse, so
            // a panic mid-record at worst wastes an entry — never corrupts
            // one; the join interns only templates that records use.
            let local = TemplateStore::new();
            let mut cache = cfg.parse_cache.then(ShapeCache::default);
            let mut outcomes = Vec::with_capacity(r.len());
            for i in r {
                let sql = &view.entry(i).statement;
                outcomes.extend(shard.item(|| {
                    shard.trip(sql);
                    parse_one_maybe_cached(cache.as_mut(), &local, &limits, view, i as u32, sql)
                }));
            }
            if rec.is_enabled() {
                // Shard caches die at the join; account their footprint
                // here, while they still exist (counters sum across shards).
                if let Some(c) = &cache {
                    rec.counter("mem.parse_cache_bytes", c.approx_bytes() as u64);
                }
            }
            (outcomes, cache.map(tally).unwrap_or_default(), local)
        },
    );

    let mut stats = ParseStats {
        total: n,
        poison: run.poison,
        degraded_shards: run.degraded,
        ..ParseStats::default()
    };
    let mut cache_stats = ParseCacheStats {
        enabled: cfg.parse_cache,
        ..ParseCacheStats::default()
    };
    let mut records = Vec::with_capacity(n);
    for (outcomes, shard_cache, local) in run.outputs {
        cache_stats.hits += shard_cache.hits;
        cache_stats.misses += shard_cache.misses;
        cache_stats.fallbacks += shard_cache.fallbacks;
        cache_stats.crosschecks += shard_cache.crosschecks;
        // A local template moves into the run's store when the first record
        // that uses it is merged.
        let mut pending: Vec<Option<QueryTemplate>> =
            local.into_templates().into_iter().map(Some).collect();
        let mut run_ids: Vec<Option<TemplateId>> = vec![None; pending.len()];
        for outcome in outcomes {
            match outcome {
                Outcome::Select(mut record) => {
                    let l = record.template.0 as usize;
                    record.template = *run_ids[l].get_or_insert_with(|| {
                        store.intern(pending[l].take().expect("interned once per shard"))
                    });
                    stats.selects += 1;
                    records.push(record);
                }
                Outcome::NonSelect(kind) => {
                    *stats.non_select.entry(kind).or_default() += 1;
                }
                Outcome::Error { limit } => {
                    stats.errors += 1;
                    if limit {
                        stats.limit_exceeded += 1;
                    }
                }
            }
        }
    }
    if rec.is_enabled() {
        // O(#templates) and O(#records) walks — enabled runs only.
        rec.counter("mem.template_store_bytes", store.approx_bytes() as u64);
        let vec_bytes = records.capacity() * std::mem::size_of::<ParsedRecord>();
        rec.counter(
            "mem.parse_records_bytes",
            (vec_bytes + records_heap_bytes(&records)) as u64,
        );
    }
    rec.counter("parse.total", stats.total as u64);
    rec.counter("parse.selects", stats.selects as u64);
    rec.counter("parse.errors", stats.errors as u64);
    rec.counter("parse.limit_rejected", stats.limit_exceeded as u64);
    rec.counter("parse.non_select", stats.non_select_total() as u64);
    rec.counter("parse.poison_records", stats.poison as u64);
    // Interner effectiveness at stage granularity: every surviving SELECT
    // resolved a template; the ones that did not mint a fresh id reused an
    // interned one.
    let interned = (store.len() - preexisting) as u64;
    rec.counter("parse.templates_interned", interned);
    rec.counter(
        "parse.template_cache_hits",
        (stats.selects as u64).saturating_sub(interned),
    );
    rec.counter("parse.cache_hits", cache_stats.hits);
    rec.counter("parse.cache_misses", cache_stats.misses);
    rec.counter("parse.cache_fallbacks", cache_stats.fallbacks);
    rec.counter("parse.cache_crosschecks", cache_stats.crosschecks);
    ParsedLog {
        records,
        stats,
        cache: cache_stats,
    }
}

/// Approximate bytes the parse records own beyond their vector: each
/// record's profile heap, and each distinct shared shape once.
fn records_heap_bytes(records: &[ParsedRecord]) -> usize {
    let mut shapes: FnvHashSet<*const RecordShape> = FnvHashSet::default();
    let mut bytes = 0;
    for r in records {
        bytes += r.profile.approx_heap_bytes();
        if shapes.insert(Arc::as_ptr(&r.shape)) {
            bytes += r.shape.approx_bytes();
        }
    }
    bytes
}

/// Routes one statement through the shape cache when enabled, or straight
/// to the parser otherwise.
fn parse_one_maybe_cached(
    cache: Option<&mut ShapeCache>,
    store: &TemplateStore,
    limits: &ParseLimits,
    view: &LogView<'_>,
    entry_idx: u32,
    sql: &str,
) -> Outcome {
    match cache {
        Some(c) => c.parse_one_cached(store, limits, CROSSCHECK_BUDGET, entry_idx, sql, &|i| {
            view.entry(i as usize).statement.as_str()
        }),
        None => parse_one(store, limits, entry_idx, sql),
    }
}

/// Reduces a worker's shape cache to its counters (the map is dropped).
fn tally(cache: ShapeCache) -> ParseCacheStats {
    ParseCacheStats {
        enabled: true,
        hits: cache.hits,
        misses: cache.misses,
        fallbacks: cache.fallbacks,
        crosschecks: cache.crosschecks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_log::{LogEntry, QueryLog, Timestamp};
    use sqlog_skeleton::Fingerprint;

    /// Parses all of `log` into `store` on `threads` threads.
    fn parse_at(log: &QueryLog, store: &TemplateStore, threads: usize) -> ParsedLog {
        let cfg = PipelineConfig {
            parallelism: threads,
            ..PipelineConfig::default()
        };
        parse(&LogView::identity(log), store, &cfg)
    }

    fn log(statements: &[&str]) -> QueryLog {
        QueryLog::from_entries(
            statements
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    LogEntry::minimal(i as u64, *s, Timestamp::from_secs(i as i64)).with_user("u")
                })
                .collect(),
        )
    }

    #[test]
    fn filters_non_select_and_errors() {
        let log = log(&[
            "SELECT a FROM t WHERE x = 1",
            "INSERT INTO t VALUES (1)",
            "SELECT b FROM",
            "DELETE FROM t",
            "SELECT a FROM t WHERE x = 2",
        ]);
        let store = TemplateStore::new();
        let parsed = parse_at(&log, &store, 1);
        assert_eq!(parsed.stats.total, 5);
        assert_eq!(parsed.stats.selects, 2);
        assert_eq!(parsed.stats.errors, 1);
        assert_eq!(parsed.stats.non_select_total(), 2);
        assert_eq!(parsed.records.len(), 2);
        // Same skeleton → same template id.
        assert_eq!(parsed.records[0].template, parsed.records[1].template);
        assert_eq!(store.len(), 1);
        // Entry indices point into the input log.
        assert_eq!(parsed.records[0].entry_idx, 0);
        assert_eq!(parsed.records[1].entry_idx, 4);
    }

    #[test]
    fn parallel_equals_sequential() {
        let statements: Vec<String> = (0..500)
            .map(|i| format!("SELECT c{} FROM t WHERE x = {}", i % 7, i))
            .collect();
        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let log = log(&refs);
        let store1 = TemplateStore::new();
        let seq = parse_at(&log, &store1, 1);
        for threads in [2, 3, 8] {
            let store2 = TemplateStore::new();
            let par = parse_at(&log, &store2, threads);
            assert_eq!(seq.stats, par.stats);
            // Interning at the join makes the ids — not just the
            // fingerprints — identical across thread counts.
            assert_eq!(seq.records, par.records, "threads {threads}");
            for (a, b) in seq.records.iter().zip(&par.records) {
                assert_eq!(
                    store1.with(a.template, |t| t.fingerprint),
                    store2.with(b.template, |t| t.fingerprint)
                );
            }
        }
    }

    #[test]
    fn records_match_with_the_cache_on_and_off() {
        let statements: Vec<String> = (0..400)
            .map(|i| match i % 4 {
                0 => format!("SELECT a, b FROM t WHERE x = {i}"),
                1 => format!("SELECT * FROM u WHERE y = 'v{i}'"),
                2 => format!("SELECT c AS k FROM t JOIN u ON t.x = u.y WHERE t.x > {i}"),
                _ => format!("DELETE FROM t WHERE x = {i}"),
            })
            .collect();
        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let log = log(&refs);
        let view = LogView::identity(&log);
        let run = |parse_cache: bool, parallelism: usize| {
            let cfg = PipelineConfig {
                parse_cache,
                parallelism,
                ..PipelineConfig::default()
            };
            parse(&view, &TemplateStore::new(), &cfg)
        };
        let reference = run(false, 1);
        assert_eq!(reference.records.len(), 300);
        for threads in [1, 4] {
            for cache in [false, true] {
                let parsed = run(cache, threads);
                assert_eq!(
                    parsed.records, reference.records,
                    "cache {cache}, threads {threads}"
                );
            }
        }
        // One worker, cache on: the three shapes are three `Arc`s, each
        // held by every record of its shape.
        let parsed = run(true, 1);
        let ptrs: FnvHashSet<*const RecordShape> = parsed
            .records
            .iter()
            .map(|r| Arc::as_ptr(&r.shape))
            .collect();
        assert_eq!(ptrs.len(), 3);
        for (r, first) in parsed
            .records
            .iter()
            .zip(parsed.records.iter().take(3).cycle())
        {
            assert!(Arc::ptr_eq(&r.shape, &first.shape), "entry {}", r.entry_idx);
        }
    }

    #[test]
    fn template_ids_are_first_appearance_ordered() {
        let statements: Vec<String> = (0..200)
            .map(|i| format!("SELECT c{} FROM t WHERE x = {}", (199 - i) % 5, i))
            .collect();
        let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
        let log = log(&refs);
        let store = TemplateStore::new();
        let parsed = parse_at(&log, &store, 8);
        let mut seen_max = 0u32;
        for rec in &parsed.records {
            assert!(
                rec.template.0 <= seen_max,
                "template {} appears before all of 0..{}",
                rec.template.0,
                seen_max
            );
            seen_max = seen_max.max(rec.template.0 + 1);
        }
    }

    #[test]
    fn a_second_log_keeps_the_first_logs_ids_and_numbers_its_own_by_first_appearance() {
        // Log A's templates are c0..c3; log B reuses c2 and c0 among new
        // templates d0..d2, with its first appearances in the order d2,
        // c2, d0, c0, d1.
        let a_statements: Vec<String> = (0..120)
            .map(|i| format!("SELECT c{} FROM t WHERE x = {i}", (i / 7) % 4))
            .collect();
        let b_order = ["d2", "c2", "d0", "c0", "d1"];
        let b_statements: Vec<String> = (0..150)
            .map(|i| format!("SELECT {} FROM t WHERE x = {i}", b_order[(i / 5) % 5]))
            .collect();
        let [log_a, log_b] = [a_statements, b_statements]
            .map(|v| log(&v.iter().map(String::as_str).collect::<Vec<_>>()));
        for threads in [1, 2, 8] {
            let store = TemplateStore::new();
            let a = parse_at(&log_a, &store, threads);
            let a_ids: Vec<TemplateId> = a.records.iter().map(|r| r.template).collect();
            let a_fps: Vec<Fingerprint> = (0..4)
                .map(|i| store.with(TemplateId(i), |t| t.fingerprint))
                .collect();
            let b = parse_at(&log_b, &store, threads);
            assert_eq!(store.len(), 7, "threads {threads}");
            // A's ids keep their numbers and their templates.
            for (i, fp) in a_fps.iter().enumerate() {
                assert_eq!(store.with(TemplateId(i as u32), |t| t.fingerprint), *fp);
            }
            assert_eq!(
                a_ids,
                parse_at(&log_a, &store, threads)
                    .records
                    .iter()
                    .map(|r| r.template)
                    .collect::<Vec<_>>()
            );
            // B reuses c2 = 2 and c0 = 0; its new templates follow their
            // first appearance in B: d2 = 4, d0 = 5, d1 = 6.
            let expected: Vec<u32> = (0..150).map(|i| [4, 2, 5, 0, 6][(i / 5) % 5]).collect();
            let got: Vec<u32> = b.records.iter().map(|r| r.template.0).collect();
            assert_eq!(got, expected, "threads {threads}");
            assert_eq!(
                store.with(TemplateId(4), |t| t.ssc.clone()),
                "d2",
                "threads {threads}"
            );
        }
    }

    #[test]
    fn batch_rows_use_first_select() {
        let log = log(&["INSERT INTO t VALUES (1); SELECT a FROM t WHERE x = 1"]);
        let store = TemplateStore::new();
        let parsed = parse_at(&log, &store, 1);
        assert_eq!(parsed.stats.selects, 1);
        assert_eq!(parsed.records[0].shape.primary_table.as_deref(), Some("t"));
    }

    #[test]
    fn empty_log_is_fine() {
        let store = TemplateStore::new();
        let parsed = parse_at(&QueryLog::new(), &store, 4);
        assert_eq!(parsed.stats.total, 0);
        assert!(parsed.records.is_empty());
    }
}
