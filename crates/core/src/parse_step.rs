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
//! Parsing is embarrassingly parallel and runs on a scoped thread pool. Two
//! things keep the hot path cheap and the result deterministic:
//!
//! * each worker memoizes fingerprint → id locally, so the shared
//!   [`TemplateStore`] lock is only taken on a worker's *first* sight of a
//!   template, not once per record;
//! * after the join, template ids are renumbered canonically — id order =
//!   first appearance in record order — so the ids (which flow into pattern
//!   keys, marks, and instance identities) are identical for every thread
//!   count.

use crate::fault;
use crate::parse_cache::ShapeCache;
use crate::shard::{guarded, resolve_threads, run_shards_traced, whole_range, ShardTrace};
use crate::store::{TemplateId, TemplateStore};
use serde::{Deserialize, Serialize};
use sqlog_log::{LogView, QueryLog};
use sqlog_obs::{Recorder, SpanId};
use sqlog_skeleton::{
    primary_table, Fingerprint, FnvHashMap, FnvHashSet, OutputColumns, PredicateProfile,
    QueryTemplate,
};
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

/// Knobs of the parse stage beyond the resource limits.
#[derive(Debug, Clone, Copy)]
pub struct ParseOptions {
    /// Parser resource guards.
    pub limits: ParseLimits,
    /// Enable the template-aware parse cache.
    pub cache: bool,
    /// In debug builds, cross-check this many cache hits per worker
    /// against a full parse (panics on divergence).
    pub crosscheck: usize,
}

impl Default for ParseOptions {
    fn default() -> Self {
        ParseOptions {
            limits: ParseLimits::default(),
            cache: true,
            crosscheck: 64,
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
    Error {
        limit: bool,
    },
    /// Processing this statement panicked; it was skipped during recovery.
    Poison,
}

pub(crate) fn parse_one(
    store: &TemplateStore,
    memo: &mut FnvHashMap<Fingerprint, TemplateId>,
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
                    let tpl = QueryTemplate::of_query(q);
                    let template = match memo.get(&tpl.fingerprint) {
                        Some(&id) => id,
                        None => {
                            let fp = tpl.fingerprint;
                            let id = store.intern(tpl);
                            memo.insert(fp, id);
                            id
                        }
                    };
                    return Outcome::Select(ParsedRecord {
                        entry_idx,
                        template,
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

/// Renumbers template ids to first-appearance-in-record-order, making them
/// independent of parser-thread interleaving. Ids below `preexisting` (from
/// before this parse) keep their numbers.
fn canonicalize_templates(store: &TemplateStore, preexisting: usize, records: &mut [ParsedRecord]) {
    let total = store.len();
    if total == preexisting {
        return;
    }
    let mut remap: Vec<u32> = vec![u32::MAX; total];
    let mut order: Vec<TemplateId> = (0..preexisting as u32).map(TemplateId).collect();
    for (i, slot) in remap.iter_mut().enumerate().take(preexisting) {
        *slot = i as u32;
    }
    for rec in records.iter() {
        let old = rec.template.0 as usize;
        if remap[old] == u32::MAX {
            remap[old] = order.len() as u32;
            order.push(rec.template);
        }
    }
    // Templates interned but referenced by no record (cannot happen today —
    // every intern comes from a surviving SELECT) keep relative order.
    for (old, slot) in remap.iter_mut().enumerate().skip(preexisting) {
        if *slot == u32::MAX {
            *slot = order.len() as u32;
            order.push(TemplateId(old as u32));
        }
    }
    if order
        .iter()
        .enumerate()
        .all(|(new, id)| id.0 as usize == new)
    {
        return; // Already canonical (the single-threaded case).
    }
    store.renumber(&order);
    for rec in records.iter_mut() {
        rec.template = TemplateId(remap[rec.template.0 as usize]);
    }
}

/// Parses a log view into records, interning templates in `store`, under
/// `options` (parser resource limits, the parse cache).
///
/// `threads == 0` uses one thread per available core. Records, statistics,
/// and template ids are identical for every thread count (ids are
/// canonicalized to first appearance in record order), and identical
/// whether or not the parse cache is enabled. Shards that panic (a poison
/// statement crashing the parser) are re-run per-record: the poison
/// statement alone is counted and dropped, every other statement of the
/// shard parses normally.
///
/// Observability: per-shard spans (`"parse.shard"`, parented under
/// `parent`), a shard-latency histogram and outcome counters — including
/// template-interner effectiveness (`parse.templates_interned` vs
/// `parse.template_cache_hits`) and parse-cache effectiveness
/// (`parse.cache_hits` / `parse.cache_misses` / `parse.cache_fallbacks`) —
/// land in `rec`; pass [`Recorder::disabled`] and `None` for none.
pub fn parse_view_traced(
    view: &LogView<'_>,
    store: &TemplateStore,
    options: &ParseOptions,
    threads: usize,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> ParsedLog {
    let n = view.len();
    let threads = resolve_threads(threads).min(n.max(1));
    let preexisting = store.len();

    let chunk = n.div_ceil(threads).max(1);
    let mut ranges: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(n))
        .collect();
    if ranges.is_empty() {
        ranges = whole_range(0);
    }
    let (results, degraded) = run_shards_traced(
        ranges,
        ShardTrace {
            rec,
            parent,
            span_name: "parse.shard",
            hist_name: "parse.shard_us",
        },
        |r| r.len() as u64,
        |r| {
            let fault = fault::armed("parse");
            let mut memo: FnvHashMap<Fingerprint, TemplateId> = FnvHashMap::default();
            let mut cache = options.cache.then(ShapeCache::default);
            let outcomes = r
                .map(|i| {
                    let sql = &view.entry(i).statement;
                    fault::trip(&fault, sql);
                    parse_one_maybe_cached(
                        cache.as_mut(),
                        store,
                        &mut memo,
                        options,
                        view,
                        i as u32,
                        sql,
                    )
                })
                .collect::<Vec<_>>();
            if rec.is_enabled() {
                // Shard caches die at the join; account their footprint
                // here, while they still exist (counters sum across shards).
                if let Some(c) = &cache {
                    rec.counter("mem.parse_cache_bytes", c.approx_bytes() as u64);
                }
            }
            (outcomes, cache.map(tally).unwrap_or_default())
        },
        |r| {
            // Degraded re-run: each statement under its own panic guard.
            // The memo only caches fingerprint → interned id, and the shape
            // cache inserts entries only after a successful parse, so a
            // panic mid-record at worst wastes an entry — never corrupts
            // one.
            let fault = fault::armed("parse");
            let mut memo: FnvHashMap<Fingerprint, TemplateId> = FnvHashMap::default();
            let mut cache = options.cache.then(ShapeCache::default);
            let outcomes = r
                .map(|i| {
                    let sql = &view.entry(i).statement;
                    guarded(|| {
                        fault::trip(&fault, sql);
                        parse_one_maybe_cached(
                            cache.as_mut(),
                            store,
                            &mut memo,
                            options,
                            view,
                            i as u32,
                            sql,
                        )
                    })
                    .unwrap_or(Outcome::Poison)
                })
                .collect::<Vec<_>>();
            if rec.is_enabled() {
                if let Some(c) = &cache {
                    rec.counter("mem.parse_cache_bytes", c.approx_bytes() as u64);
                }
            }
            (outcomes, cache.map(tally).unwrap_or_default())
        },
    );

    let mut stats = ParseStats {
        total: n,
        degraded_shards: degraded,
        ..ParseStats::default()
    };
    let mut cache_stats = ParseCacheStats {
        enabled: options.cache,
        ..ParseCacheStats::default()
    };
    let mut records = Vec::with_capacity(n);
    for (outcomes, shard_cache) in results {
        cache_stats.hits += shard_cache.hits;
        cache_stats.misses += shard_cache.misses;
        cache_stats.fallbacks += shard_cache.fallbacks;
        cache_stats.crosschecks += shard_cache.crosschecks;
        for outcome in outcomes {
            match outcome {
                Outcome::Select(rec) => {
                    stats.selects += 1;
                    records.push(rec);
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
                Outcome::Poison => stats.poison += 1,
            }
        }
    }
    canonicalize_templates(store, preexisting, &mut records);
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
    rec.counter("parse.degraded_shards", stats.degraded_shards as u64);
    // Interner effectiveness at stage granularity: every surviving SELECT
    // resolved a template; the ones that did not mint a fresh id hit a
    // worker memo or the shared store.
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
    memo: &mut FnvHashMap<Fingerprint, TemplateId>,
    options: &ParseOptions,
    view: &LogView<'_>,
    entry_idx: u32,
    sql: &str,
) -> Outcome {
    match cache {
        Some(c) => c.parse_one_cached(
            store,
            memo,
            &options.limits,
            options.crosscheck,
            entry_idx,
            sql,
            &|i| view.entry(i as usize).statement.as_str(),
        ),
        None => parse_one(store, memo, &options.limits, entry_idx, sql),
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

/// Parses a pre-cleaned log into records, interning templates in `store`.
///
/// Compatibility wrapper around [`parse_view_traced`] for owned logs:
/// default [`ParseOptions`], untraced. `threads == 0` uses one thread per
/// available core.
pub fn parse_log(log: &QueryLog, store: &TemplateStore, threads: usize) -> ParsedLog {
    let view = LogView::identity(log);
    let none = Recorder::disabled();
    parse_view_traced(&view, store, &ParseOptions::default(), threads, &none, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_log::{LogEntry, Timestamp};

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
        let parsed = parse_log(&log, &store, 1);
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
        let seq = parse_log(&log, &store1, 1);
        for threads in [2, 3, 8] {
            let store2 = TemplateStore::new();
            let par = parse_log(&log, &store2, threads);
            assert_eq!(seq.stats, par.stats);
            // Canonical renumbering makes the ids — not just the
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
        let parse = |cache: bool, threads: usize| {
            let options = ParseOptions {
                cache,
                ..ParseOptions::default()
            };
            let store = TemplateStore::new();
            parse_view_traced(
                &view,
                &store,
                &options,
                threads,
                &Recorder::disabled(),
                None,
            )
        };
        let reference = parse(false, 1);
        assert_eq!(reference.records.len(), 300);
        for threads in [1, 4] {
            for cache in [false, true] {
                let parsed = parse(cache, threads);
                assert_eq!(
                    parsed.records, reference.records,
                    "cache {cache}, threads {threads}"
                );
            }
        }
        // One worker, cache on: the three shapes are three `Arc`s, each
        // held by every record of its shape.
        let parsed = parse(true, 1);
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
        let parsed = parse_log(&log, &store, 8);
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
    fn batch_rows_use_first_select() {
        let log = log(&["INSERT INTO t VALUES (1); SELECT a FROM t WHERE x = 1"]);
        let store = TemplateStore::new();
        let parsed = parse_log(&log, &store, 1);
        assert_eq!(parsed.stats.selects, 1);
        assert_eq!(parsed.records[0].shape.primary_table.as_deref(), Some("t"));
    }

    #[test]
    fn empty_log_is_fine() {
        let store = TemplateStore::new();
        let parsed = parse_log(&QueryLog::new(), &store, 4);
        assert_eq!(parsed.stats.total, 0);
        assert!(parsed.records.is_empty());
    }
}
