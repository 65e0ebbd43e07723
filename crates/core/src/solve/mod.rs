//! Step 5 of the pipeline: solving antipatterns (§5.5).
//!
//! Instances are decided in order of appearance in the log; when instances
//! overlap, the earlier one wins and the later one is skipped (the paper:
//! "solving starts with the antipattern which appears in the log first").
//! Only that overlap check needs the order: a solver's rewrite depends on
//! its instance and the context alone (the [`Solver`] contract). So the
//! solver pass runs every solver call speculatively, in shards on all
//! threads, and then makes the ordered first-wins pass over the results.
//! Two output logs are then spliced, again in shards:
//!
//! * the **clean log**: solvable instances replaced by their rewrites,
//!   everything else kept, and
//! * the **removal log**: every query covered by *any* antipattern instance
//!   dropped (the §6.9 "removal" variant).
//!
//! Both passes give the same decisions and the same bytes at every thread
//! count.
//!
//! [`Solver`]: crate::ext::Solver

pub mod batch;
pub mod snc;
pub mod stifle;

use crate::detect::{AntipatternClass, AntipatternInstance, DetectCtx};
use crate::ext::{Solver, SolverSet};
use crate::parse_step::ParsedRecord;
use crate::shard::{plan_shards, resolve_threads, run_shards, ShardTrace};
use sqlog_log::{LogEntry, LogView, QueryLog};
use sqlog_obs::Recorder;
use std::mem::MaybeUninit;
use std::ops::Range;
use std::sync::Mutex;

/// One applied rewrite: the original query sequence an instance covered and
/// the replacement statements the solver emitted for it.
///
/// This is the unit a semantic oracle consumes: for result-preserving
/// solvers (the Stifle family) the union of the originals' result sets must
/// equal the rewrites' result sets over any database instance.
#[derive(Debug, Clone)]
pub struct SolvedRewrite {
    /// The antipattern class of the solved instance.
    pub class: AntipatternClass,
    /// Original-log entry ids of the consumed queries, in log order.
    pub entry_ids: Vec<u64>,
    /// The consumed statements, verbatim, in log order.
    pub original_statements: Vec<String>,
    /// The replacement statements spliced into the clean log.
    pub rewritten_statements: Vec<String>,
}

/// Result of the solving step.
#[derive(Debug)]
pub struct SolveOutcome {
    /// The clean log (rewrites applied), time-sorted, ids re-sequenced.
    pub clean_log: QueryLog,
    /// The removal log (antipattern queries dropped).
    pub removal_log: QueryLog,
    /// Solvable instances actually rewritten.
    pub solved_instances: usize,
    /// Queries consumed by rewrites.
    pub solved_queries: usize,
    /// Replacement statements emitted.
    pub rewritten_statements: usize,
    /// Solvable instances skipped because an earlier instance had already
    /// consumed one of their queries.
    pub skipped_overlaps: usize,
    /// Every applied rewrite as an (original sequence, replacement) pair,
    /// in order of appearance in the log.
    pub rewrites: Vec<SolvedRewrite>,
}

/// What the solver pass decided: which instances are rewritten, and into
/// what. The clean and removal logs follow from these decisions, the
/// instances and the pre-clean log alone (see [`splice_solutions`]), so a
/// checkpoint stores the decisions instead of the two logs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolveDecisions {
    /// `(index into the instance list, replacement statements)` per solved
    /// instance, in increasing index order. Each names a solvable instance
    /// with at least one record, and no two share a record.
    pub solved: Vec<(usize, Vec<String>)>,
    /// Solvable instances skipped because an earlier instance had already
    /// consumed one of their queries.
    pub skipped_overlaps: usize,
}

/// The solver pass: lets each solvable instance whose queries no earlier
/// decision consumed be rewritten, walking the instances in order.
///
/// The solver calls run first, for every solvable instance, in contiguous
/// instance ranges balanced by record count on
/// `ctx.config.parallelism` threads (`solve.shard` spans under the
/// recorder's current span). The first-wins pass over their results then
/// reproduces the sequential decisions exactly; the only extra work is
/// the calls for instances it skips, which
/// [`SolveDecisions::skipped_overlaps`] counts.
///
/// The `solve` fault hook trips inside the shard workers, on every record
/// of every instance. A shard that panics is re-run one instance at a
/// time: a poison instance stays unsolved, so its queries are kept
/// verbatim. Returns the decisions and the number of such degraded shards;
/// the `solve.poison_instances` and `solve.degraded_shards` counters
/// record both counts.
pub fn decide_solutions(
    ctx: &DetectCtx<'_>,
    instances: &[AntipatternInstance],
    solvers: &SolverSet<'_>,
) -> (SolveDecisions, usize) {
    let rec = &ctx.config.recorder;
    let solver_of = |inst: &AntipatternInstance| -> Option<&dyn Solver> {
        solvers.for_class(&inst.class).filter(|_| inst.solvable)
    };
    let run = run_shards(
        plan_shards(
            resolve_threads(ctx.config.parallelism),
            instances
                .iter()
                .map(|inst| solver_of(inst).map_or(0, |_| inst.records.len() as u64)),
        ),
        ShardTrace {
            rec,
            parent: rec.current(),
            stage: "solve",
            span_name: "solve.shard",
            hist_name: "solve.shard_us",
            degraded_counter: Some("solve.degraded_shards"),
        },
        |r| r.len() as u64,
        // A re-run solves one instance at a time; a poison instance is
        // left unsolved.
        |r, shard| {
            instances[r]
                .iter()
                .map(|inst| {
                    shard
                        .item(|| {
                            if shard.armed() {
                                for &ri in &inst.records {
                                    shard.trip(&ctx.record_entry(ri).statement);
                                }
                            }
                            solver_of(inst)?.solve(inst, ctx)
                        })
                        .flatten()
                })
                .collect::<Vec<_>>()
        },
    );
    let rewrites = run.outputs.into_iter().flatten();
    let mut consumed = vec![false; ctx.records.len()];
    let mut decisions = SolveDecisions::default();
    for (i, (inst, rewrite)) in instances.iter().zip(rewrites).enumerate() {
        if solver_of(inst).is_none() {
            continue;
        }
        if inst.records.iter().any(|&ri| consumed[ri]) {
            decisions.skipped_overlaps += 1;
            continue;
        }
        let Some(statements) = rewrite else {
            continue;
        };
        for &ri in &inst.records {
            consumed[ri] = true;
        }
        decisions.solved.push((i, statements));
    }
    rec.counter("solve.poison_instances", run.poison as u64);
    (decisions, run.degraded)
}

/// Builds the clean log, the removal log, the counts and every
/// [`SolvedRewrite`] from the solver pass's decisions, which must keep
/// [`SolveDecisions::solved`]'s invariants over `instances`.
///
/// The records are spliced in contiguous ranges on `threads` threads
/// (`solve.splice.shard` spans under the recorder's current span), cut
/// only between records with different timestamps. Each range writes its
/// entries, numbered by their final position, straight into its window of
/// the two output logs.
pub fn splice_solutions(
    log: &LogView<'_>,
    records: &[ParsedRecord],
    instances: &[AntipatternInstance],
    decisions: &SolveDecisions,
    threads: usize,
    rec: &Recorder,
) -> SolveOutcome {
    let n_records = records.len();
    let entry = |ri: usize| log.entry(records[ri].entry_idx as usize);
    let mut in_any_instance = vec![false; n_records];
    for inst in instances {
        for &ri in &inst.records {
            in_any_instance[ri] = true;
        }
    }
    let mut consumed = vec![false; n_records];
    // (record index of the instance head, index into `decisions.solved`),
    // sorted by head: where each rewrite goes. Two solved instances never
    // share a record, so heads are distinct.
    let mut heads: Vec<(usize, usize)> = Vec::with_capacity(decisions.solved.len());
    let mut solved_queries = 0usize;
    let mut rewritten_statements = 0usize;
    for (d, (i, statements)) in decisions.solved.iter().enumerate() {
        let inst = &instances[*i];
        for &ri in &inst.records {
            consumed[ri] = true;
        }
        solved_queries += inst.records.len();
        rewritten_statements += statements.len();
        heads.push((inst.records[0], d));
    }
    heads.sort_unstable();

    // The records are (timestamp, id)-sorted, so the unconsumed survivors
    // are sorted by construction and each rewrite entry's sort key is
    // (head timestamp, 0): a rewrite goes before a survivor exactly when
    // its key is strictly smaller (same time & user as its head). The only
    // possible key tie against a survivor is the log's id-0 entry, which
    // stays first, as under a stable sort of the spliced entries. Ranges
    // are cut only between different timestamps, so a rewrite sorts after
    // every survivor of earlier ranges and before every survivor of later
    // ones: merging per range and concatenating gives the whole-log merge.
    let ranges = splice_ranges(n_records, threads, |ri| entry(ri).timestamp);
    let heads_in = |r: &Range<usize>| {
        let lo = heads.partition_point(|&(head, _)| head < r.start);
        let hi = heads.partition_point(|&(head, _)| head < r.end);
        &heads[lo..hi]
    };
    let unmarked =
        |r: &Range<usize>, marks: &[bool]| marks[r.clone()].iter().filter(|&&m| !m).count();
    let clean_sizes: Vec<usize> = ranges
        .iter()
        .map(|r| {
            let rewrites: usize = heads_in(r)
                .iter()
                .map(|&(_, d)| decisions.solved[d].1.len())
                .sum();
            unmarked(r, &consumed) + rewrites
        })
        .collect();
    let removal_sizes: Vec<usize> = ranges
        .iter()
        .map(|r| unmarked(r, &in_any_instance))
        .collect();
    let (clean_len, removal_len) = (clean_sizes.iter().sum(), removal_sizes.iter().sum());
    let mut clean: Vec<LogEntry> = Vec::with_capacity(clean_len);
    let mut removal: Vec<LogEntry> = Vec::with_capacity(removal_len);
    let windows: Vec<Mutex<Option<(Window<'_>, Window<'_>)>>> =
        Window::carve(&mut clean, &clean_sizes)
            .into_iter()
            .zip(Window::carve(&mut removal, &removal_sizes))
            .map(|pair| Mutex::new(Some(pair)))
            .collect();

    // One range: fills its windows and returns its solved rewrites, each
    // with its index into `decisions.solved`.
    let splice_range = |shard: usize| {
        let r = ranges[shard].clone();
        let (mut clean, mut removal) = windows[shard]
            .lock()
            .expect("window lock")
            .take()
            .expect("each window is filled once");
        let heads = heads_in(&r);
        let rewrites: Vec<(usize, SolvedRewrite)> = heads
            .iter()
            .map(|&(_, d)| {
                let (i, statements) = &decisions.solved[d];
                let inst = &instances[*i];
                let rewrite = SolvedRewrite {
                    class: inst.class.clone(),
                    entry_ids: inst.records.iter().map(|&ri| entry(ri).id).collect(),
                    original_statements: inst
                        .records
                        .iter()
                        .map(|&ri| entry(ri).statement.clone())
                        .collect(),
                    rewritten_statements: statements.clone(),
                };
                (d, rewrite)
            })
            .collect();
        let mut pending = heads.iter().flat_map(|&(head, d)| {
            let e = entry(head);
            decisions.solved[d].1.iter().map(|stmt| LogEntry {
                id: 0,
                statement: stmt.clone(),
                timestamp: e.timestamp,
                user: e.user.clone(),
                session: e.session.clone(),
                rows: None,
                truth: None,
            })
        });
        let mut next = pending.next();
        for ri in r {
            let e = entry(ri);
            if !consumed[ri] {
                while next
                    .as_ref()
                    .is_some_and(|w| (w.timestamp, 0) < (e.timestamp, e.id))
                {
                    clean.push(next.take().expect("checked"));
                    next = pending.next();
                }
                clean.push(e.clone());
            }
            if !in_any_instance[ri] {
                removal.push(e.clone());
            }
        }
        for w in next.into_iter().chain(pending) {
            clean.push(w);
        }
        clean.finish();
        removal.finish();
        rewrites
    };
    // No fault hook runs here: a panic is a bug, and its shard's window is
    // gone, so the re-run panics outside any item and the splice fails
    // rather than returning a partial log.
    let parts = run_shards(
        (0..ranges.len()).map(|i| i..i + 1).collect(),
        ShardTrace {
            rec,
            parent: rec.current(),
            stage: "solve.splice",
            span_name: "solve.splice.shard",
            hist_name: "solve.splice.shard_us",
            degraded_counter: None,
        },
        |shards| ranges[shards.start].len() as u64,
        |shards, _| splice_range(shards.start),
    )
    .outputs;
    drop(windows);
    // SAFETY: the windows partition the first `clean_len` (`removal_len`)
    // slots of each vector, every shard took its window and `finish`
    // asserted it wrote every slot, and a shard that panicked made the
    // call above panic too. So every slot below the new length is
    // initialized.
    unsafe {
        clean.set_len(clean_len);
        removal.set_len(removal_len);
    }
    let clean_log = QueryLog::from_entries(clean);
    debug_assert!(clean_log.is_time_sorted());
    // The removal log is a subsequence of the sorted records: sorted by
    // construction.
    let removal_log = QueryLog::from_entries(removal);
    debug_assert!(removal_log.is_time_sorted());

    // Ranges hand back rewrites in head order; the outcome lists them in
    // decision order (the same order when the instances are sorted).
    let mut rewrites: Vec<(usize, SolvedRewrite)> = parts.into_iter().flatten().collect();
    rewrites.sort_by_key(|(d, _)| *d);
    let rewrites: Vec<SolvedRewrite> = rewrites.into_iter().map(|(_, rw)| rw).collect();

    rec.counter("solve.solved_instances", rewrites.len() as u64);
    rec.counter("solve.solved_queries", solved_queries as u64);
    rec.counter("solve.rewritten_statements", rewritten_statements as u64);
    rec.counter("solve.skipped_overlaps", decisions.skipped_overlaps as u64);
    SolveOutcome {
        clean_log,
        removal_log,
        solved_instances: rewrites.len(),
        solved_queries,
        rewritten_statements,
        skipped_overlaps: decisions.skipped_overlaps,
        rewrites,
    }
}

/// A range's window of an output vector's spare capacity, filled front to
/// back with entries numbered by their final position.
struct Window<'a> {
    slots: std::slice::IterMut<'a, MaybeUninit<LogEntry>>,
    next_id: u64,
}

impl<'a> Window<'a> {
    /// Cuts the first `sizes.iter().sum()` spare slots of `out` into
    /// consecutive windows of the given sizes.
    fn carve(out: &'a mut Vec<LogEntry>, sizes: &[usize]) -> Vec<Window<'a>> {
        let mut rest = out.spare_capacity_mut();
        let mut next_id = 0u64;
        sizes
            .iter()
            .map(|&size| {
                let (slots, tail) = std::mem::take(&mut rest).split_at_mut(size);
                rest = tail;
                let w = Window {
                    slots: slots.iter_mut(),
                    next_id,
                };
                next_id += size as u64;
                w
            })
            .collect()
    }

    fn push(&mut self, mut e: LogEntry) {
        e.id = self.next_id;
        self.next_id += 1;
        self.slots
            .next()
            .expect("window sized by its count")
            .write(e);
    }

    /// Asserts that every slot of the window was written.
    fn finish(self) {
        assert_eq!(self.slots.len(), 0, "window left unfilled");
    }
}

/// Cuts `0..n` into at most `parts` contiguous, non-empty ranges of about
/// equal length (one empty range when `n == 0`). Each cut moves forward
/// past the records that share the timestamp `ts` just before it, so no
/// timestamp spans two ranges.
fn splice_ranges<T: PartialEq>(
    n: usize,
    parts: usize,
    ts: impl Fn(usize) -> T,
) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for k in 1..parts {
        let mut cut = (n * k / parts).max(start + 1);
        while cut < n && ts(cut) == ts(cut - 1) {
            cut += 1;
        }
        if cut >= n {
            break;
        }
        out.push(start..cut);
        start = cut;
    }
    out.push(start..n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::detect::detect_builtin;
    use crate::ext::SolverSet;
    use crate::parse_step::parse;
    use crate::store::TemplateStore;
    use crate::testkit::{user_log, with_ctx};
    use sqlog_catalog::skyserver_catalog;
    use sqlog_log::{LogEntry, LogView, QueryLog, Timestamp};
    use sqlog_obs::Recorder;

    fn run(rows: &[&str]) -> SolveOutcome {
        with_ctx(&user_log(rows), &PipelineConfig::default(), |ctx| {
            let instances = detect_builtin(ctx);
            let (decisions, _) = decide_solutions(ctx, &instances, &SolverSet::builtin());
            splice_solutions(
                ctx.log,
                ctx.records,
                &instances,
                &decisions,
                1,
                &ctx.config.recorder,
            )
        })
    }

    /// A parsed log of `SELECT a FROM t WHERE x = <i>` statements, one per
    /// timestamp (seconds) in `times`, all from one user.
    struct Fixture {
        log: QueryLog,
        store: TemplateStore,
        records: Vec<ParsedRecord>,
        catalog: sqlog_catalog::Catalog,
    }

    impl Fixture {
        fn new(times: &[i64]) -> Fixture {
            let log = QueryLog::from_entries(
                times
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        let sql = format!("SELECT a FROM t WHERE x = {i}");
                        LogEntry::minimal(i as u64, sql, Timestamp::from_secs(t)).with_user("u")
                    })
                    .collect(),
            );
            let store = TemplateStore::new();
            let records =
                parse(&LogView::identity(&log), &store, &PipelineConfig::default()).records;
            assert_eq!(records.len(), times.len());
            Fixture {
                log,
                store,
                records,
                catalog: skyserver_catalog(),
            }
        }

        /// Decides `instances` with `solvers` on `threads` threads, and
        /// counts the solver-pass shards.
        fn decide(
            &self,
            instances: &[AntipatternInstance],
            solvers: &SolverSet<'_>,
            threads: usize,
        ) -> (SolveDecisions, usize) {
            let config = PipelineConfig {
                parallelism: threads,
                recorder: Recorder::new(),
                ..PipelineConfig::default()
            };
            let view = LogView::identity(&self.log);
            let ctx = DetectCtx {
                log: &view,
                records: &self.records,
                sessions: &[],
                store: &self.store,
                catalog: &self.catalog,
                config: &config,
            };
            let (decisions, degraded) = decide_solutions(&ctx, instances, solvers);
            assert_eq!(degraded, 0);
            let shards = config
                .recorder
                .spans()
                .iter()
                .filter(|s| s.name == "solve.shard")
                .count();
            (decisions, shards)
        }

        fn splice(
            &self,
            instances: &[AntipatternInstance],
            decisions: &SolveDecisions,
            threads: usize,
        ) -> SolveOutcome {
            let view = LogView::identity(&self.log);
            let rec = Recorder::disabled();
            splice_solutions(&view, &self.records, instances, decisions, threads, &rec)
        }
    }

    fn custom(records: Vec<usize>) -> AntipatternInstance {
        AntipatternInstance {
            class: AntipatternClass::Custom("merge".into()),
            records,
            identity: vec![],
            marker_keys: vec![],
            solvable: true,
        }
    }

    /// Merges an instance into one statement named after its head record,
    /// except for the heads it refuses.
    struct Merge {
        refuse: Vec<usize>,
    }

    impl crate::ext::Solver for Merge {
        fn name(&self) -> &str {
            "merge"
        }
        fn solve(&self, inst: &AntipatternInstance, _: &DetectCtx<'_>) -> Option<Vec<String>> {
            let head = inst.records[0];
            (!self.refuse.contains(&head)).then(|| vec![format!("SELECT merged FROM t{head}")])
        }
    }

    #[test]
    fn overlap_across_shards_keeps_the_earlier_instance() {
        let fx = Fixture::new(&[0, 1, 2, 3]);
        // Equal record counts: at two threads each instance is its own
        // shard, and they share record 1.
        let instances = vec![custom(vec![0, 1]), custom(vec![1, 2])];
        let merge = Merge { refuse: vec![] };
        let solvers = SolverSet::builtin().with_custom("merge", &merge);
        let (one, one_shards) = fx.decide(&instances, &solvers, 1);
        let (two, two_shards) = fx.decide(&instances, &solvers, 2);
        assert_eq!((one_shards, two_shards), (1, 2));
        assert_eq!(one, two);
        assert_eq!(
            two.solved,
            vec![(0, vec!["SELECT merged FROM t0".to_string()])]
        );
        assert_eq!(two.skipped_overlaps, 1);
    }

    #[test]
    fn a_refused_earlier_instance_lets_the_later_one_solve() {
        let fx = Fixture::new(&[0, 1, 2, 3]);
        let instances = vec![custom(vec![0, 1]), custom(vec![1, 2])];
        let merge = Merge { refuse: vec![0] };
        let solvers = SolverSet::builtin().with_custom("merge", &merge);
        let (one, _) = fx.decide(&instances, &solvers, 1);
        let (two, two_shards) = fx.decide(&instances, &solvers, 2);
        assert_eq!(two_shards, 2);
        assert_eq!(one, two);
        assert_eq!(
            two.solved,
            vec![(1, vec!["SELECT merged FROM t1".to_string()])]
        );
        assert_eq!(two.skipped_overlaps, 0);
    }

    #[test]
    fn splice_ranges_never_split_a_timestamp() {
        let ts = [0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2];
        let at = |i: usize| ts[i];
        assert_eq!(splice_ranges(ts.len(), 1, at), vec![0..12]);
        assert_eq!(splice_ranges(ts.len(), 2, at), vec![0..11, 11..12]);
        assert_eq!(splice_ranges(ts.len(), 8, at), vec![0..1, 1..11, 11..12]);
        assert_eq!(splice_ranges(0, 4, at), vec![0..0]);
        assert_eq!(splice_ranges(3, 8, |i| i), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn splice_over_equal_timestamps_is_identical_at_every_thread_count() {
        // A long run of equal timestamps where an even cut would fall, with
        // rewrites headed inside it: each rewrite sorts before every
        // equal-timestamp survivor, including the ones before its head.
        let fx = Fixture::new(&[0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 3]);
        let instances = vec![
            custom(vec![1, 2]),
            custom(vec![6, 7]),
            custom(vec![10, 11]),
            custom(vec![13, 14]),
        ];
        let merge = Merge { refuse: vec![] };
        let solvers = SolverSet::builtin().with_custom("merge", &merge);
        let (decisions, _) = fx.decide(&instances, &solvers, 1);
        assert_eq!(decisions.solved.len(), 4);
        let reference = fx.splice(&instances, &decisions, 1);
        let statements: Vec<&str> = reference
            .clean_log
            .entries
            .iter()
            .map(|e| e.statement.as_str())
            .collect();
        assert_eq!(
            statements,
            [
                "SELECT a FROM t WHERE x = 0",
                "SELECT merged FROM t1",
                "SELECT merged FROM t6",
                "SELECT merged FROM t10",
                "SELECT a FROM t WHERE x = 3",
                "SELECT a FROM t WHERE x = 4",
                "SELECT a FROM t WHERE x = 5",
                "SELECT a FROM t WHERE x = 8",
                "SELECT a FROM t WHERE x = 9",
                "SELECT a FROM t WHERE x = 12",
                "SELECT merged FROM t13",
                "SELECT a FROM t WHERE x = 15",
            ]
        );
        for threads in [2usize, 3, 4, 8, 16] {
            let out = fx.splice(&instances, &decisions, threads);
            assert_eq!(out.clean_log, reference.clean_log, "threads {threads}");
            assert_eq!(out.removal_log, reference.removal_log, "threads {threads}");
            assert_eq!(out.rewrites.len(), 4);
            for (a, b) in out.rewrites.iter().zip(&reference.rewrites) {
                assert_eq!(a.entry_ids, b.entry_ids, "threads {threads}");
            }
        }
        for (i, e) in reference.clean_log.entries.iter().enumerate() {
            assert_eq!(e.id, i as u64);
        }
    }

    #[test]
    fn paper_table_3_shape() {
        // Table 2 → Table 3 of the paper: the DW triple collapses to one
        // IN-query; the CTH source survives.
        let out = run(&[
            "SELECT E.Id FROM Employees E WHERE E.department = 'sales'",
            "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12",
            "SELECT E.name, E.surname FROM Employees E WHERE E.id = 15",
            "SELECT E.name, E.surname FROM Employees E WHERE E.id = 16",
        ]);
        assert_eq!(out.solved_instances, 1);
        assert_eq!(out.solved_queries, 3);
        assert_eq!(out.clean_log.len(), 2);
        assert!(out.clean_log.entries[1]
            .statement
            .contains("IN (12, 15, 16)"));
        // Removal drops everything covered by any instance — including the
        // CTH candidate's source query.
        assert_eq!(out.removal_log.len(), 0);
    }

    #[test]
    fn non_antipattern_queries_pass_through() {
        let out = run(&[
            "SELECT count(*) FROM photoprimary WHERE htmid>=1 and htmid<=2",
            "SELECT count(*) FROM photoprimary WHERE htmid>=3 and htmid<=4",
        ]);
        assert_eq!(out.solved_instances, 0);
        assert_eq!(out.clean_log.len(), 2);
        assert_eq!(out.removal_log.len(), 2);
    }

    #[test]
    fn overlapping_instances_first_wins() {
        // DW run 1,2,3 then a DS pair sharing record 3.
        let out = run(&[
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=1",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=2",
            "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=3",
            "SELECT ra, dec FROM photoprimary WHERE objid=3",
        ]);
        // DW solved; DS skipped because record 3 was consumed. The DS pair's
        // second query (ra, dec) survives unconsumed.
        assert_eq!(out.solved_instances, 1);
        assert_eq!(out.skipped_overlaps, 1);
        assert_eq!(out.clean_log.len(), 2);
    }

    #[test]
    fn clean_log_ids_are_sequential() {
        let out = run(&[
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 1",
            "SELECT count(*) FROM photoprimary WHERE htmid>=1 and htmid<=2",
        ]);
        for (i, e) in out.clean_log.entries.iter().enumerate() {
            assert_eq!(e.id, i as u64);
        }
        assert!(out.clean_log.is_time_sorted());
    }

    #[test]
    fn rewrites_expose_original_and_replacement_pairs() {
        let out = run(&[
            "SELECT E.name, E.surname FROM Employees E WHERE E.id = 12",
            "SELECT E.name, E.surname FROM Employees E WHERE E.id = 15",
        ]);
        assert_eq!(out.rewrites.len(), 1);
        let rw = &out.rewrites[0];
        assert_eq!(rw.class, AntipatternClass::DwStifle);
        assert_eq!(rw.entry_ids, vec![0, 1]);
        assert_eq!(rw.original_statements.len(), 2);
        assert!(rw.original_statements[0].ends_with("E.id = 12"));
        assert_eq!(rw.rewritten_statements.len(), 1);
        assert!(rw.rewritten_statements[0].contains("IN (12, 15)"));
    }

    #[test]
    fn snc_is_rewritten_in_place() {
        let out = run(&["SELECT * FROM photoprimary WHERE flags = NULL"]);
        assert_eq!(out.solved_instances, 1);
        assert_eq!(out.clean_log.len(), 1);
        assert!(out.clean_log.entries[0].statement.ends_with("IS NULL"));
    }
}
