//! Step 5 of the pipeline: solving antipatterns (§5.5).
//!
//! Instances are processed in order of appearance in the log; when instances
//! overlap, the earlier one wins and the later one is skipped (the paper:
//! "solving starts with the antipattern which appears in the log first").
//! Two output logs are built:
//!
//! * the **clean log**: solvable instances replaced by their rewrites,
//!   everything else kept, and
//! * the **removal log**: every query covered by *any* antipattern instance
//!   dropped (the §6.9 "removal" variant).

pub mod batch;
pub mod snc;
pub mod stifle;

use crate::detect::{AntipatternClass, AntipatternInstance, DetectCtx};
use crate::ext::SolverSet;
use crate::parse_step::ParsedRecord;
use sqlog_log::{LogEntry, LogView, QueryLog};
use sqlog_obs::Recorder;

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

/// The solver pass: walks the instances in order and lets each solvable
/// one whose queries no earlier decision consumed be rewritten.
pub fn decide_solutions(
    ctx: &DetectCtx<'_>,
    instances: &[AntipatternInstance],
    solvers: &SolverSet<'_>,
) -> SolveDecisions {
    // Solving is sequential, so its observability is one span (nested under
    // the pipeline's "solve" stage span via the thread-local) plus the
    // splice's outcome counters.
    let mut span = ctx.config.recorder.span("solve.apply");
    span.field("instances", instances.len() as u64);
    // Chaos-harness injection point: unlike the sharded stages, solving is
    // sequential and not panic-isolated, so this trip is meant for the
    // process-killing actions (`abort`/`stall`), not `panic`.
    let fault = crate::fault::armed("solve");
    if fault.is_some() {
        for inst in instances {
            for &ri in &inst.records {
                let e = ctx.log.entry(ctx.records[ri].entry_idx as usize);
                crate::fault::trip(&fault, &e.statement);
            }
        }
    }
    let mut consumed = vec![false; ctx.records.len()];
    let mut decisions = SolveDecisions::default();
    for (i, inst) in instances.iter().enumerate() {
        if !inst.solvable {
            continue;
        }
        let Some(solver) = solvers.for_class(&inst.class) else {
            continue;
        };
        if inst.records.iter().any(|&ri| consumed[ri]) {
            decisions.skipped_overlaps += 1;
            continue;
        }
        let Some(statements) = solver.solve(inst, ctx) else {
            continue;
        };
        for &ri in &inst.records {
            consumed[ri] = true;
        }
        decisions.solved.push((i, statements));
    }
    decisions
}

/// Builds the clean log, the removal log, the counts and every
/// [`SolvedRewrite`] from the solver pass's decisions, which must keep
/// [`SolveDecisions::solved`]'s invariants over `instances`.
pub fn splice_solutions(
    log: &LogView<'_>,
    records: &[ParsedRecord],
    instances: &[AntipatternInstance],
    decisions: SolveDecisions,
    rec: &Recorder,
) -> SolveOutcome {
    let n_records = records.len();
    let mut consumed = vec![false; n_records];
    let mut in_any_instance = vec![false; n_records];
    for inst in instances {
        for &ri in &inst.records {
            in_any_instance[ri] = true;
        }
    }
    // Rewrites to splice in: (record index of the instance head, statements).
    let mut rewrites: Vec<(usize, Vec<String>)> = Vec::with_capacity(decisions.solved.len());
    let mut solved: Vec<SolvedRewrite> = Vec::with_capacity(decisions.solved.len());
    let mut solved_queries = 0usize;
    for (i, statements) in decisions.solved {
        let inst = &instances[i];
        for &ri in &inst.records {
            consumed[ri] = true;
        }
        solved_queries += inst.records.len();
        let originals: Vec<&LogEntry> = inst
            .records
            .iter()
            .map(|&ri| log.entry(records[ri].entry_idx as usize))
            .collect();
        solved.push(SolvedRewrite {
            class: inst.class.clone(),
            entry_ids: originals.iter().map(|e| e.id).collect(),
            original_statements: originals.iter().map(|e| e.statement.clone()).collect(),
            rewritten_statements: statements.clone(),
        });
        rewrites.push((inst.records[0], statements));
    }

    // Assemble the clean log: unconsumed records keep their entries;
    // rewrites are placed at the head record's position (same time & user,
    // id 0 until the final resequencing).
    //
    // The records are (timestamp, id)-sorted, so the unconsumed survivors
    // are sorted by construction and each rewrite entry's sort key is
    // (head timestamp, 0). Instead of re-sorting the spliced vector, the
    // survivors and the rewrites are merged stably — a rewrite goes before
    // a survivor exactly when its key is strictly smaller. This reproduces
    // what the stable sort of the spliced vector used to produce: the only
    // possible key tie against a survivor is the log's id-0 entry, which
    // came first in splice order and so stayed first under the stable sort.
    let mut survivors: Vec<LogEntry> = Vec::with_capacity(n_records);
    let mut removal: Vec<LogEntry> = Vec::with_capacity(n_records);
    let mut rewrite_entries: Vec<LogEntry> = Vec::new();
    let mut rewritten_statements = 0usize;
    rewrites.sort_by_key(|(head, _)| *head);
    let mut rw_iter = rewrites.into_iter().peekable();

    for (ri, rec) in records.iter().enumerate() {
        let entry = log.entry(rec.entry_idx as usize);
        while let Some((head, _)) = rw_iter.peek() {
            if *head == ri {
                let (_, statements) = rw_iter.next().expect("peeked");
                for stmt in statements {
                    rewritten_statements += 1;
                    rewrite_entries.push(LogEntry {
                        id: 0,
                        statement: stmt,
                        timestamp: entry.timestamp,
                        user: entry.user.clone(),
                        session: entry.session.clone(),
                        rows: None,
                        truth: None,
                    });
                }
            } else {
                break;
            }
        }
        if !consumed[ri] {
            survivors.push(entry.clone());
        }
        if !in_any_instance[ri] {
            removal.push(entry.clone());
        }
    }

    let mut clean: Vec<LogEntry> = Vec::with_capacity(survivors.len() + rewrite_entries.len());
    let mut rw = rewrite_entries.into_iter().peekable();
    for entry in survivors {
        while rw
            .peek()
            .is_some_and(|r| (r.timestamp, 0) < (entry.timestamp, entry.id))
        {
            clean.push(rw.next().expect("peeked"));
        }
        clean.push(entry);
    }
    clean.extend(rw);

    let mut clean_log = QueryLog::from_entries(clean);
    debug_assert!(clean_log.is_time_sorted());
    for (i, e) in clean_log.entries.iter_mut().enumerate() {
        e.id = i as u64;
    }
    // The removal log is a subsequence of the sorted records: sorted by
    // construction.
    let mut removal_log = QueryLog::from_entries(removal);
    debug_assert!(removal_log.is_time_sorted());
    for (i, e) in removal_log.entries.iter_mut().enumerate() {
        e.id = i as u64;
    }

    rec.counter("solve.solved_instances", solved.len() as u64);
    rec.counter("solve.solved_queries", solved_queries as u64);
    rec.counter("solve.rewritten_statements", rewritten_statements as u64);
    rec.counter("solve.skipped_overlaps", decisions.skipped_overlaps as u64);
    SolveOutcome {
        clean_log,
        removal_log,
        solved_instances: solved.len(),
        solved_queries,
        rewritten_statements,
        skipped_overlaps: decisions.skipped_overlaps,
        rewrites: solved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::detect::detect_builtin;
    use crate::ext::SolverSet;
    use crate::mine::build_sessions;
    use crate::parse_step::parse_log;
    use crate::store::TemplateStore;
    use sqlog_catalog::skyserver_catalog;
    use sqlog_log::{LogEntry, LogView, QueryLog, Timestamp};

    fn run(rows: &[&str]) -> SolveOutcome {
        let log = QueryLog::from_entries(
            rows.iter()
                .enumerate()
                .map(|(i, s)| {
                    LogEntry::minimal(i as u64, *s, Timestamp::from_secs(i as i64)).with_user("u")
                })
                .collect(),
        );
        let store = TemplateStore::new();
        let parsed = parse_log(&log, &store, 1);
        let sessions = build_sessions(&log, &parsed.records, 300_000);
        let catalog = skyserver_catalog();
        let config = PipelineConfig::default();
        let view = LogView::identity(&log);
        let ctx = DetectCtx {
            log: &view,
            records: &parsed.records,
            sessions: &sessions.sessions,
            store: &store,
            catalog: &catalog,
            config: &config,
        };
        let instances = detect_builtin(&ctx);
        let decisions = decide_solutions(&ctx, &instances, &SolverSet::builtin());
        splice_solutions(
            &view,
            &parsed.records,
            &instances,
            decisions,
            &config.recorder,
        )
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
