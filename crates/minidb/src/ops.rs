//! The Volcano-style executor: pull-based operators driven by a
//! [`QueryPlan`].
//!
//! Each operator exposes `next()` and counts the rows it scans and
//! produces; `execute_plan` assembles the pipeline the plan describes
//! (scan → join → filter), drains it, and hands the matched rows
//! to the same projection/aggregation/ordering tail the naive reference
//! executor uses (`exec::finish_rows`). Sharing the tail is deliberate: the
//! two executors can differ in *how many rows they touch* (that is the
//! planner's whole point) but never in *which rows they return*, which is
//! what the differential tests pin.
//!
//! The per-operator counters come back as an [`OpStats`] tree mirroring the
//! plan shape. `OpStats::storage_scanned` sums the rows the scan leaves
//! actually examined — the quantity the cost model bills (a seek touching 3
//! rows of a million-row table is billed as 3, not 1 000 000).

use crate::eval::{Pred, RowIds, Scalar};
use crate::exec::{
    bind_table_ref, constant_result, materialize, BoundQuery, ExecError, ExecResult, Source,
};
use crate::plan::{Access, PlanNode, QueryPlan, ScanPlan};
use crate::table::{index_on, ColumnData, IndexKey, Probe, Table};
use sqlog_obs::Json;
use sqlog_sql::ast::{Expr, Query, TableRef};
use std::collections::HashMap;

/// Per-operator execution counters, shaped like the plan tree.
#[derive(Debug, Clone, PartialEq)]
pub struct OpStats {
    /// Operator name (`SeqScan`, `IndexScan`, `Filter`, …).
    pub op: &'static str,
    /// Human-readable detail (table + access path, probe columns, …).
    pub detail: String,
    /// Rows this operator examined (for scans: storage rows enumerated).
    pub rows_scanned: u64,
    /// Rows this operator emitted upward.
    pub rows_produced: u64,
    /// Child operators.
    pub children: Vec<OpStats>,
}

impl OpStats {
    /// Total storage rows examined by the scan leaves — the operator-level
    /// scanned-row count the cost model consumes.
    pub fn storage_scanned(&self) -> u64 {
        let own = if matches!(self.op, "SeqScan" | "IndexScan") {
            self.rows_scanned
        } else {
            0
        };
        own + self
            .children
            .iter()
            .map(OpStats::storage_scanned)
            .sum::<u64>()
    }

    /// First operator with the given name, depth-first.
    pub fn find(&self, op: &str) -> Option<&OpStats> {
        if self.op == op {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(op))
    }

    /// Stable JSON form (one object per operator, children nested).
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("op", Json::Str(self.op.to_string()))];
        if !self.detail.is_empty() {
            pairs.push(("detail", Json::Str(self.detail.clone())));
        }
        pairs.push(("rows_scanned", Json::U64(self.rows_scanned)));
        pairs.push(("rows_produced", Json::U64(self.rows_produced)));
        if !self.children.is_empty() {
            pairs.push((
                "children",
                Json::Arr(self.children.iter().map(OpStats::to_json).collect()),
            ));
        }
        Json::obj(pairs)
    }

    /// Indented one-line-per-operator rendering for reports.
    pub fn render(&self) -> String {
        fn rec(s: &OpStats, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            let detail = if s.detail.is_empty() {
                String::new()
            } else {
                format!(" {}", s.detail)
            };
            out.push_str(&format!(
                "{pad}{}{detail}  scanned={} produced={}\n",
                s.op, s.rows_scanned, s.rows_produced
            ));
            for c in &s.children {
                rec(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        rec(self, 0, &mut out);
        out
    }
}

/// A planned execution: the byte-compatible result, the plan that produced
/// it, and the operator counters observed while running it.
#[derive(Debug, Clone)]
pub struct PlannedExec {
    /// The result, identical in shape to the naive executor's.
    pub result: ExecResult,
    /// The plan that was executed.
    pub plan: QueryPlan,
    /// Observed per-operator counters.
    pub ops: OpStats,
}

/// Executes a query along a plan of it through the Volcano pipeline,
/// returning the result and the operator counters.
pub(crate) fn execute_plan(
    query: &Query,
    plan: &QueryPlan,
    tables: &HashMap<String, Table>,
) -> Result<(ExecResult, OpStats), ExecError> {
    let body = &query.body;

    // Materialize derived tables along their subplans, in the traversal
    // order the binder uses (the order of the plan's sources).
    let mut subplans = source_scans(&plan.root)
        .into_iter()
        .filter_map(|s| s.derived.as_deref());
    let mut arena: Vec<Table> = Vec::new();
    for t in &body.from {
        collect_derived_planned(t, &mut subplans, tables, &mut arena)?;
    }

    // Bind the FROM clause, then every expression against it.
    let mut sources: Vec<Source<'_>> = Vec::new();
    let mut join_on: Vec<&Expr> = Vec::new();
    let mut derived_cursor = 0usize;
    for t in &body.from {
        bind_table_ref(
            t,
            tables,
            &arena,
            &mut derived_cursor,
            &mut sources,
            &mut join_on,
        )?;
    }

    // Constant-only query.
    if sources.is_empty() {
        let result = constant_result(body)?;
        let ops = OpStats {
            op: "Project",
            detail: String::new(),
            rows_scanned: 1,
            rows_produced: result.rows.len() as u64,
            children: vec![OpStats {
                op: "Values",
                detail: String::new(),
                rows_scanned: 0,
                rows_produced: 1,
                children: Vec::new(),
            }],
        };
        return Ok((result, ops));
    }
    let bound = BoundQuery::bind(query, &sources, &join_on);

    // Assemble the pipeline from the plan's scan topology and drain it.
    let counters;
    let matches;
    {
        let base = base_of(&plan.root);
        let input = match base {
            PlanNode::Scan(sp) => {
                BaseOp::Single(ScanOp::new(scan_candidates(sources[0].table, &sp.access)))
            }
            PlanNode::NestedLoopJoin {
                outer,
                inner,
                probe,
                ..
            } => {
                let (PlanNode::Scan(osp), PlanNode::Scan(isp)) = (outer.as_ref(), inner.as_ref())
                else {
                    return Err(ExecError::Unsupported("join of non-scans".into()));
                };
                let (outer_table, inner_table) = (sources[0].table, sources[1].table);
                // With no equi-join probe the inner side re-walks its (fixed)
                // best access path per outer row. It starts exhausted, so
                // the first outer row rewinds it.
                let mut inner = ScanOp::new(match probe {
                    Some(_) => Candidates::All(0),
                    None => scan_candidates(inner_table, &isp.access),
                });
                inner.pos = inner.ids.len();
                BaseOp::Join {
                    outer: ScanOp::new(scan_candidates(outer_table, &osp.access)),
                    inner,
                    probe: probe.as_ref().map(|(ocol, icol)| JoinProbe {
                        outer: outer_table.column(ocol).map(|c| &c.data),
                        index: index_on(&inner_table.indexes, icol),
                        inner_rows: inner_table.rows(),
                    }),
                    cur_outer: 0,
                }
            }
            _ => return Err(ExecError::Unsupported("plan without a scan".into())),
        };
        let mut filter = FilterOp {
            input,
            filter: bound.filter.as_ref(),
            consumed: 0,
            produced: 0,
        };
        let mut out: Vec<RowIds> = Vec::new();
        while let Some(m) = filter.next()? {
            out.push(m);
        }
        let (outer_scanned, inner_scanned, tuples) = match filter.input {
            BaseOp::Single(s) => (s.count, 0, filter.consumed),
            BaseOp::Join { outer, inner, .. } => (outer.count, inner.count, filter.consumed),
        };
        counters = Counters {
            outer_scanned,
            inner_scanned,
            tuples,
            matched: filter.produced,
            pre_distinct: 0,
            pre_limit: 0,
            out: 0,
        };
        matches = out;
    }

    let names = projected_names(&plan.root);
    let (result, tail) = crate::exec::finish_rows(query, &bound, &sources, names, matches)?;
    let counters = Counters {
        pre_distinct: tail.pre_distinct as u64,
        pre_limit: tail.pre_limit as u64,
        out: result.rows.len() as u64,
        ..counters
    };
    let ops = op_stats_tree(&plan.root, &counters);
    Ok((result, ops))
}

/// Depth-first materialization of derived tables through the planned
/// executor, each along the next of `subplans` (mirrors
/// `exec::collect_derived`, which stays naive-recursive).
fn collect_derived_planned<'p>(
    t: &TableRef,
    subplans: &mut impl Iterator<Item = &'p QueryPlan>,
    tables: &HashMap<String, Table>,
    arena: &mut Vec<Table>,
) -> Result<(), ExecError> {
    match t {
        TableRef::Derived { subquery, alias } => {
            let plan = subplans
                .next()
                .ok_or_else(|| ExecError::Unsupported("derived table without a subplan".into()))?;
            let (result, _) = execute_plan(subquery, plan, tables)?;
            let name = alias
                .as_ref()
                .map_or_else(|| format!("derived{}", arena.len()), |a| a.normalized());
            arena.push(materialize(&name, &result));
            Ok(())
        }
        TableRef::Join { left, right, .. } => {
            collect_derived_planned(left, subplans, tables, arena)?;
            collect_derived_planned(right, subplans, tables, arena)
        }
        _ => Ok(()),
    }
}

/// The output names a plan's projection rendered, unless it aggregates.
fn projected_names(root: &PlanNode) -> Option<&[String]> {
    let mut node = root;
    loop {
        match node {
            PlanNode::Project { columns, .. } => return Some(columns),
            other => node = other.input()?,
        }
    }
}

/// The scans of a plan's FROM sources, outer first.
fn source_scans(root: &PlanNode) -> Vec<&ScanPlan> {
    match base_of(root) {
        PlanNode::Scan(s) => vec![s],
        PlanNode::NestedLoopJoin { outer, inner, .. } => [outer, inner]
            .into_iter()
            .filter_map(|n| match n.as_ref() {
                PlanNode::Scan(s) => Some(s),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The scan topology at the bottom of a plan chain.
fn base_of(root: &PlanNode) -> &PlanNode {
    let mut n = root;
    loop {
        match n {
            PlanNode::Scan(_) | PlanNode::NestedLoopJoin { .. } | PlanNode::Values => return n,
            other => n = other.input().expect("plan tail chain ends at a scan"),
        }
    }
}

/// Candidate row ids of one scan, ascending.
enum Candidates<'a> {
    /// Every row of a table with this many rows.
    All(usize),
    /// One hash-index entry, read in place.
    Index(&'a [u32]),
    /// Collected ids.
    Rows(Vec<u32>),
}

impl Candidates<'_> {
    fn len(&self) -> usize {
        match self {
            Candidates::All(n) => *n,
            Candidates::Index(ids) => ids.len(),
            Candidates::Rows(ids) => ids.len(),
        }
    }

    /// The `i`-th candidate.
    fn get(&self, i: usize) -> usize {
        match self {
            Candidates::All(_) => i,
            Candidates::Index(ids) => ids[i] as usize,
            Candidates::Rows(ids) => ids[i] as usize,
        }
    }
}

/// Candidate row ids for an access path, in ascending row-id order — the
/// order of the naive executor's full scan, which keeps planned and naive
/// result rows identical even without ORDER BY.
fn scan_candidates<'a>(table: &'a Table, access: &Access) -> Candidates<'a> {
    match access {
        Access::PkSeek { column, keys } | Access::IndexSeek { column, keys } => match &keys[..] {
            // One index entry is already ascending and duplicate-free.
            [key] => match table.index_probe(column, key) {
                Probe::Rows(ids) => Candidates::Index(ids),
                Probe::All => Candidates::All(table.rows()),
            },
            keys => {
                let mut rows = Vec::new();
                for v in keys {
                    match table.index_probe(column, v) {
                        Probe::Rows(ids) => rows.extend_from_slice(ids),
                        Probe::All => return Candidates::All(table.rows()),
                    }
                }
                rows.sort_unstable();
                rows.dedup();
                Candidates::Rows(rows)
            }
        },
        Access::IndexRangeSeek { column, lo, hi } => match table.range_lookup(column, *lo, *hi) {
            Some(rows) => Candidates::Rows(rows),
            None => Candidates::All(table.rows()),
        },
        Access::FullScan => Candidates::All(table.rows()),
    }
}

/// Leaf scan operator: yields candidate row ids, counting them.
struct ScanOp<'a> {
    ids: Candidates<'a>,
    pos: usize,
    count: u64,
}

impl<'a> ScanOp<'a> {
    fn new(ids: Candidates<'a>) -> Self {
        ScanOp {
            ids,
            pos: 0,
            count: 0,
        }
    }

    /// Restarts the scan over `ids`, keeping the count.
    fn rewind(&mut self, ids: Candidates<'a>) {
        self.ids = ids;
        self.pos = 0;
    }

    fn next(&mut self) -> Option<usize> {
        if self.pos == self.ids.len() {
            return None;
        }
        let r = self.ids.get(self.pos);
        self.pos += 1;
        self.count += 1;
        Some(r)
    }
}

/// `outer.col = inner.col` probed through the inner hash index, resolved
/// once per query.
struct JoinProbe<'a> {
    /// The outer column (`None`: the outer table lacks it).
    outer: Option<&'a ColumnData>,
    /// The inner index (`None`: the inner table has none on the column).
    index: Option<&'a HashMap<IndexKey, Vec<u32>>>,
    inner_rows: usize,
}

impl<'a> JoinProbe<'a> {
    /// Inner candidates for one outer row. A value the index cannot hold
    /// (NULL, a float), or a missing index, falls back to a full pass.
    fn inner(&self, outer_row: usize) -> Candidates<'a> {
        let key = self
            .outer
            .and_then(|c| IndexKey::of_cell(&c.cell(outer_row)));
        match (self.index, key) {
            (Some(index), Some(key)) => {
                Candidates::Index(index.get(&key).map_or(&[][..], Vec::as_slice))
            }
            _ => Candidates::All(self.inner_rows),
        }
    }
}

/// The enumeration half of the pipeline: a single scan or a two-way
/// nested-loop join. Emits row-id tuples.
enum BaseOp<'a> {
    Single(ScanOp<'a>),
    Join {
        outer: ScanOp<'a>,
        /// The inner scan: re-pointed at the probed index entry, or
        /// rewound over its fixed candidates, for each outer row.
        inner: ScanOp<'a>,
        probe: Option<JoinProbe<'a>>,
        cur_outer: usize,
    },
}

impl BaseOp<'_> {
    fn next(&mut self) -> Option<RowIds> {
        match self {
            BaseOp::Single(s) => s.next().map(|r| [r, 0]),
            BaseOp::Join {
                outer,
                inner,
                probe,
                cur_outer,
            } => loop {
                if let Some(rr) = inner.next() {
                    return Some([*cur_outer, rr]);
                }
                let lr = outer.next()?;
                *cur_outer = lr;
                match probe {
                    Some(p) => inner.rewind(p.inner(lr)),
                    None => inner.pos = 0,
                }
            },
        }
    }
}

/// Residual-predicate filter over row-id tuples.
struct FilterOp<'a, 'b> {
    input: BaseOp<'a>,
    filter: Option<&'b Pred<Scalar<'a>>>,
    consumed: u64,
    produced: u64,
}

impl FilterOp<'_, '_> {
    fn next(&mut self) -> Result<Option<RowIds>, ExecError> {
        loop {
            let Some(ids) = self.input.next() else {
                return Ok(None);
            };
            self.consumed += 1;
            let keep = match self.filter {
                Some(p) => p.eval(&|s| s.eval(&ids))? == Some(true),
                None => true,
            };
            if keep {
                self.produced += 1;
                return Ok(Some(ids));
            }
        }
    }
}

/// Observed row counts, used to fill in the OpStats tree after the run.
struct Counters {
    outer_scanned: u64,
    inner_scanned: u64,
    /// Tuples entering the filter (candidates, or joined pairs).
    tuples: u64,
    /// Tuples surviving the filter.
    matched: u64,
    pre_distinct: u64,
    pre_limit: u64,
    out: u64,
}

fn access_detail(sp: &ScanPlan) -> String {
    let access = match &sp.access {
        Access::PkSeek { column, keys } => format!("PkSeek({column} ×{})", keys.len()),
        Access::IndexSeek { column, keys } => format!("IndexSeek({column} ×{})", keys.len()),
        Access::IndexRangeSeek { column, lo, hi } => {
            let b = |v: &Option<i64>| v.map_or("∅".to_string(), |v| v.to_string());
            format!("IndexRangeSeek({column} [{}, {}])", b(lo), b(hi))
        }
        Access::FullScan => "FullScan".to_string(),
    };
    format!("{} {access}", sp.table)
}

fn scan_stats(sp: &ScanPlan, scanned: u64) -> OpStats {
    OpStats {
        op: if sp.access.is_seek() {
            "IndexScan"
        } else {
            "SeqScan"
        },
        detail: access_detail(sp),
        rows_scanned: scanned,
        rows_produced: scanned,
        children: Vec::new(),
    }
}

/// Builds the OpStats tree shaped like the plan, filled with the observed
/// counters.
fn op_stats_tree(node: &PlanNode, c: &Counters) -> OpStats {
    let wrap =
        |op: &'static str, detail: String, scanned: u64, produced: u64, input: &PlanNode| OpStats {
            op,
            detail,
            rows_scanned: scanned,
            rows_produced: produced,
            children: vec![op_stats_tree(input, c)],
        };
    match node {
        PlanNode::Limit { input, n } => wrap(
            "Limit",
            n.map_or(String::new(), |n| format!("n={n}")),
            c.pre_limit,
            c.out,
            input,
        ),
        PlanNode::Distinct { input } => wrap(
            "Distinct",
            String::new(),
            c.pre_distinct,
            c.pre_limit,
            input,
        ),
        PlanNode::Project { input, .. } => {
            wrap("Project", String::new(), c.matched, c.pre_distinct, input)
        }
        PlanNode::Aggregate {
            input, group_by, ..
        } => wrap(
            "Aggregate",
            if group_by.is_empty() {
                String::new()
            } else {
                format!("group_by={}", group_by.join(", "))
            },
            c.matched,
            c.pre_distinct,
            input,
        ),
        PlanNode::Sort { input, keys } => wrap(
            "Sort",
            format!("keys={}", keys.join(", ")),
            c.matched,
            c.matched,
            input,
        ),
        PlanNode::Filter { input, predicate } => {
            wrap("Filter", predicate.clone(), c.tuples, c.matched, input)
        }
        PlanNode::NestedLoopJoin {
            outer,
            inner,
            probe,
            ..
        } => {
            let (outer_stats, inner_stats) = match (outer.as_ref(), inner.as_ref()) {
                (PlanNode::Scan(o), PlanNode::Scan(i)) => (
                    scan_stats(o, c.outer_scanned),
                    scan_stats(i, c.inner_scanned),
                ),
                _ => unreachable!("joins join scans"),
            };
            OpStats {
                op: "NestedLoopJoin",
                detail: probe
                    .as_ref()
                    .map_or(String::new(), |(o, i)| format!("probe {o} = {i}")),
                rows_scanned: 0,
                rows_produced: c.tuples,
                children: vec![outer_stats, inner_stats],
            }
        }
        PlanNode::Scan(sp) => scan_stats(sp, c.outer_scanned),
        PlanNode::Values => OpStats {
            op: "Values",
            detail: String::new(),
            rows_scanned: 0,
            rows_produced: 1,
            children: Vec::new(),
        },
    }
}
