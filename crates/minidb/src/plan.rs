//! The cost-based planner.
//!
//! [`plan_query`] turns a parsed query plus [ANALYZE-style stats](crate::stats)
//! into an explicit operator tree that the Volcano executor
//! ([`crate::ops`]) pulls rows through. Access-path choice is where the cost
//! model earns its keep: for every base-table source the planner enumerates
//! the applicable candidates —
//!
//! * **PkSeek** — equality / `IN` probe on the declared primary key,
//! * **IndexSeek** — equality / `IN` probe on any hash-indexed column,
//! * **IndexRangeSeek** — bounds on an ordered (range) index, including
//!   point equality as a degenerate `[v, v]` range,
//! * **FullScan** — always applicable,
//!
//! costs each one deterministically from the table's row count, per-column
//! distinct counts and min/max range, and keeps the cheapest (ties broken by
//! the order above). The losing candidates stay on the plan as
//! `alternatives`, so `explain()` output — and the conformance oracle's
//! plan assertions — can distinguish "the planner chose a full scan" from
//! "no index was available".
//!
//! Plans are purely descriptive: planning never executes a subquery and
//! never touches row data, so `explain()` is cheap at any table size.

use crate::exec::ExecError;
use crate::stats::TableStats;
use crate::table::Table;
use crate::value::Value;
use sqlog_obs::Json;
use sqlog_sql::ast::*;
use std::collections::HashMap;

/// Cost of one hash-index probe. Cheaper than examining a single row so a
/// selective seek beats a full scan even on tiny tables.
const COST_PROBE: f64 = 0.5;
/// Cost of positioning a range scan (B-tree descent).
const COST_RANGE_DESCENT: f64 = 8.0;
/// Cost of examining one candidate row.
const COST_ROW: f64 = 1.0;

/// Access-path choice for one base-table scan.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Equality / IN probe on the primary key.
    PkSeek {
        /// Probed column.
        column: String,
        /// Probe keys (IN lists carry several).
        keys: Vec<Value>,
    },
    /// Equality / IN probe on a hash-indexed column.
    IndexSeek {
        /// Probed column.
        column: String,
        /// Probe keys.
        keys: Vec<Value>,
    },
    /// Bounded scan of an ordered index.
    IndexRangeSeek {
        /// Scanned column.
        column: String,
        /// Inclusive lower bound.
        lo: Option<i64>,
        /// Inclusive upper bound.
        hi: Option<i64>,
    },
    /// Examine every row.
    FullScan,
}

impl Access {
    /// Stable name of the access-path variant.
    pub fn variant(&self) -> &'static str {
        match self {
            Access::PkSeek { .. } => "PkSeek",
            Access::IndexSeek { .. } => "IndexSeek",
            Access::IndexRangeSeek { .. } => "IndexRangeSeek",
            Access::FullScan => "FullScan",
        }
    }

    /// True for any index-backed path.
    pub fn is_seek(&self) -> bool {
        !matches!(self, Access::FullScan)
    }

    /// The probed/scanned column, if any.
    pub fn column(&self) -> Option<&str> {
        match self {
            Access::PkSeek { column, .. }
            | Access::IndexSeek { column, .. }
            | Access::IndexRangeSeek { column, .. } => Some(column),
            Access::FullScan => None,
        }
    }

    /// Tie-break rank: lower is preferred at equal cost.
    fn rank(&self) -> u8 {
        match self {
            Access::PkSeek { .. } => 0,
            Access::IndexSeek { .. } => 1,
            Access::IndexRangeSeek { .. } => 2,
            Access::FullScan => 3,
        }
    }
}

/// A considered access path: the chosen one plus the rejected alternatives.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessChoice {
    /// The access path.
    pub access: Access,
    /// Estimated rows the path enumerates.
    pub est_rows: f64,
    /// Estimated cost (probe + row units).
    pub est_cost: f64,
}

/// One base-table (or derived-table) scan.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// Scanned table name (derived tables use their binding).
    pub table: String,
    /// FROM-clause binding (alias or table name).
    pub binding: String,
    /// Chosen access path.
    pub access: Access,
    /// Estimated rows enumerated.
    pub est_rows: f64,
    /// Estimated cost.
    pub est_cost: f64,
    /// Rejected candidates, cheapest first.
    pub alternatives: Vec<AccessChoice>,
    /// Plan of the subquery when this scans a derived table.
    pub derived: Option<Box<QueryPlan>>,
}

/// A node of the plan tree. The shape mirrors execution order exactly:
/// `Limit(Distinct(Project|Aggregate(Sort(Filter(Scan|Join)))))`.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Base or derived table scan.
    Scan(ScanPlan),
    /// Two-way nested-loop inner join; the inner side re-scans (or is
    /// probed through an equi-join hash index) per outer row.
    NestedLoopJoin {
        /// Outer (driving) scan.
        outer: Box<PlanNode>,
        /// Inner scan.
        inner: Box<PlanNode>,
        /// `outer.col = inner.col` probe through the inner hash index.
        probe: Option<(String, String)>,
        /// Estimated joined rows.
        est_rows: f64,
        /// Estimated cost.
        est_cost: f64,
    },
    /// Residual-predicate filter.
    Filter {
        /// Input node.
        input: Box<PlanNode>,
        /// Rendered predicate (explain only).
        predicate: String,
    },
    /// Sort of matched source rows (pre-projection, as SQL requires for
    /// sorting on non-projected columns).
    Sort {
        /// Input node.
        input: Box<PlanNode>,
        /// Rendered sort keys with direction.
        keys: Vec<String>,
    },
    /// Grouped / aggregate evaluation (includes HAVING, the group-level
    /// ORDER BY, and the aggregate projection).
    Aggregate {
        /// Input node.
        input: Box<PlanNode>,
        /// Rendered GROUP BY expressions.
        group_by: Vec<String>,
        /// HAVING present?
        having: bool,
    },
    /// Scalar projection.
    Project {
        /// Input node.
        input: Box<PlanNode>,
        /// Rendered output columns.
        columns: Vec<String>,
    },
    /// `DISTINCT` duplicate elimination.
    Distinct {
        /// Input node.
        input: Box<PlanNode>,
    },
    /// `TOP` / `LIMIT`.
    Limit {
        /// Input node.
        input: Box<PlanNode>,
        /// Row cap, when it is a plain literal.
        n: Option<usize>,
    },
    /// Constant query without FROM (`SELECT 1`).
    Values,
}

impl PlanNode {
    /// Stable operator name.
    pub fn name(&self) -> &'static str {
        match self {
            PlanNode::Scan(s) => {
                if s.access.is_seek() {
                    "IndexScan"
                } else {
                    "SeqScan"
                }
            }
            PlanNode::NestedLoopJoin { .. } => "NestedLoopJoin",
            PlanNode::Filter { .. } => "Filter",
            PlanNode::Sort { .. } => "Sort",
            PlanNode::Aggregate { .. } => "Aggregate",
            PlanNode::Project { .. } => "Project",
            PlanNode::Distinct { .. } => "Distinct",
            PlanNode::Limit { .. } => "Limit",
            PlanNode::Values => "Values",
        }
    }

    /// Input node, if any.
    pub fn input(&self) -> Option<&PlanNode> {
        match self {
            PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Aggregate { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Limit { input, .. } => Some(input),
            _ => None,
        }
    }
}

/// A complete plan.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Root node.
    pub root: PlanNode,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Estimated total cost (access paths dominate).
    pub est_cost: f64,
}

impl QueryPlan {
    /// The scan at the bottom of the tree (the outer scan for joins):
    /// the access path the oracle's plan assertions inspect.
    pub fn primary_scan(&self) -> Option<&ScanPlan> {
        fn descend(node: &PlanNode) -> Option<&ScanPlan> {
            match node {
                PlanNode::Scan(s) => Some(s),
                PlanNode::NestedLoopJoin { outer, .. } => descend(outer),
                other => other.input().and_then(descend),
            }
        }
        descend(&self.root)
    }

    /// Every scan in the tree, outer-before-inner, derived subplans
    /// included.
    pub fn scans(&self) -> Vec<&ScanPlan> {
        fn descend<'a>(node: &'a PlanNode, out: &mut Vec<&'a ScanPlan>) {
            match node {
                PlanNode::Scan(s) => {
                    out.push(s);
                    if let Some(d) = &s.derived {
                        descend(&d.root, out);
                    }
                }
                PlanNode::NestedLoopJoin { outer, inner, .. } => {
                    descend(outer, out);
                    descend(inner, out);
                }
                other => {
                    if let Some(input) = other.input() {
                        descend(input, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        descend(&self.root, &mut out);
        out
    }

    /// True when any scan in the tree had an applicable seek candidate
    /// (chosen or rejected) — i.e. an index was *available*.
    pub fn seek_was_available(&self) -> bool {
        self.scans()
            .iter()
            .any(|s| s.access.is_seek() || s.alternatives.iter().any(|a| a.access.is_seek()))
    }

    /// Serializes the plan as a stable JSON tree (see DESIGN.md for the
    /// schema). Costs are rounded to 3 decimals so snapshots stay tidy.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("est_rows", round_json(self.est_rows)),
            ("est_cost", round_json(self.est_cost)),
            ("root", node_json(&self.root)),
        ])
    }
}

fn round_json(x: f64) -> Json {
    let r = (x * 1_000.0).round() / 1_000.0;
    if r >= 0.0 && r.fract() == 0.0 && r <= u64::MAX as f64 {
        Json::U64(r as u64)
    } else {
        Json::F64(r)
    }
}

/// Key list for explain: full when short, truncated with a count when long
/// (DW rewrites can carry hundreds of IN constants).
fn keys_json(keys: &[Value]) -> Json {
    const SHOWN: usize = 8;
    let mut arr: Vec<Json> = keys
        .iter()
        .take(SHOWN)
        .map(|v| Json::Str(v.to_string()))
        .collect();
    if keys.len() > SHOWN {
        arr.push(Json::Str(format!("…+{}", keys.len() - SHOWN)));
    }
    Json::Arr(arr)
}

fn access_json(access: &Access) -> Json {
    let mut pairs = vec![("path", Json::Str(access.variant().to_string()))];
    match access {
        Access::PkSeek { column, keys } | Access::IndexSeek { column, keys } => {
            pairs.push(("column", Json::Str(column.clone())));
            pairs.push(("keys", keys_json(keys)));
        }
        Access::IndexRangeSeek { column, lo, hi } => {
            pairs.push(("column", Json::Str(column.clone())));
            pairs.push(("lo", lo.map_or(Json::Null, json_i64)));
            pairs.push(("hi", hi.map_or(Json::Null, json_i64)));
        }
        Access::FullScan => {}
    }
    Json::obj(pairs)
}

fn node_json(node: &PlanNode) -> Json {
    let mut pairs = vec![("op", Json::Str(node.name().to_string()))];
    match node {
        PlanNode::Scan(s) => {
            pairs.push(("table", Json::Str(s.table.clone())));
            if s.binding != s.table {
                pairs.push(("binding", Json::Str(s.binding.clone())));
            }
            pairs.push(("access", access_json(&s.access)));
            pairs.push(("est_rows", round_json(s.est_rows)));
            pairs.push(("est_cost", round_json(s.est_cost)));
            if !s.alternatives.is_empty() {
                pairs.push((
                    "alternatives",
                    Json::Arr(
                        s.alternatives
                            .iter()
                            .map(|a| {
                                Json::obj(vec![
                                    ("access", access_json(&a.access)),
                                    ("est_cost", round_json(a.est_cost)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            if let Some(d) = &s.derived {
                pairs.push(("subplan", d.to_json()));
            }
        }
        PlanNode::NestedLoopJoin {
            outer,
            inner,
            probe,
            est_rows,
            est_cost,
        } => {
            if let Some((o, i)) = probe {
                pairs.push((
                    "probe",
                    Json::obj(vec![
                        ("outer", Json::Str(o.clone())),
                        ("inner", Json::Str(i.clone())),
                    ]),
                ));
            }
            pairs.push(("est_rows", round_json(*est_rows)));
            pairs.push(("est_cost", round_json(*est_cost)));
            pairs.push(("outer", node_json(outer)));
            pairs.push(("inner", node_json(inner)));
        }
        PlanNode::Filter { input, predicate } => {
            pairs.push(("predicate", Json::Str(predicate.clone())));
            pairs.push(("input", node_json(input)));
        }
        PlanNode::Sort { input, keys } => {
            pairs.push((
                "keys",
                Json::Arr(keys.iter().map(|k| Json::Str(k.clone())).collect()),
            ));
            pairs.push(("input", node_json(input)));
        }
        PlanNode::Aggregate {
            input,
            group_by,
            having,
        } => {
            pairs.push((
                "group_by",
                Json::Arr(group_by.iter().map(|g| Json::Str(g.clone())).collect()),
            ));
            pairs.push(("having", Json::Bool(*having)));
            pairs.push(("input", node_json(input)));
        }
        PlanNode::Project { input, columns } => {
            pairs.push((
                "columns",
                Json::Arr(columns.iter().map(|c| Json::Str(c.clone())).collect()),
            ));
            pairs.push(("input", node_json(input)));
        }
        PlanNode::Distinct { input } => {
            pairs.push(("input", node_json(input)));
        }
        PlanNode::Limit { input, n } => {
            pairs.push(("n", n.map_or(Json::Null, |n| Json::U64(n as u64))));
            pairs.push(("input", node_json(input)));
        }
        PlanNode::Values => {}
    }
    Json::obj(pairs)
}

/// `i64` into the exact-integer Json model.
fn json_i64(v: i64) -> Json {
    if v >= 0 {
        Json::U64(v as u64)
    } else {
        Json::I64(v)
    }
}

/// One bound FROM source as the planner sees it (no row data touched).
struct PlanSource<'a> {
    binding: String,
    table_name: String,
    /// `None` for derived tables.
    table: Option<&'a Table>,
    stats: Option<&'a TableStats>,
    /// Row-count estimate (stats, actual table size, or subplan estimate).
    rows: f64,
    derived: Option<QueryPlan>,
}

impl PlanSource<'_> {
    /// Does a column qualifier name this source? Mirrors the executor's
    /// resolution: alias or table name, ASCII case-insensitive.
    fn binds(&self, qualifier: &str) -> bool {
        self.binding.eq_ignore_ascii_case(qualifier)
            || self.table_name.eq_ignore_ascii_case(qualifier)
    }
}

/// Does a column reference *safely* resolve to `sources[si]` for access-path
/// purposes? A qualified reference resolves to the first source whose
/// binding or table name matches — as the executor binds it, so a self-join
/// qualified by the table name (`t.id` over `t AS a JOIN t AS b`) seeks
/// only on `a`. An unqualified reference resolves to the first source whose table has the
/// column — and is only usable when every earlier source is a base table
/// known not to carry it (a derived table's columns are unknown at plan
/// time, so the planner stays conservative and refuses the seek).
fn resolves_to(sources: &[PlanSource<'_>], si: usize, qualifier: Option<&str>, col: &str) -> bool {
    if let Some(q) = qualifier {
        return sources.iter().position(|s| s.binds(q)) == Some(si);
    }
    for (i, s) in sources.iter().enumerate() {
        match s.table {
            Some(t) => {
                if t.column(col).is_some() {
                    return i == si;
                }
            }
            None => return false,
        }
    }
    false
}

/// Plans a query against tables + stats. Statements outside the executor's
/// SQL subset fail with the same [`ExecError::Unsupported`] refusals the
/// executor raises, so planning never hides an execution error class.
pub fn plan_query(
    query: &Query,
    tables: &HashMap<String, Table>,
    stats: &HashMap<String, TableStats>,
) -> Result<QueryPlan, ExecError> {
    if !query.is_simple() {
        return Err(ExecError::Unsupported("set operations".into()));
    }
    let body = &query.body;

    // Bind the FROM clause (planning derived subqueries recursively).
    let mut sources: Vec<PlanSource<'_>> = Vec::new();
    let mut join_on: Vec<&Expr> = Vec::new();
    let mut derived_count = 0usize;
    for t in &body.from {
        bind_plan_source(
            t,
            tables,
            stats,
            &mut derived_count,
            &mut sources,
            &mut join_on,
        )?;
    }

    // Constant-only query.
    if sources.is_empty() {
        let columns = projection_names(&body.projection);
        return Ok(QueryPlan {
            root: PlanNode::Project {
                input: Box::new(PlanNode::Values),
                columns,
            },
            est_rows: 1.0,
            est_cost: 0.0,
        });
    }
    if sources.len() > 2 {
        return Err(ExecError::Unsupported(">2-way joins".into()));
    }

    // Combined predicate: WHERE plus JOIN ... ON, exactly as executed.
    let mut predicate = body.selection.clone();
    for on in join_on {
        predicate = Some(match predicate {
            Some(p) => Expr::and(p, on.clone()),
            None => on.clone(),
        });
    }

    // Access selection per source.
    let choices: Vec<(AccessChoice, Vec<AccessChoice>)> = (0..sources.len())
        .map(|si| choose_access(predicate.as_ref(), &sources, si))
        .collect();

    let (base, mut est_rows, mut est_cost) = if sources.len() == 1 {
        let (chosen, alts) = &choices[0];
        let scan = scan_plan(&sources[0], chosen, alts);
        let (r, c) = (scan.est_rows, scan.est_cost);
        (PlanNode::Scan(scan), r, c)
    } else {
        // Nested-loop join: outer drives; inner is probed through an
        // equi-join hash index when one exists, else re-enumerated per
        // outer row via its own best access path.
        let probe = predicate
            .as_ref()
            .and_then(|p| find_equi_probe(p, &sources));
        let (outer_choice, outer_alts) = &choices[0];
        let outer = scan_plan(&sources[0], outer_choice, outer_alts);
        let (inner_choice, inner_alts) = &choices[1];
        let inner = scan_plan(&sources[1], inner_choice, inner_alts);
        let inner_rows_per_outer = match &probe {
            Some((_, icol)) => sources[1]
                .stats
                .and_then(|st| st.column(icol))
                .map_or(1.0, |c| c.rows_per_key(sources[1].rows as usize)),
            None => inner.est_rows,
        };
        let inner_cost_per_outer = match &probe {
            Some(_) => COST_PROBE + inner_rows_per_outer * COST_ROW,
            None => inner.est_cost,
        };
        let est_rows = outer.est_rows * inner_rows_per_outer;
        let est_cost = outer.est_cost + outer.est_rows * inner_cost_per_outer;
        (
            PlanNode::NestedLoopJoin {
                outer: Box::new(PlanNode::Scan(outer)),
                inner: Box::new(PlanNode::Scan(inner)),
                probe,
                est_rows,
                est_cost,
            },
            est_rows,
            est_cost,
        )
    };

    // Residual filter.
    let mut node = base;
    if let Some(p) = &predicate {
        node = PlanNode::Filter {
            input: Box::new(node),
            predicate: p.to_string(),
        };
        est_cost += est_rows * COST_ROW;
    }

    // Sort of matched source rows.
    if !query.order_by.is_empty() {
        let keys = query
            .order_by
            .iter()
            .map(|o| {
                format!(
                    "{} {}",
                    o.expr,
                    if o.asc.unwrap_or(true) { "ASC" } else { "DESC" }
                )
            })
            .collect();
        node = PlanNode::Sort {
            input: Box::new(node),
            keys,
        };
    }

    // Aggregate or scalar projection.
    let grouped = !body.group_by.is_empty()
        || body.having.is_some()
        || crate::aggregate::projection_has_aggregate(&body.projection);
    if grouped {
        node = PlanNode::Aggregate {
            input: Box::new(node),
            group_by: body.group_by.iter().map(|e| e.to_string()).collect(),
            having: body.having.is_some(),
        };
        if !body.group_by.is_empty() {
            // Groups can't outnumber inputs; no better estimate without
            // multi-column distinct stats.
            est_rows = est_rows.max(1.0);
        } else {
            est_rows = 1.0;
        }
    } else {
        node = PlanNode::Project {
            input: Box::new(node),
            columns: projection_names(&body.projection),
        };
    }

    if body.distinct {
        node = PlanNode::Distinct {
            input: Box::new(node),
        };
    }

    if let Some(e) = body.top.as_ref().or(query.limit.as_ref()) {
        let n = limit_literal(e);
        if let Some(n) = n {
            est_rows = est_rows.min(n as f64);
        }
        node = PlanNode::Limit {
            input: Box::new(node),
            n,
        };
    }

    Ok(QueryPlan {
        root: node,
        est_rows,
        est_cost,
    })
}

/// Rendered projection column names (alias, else the printed expression) —
/// the names `ExecResult.columns` will carry, wildcards shown as-is.
fn projection_names(projection: &[SelectItem]) -> Vec<String> {
    projection
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
            SelectItem::Expr { expr, alias } => alias
                .as_ref()
                .map_or_else(|| expr.to_string(), |a| a.value.clone()),
        })
        .collect()
}

/// The literal row cap, when the TOP/LIMIT expression is a plain (possibly
/// parenthesized) number.
pub(crate) fn limit_literal(e: &Expr) -> Option<usize> {
    match e {
        Expr::Literal(Literal::Number(n)) => n.parse().ok(),
        Expr::Nested(inner) => limit_literal(inner),
        _ => None,
    }
}

fn scan_plan(
    source: &PlanSource<'_>,
    chosen: &AccessChoice,
    alternatives: &[AccessChoice],
) -> ScanPlan {
    ScanPlan {
        table: source.table_name.clone(),
        binding: source.binding.clone(),
        access: chosen.access.clone(),
        est_rows: chosen.est_rows,
        est_cost: chosen.est_cost,
        alternatives: alternatives.to_vec(),
        derived: source.derived.clone().map(Box::new),
    }
}

fn bind_plan_source<'a>(
    t: &'a TableRef,
    tables: &'a HashMap<String, Table>,
    stats: &'a HashMap<String, TableStats>,
    derived_count: &mut usize,
    sources: &mut Vec<PlanSource<'a>>,
    join_on: &mut Vec<&'a Expr>,
) -> Result<(), ExecError> {
    match t {
        TableRef::Table { name, alias } => {
            let tname = name.last().normalized();
            let table = tables
                .get(&tname)
                .ok_or_else(|| ExecError::UnknownTable(tname.clone()))?;
            let table_stats = stats.get(&tname);
            sources.push(PlanSource {
                binding: alias
                    .as_ref()
                    .map_or_else(|| tname.clone(), |a| a.normalized()),
                table_name: tname,
                table: Some(table),
                stats: table_stats,
                rows: table_stats.map_or_else(|| table.rows() as f64, |s| s.row_count as f64),
                derived: None,
            });
            Ok(())
        }
        TableRef::Join {
            left,
            right,
            kind: JoinKind::Inner,
            constraint,
        } => {
            bind_plan_source(left, tables, stats, derived_count, sources, join_on)?;
            bind_plan_source(right, tables, stats, derived_count, sources, join_on)?;
            if let Some(on) = constraint {
                join_on.push(on);
            }
            Ok(())
        }
        TableRef::Join { .. } => Err(ExecError::Unsupported("non-inner join".into())),
        TableRef::Function { name, .. } => Err(ExecError::Unsupported(format!(
            "table-valued function {name}"
        ))),
        TableRef::Derived { subquery, alias } => {
            let sub = plan_query(subquery, tables, stats)?;
            // Same fallback name the executor's materializer assigns:
            // "derived<n>" counting derived tables in traversal order.
            let binding = alias
                .as_ref()
                .map_or_else(|| format!("derived{derived_count}"), |a| a.normalized());
            *derived_count += 1;
            sources.push(PlanSource {
                binding: binding.clone(),
                table_name: binding,
                table: None,
                stats: None,
                rows: sub.est_rows,
                derived: Some(sub),
            });
            Ok(())
        }
    }
}

/// Enumerates and costs every applicable access path for one source, and
/// returns the winner plus the (cheapest-first) rejected alternatives.
fn choose_access(
    predicate: Option<&Expr>,
    sources: &[PlanSource<'_>],
    si: usize,
) -> (AccessChoice, Vec<AccessChoice>) {
    let source = &sources[si];
    let rows = source.rows;
    let mut candidates: Vec<AccessChoice> = vec![AccessChoice {
        access: Access::FullScan,
        est_rows: rows,
        est_cost: rows * COST_ROW,
    }];
    if let (Some(table), Some(pred)) = (source.table, predicate) {
        point_candidates(pred, sources, si, table, &mut candidates);
        range_candidates(pred, sources, si, table, &mut candidates);
    }
    // Deterministic winner: cheapest, ties to the lower rank.
    candidates.sort_by(|a, b| {
        a.est_cost
            .total_cmp(&b.est_cost)
            .then(a.access.rank().cmp(&b.access.rank()))
    });
    let chosen = candidates.remove(0);
    (chosen, candidates)
}

/// Equality / IN candidates over hash indexes (and degenerate point ranges
/// over ordered indexes).
fn point_candidates(
    predicate: &Expr,
    sources: &[PlanSource<'_>],
    si: usize,
    table: &Table,
    out: &mut Vec<AccessChoice>,
) {
    let source = &sources[si];
    let rows = source.rows;
    for conj in predicate.conjuncts() {
        let (name, values) = match conj {
            Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(l)) | (Expr::Literal(l), Expr::Column(c)) => {
                    (c, vec![crate::eval::literal_value(l)])
                }
                _ => continue,
            },
            Expr::InList {
                expr,
                list,
                negated: false,
            } => match expr.as_ref() {
                Expr::Column(c) if list.iter().all(|e| matches!(e, Expr::Literal(_))) => (
                    c,
                    list.iter()
                        .filter_map(|e| match e {
                            Expr::Literal(l) => Some(crate::eval::literal_value(l)),
                            _ => None,
                        })
                        .collect(),
                ),
                _ => continue,
            },
            _ => continue,
        };
        let col = name.last().normalized();
        let qualifier = name.qualifier().last().map(|q| q.normalized());
        if !resolves_to(sources, si, qualifier.as_deref(), &col) {
            continue;
        }
        let rows_per_key = source
            .stats
            .and_then(|s| s.column(&col))
            .map_or(1.0, |c| c.rows_per_key(rows as usize));
        if table.indexes.contains_key(&col) {
            let est_rows = values.len() as f64 * rows_per_key;
            let est_cost = values.len() as f64 * COST_PROBE + est_rows * COST_ROW;
            let access = if table.primary_key.as_deref() == Some(col.as_str()) {
                Access::PkSeek {
                    column: col.clone(),
                    keys: values.clone(),
                }
            } else {
                Access::IndexSeek {
                    column: col.clone(),
                    keys: values.clone(),
                }
            };
            out.push(AccessChoice {
                access,
                est_rows,
                est_cost,
            });
        }
        // A single integer key can also ride the ordered index as a
        // degenerate [v, v] range — this is what rescues point queries on
        // range-indexed-only columns (e.g. htmid) from full scans.
        if values.len() == 1 && table.range_indexes.contains_key(&col) {
            if let Value::Int(v) = values[0] {
                let est_rows = rows_per_key;
                out.push(AccessChoice {
                    access: Access::IndexRangeSeek {
                        column: col,
                        lo: Some(v),
                        hi: Some(v),
                    },
                    est_rows,
                    est_cost: COST_RANGE_DESCENT + est_rows * COST_ROW,
                });
            }
        }
    }
}

/// Range candidates: integer bounds merged across conjuncts, one candidate
/// per bounded range-indexed column.
fn range_candidates(
    predicate: &Expr,
    sources: &[PlanSource<'_>],
    si: usize,
    table: &Table,
    out: &mut Vec<AccessChoice>,
) {
    let source = &sources[si];
    fn int_lit(e: &Expr) -> Option<i64> {
        match e {
            Expr::Literal(Literal::Number(n)) => n.parse().ok(),
            Expr::Nested(inner) => int_lit(inner),
            _ => None,
        }
    }
    let mut bounds: HashMap<String, (Option<i64>, Option<i64>)> = HashMap::new();
    let mut order: Vec<String> = Vec::new(); // deterministic candidate order
    let resolve = |name: &ObjectName| -> Option<String> {
        let col = name.last().normalized();
        let qualifier = name.qualifier().last().map(|q| q.normalized());
        (resolves_to(sources, si, qualifier.as_deref(), &col)
            && table.range_indexes.contains_key(&col))
        .then_some(col)
    };
    let mut tighten = |order: &mut Vec<String>, col: String, lo: Option<i64>, hi: Option<i64>| {
        if !bounds.contains_key(&col) {
            order.push(col.clone());
        }
        let e = bounds.entry(col).or_insert((None, None));
        if let Some(lo) = lo {
            e.0 = Some(e.0.map_or(lo, |old: i64| old.max(lo)));
        }
        if let Some(hi) = hi {
            e.1 = Some(e.1.map_or(hi, |old: i64| old.min(hi)));
        }
    };
    for conj in predicate.conjuncts() {
        match conj {
            Expr::Binary { left, op, right } if op.is_comparison() => {
                let (col, v, op) = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column(c), e) => match int_lit(e) {
                        Some(v) => (c, v, *op),
                        None => continue,
                    },
                    (e, Expr::Column(c)) => match int_lit(e) {
                        Some(v) => (
                            c,
                            v,
                            match op {
                                BinaryOp::Lt => BinaryOp::Gt,
                                BinaryOp::LtEq => BinaryOp::GtEq,
                                BinaryOp::Gt => BinaryOp::Lt,
                                BinaryOp::GtEq => BinaryOp::LtEq,
                                other => *other,
                            },
                        ),
                        None => continue,
                    },
                    _ => continue,
                };
                let Some(col) = resolve(col) else { continue };
                match op {
                    BinaryOp::GtEq => tighten(&mut order, col, Some(v), None),
                    BinaryOp::Gt => tighten(&mut order, col, Some(v.saturating_add(1)), None),
                    BinaryOp::LtEq => tighten(&mut order, col, None, Some(v)),
                    BinaryOp::Lt => tighten(&mut order, col, None, Some(v.saturating_sub(1))),
                    _ => {}
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => {
                let Expr::Column(c) = expr.as_ref() else {
                    continue;
                };
                let (Some(lo), Some(hi)) = (int_lit(low), int_lit(high)) else {
                    continue;
                };
                let Some(col) = resolve(c) else { continue };
                tighten(&mut order, col, Some(lo), Some(hi));
            }
            _ => {}
        }
    }
    for col in order {
        let (lo, hi) = bounds[&col];
        let sel = source
            .stats
            .and_then(|s| s.column(&col))
            .map_or(1.0, |c| c.range_selectivity(lo, hi));
        let est_rows = source.rows * sel;
        out.push(AccessChoice {
            access: Access::IndexRangeSeek {
                column: col,
                lo,
                hi,
            },
            est_rows,
            est_cost: COST_RANGE_DESCENT + est_rows * COST_ROW,
        });
    }
}

/// Finds an `outer.col = inner.col` equi-join conjunct where the inner
/// side's column is hash-indexed; returns (outer column, inner column).
fn find_equi_probe(predicate: &Expr, sources: &[PlanSource<'_>]) -> Option<(String, String)> {
    if sources.len() != 2 {
        return None;
    }
    let inner_table = sources[1].table?;
    for conj in predicate.conjuncts() {
        if let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = conj
        {
            if let (Expr::Column(a), Expr::Column(b)) = (left.as_ref(), right.as_ref()) {
                let (ca, cb) = (a.last().normalized(), b.last().normalized());
                let qa = a.qualifier().last().map(|q| q.normalized());
                let qb = b.qualifier().last().map(|q| q.normalized());
                // Each side must bind where the executor binds it: a
                // qualifier names the first source it matches.
                let on = |si: usize, q: &Option<String>, col: &str| {
                    resolves_to(sources, si, q.as_deref(), col)
                };
                if on(0, &qa, &ca) && on(1, &qb, &cb) && inner_table.indexes.contains_key(&cb) {
                    return Some((ca, cb));
                }
                if on(0, &qb, &cb) && on(1, &qa, &ca) && inner_table.indexes.contains_key(&ca) {
                    return Some((cb, ca));
                }
            }
        }
    }
    None
}
