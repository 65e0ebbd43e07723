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
//!
//! Planning runs in two steps. *Prepare* does everything a statement's
//! shape (the query with its literal values masked, their kinds kept)
//! decides: it binds the sources, enumerates the candidates with their
//! keys and bounds as literal slots, and renders the plan strings (Filter
//! predicate, sort keys, GROUP BY, projection names) as pieces between
//! slots. *Instantiate* fills in one statement's
//! literals: seek keys, range bounds and the estimates that depend on them,
//! the `TOP`/`LIMIT` cap and the strings, and picks the cheapest candidate
//! again. [`plan_query`] runs both; [`crate::MiniDb`] keeps each prepared
//! shape, so a statement of a known shape is only instantiated.

use crate::eval::literal_value;
use crate::exec::ExecError;
use crate::shape::{Masker, Shape, Template};
use crate::stats::{ColumnStats, TableStats};
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
    /// Row-count estimate of a base table (stats, else its actual size). A
    /// derived table's estimate is its subplan's, known once instantiated.
    rows: f64,
    derived: Option<Prepared>,
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

/// Plans a query against tables + stats: prepares its shape and
/// instantiates it with its literals, keeping nothing. [`crate::MiniDb::plan`]
/// runs the same two steps and keeps the prepared shape for the next
/// statement of that shape. Statements outside the executor's SQL subset
/// fail with the same [`ExecError::Unsupported`] refusals the executor
/// raises, so planning never hides an execution error class.
pub fn plan_query(
    query: &Query,
    tables: &HashMap<String, Table>,
    stats: &HashMap<String, TableStats>,
) -> Result<QueryPlan, ExecError> {
    let shape = Shape::of(query);
    let (prepared, _) = Prepared::new(query, &shape.literals, tables, stats)?;
    Ok(prepared.instantiate(&shape.literals))
}

/// A query plan with its literal values left out: everything the planner
/// decides from a statement's [shape](crate::shape::Shape), for
/// [`Prepared::instantiate`] to complete with one statement's literals.
/// Literals appear as slots, their indices in the statement's literal
/// residue.
#[derive(Debug)]
pub(crate) struct Prepared {
    /// FROM sources, outer first; empty for a constant query.
    sources: Vec<PreparedSource>,
    /// The `outer.col = inner.col` join probe.
    probe: Option<JoinProbe>,
    /// WHERE AND-ed with the JOIN ... ON conditions.
    filter: Option<Template>,
    /// ORDER BY keys with their direction.
    sort_keys: Vec<Template>,
    /// GROUP BY expressions and whether HAVING is present, when grouped.
    grouping: Option<(Vec<Template>, bool)>,
    /// Projection names of an ungrouped or constant query.
    columns: Vec<Template>,
    distinct: bool,
    /// `Some` when TOP/LIMIT is present, holding the slot of its cap when
    /// the cap is a plain (possibly parenthesized) number.
    limit: Option<Option<usize>>,
}

#[derive(Debug)]
struct JoinProbe {
    outer: String,
    inner: String,
    /// Inner rows one probe yields.
    rows_per_outer: f64,
}

#[derive(Debug)]
struct PreparedSource {
    table: String,
    binding: String,
    /// Row estimate of a base table.
    rows: f64,
    derived: Option<Box<Prepared>>,
    /// Seek candidates in enumeration order; the full scan, always a
    /// candidate, comes first.
    seeks: Vec<Seek>,
}

/// A seek candidate whose keys or bounds are literal slots.
#[derive(Debug)]
enum Seek {
    /// Equality / IN probe on a hash index (the primary key's when `pk`).
    Point {
        column: String,
        pk: bool,
        keys: Vec<usize>,
        est_rows: f64,
        est_cost: f64,
    },
    /// One integer key as a degenerate `[v, v]` range of an ordered index.
    PointRange {
        column: String,
        key: usize,
        est_rows: f64,
        est_cost: f64,
    },
    /// Integer bounds of an ordered index, merged across conjuncts in
    /// order; the estimate depends on the bounds.
    Range {
        column: String,
        bounds: Vec<(Bound, usize)>,
        stats: Option<ColumnStats>,
    },
}

/// How one conjunct bounds a range: `>=`, `>`, `<=` or `<` its literal.
#[derive(Debug, Clone, Copy)]
enum Bound {
    AtLeast,
    Above,
    AtMost,
    Below,
}

impl Prepared {
    /// Prepares `query`, whose literal residue is `literals`. The flag is
    /// false when the plan fits this statement only, because a plan string
    /// could not be cut at its literals. An error names only the query's
    /// structure and identifiers, never a literal value, so it is the
    /// error of every statement of the shape.
    pub(crate) fn new(
        query: &Query,
        literals: &[&Literal],
        tables: &HashMap<String, Table>,
        stats: &HashMap<String, TableStats>,
    ) -> Result<(Prepared, bool), ExecError> {
        let mut masker = Masker::new(literals);
        let prepared = prepare(query, tables, stats, &mut masker)?;
        Ok((prepared, masker.reusable))
    }

    /// The plan of the statement whose literal residue is `literals`: seek
    /// keys, range bounds and their re-costing, the row cap and the plan
    /// strings are filled in; the cheapest candidate wins again.
    pub(crate) fn instantiate(&self, literals: &[&Literal]) -> QueryPlan {
        let fill = |ts: &[Template]| ts.iter().map(|t| t.fill(literals)).collect();
        if self.sources.is_empty() {
            return QueryPlan {
                root: PlanNode::Project {
                    input: Box::new(PlanNode::Values),
                    columns: fill(&self.columns),
                },
                est_rows: 1.0,
                est_cost: 0.0,
            };
        }
        let mut scans = self.sources.iter().map(|s| s.instantiate(literals));
        let outer = scans.next().expect("a source");
        let (base, mut est_rows, mut est_cost) = match scans.next() {
            None => {
                let (r, c) = (outer.est_rows, outer.est_cost);
                (PlanNode::Scan(outer), r, c)
            }
            Some(inner) => {
                // Nested-loop join: outer drives; inner is probed through an
                // equi-join hash index when one exists, else re-enumerated
                // per outer row via its own best access path.
                let (inner_rows_per_outer, inner_cost_per_outer) = match &self.probe {
                    Some(p) => (p.rows_per_outer, COST_PROBE + p.rows_per_outer * COST_ROW),
                    None => (inner.est_rows, inner.est_cost),
                };
                let est_rows = outer.est_rows * inner_rows_per_outer;
                let est_cost = outer.est_cost + outer.est_rows * inner_cost_per_outer;
                (
                    PlanNode::NestedLoopJoin {
                        outer: Box::new(PlanNode::Scan(outer)),
                        inner: Box::new(PlanNode::Scan(inner)),
                        probe: self
                            .probe
                            .as_ref()
                            .map(|p| (p.outer.clone(), p.inner.clone())),
                        est_rows,
                        est_cost,
                    },
                    est_rows,
                    est_cost,
                )
            }
        };

        // Residual filter.
        let mut node = base;
        if let Some(p) = &self.filter {
            node = PlanNode::Filter {
                input: Box::new(node),
                predicate: p.fill(literals),
            };
            est_cost += est_rows * COST_ROW;
        }

        // Sort of matched source rows.
        if !self.sort_keys.is_empty() {
            node = PlanNode::Sort {
                input: Box::new(node),
                keys: fill(&self.sort_keys),
            };
        }

        // Aggregate or scalar projection.
        match &self.grouping {
            Some((group_by, having)) => {
                node = PlanNode::Aggregate {
                    input: Box::new(node),
                    group_by: fill(group_by),
                    having: *having,
                };
                if !group_by.is_empty() {
                    // Groups can't outnumber inputs; no better estimate
                    // without multi-column distinct stats.
                    est_rows = est_rows.max(1.0);
                } else {
                    est_rows = 1.0;
                }
            }
            None => {
                node = PlanNode::Project {
                    input: Box::new(node),
                    columns: fill(&self.columns),
                };
            }
        }

        if self.distinct {
            node = PlanNode::Distinct {
                input: Box::new(node),
            };
        }

        if let Some(slot) = self.limit {
            let n = slot.and_then(|s| match literals[s] {
                Literal::Number(n) => n.parse().ok(),
                _ => None,
            });
            if let Some(n) = n {
                est_rows = est_rows.min(n as f64);
            }
            node = PlanNode::Limit {
                input: Box::new(node),
                n,
            };
        }

        QueryPlan {
            root: node,
            est_rows,
            est_cost,
        }
    }
}

impl PreparedSource {
    /// The scan with every candidate costed and the cheapest chosen
    /// (deterministically: ties go to the lower rank).
    fn instantiate(&self, literals: &[&Literal]) -> ScanPlan {
        let derived = self
            .derived
            .as_ref()
            .map(|d| Box::new(d.instantiate(literals)));
        let rows = derived.as_ref().map_or(self.rows, |d| d.est_rows);
        let mut candidates = Vec::with_capacity(1 + self.seeks.len());
        candidates.push(AccessChoice {
            access: Access::FullScan,
            est_rows: rows,
            est_cost: rows * COST_ROW,
        });
        candidates.extend(self.seeks.iter().map(|s| s.instantiate(rows, literals)));
        candidates.sort_by(|a, b| {
            a.est_cost
                .total_cmp(&b.est_cost)
                .then(a.access.rank().cmp(&b.access.rank()))
        });
        // The plan keeps the losers in a buffer of their own size: none
        // for the common lone full scan.
        let alternatives = candidates.split_off(1);
        let chosen = candidates.pop().expect("the full scan is a candidate");
        ScanPlan {
            table: self.table.clone(),
            binding: self.binding.clone(),
            access: chosen.access,
            est_rows: chosen.est_rows,
            est_cost: chosen.est_cost,
            alternatives,
            derived,
        }
    }
}

/// The integer a decimal literal holds (its kind guarantees one).
fn int_value(lit: &Literal) -> i64 {
    match lit {
        Literal::Number(n) => n.parse().ok(),
        _ => None,
    }
    .expect("a range bound's kind is a decimal integer")
}

impl Seek {
    /// This candidate for one statement over a source of `rows` rows.
    fn instantiate(&self, rows: f64, literals: &[&Literal]) -> AccessChoice {
        match self {
            Seek::Point {
                column,
                pk,
                keys,
                est_rows,
                est_cost,
            } => {
                let column = column.clone();
                let keys = keys.iter().map(|&k| literal_value(literals[k])).collect();
                AccessChoice {
                    access: if *pk {
                        Access::PkSeek { column, keys }
                    } else {
                        Access::IndexSeek { column, keys }
                    },
                    est_rows: *est_rows,
                    est_cost: *est_cost,
                }
            }
            Seek::PointRange {
                column,
                key,
                est_rows,
                est_cost,
            } => {
                let Value::Int(v) = literal_value(literals[*key]) else {
                    unreachable!("a point range's kind is an integer")
                };
                AccessChoice {
                    access: Access::IndexRangeSeek {
                        column: column.clone(),
                        lo: Some(v),
                        hi: Some(v),
                    },
                    est_rows: *est_rows,
                    est_cost: *est_cost,
                }
            }
            Seek::Range {
                column,
                bounds,
                stats,
            } => {
                let (mut lo, mut hi) = (None, None);
                for &(bound, slot) in bounds {
                    let v = int_value(literals[slot]);
                    let raise = |old: Option<i64>, v: i64| Some(old.map_or(v, |o| o.max(v)));
                    let lower = |old: Option<i64>, v: i64| Some(old.map_or(v, |o| o.min(v)));
                    match bound {
                        Bound::AtLeast => lo = raise(lo, v),
                        Bound::Above => lo = raise(lo, v.saturating_add(1)),
                        Bound::AtMost => hi = lower(hi, v),
                        Bound::Below => hi = lower(hi, v.saturating_sub(1)),
                    }
                }
                let sel = stats.as_ref().map_or(1.0, |c| c.range_selectivity(lo, hi));
                let est_rows = rows * sel;
                AccessChoice {
                    access: Access::IndexRangeSeek {
                        column: column.clone(),
                        lo,
                        hi,
                    },
                    est_rows,
                    est_cost: COST_RANGE_DESCENT + est_rows * COST_ROW,
                }
            }
        }
    }
}

fn prepare(
    query: &Query,
    tables: &HashMap<String, Table>,
    stats: &HashMap<String, TableStats>,
    masker: &mut Masker<'_>,
) -> Result<Prepared, ExecError> {
    if !query.is_simple() {
        return Err(ExecError::Unsupported("set operations".into()));
    }
    let body = &query.body;

    // Bind the FROM clause (preparing derived subqueries recursively).
    let mut sources: Vec<PlanSource<'_>> = Vec::new();
    let mut join_on: Vec<&Expr> = Vec::new();
    let mut derived_count = 0usize;
    for t in &body.from {
        bind_plan_source(
            t,
            tables,
            stats,
            masker,
            &mut derived_count,
            &mut sources,
            &mut join_on,
        )?;
    }

    // Constant-only query.
    if sources.is_empty() {
        return Ok(Prepared {
            sources: Vec::new(),
            probe: None,
            filter: None,
            sort_keys: Vec::new(),
            grouping: None,
            columns: projection_names(&body.projection, masker),
            distinct: false,
            limit: None,
        });
    }
    if sources.len() > 2 {
        return Err(ExecError::Unsupported(">2-way joins".into()));
    }

    // Combined predicate: WHERE plus JOIN ... ON, exactly as executed.
    let parts: Vec<&Expr> = body.selection.iter().chain(join_on).collect();
    let conjuncts: Vec<&Expr> = parts.iter().flat_map(|p| p.conjuncts()).collect();

    // Access-path candidates per source.
    let seeks: Vec<Vec<Seek>> = (0..sources.len())
        .map(|si| {
            let mut out = Vec::new();
            if let Some(table) = sources[si].table {
                point_seeks(&conjuncts, &sources, si, table, masker, &mut out);
                range_seeks(&conjuncts, &sources, si, table, masker, &mut out);
            }
            out
        })
        .collect();
    let probe = find_equi_probe(&conjuncts, &sources).map(|(outer, inner)| {
        let rows_per_outer = sources[1]
            .stats
            .and_then(|st| st.column(&inner))
            .map_or(1.0, |c| c.rows_per_key(sources[1].rows as usize));
        JoinProbe {
            outer,
            inner,
            rows_per_outer,
        }
    });

    let filter = (!parts.is_empty()).then(|| {
        masker.template(&parts, |parts| {
            let mut parts = parts.iter().map(|&p| p.clone());
            let first = parts.next().expect("a predicate");
            parts.fold(first, Expr::and).to_string()
        })
    });
    let sort_keys = query
        .order_by
        .iter()
        .map(|o| {
            let dir = if o.asc.unwrap_or(true) { "ASC" } else { "DESC" };
            masker.template(&[&o.expr], |e| format!("{} {dir}", e[0]))
        })
        .collect();
    let grouped = !body.group_by.is_empty()
        || body.having.is_some()
        || crate::aggregate::projection_has_aggregate(&body.projection);
    let (grouping, columns) = if grouped {
        let group_by = body
            .group_by
            .iter()
            .map(|g| masker.template(&[g], |e| e[0].to_string()))
            .collect();
        (Some((group_by, body.having.is_some())), Vec::new())
    } else {
        (None, projection_names(&body.projection, masker))
    };
    let limit = body
        .top
        .as_ref()
        .or(query.limit.as_ref())
        .map(|e| limit_slot(e, masker));

    Ok(Prepared {
        sources: sources
            .into_iter()
            .zip(seeks)
            .map(|(s, seeks)| PreparedSource {
                table: s.table_name,
                binding: s.binding,
                rows: s.rows,
                derived: s.derived.map(Box::new),
                seeks,
            })
            .collect(),
        probe,
        filter,
        sort_keys,
        grouping,
        columns,
        distinct: body.distinct,
        limit,
    })
}

/// Projection names (alias, else the printed expression) — the names
/// `ExecResult.columns` will carry, wildcards shown as-is.
fn projection_names(projection: &[SelectItem], masker: &mut Masker<'_>) -> Vec<Template> {
    projection
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => Template::fixed("*".to_string()),
            SelectItem::QualifiedWildcard(q) => Template::fixed(format!("{q}.*")),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => Template::fixed(a.value.clone()),
                None => masker.template(&[expr], |e| e[0].to_string()),
            },
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

/// The slot of the number [`limit_literal`] reads.
fn limit_slot(e: &Expr, masker: &Masker<'_>) -> Option<usize> {
    match e {
        Expr::Literal(lit @ Literal::Number(_)) => Some(masker.slot(lit)),
        Expr::Nested(inner) => limit_slot(inner, masker),
        _ => None,
    }
}

fn bind_plan_source<'a>(
    t: &'a TableRef,
    tables: &'a HashMap<String, Table>,
    stats: &'a HashMap<String, TableStats>,
    masker: &mut Masker<'_>,
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
            bind_plan_source(left, tables, stats, masker, derived_count, sources, join_on)?;
            bind_plan_source(
                right,
                tables,
                stats,
                masker,
                derived_count,
                sources,
                join_on,
            )?;
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
            let sub = prepare(subquery, tables, stats, masker)?;
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
                rows: 0.0,
                derived: Some(sub),
            });
            Ok(())
        }
    }
}

/// Equality / IN candidates over hash indexes (and degenerate point ranges
/// over ordered indexes).
fn point_seeks(
    conjuncts: &[&Expr],
    sources: &[PlanSource<'_>],
    si: usize,
    table: &Table,
    masker: &Masker<'_>,
    out: &mut Vec<Seek>,
) {
    let source = &sources[si];
    let rows = source.rows;
    for conj in conjuncts {
        let (name, keys): (_, Vec<&Literal>) = match conj {
            Expr::Binary {
                left,
                op: BinaryOp::Eq,
                right,
            } => match (left.as_ref(), right.as_ref()) {
                (Expr::Column(c), Expr::Literal(l)) | (Expr::Literal(l), Expr::Column(c)) => {
                    (c, vec![l])
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
                            Expr::Literal(l) => Some(l),
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
            let est_rows = keys.len() as f64 * rows_per_key;
            out.push(Seek::Point {
                column: col.clone(),
                pk: table.primary_key.as_deref() == Some(col.as_str()),
                keys: keys.iter().map(|l| masker.slot(l)).collect(),
                est_rows,
                est_cost: keys.len() as f64 * COST_PROBE + est_rows * COST_ROW,
            });
        }
        // A single integer key can also ride the ordered index as a
        // degenerate [v, v] range — this is what rescues point queries on
        // range-indexed-only columns (e.g. htmid) from full scans.
        if let [key] = keys[..] {
            if table.range_indexes.contains_key(&col) && matches!(literal_value(key), Value::Int(_))
            {
                out.push(Seek::PointRange {
                    column: col,
                    key: masker.slot(key),
                    est_rows: rows_per_key,
                    est_cost: COST_RANGE_DESCENT + rows_per_key * COST_ROW,
                });
            }
        }
    }
}

/// Range candidates: integer bounds merged across conjuncts, one candidate
/// per bounded range-indexed column, in order of first bound.
fn range_seeks(
    conjuncts: &[&Expr],
    sources: &[PlanSource<'_>],
    si: usize,
    table: &Table,
    masker: &Masker<'_>,
    out: &mut Vec<Seek>,
) {
    let source = &sources[si];
    fn int_lit(e: &Expr) -> Option<&Literal> {
        match e {
            Expr::Literal(lit @ Literal::Number(n)) if n.parse::<i64>().is_ok() => Some(lit),
            Expr::Nested(inner) => int_lit(inner),
            _ => None,
        }
    }
    let resolve = |name: &ObjectName| -> Option<String> {
        let col = name.last().normalized();
        let qualifier = name.qualifier().last().map(|q| q.normalized());
        (resolves_to(sources, si, qualifier.as_deref(), &col)
            && table.range_indexes.contains_key(&col))
        .then_some(col)
    };
    let mut ranges: Vec<(String, Vec<(Bound, usize)>)> = Vec::new();
    let mut bound = |col: String, b: Bound, lit: &Literal| {
        let slot = masker.slot(lit);
        match ranges.iter_mut().find(|(c, _)| *c == col) {
            Some((_, bounds)) => bounds.push((b, slot)),
            None => ranges.push((col, vec![(b, slot)])),
        }
    };
    for conj in conjuncts {
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
                    BinaryOp::GtEq => bound(col, Bound::AtLeast, v),
                    BinaryOp::Gt => bound(col, Bound::Above, v),
                    BinaryOp::LtEq => bound(col, Bound::AtMost, v),
                    BinaryOp::Lt => bound(col, Bound::Below, v),
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
                bound(col.clone(), Bound::AtLeast, lo);
                bound(col, Bound::AtMost, hi);
            }
            _ => {}
        }
    }
    for (col, bounds) in ranges {
        out.push(Seek::Range {
            stats: source.stats.and_then(|s| s.column(&col)).cloned(),
            column: col,
            bounds,
        });
    }
}

/// Finds an `outer.col = inner.col` equi-join conjunct where the inner
/// side's column is hash-indexed; returns (outer column, inner column).
fn find_equi_probe(conjuncts: &[&Expr], sources: &[PlanSource<'_>]) -> Option<(String, String)> {
    if sources.len() != 2 {
        return None;
    }
    let inner_table = sources[1].table?;
    for conj in conjuncts {
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
