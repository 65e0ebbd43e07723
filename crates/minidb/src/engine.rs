//! The database engine: tables + stats + planner/executor + cost accounting.
//!
//! [`MiniDb`] is the engine's one entry point. It keeps ANALYZE-style
//! statistics for every table it holds (recomputed on `add_table`), plans
//! queries through [`crate::plan`], and executes them with the Volcano
//! pipeline in [`crate::ops`]. [`MiniDb::execute_query_naive`] runs the same
//! query as a plain nested-loop full scan, the reference the planned path is
//! tested against. The simulated cost of [`MiniDb::execute_sql`] is billed
//! from the operator tree — an index seek is charged for the rows it
//! actually touched, not for the table it avoided scanning.
//!
//! Planning is prepare-then-instantiate (see [`crate::plan`]), and `MiniDb`
//! keeps every prepared statement shape, up to a fixed number of them: a
//! statement whose shape (the query with its literal values masked and its
//! identifiers as written) was planned before only has its literals filled
//! in. A shape the planner refuses is kept with its error, which names no
//! literal value, so it is refused again without planning. [`MiniDb::plan`],
//! [`MiniDb::explain`] and [`MiniDb::execute_query_planned`] all plan this
//! way; `add_table` forgets every kept shape, since its plans and refusals
//! read the old tables and stats.

use crate::cost::CostModel;
use crate::exec::{execute_naive, ExecError, ExecResult};
use crate::ops::{execute_plan, PlannedExec};
use crate::plan::{Prepared, QueryPlan};
use crate::shape::Shape;
use crate::stats::{analyze, TableStats};
use crate::table::Table;
use sqlog_obs::Json;
use sqlog_sql::ast::{Query, Statement};
use sqlog_sql::parse_statement;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// The most statement shapes a [`MiniDb`] keeps, prepared or refused.
/// Statements of a shape that arrives once the memo is full are planned in
/// full each time.
const PREPARED_SHAPES_CAP: usize = 4096;

/// An in-memory database with a round-trip cost model.
#[derive(Debug, Default)]
pub struct MiniDb {
    tables: HashMap<String, Table>,
    /// Cached ANALYZE stats, refreshed whenever a table is (re)added.
    stats: HashMap<String, TableStats>,
    /// Prepared plans and refusals by statement shape.
    prepared: PlanMemo,
    /// The cost model used by [`MiniDb::execute_sql`].
    pub cost: CostModel,
}

/// A shape's prepared plan, or the error the planner refused it with.
type Planned = Result<Prepared, ExecError>;

/// Prepared plans, or the planner's refusals, keyed by the full shape
/// encoding, so two shapes never share an entry; and how often planning
/// found its shape there.
#[derive(Debug, Default)]
struct PlanMemo {
    /// Written only by whole-entry inserts, so a thread that panicked
    /// holding the lock left no half-made entry: a poisoned lock is used
    /// as is.
    shapes: RwLock<HashMap<Box<[u8]>, Planned>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// How [`MiniDb`]'s planning used its prepared shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanMemoStats {
    /// Plans whose shape was already prepared or refused.
    pub hits: u64,
    /// Plans that prepared their shape, or tried to.
    pub misses: u64,
    /// Shapes kept prepared.
    pub shapes: usize,
    /// Shapes kept refused.
    pub rejected: usize,
}

impl MiniDb {
    /// An empty database with the default cost model.
    pub fn new() -> Self {
        MiniDb::default()
    }

    /// Adds (or replaces) a table, analyzing it for the planner. Every
    /// prepared or refused shape is forgotten.
    pub fn add_table(&mut self, table: Table) {
        self.stats.insert(table.name.clone(), analyze(&table));
        self.tables.insert(table.name.clone(), table);
        self.prepared = PlanMemo::default();
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// ANALYZE stats for a table.
    pub fn table_stats(&self, name: &str) -> Option<&TableStats> {
        self.stats.get(&name.to_ascii_lowercase())
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Plans a query without executing it: instantiates its prepared
    /// shape, preparing the shape first if it is new. A refused shape
    /// returns its error again.
    pub fn plan(&self, query: &Query) -> Result<QueryPlan, ExecError> {
        let shape = Shape::of(query);
        let memo = &self.prepared;
        let instantiate = |prepared: &Planned| match prepared {
            Ok(prepared) => Ok(prepared.instantiate(&shape.literals)),
            Err(e) => Err(e.clone()),
        };
        {
            let shapes = memo.shapes.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(prepared) = shapes.get(&shape.key[..]) {
                memo.hits.fetch_add(1, Ordering::Relaxed);
                return instantiate(prepared);
            }
        }
        memo.misses.fetch_add(1, Ordering::Relaxed);
        let (prepared, reusable) =
            match Prepared::new(query, &shape.literals, &self.tables, &self.stats) {
                Ok((prepared, reusable)) => (Ok(prepared), reusable),
                Err(e) => (Err(e), true),
            };
        let plan = instantiate(&prepared);
        if reusable {
            let mut shapes = memo.shapes.write().unwrap_or_else(PoisonError::into_inner);
            if shapes.len() < PREPARED_SHAPES_CAP {
                shapes.insert(shape.key.into_boxed_slice(), prepared);
            }
        }
        plan
    }

    /// How planning has used the prepared shapes since the last
    /// `add_table`.
    pub fn plan_memo_stats(&self) -> PlanMemoStats {
        let memo = &self.prepared;
        let shapes = memo.shapes.read().unwrap_or_else(PoisonError::into_inner);
        let rejected = shapes.values().filter(|p| p.is_err()).count();
        PlanMemoStats {
            hits: memo.hits.load(Ordering::Relaxed),
            misses: memo.misses.load(Ordering::Relaxed),
            shapes: shapes.len() - rejected,
            rejected,
        }
    }

    /// The plan of a query as a stable JSON tree (`EXPLAIN`).
    pub fn explain(&self, query: &Query) -> Result<Json, ExecError> {
        self.plan(query).map(|p| p.to_json())
    }

    /// Parses one SELECT and returns its `EXPLAIN` tree.
    pub fn explain_sql(&self, sql: &str) -> Result<Json, ExecError> {
        self.explain(&parse_select(sql)?)
    }

    /// Executes a parsed query through the planner + Volcano executor.
    pub fn execute_query(&self, query: &Query) -> Result<ExecResult, ExecError> {
        self.execute_query_planned(query).map(|p| p.result)
    }

    /// Executes a parsed query, returning the plan and operator counters
    /// alongside the result.
    pub fn execute_query_planned(&self, query: &Query) -> Result<PlannedExec, ExecError> {
        let plan = self.plan(query)?;
        let (result, ops) = execute_plan(query, &plan, &self.tables)?;
        Ok(PlannedExec { result, plan, ops })
    }

    /// Executes a parsed query with the naive reference executor (the
    /// differential-testing baseline: a nested-loop full scan, with no
    /// planner and no index involved).
    pub fn execute_query_naive(&self, query: &Query) -> Result<ExecResult, ExecError> {
        execute_naive(query, &self.tables)
    }

    /// Parses and executes one SQL statement, returning the result and its
    /// simulated cost in milliseconds (billed from the operator tree).
    pub fn execute_sql(&self, sql: &str) -> Result<(ExecResult, f64), ExecError> {
        let (planned, cost) = self.execute_sql_planned(sql)?;
        Ok((planned.result, cost))
    }

    /// Parses and executes one SQL statement, returning the full planned
    /// execution (result + plan + operator counters) and its simulated cost.
    pub fn execute_sql_planned(&self, sql: &str) -> Result<(PlannedExec, f64), ExecError> {
        let planned = self.execute_query_planned(&parse_select(sql)?)?;
        let cost = self.cost.simulated_ms_ops(&planned.result, &planned.ops);
        Ok((planned, cost))
    }
}

fn parse_select(sql: &str) -> Result<Query, ExecError> {
    let stmt =
        parse_statement(sql).map_err(|e| ExecError::Unsupported(format!("parse error: {e}")))?;
    let Statement::Select(q) = stmt else {
        return Err(ExecError::Unsupported("non-SELECT statement".into()));
    };
    Ok(*q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ColumnData;

    fn db() -> MiniDb {
        let mut t = Table::new("t");
        t.add_column("id", ColumnData::Int((0..100).map(Some).collect()));
        t.add_column(
            "v",
            ColumnData::Float((0..100).map(|i| Some(i as f64 / 10.0)).collect()),
        );
        t.build_pk("id");
        let mut db = MiniDb::new();
        db.add_table(t);
        db
    }

    #[test]
    fn execute_sql_returns_cost() {
        let db = db();
        let (result, cost) = db.execute_sql("SELECT v FROM t WHERE id = 7").unwrap();
        assert_eq!(result.rows.len(), 1);
        assert!(cost >= db.cost.per_statement_ms);
    }

    #[test]
    fn non_select_rejected() {
        let db = db();
        assert!(db.execute_sql("DELETE FROM t WHERE id = 1").is_err());
        assert!(db.execute_sql("SELECT FROM t").is_err());
    }

    #[test]
    fn table_accessors() {
        let db = db();
        assert_eq!(db.table_count(), 1);
        assert!(db.table("T").is_some());
        assert!(db.table("nope").is_none());
        let stats = db.table_stats("t").unwrap();
        assert_eq!(stats.row_count, 100);
        assert_eq!(stats.column("id").unwrap().distinct, 100);
    }

    #[test]
    fn explain_shows_a_pk_seek() {
        let db = db();
        let j = db.explain_sql("SELECT v FROM t WHERE id = 7").unwrap();
        let rendered = j.render();
        assert!(rendered.contains("PkSeek"), "explain: {rendered}");
        assert!(rendered.contains("\"alternatives\""), "explain: {rendered}");
    }

    #[test]
    fn planned_execution_reports_operator_counters() {
        let db = db();
        let (planned, _) = db
            .execute_sql_planned("SELECT v FROM t WHERE id = 7")
            .unwrap();
        let scan = planned.ops.find("IndexScan").unwrap();
        assert_eq!(scan.rows_scanned, 1);
        assert_eq!(planned.ops.storage_scanned(), 1);
        // A full scan bills every row.
        let (planned, _) = db
            .execute_sql_planned("SELECT id FROM t WHERE v > 9.0")
            .unwrap();
        assert_eq!(planned.ops.storage_scanned(), 100);
        assert!(planned.ops.find("SeqScan").is_some());
    }

    /// Rows of `sql` on the planned path, checked against the naive
    /// full scan.
    fn rows(db: &MiniDb, sql: &str) -> Vec<Vec<crate::Value>> {
        let q = parse_select(sql).unwrap();
        let planned = db.execute_query_planned(&q).unwrap();
        assert_eq!(planned.result, db.execute_query_naive(&q).unwrap(), "{sql}");
        planned.result.rows
    }

    #[test]
    fn float_keys_equal_to_integers_find_their_rows() {
        use crate::Value::Float;
        let db = db();
        let q = parse_select("SELECT v FROM t WHERE id = 7.0").unwrap();
        assert_eq!(db.plan(&q).unwrap().scans()[0].access.variant(), "PkSeek");
        assert_eq!(rows(&db, "SELECT v FROM t WHERE id = 7.0"), [[Float(0.7)]]);
        assert_eq!(
            rows(&db, "SELECT v FROM t WHERE id IN (7.0, 8)"),
            [[Float(0.7)], [Float(0.8)]]
        );
        assert!(rows(&db, "SELECT v FROM t WHERE id = 7.5").is_empty());
        assert!(rows(&db, "SELECT v FROM t WHERE id IN (7.5, -0.5)").is_empty());
        assert_eq!(rows(&db, "SELECT v FROM t WHERE id = 0.0"), [[Float(0.0)]]);
        // From 2^53 on, a float equals several integers: every row is a
        // candidate and the filter decides.
        let (planned, _) = db
            .execute_sql_planned("SELECT v FROM t WHERE id IN (9007199254740992.0, 3)")
            .unwrap();
        assert_eq!(planned.result.rows, [[Float(0.3)]]);
        assert_eq!(planned.ops.storage_scanned(), 100);
    }

    #[test]
    fn a_full_memo_plans_new_shapes_without_keeping_them() {
        let db = db();
        for i in 0..PREPARED_SHAPES_CAP {
            db.plan(&parse_select(&format!("SELECT v AS c{i} FROM t WHERE id = 1")).unwrap())
                .unwrap();
        }
        let full = db.plan_memo_stats();
        assert_eq!(full.shapes, PREPARED_SHAPES_CAP);
        // A new shape is planned, but not kept: planning it again misses.
        for _ in 0..2 {
            assert_eq!(
                rows(&db, "SELECT v FROM t WHERE id = 7"),
                [[crate::Value::Float(0.7)]]
            );
        }
        let after = db.plan_memo_stats();
        assert_eq!(after.shapes, PREPARED_SHAPES_CAP);
        assert_eq!(after.misses, full.misses + 2);
        // Known shapes still hit.
        db.plan(&parse_select("SELECT v AS c7 FROM t WHERE id = 2").unwrap())
            .unwrap();
        assert_eq!(db.plan_memo_stats().hits, after.hits + 1);
    }

    #[test]
    fn planned_cost_is_below_naive_billing_for_seeks() {
        let db = db();
        let (planned, seek) = db
            .execute_sql_planned("SELECT v FROM t WHERE id = 7")
            .unwrap();
        // Operator-tree billing charges the 1 row the seek touched; the
        // same row found by a full scan is billed for all 100.
        assert_eq!(planned.ops.storage_scanned(), 1);
        let (planned, scan) = db
            .execute_sql_planned("SELECT v FROM t WHERE id + 0 = 7")
            .unwrap();
        assert_eq!(planned.ops.storage_scanned(), 100);
        assert_eq!(planned.plan.scans()[0].access.variant(), "FullScan");
        assert!(seek < scan);
    }
}
