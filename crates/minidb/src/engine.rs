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

use crate::cost::CostModel;
use crate::exec::{execute_naive, ExecError, ExecResult};
use crate::ops::{execute_planned_with_stats, PlannedExec};
use crate::plan::{plan_query, QueryPlan};
use crate::stats::{analyze, TableStats};
use crate::table::Table;
use sqlog_obs::Json;
use sqlog_sql::ast::{Query, Statement};
use sqlog_sql::parse_statement;
use std::collections::HashMap;

/// An in-memory database with a round-trip cost model.
#[derive(Debug, Default)]
pub struct MiniDb {
    tables: HashMap<String, Table>,
    /// Cached ANALYZE stats, refreshed whenever a table is (re)added.
    stats: HashMap<String, TableStats>,
    /// The cost model used by [`MiniDb::execute_sql`].
    pub cost: CostModel,
}

impl MiniDb {
    /// An empty database with the default cost model.
    pub fn new() -> Self {
        MiniDb {
            tables: HashMap::new(),
            stats: HashMap::new(),
            cost: CostModel::default(),
        }
    }

    /// Adds (or replaces) a table, analyzing it for the planner.
    pub fn add_table(&mut self, table: Table) {
        self.stats.insert(table.name.clone(), analyze(&table));
        self.tables.insert(table.name.clone(), table);
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

    /// Plans a query without executing it.
    pub fn plan(&self, query: &Query) -> Result<QueryPlan, ExecError> {
        plan_query(query, &self.tables, &self.stats)
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
        execute_planned_with_stats(query, &self.tables, &self.stats)
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
