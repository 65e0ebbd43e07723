//! # sqlog-minidb — in-memory SQL engine with a round-trip cost model
//!
//! The substrate for the paper's §6.3 runtime experiment (re-running 10 222
//! stifle queries vs the 254 rewritten ones, 29× faster). The authors ran
//! against their SkyServer SQL Server; this crate substitutes a columnar
//! in-memory engine whose **cost model makes the per-statement round-trip
//! overhead explicit**, preserving the experiment's shape: per-statement
//! overhead dominates point queries, and the merged rewrites pay it once.
//!
//! [`MiniDb`] is the entry point: it holds the tables and their statistics,
//! and only its planner chooses access paths. The naive reference executor
//! behind [`MiniDb::execute_query_naive`] full-scans every source.
//!
//! ```
//! use sqlog_minidb::datagen::skyserver_db;
//!
//! let db = skyserver_db(1_000, 42);
//! let (result, cost_ms) = db.execute_sql(
//!     "SELECT count(*) FROM photoprimary WHERE type = 3").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! assert!(cost_ms >= db.cost.per_statement_ms);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod cost;
pub mod datagen;
pub mod engine;
mod eval;
pub mod exec;
pub mod ops;
pub mod plan;
mod shape;
pub mod stats;
pub mod table;
pub mod value;

pub use cost::CostModel;
pub use engine::{MiniDb, PlanMemoStats};
pub use exec::{ExecError, ExecResult};
pub use ops::{OpStats, PlannedExec};
pub use plan::{plan_query, Access, PlanNode, QueryPlan};
pub use stats::{analyze, ColumnStats, TableStats};
pub use table::{Column, ColumnData, IndexKey, Table};
pub use value::Value;
