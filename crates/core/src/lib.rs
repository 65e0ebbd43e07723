//! # sqlog-core — the SQL query-log cleaning framework
//!
//! Reproduction of the framework of *"Cleaning Antipatterns in an SQL Query
//! Log"* (Arzamasova, Schäler, Böhm, 2018): a preprocessing pipeline that
//! takes a raw query log and produces a clean one, plus pattern and
//! antipattern statistics (Fig. 1 of the paper):
//!
//! 1. **delete duplicates** — identical statements from one user within a
//!    small time window ([`mod@dedup`]),
//! 2. **parse statements** — drop syntax errors and non-SELECTs, build
//!    skeletons and intern templates ([`parse_step`], [`store`]),
//! 3. **mine patterns** — per-user sessions, frequency and userPopularity
//!    ([`mine`]),
//! 4. **detect antipatterns** — DW/DS/DF-Stifle, CTH candidates, SNC, plus
//!    registered extensions ([`detect`], [`ext`]),
//! 5. **solve antipatterns** — rewrite solvable instances, emit the clean
//!    and removal logs and statistics ([`solve`], [`stats`]).
//!
//! ```
//! use sqlog_core::{Pipeline, PipelineConfig};
//! use sqlog_catalog::skyserver_catalog;
//! use sqlog_log::{LogEntry, QueryLog, Timestamp};
//!
//! let catalog = skyserver_catalog();
//! let log = QueryLog::from_entries(vec![
//!     LogEntry::minimal(0, "SELECT name FROM Employee WHERE empId = 8",
//!                       Timestamp::from_secs(0)).with_user("10.0.0.1"),
//!     LogEntry::minimal(1, "SELECT name FROM Employee WHERE empId = 1",
//!                       Timestamp::from_secs(1)).with_user("10.0.0.1"),
//! ]);
//! let result = Pipeline::new(&catalog).run(&log);
//! assert_eq!(result.stats.solved_instances, 1);
//! assert_eq!(
//!     result.clean_log.entries[0].statement,
//!     "SELECT empId, name FROM Employee WHERE empId IN (8, 1)",
//! );
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod dedup;
pub mod detect;
pub mod ext;
mod fault;
pub mod ingest;
pub mod mine;
mod parse_cache;
pub mod parse_step;
pub mod pipeline;
pub mod recommend;
pub mod report;
pub mod run_report;
pub mod shard;
pub mod solve;
pub mod stats;
pub mod store;
pub mod sws;

pub use checkpoint::{
    config_fingerprint, run_checkpointed, CheckpointOptions, CheckpointOutcome, Manifest, RunDir,
    Stage, CHECKPOINT_SCHEMA, MANIFEST_SCHEMA,
};
pub use config::PipelineConfig;
pub use dedup::{dedup, dedup_view_traced, DedupStats};
pub use detect::{AntipatternClass, AntipatternInstance, DetectCtx, Detector};
pub use ext::{ExtensionRegistry, Solver, SolverSet};
pub use ingest::{ingest_file_traced, ingest_slice_traced};
pub use mine::{
    build_sessions, build_sessions_view_traced, mine_patterns, mine_patterns_traced, MinedPatterns,
    PatternData, Session, Sessions,
};
pub use parse_step::{
    parse_log, parse_view_traced, ParseCacheStats, ParseOptions, ParseStats, ParsedLog,
    ParsedRecord, RecordShape,
};
pub use pipeline::{DetectOutput, Pipeline, PipelineResult};
pub use recommend::{evaluate_against_marks, RecommendationEval, Recommender};
pub use report::{render_pattern_table, render_statistics, top_patterns, PatternRow};
pub use run_report::{statistics_from_json, statistics_to_json, RunReport, RUN_REPORT_SCHEMA};
pub use shard::{
    balance_chunks, resolve_threads, run_shards_isolated, run_shards_traced, ShardTrace,
};
pub use solve::{decide_solutions, splice_solutions, SolveDecisions, SolveOutcome, SolvedRewrite};
pub use stats::{ClassCounts, RunHealth, StageTimings, Statistics};
pub use store::{TemplateId, TemplateStore};
pub use sws::{classify_sws, sws_grid, union_windows, SwsResult, SwsThresholds};
