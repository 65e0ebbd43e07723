//! # sqlog-obs — structured tracing + metrics for the cleaning pipeline
//!
//! A from-scratch observability layer (the vendor tree is offline: no
//! `tracing`, no `prometheus`, no `serde_json`) built around one type:
//!
//! * [`Recorder`] — **spans** with monotonic timing and parent/child
//!   nesting (thread-local on one thread, explicit-parent across shard
//!   workers), **counters**, and log2-bucket **histograms**. A
//!   [`Recorder::disabled`] recorder is a no-op: every call is one branch
//!   on an `Option` and an immediate return, cheap enough to leave the
//!   instrumentation permanently wired through the hot paths.
//! * [`ObsReport`] — the aggregated, machine-readable view: per-stage /
//!   per-shard timings, an imbalance factor, counter totals, histograms.
//! * [`Json`] — a minimal exact-integer JSON model with writer *and*
//!   parser, used for the NDJSON event export
//!   ([`Recorder::write_events`]), the `--stats-json` run report, and the
//!   round-trip tests.
//!
//! ```
//! use sqlog_obs::{span, ObsReport, Recorder};
//!
//! let rec = Recorder::new();
//! {
//!     let _stage = span!(rec, "parse");
//!     let parent = rec.current();
//!     // hand `parent` to worker threads:
//!     let _shard = rec.span_in(parent, "parse.shard");
//! }
//! rec.counter("parse.selects", 42);
//! rec.histogram("parse.shard_us", 1280);
//! let report = ObsReport::from_recorder(&rec);
//! assert_eq!(report.counters["parse.selects"], 42);
//! assert_eq!(report.stages["parse"].shards.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod ledger;
pub mod mem;
pub mod recorder;
pub mod report;

pub use histogram::{bucket_bounds, bucket_of, Histogram, BUCKETS};
pub use json::{Json, JsonError};
pub use ledger::{Ledger, LedgerEntry, MachineInfo, LEDGER_SCHEMA};
pub use recorder::{
    FieldValue, ProgressSnapshot, Recorder, SpanGuard, SpanId, SpanRecord, WarningRecord,
};
pub use report::{ObsReport, ShardTiming, StageSummary};
