//! # sqlog-log — query-log data model and I/O
//!
//! The log model consumed and produced by the cleaning framework: entries
//! with statement text, timestamp and optional metadata (user/IP, session,
//! result-row count), the in-memory [`QueryLog`], a TSV reader / writer, and
//! the [`GroundTruth`] labels the synthetic workload generator attaches for
//! evaluation.
//!
//! Mirroring §5.1 of the paper, only statement + timestamp are required;
//! everything else is optional and the framework degrades gracefully
//! (§6.8's "reduced information" experiment runs on [`QueryLog::strip_metadata`]).

#![warn(missing_docs)]

pub mod atomic;
pub mod entry;
pub mod io;
pub mod log;
pub mod time;
pub mod view;

pub use atomic::{atomic_write, AtomicFile};
pub use entry::{GroundTruth, IntentKind, LogEntry};
pub use io::{
    merge_segments, read_log, read_log_with, scan_log_slice, segment_ranges, write_log,
    write_log_file, write_log_file_atomic, IngestPolicy, IngestStats, IoFormatError,
    SegmentOutcome,
};
pub use log::QueryLog;
pub use time::{Timestamp, TimestampParseError};
pub use view::LogView;
