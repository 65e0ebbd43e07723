//! # sqlog-skeleton — skeleton queries, templates and predicate profiles
//!
//! Implements Definitions 2–6 of *"Cleaning Antipatterns in an SQL Query
//! Log"*: skeleton trees (literals replaced by placeholders), the
//! (SFC, SWC, SSC) query-template triple, skeleton equality, plus the
//! per-query predicate facts (CP, θ, filter columns, output columns) that
//! the antipattern definitions (Defs. 11–16) consume.
//!
//! ```
//! use sqlog_skeleton::QueryTemplate;
//! use sqlog_sql::parse_query;
//!
//! let a = QueryTemplate::of_query(
//!     &parse_query("SELECT name FROM Employee WHERE empId = 8").unwrap());
//! let b = QueryTemplate::of_query(
//!     &parse_query("SELECT name FROM Employee WHERE empId = 1").unwrap());
//! assert!(a.similar(&b));                 // Def. 6
//! assert_eq!(a.fingerprint, b.fingerprint);
//! assert_eq!(a.swc, "empid = <num>");     // skeleton WHERE clause
//! assert_ne!(a.wc, b.wc);                 // canonical WHERE clauses differ
//! ```

#![warn(missing_docs)]

pub mod fingerprint;
pub mod normalize;
pub mod predicate;
pub mod rawkey;
pub mod skeleton;
pub mod template;

pub use fingerprint::{Fingerprint, Fnv1a, FnvBuildHasher, FnvHashMap, FnvHashSet, FnvHasher};
pub use normalize::{normalize_sql_text, text_fingerprint};
pub use predicate::{
    base_tables, primary_table, OutputColumns, PredicateKind, PredicateProfile, Theta, ValueKind,
};
pub use rawkey::{raw_shape_scan, RawKey, RawLiteral, RawLiteralKind, RAW_NUM, RAW_STR};
pub use skeleton::{
    render_from_clause, render_query, render_select_clause, render_tail, render_where_clause, Mode,
};
pub use template::QueryTemplate;
