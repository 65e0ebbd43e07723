//! Query templates (Definition 4): the triple of clause skeletons
//! (SFC, SWC, SSC) plus the full skeleton text that identifies a template.
//!
//! A template holds no constants. Def. 3's canonical clauses (SC, FC, WC),
//! which the Stifle class definitions (Defs. 12–14) compare *with*
//! constants, are realised per record by its
//! [`PredicateProfile`](crate::PredicateProfile): the template is the shared
//! skeleton, the profile the per-query residue.

use crate::fingerprint::Fingerprint;
use crate::skeleton::{
    render_from_clause, render_query, render_select_clause, render_where_clause,
};
use serde::{Deserialize, Serialize};
use sqlog_sql::ast::Query;

/// A query template: the clause skeletons of one query, literals replaced
/// with placeholders. Definition 5 equality compares the (SFC, SWC, SSC)
/// triple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryTemplate {
    /// Skeleton of the SELECT clause (Def. 2's SSC).
    pub ssc: String,
    /// Skeleton of the FROM clause (SFC).
    pub sfc: String,
    /// Skeleton of the WHERE clause (SWC); empty when absent.
    pub swc: String,
    /// Full skeleton text of the whole query.
    pub full: String,
    /// Fingerprint of the full skeleton text — the template's identity in
    /// the template store.
    pub fingerprint: Fingerprint,
}

impl QueryTemplate {
    /// Builds the template of a query.
    pub fn of_query(q: &Query) -> Self {
        let full = render_query(q);
        QueryTemplate {
            ssc: render_select_clause(&q.body),
            sfc: render_from_clause(&q.body),
            swc: render_where_clause(&q.body),
            fingerprint: Fingerprint::of_str(&full),
            full,
        }
    }

    /// Approximate heap + inline footprint in bytes: the struct itself
    /// plus each string's heap buffer. Good enough for memory accounting
    /// (it ignores allocator slack and `String` over-capacity).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<QueryTemplate>()
            + self.ssc.len()
            + self.sfc.len()
            + self.swc.len()
            + self.full.len()
    }

    /// Definition 5: two skeletons are equal iff their SFC, SWC and SSC are
    /// pairwise equal.
    pub fn skeleton_equal(&self, other: &QueryTemplate) -> bool {
        self.sfc == other.sfc && self.swc == other.swc && self.ssc == other.ssc
    }

    /// Definition 6: two queries are *similar* iff their skeletons are equal.
    /// Alias of [`Self::skeleton_equal`], kept for readability at call sites.
    pub fn similar(&self, other: &QueryTemplate) -> bool {
        self.skeleton_equal(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredicateProfile;
    use sqlog_sql::parse_query;

    fn tpl(sql: &str) -> QueryTemplate {
        QueryTemplate::of_query(&parse_query(sql).unwrap())
    }

    fn profile(sql: &str) -> PredicateProfile {
        PredicateProfile::of_select(&parse_query(sql).unwrap().body)
    }

    #[test]
    fn same_shape_same_fingerprint() {
        let a = "SELECT name FROM Employee WHERE empId = 8";
        let b = "SELECT name FROM Employee WHERE empId = 1";
        assert_eq!(tpl(a).fingerprint, tpl(b).fingerprint);
        assert!(tpl(a).skeleton_equal(&tpl(b)));
        assert!(tpl(a).similar(&tpl(b)));
        // The constants differ in the profiles — this is what DW-Stifle checks.
        assert_ne!(profile(a), profile(b));
    }

    #[test]
    fn different_projection_different_fingerprint() {
        let a = "SELECT name FROM Employee WHERE empId = 8";
        let b = "SELECT address, phone FROM Employee WHERE empId = 8";
        assert_ne!(tpl(a).fingerprint, tpl(b).fingerprint);
        assert!(!tpl(a).skeleton_equal(&tpl(b)));
        // Same FROM and the same WHERE with constants — what DS-Stifle checks.
        assert_eq!(tpl(a).sfc, tpl(b).sfc);
        assert_eq!(profile(a), profile(b));
    }

    #[test]
    fn tail_changes_the_fingerprint_but_not_the_triple() {
        let a = tpl("SELECT a FROM t WHERE x = 1");
        let b = tpl("SELECT a FROM t WHERE x = 1 ORDER BY a DESC");
        assert!(a.skeleton_equal(&b));
        assert_ne!(a.fingerprint, b.fingerprint);
        assert_eq!(b.full, "SELECT a FROM t WHERE x = <num> ORDER BY a DESC");
    }

    #[test]
    fn triple_components_are_separated() {
        // Moving text between clauses must break skeleton equality even
        // where the concatenated clause texts could coincide.
        let a = tpl("SELECT a FROM t WHERE b = 1");
        let b = tpl("SELECT a, b FROM t");
        assert!(!a.skeleton_equal(&b));
    }
}
