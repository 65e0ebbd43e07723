//! Accessed-data-space regions.
//!
//! The downstream analysis of §6.9 reproduces Nguyen et al. \[1\]: queries are
//! clustered by the *overlap of the data space they access*. A query's
//! region is the set of base tables it touches plus, per constrained column,
//! the interval or point set its predicates select. Overlap is a product of
//! per-dimension Jaccard similarities; structurally different regions have
//! overlap 0 — which is why observed distances are "very often 0 and 1"
//! (§6.9).

use sqlog_skeleton::{PredicateKind, PredicateProfile, Theta, ValueKind};
use sqlog_sql::ast::{Expr, Literal, Query, TableRef};
use std::collections::{BTreeMap, BTreeSet};

/// One dimension of a region.
#[derive(Debug, Clone, PartialEq)]
pub enum Dim {
    /// A numeric interval (point selections are `[v, v]`).
    Interval {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// A categorical point set.
    Points(BTreeSet<String>),
}

impl Dim {
    /// Jaccard similarity of two dimensions (0 when shapes differ).
    pub fn jaccard(&self, other: &Dim) -> f64 {
        match (self, other) {
            (Dim::Interval { lo: a1, hi: b1 }, Dim::Interval { lo: a2, hi: b2 }) => {
                let inter = (b1.min(*b2) - a1.max(*a2)).max(0.0);
                let union = (b1.max(*b2) - a1.min(*a2)).max(0.0);
                if union == 0.0 {
                    // Two identical points.
                    f64::from(u8::from((a1, b1) == (a2, b2)))
                } else {
                    (inter / union).clamp(0.0, 1.0)
                }
            }
            (Dim::Points(a), Dim::Points(b)) => {
                let inter = a.intersection(b).count() as f64;
                let union = a.union(b).count() as f64;
                if union == 0.0 {
                    1.0
                } else {
                    inter / union
                }
            }
            _ => 0.0,
        }
    }

    fn intersect_interval(&mut self, lo: f64, hi: f64) {
        if let Dim::Interval { lo: a, hi: b } = self {
            *a = a.max(lo);
            *b = b.min(hi);
        }
    }
}

/// The data-space region one query accesses.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Region {
    /// Base tables (and table-valued functions) accessed.
    pub tables: BTreeSet<String>,
    /// Constrained dimensions, keyed by column (or synthetic key).
    pub dims: BTreeMap<String, Dim>,
}

impl Region {
    /// Canonical key: regions with equal keys are identical (used to
    /// deduplicate before the quadratic clustering pass).
    pub fn key(&self) -> String {
        use std::fmt::Write as _;
        let mut k = String::new();
        for t in &self.tables {
            let _ = write!(k, "{t},");
        }
        k.push('|');
        for (col, dim) in &self.dims {
            match dim {
                Dim::Interval { lo, hi } => {
                    let _ = write!(k, "{col}:[{lo};{hi}]");
                }
                Dim::Points(ps) => {
                    let _ = write!(k, "{col}:{{");
                    for p in ps {
                        let _ = write!(k, "{p},");
                    }
                    k.push('}');
                }
            }
        }
        k
    }

    /// Overlap in `[0, 1]`.
    pub fn overlap(&self, other: &Region) -> f64 {
        if self.tables != other.tables {
            return 0.0;
        }
        // Structurally different constraint sets select different shapes.
        if self.dims.len() != other.dims.len() || !self.dims.keys().eq(other.dims.keys()) {
            return 0.0;
        }
        let mut o = 1.0;
        for (col, dim) in &self.dims {
            o *= dim.jaccard(&other.dims[col]);
            if o == 0.0 {
                break;
            }
        }
        o
    }

    /// Distance = 1 − overlap.
    pub fn distance(&self, other: &Region) -> f64 {
        1.0 - self.overlap(other)
    }

    fn add_interval(&mut self, col: String, lo: f64, hi: f64) {
        match self.dims.get_mut(&col) {
            Some(d @ Dim::Interval { .. }) => d.intersect_interval(lo, hi),
            Some(_) => {}
            None => {
                self.dims.insert(col, Dim::Interval { lo, hi });
            }
        }
    }

    fn add_point(&mut self, col: String, point: String) {
        match self.dims.get_mut(&col) {
            Some(Dim::Points(ps)) => {
                ps.insert(point);
            }
            Some(_) => {}
            None => {
                let mut ps = BTreeSet::new();
                ps.insert(point);
                self.dims.insert(col, Dim::Points(ps));
            }
        }
    }
}

/// A very large bound standing in for ±∞ in one-sided comparisons; finite so
/// that Jaccard arithmetic stays NaN-free.
const HUGE: f64 = 1e300;

fn value_as_f64(v: &ValueKind) -> Option<f64> {
    match v {
        ValueKind::Number(n) => sqlog_sql::ast::Literal::Number(n.clone()).as_f64(),
        ValueKind::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

fn value_as_point(v: &ValueKind) -> String {
    match v {
        ValueKind::Number(n) => n.clone(),
        ValueKind::String(s) => format!("'{s}'"),
        ValueKind::Bool(b) => b.to_string(),
        ValueKind::Null => "<null>".into(),
        ValueKind::Variable(name) => format!("@{name}"),
        ValueKind::Column(c) => format!("col:{c}"),
        ValueKind::Complex => "<complex>".into(),
    }
}

/// Extracts the region of a query.
pub fn region_of_query(query: &Query) -> Region {
    let mut region = Region::default();
    let body = &query.body;

    // Tables, including table-valued functions (whose arguments
    // parameterize the accessed sky region and become dimensions).
    for t in &body.from {
        collect_tables(t, &mut region);
    }

    // Predicates.
    let profile = PredicateProfile::of_select(body);
    for (i, conj) in profile.conjuncts.iter().enumerate() {
        match conj {
            PredicateKind::Comparison {
                column,
                theta,
                value,
            } => {
                let num = value_as_f64(value);
                match (theta, num) {
                    (Theta::Eq, Some(v)) => region.add_interval(column.clone(), v, v),
                    (Theta::Eq, None) => {
                        region.add_point(column.clone(), value_as_point(value));
                    }
                    (Theta::Lt | Theta::LtEq, Some(v)) => {
                        region.add_interval(column.clone(), -HUGE, v);
                    }
                    (Theta::Gt | Theta::GtEq, Some(v)) => {
                        region.add_interval(column.clone(), v, HUGE);
                    }
                    // Inequalities and non-numeric ranges: structural point.
                    _ => region.add_point(
                        format!("{column}#{i}"),
                        format!("{theta:?}:{}", value_as_point(value)),
                    ),
                }
            }
            PredicateKind::Between {
                column,
                low,
                high,
                negated: false,
            } => {
                if let (Some(lo), Some(hi)) = (value_as_f64(low), value_as_f64(high)) {
                    region.add_interval(column.clone(), lo, hi);
                } else {
                    region.add_point(
                        format!("{column}#{i}"),
                        format!("between:{}:{}", value_as_point(low), value_as_point(high)),
                    );
                }
            }
            PredicateKind::InList {
                column,
                values,
                negated: false,
            } => {
                for v in values {
                    region.add_point(column.clone(), value_as_point(v));
                }
            }
            PredicateKind::IsNull { column, negated } => {
                region.add_point(column.clone(), format!("isnull:{negated}"));
            }
            PredicateKind::Like {
                column,
                pattern,
                negated: false,
            } => {
                region.add_point(column.clone(), format!("like:{}", value_as_point(pattern)));
            }
            other => {
                // Negated / unclassifiable conjuncts contribute a structural
                // dimension so they still separate regions.
                region.add_point(format!("#pred{i}"), format!("{other:?}"));
            }
        }
    }
    region
}

fn collect_tables(t: &TableRef, region: &mut Region) {
    match t {
        TableRef::Table { name, .. } => {
            region.tables.insert(name.last().normalized());
        }
        TableRef::Function { name, args, .. } => {
            let fname = name.last().normalized();
            region.tables.insert(fname.clone());
            for (i, arg) in args.iter().enumerate() {
                match arg {
                    Expr::Literal(lit @ Literal::Number(_)) => {
                        if let Some(v) = lit.as_f64() {
                            region.add_interval(format!("{fname}#{i}"), v, v);
                        }
                    }
                    Expr::Unary { .. } | Expr::Literal(_) | Expr::Variable(_) => {
                        let mut text = String::new();
                        let _ = std::fmt::Write::write_fmt(&mut text, format_args!("{arg}"));
                        region.add_point(format!("{fname}#{i}"), text);
                    }
                    _ => {}
                }
            }
        }
        TableRef::Derived { subquery, .. } => {
            for inner in &subquery.body.from {
                collect_tables(inner, region);
            }
        }
        TableRef::Join { left, right, .. } => {
            collect_tables(left, region);
            collect_tables(right, region);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_sql::parse_query;

    fn region(sql: &str) -> Region {
        region_of_query(&parse_query(sql).unwrap())
    }

    #[test]
    fn identical_queries_overlap_fully() {
        let a = region("SELECT x FROM t WHERE htmid >= 100 and htmid <= 200");
        let b = region("SELECT y, z FROM t WHERE htmid >= 100 and htmid <= 200");
        // Projection does not matter — only the accessed space does.
        assert_eq!(a.overlap(&b), 1.0);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn disjoint_windows_overlap_zero() {
        let a = region("SELECT x FROM t WHERE htmid >= 100 and htmid <= 200");
        let b = region("SELECT x FROM t WHERE htmid >= 300 and htmid <= 400");
        assert_eq!(a.overlap(&b), 0.0);
        assert_eq!(a.distance(&b), 1.0);
    }

    #[test]
    fn partial_interval_overlap() {
        let a = region("SELECT x FROM t WHERE r BETWEEN 0 AND 10");
        let b = region("SELECT x FROM t WHERE r BETWEEN 5 AND 15");
        // Intersection 5, union 15.
        assert!((a.overlap(&b) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn different_tables_never_overlap() {
        let a = region("SELECT x FROM t WHERE r = 1");
        let b = region("SELECT x FROM u WHERE r = 1");
        assert_eq!(a.overlap(&b), 0.0);
    }

    #[test]
    fn different_constraint_structure_never_overlaps() {
        let a = region("SELECT x FROM t WHERE r = 1");
        let b = region("SELECT x FROM t WHERE r = 1 AND g = 2");
        assert_eq!(a.overlap(&b), 0.0);
    }

    #[test]
    fn point_sets_use_jaccard() {
        let a = region("SELECT x FROM t WHERE name IN ('a', 'b')");
        let b = region("SELECT x FROM t WHERE name IN ('b', 'c')");
        assert!((a.overlap(&b) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn equality_points_match_exactly() {
        let a = region("SELECT text FROM DBObjects WHERE name='photoobjall'");
        let b = region("SELECT description FROM DBObjects WHERE name='photoobjall'");
        let c = region("SELECT description FROM DBObjects WHERE name='galaxy'");
        assert_eq!(a.overlap(&b), 1.0);
        assert_eq!(a.overlap(&c), 0.0);
    }

    #[test]
    fn tvf_arguments_parameterize_the_region() {
        let a = region("SELECT * FROM fgetnearbyobjeq(10.0, 20.0, 1.0) n, photoprimary p WHERE n.objid = p.objid");
        let b = region("SELECT * FROM fgetnearbyobjeq(10.0, 20.0, 1.0) n, photoprimary p WHERE n.objid = p.objid");
        let c = region("SELECT * FROM fgetnearbyobjeq(99.0, 20.0, 1.0) n, photoprimary p WHERE n.objid = p.objid");
        assert_eq!(a.overlap(&b), 1.0);
        assert_eq!(a.overlap(&c), 0.0);
    }

    #[test]
    fn one_sided_ranges_are_nan_free() {
        let a = region("SELECT x FROM t WHERE r > 5");
        let b = region("SELECT x FROM t WHERE r > 6");
        let o = a.overlap(&b);
        assert!(o.is_finite());
        assert!(o > 0.9); // both select "everything large"
    }

    #[test]
    fn conjunct_intervals_intersect() {
        let a = region("SELECT x FROM t WHERE r >= 10 AND r <= 20");
        let b = region("SELECT x FROM t WHERE r BETWEEN 10 AND 20");
        assert_eq!(a.overlap(&b), 1.0);
    }
}
