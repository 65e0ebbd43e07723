//! Predicate profiles: the per-query facts the antipattern definitions need.
//!
//! Definition 11 (Stifle) needs, per query: the count of predicates (CP),
//! the comparison operator θ of each predicate, and the filter column.
//! Definition 15 (CTH candidate) additionally needs the *output columns* of
//! the SELECT clause, to test whether a later query filters on an attribute
//! an earlier query produced. Definition 16 (SNC) needs `= NULL` /
//! `<> NULL` comparisons. This module extracts all of that from the AST.

use serde::{Deserialize, Serialize};
use sqlog_sql::ast::*;

/// Comparison operator of a predicate (the paper's θ).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Theta {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl Theta {
    fn from_binop(op: BinaryOp) -> Option<Theta> {
        Some(match op {
            BinaryOp::Eq => Theta::Eq,
            BinaryOp::NotEq => Theta::NotEq,
            BinaryOp::Lt => Theta::Lt,
            BinaryOp::LtEq => Theta::LtEq,
            BinaryOp::Gt => Theta::Gt,
            BinaryOp::GtEq => Theta::GtEq,
            _ => return None,
        })
    }

    /// Flips the operator for a reversed comparison (`5 < x` → `x > 5`).
    fn flipped(self) -> Theta {
        match self {
            Theta::Lt => Theta::Gt,
            Theta::LtEq => Theta::GtEq,
            Theta::Gt => Theta::Lt,
            Theta::GtEq => Theta::LtEq,
            other => other,
        }
    }
}

/// The value side of a column-vs-value predicate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ValueKind {
    /// A numeric literal (original text preserved).
    Number(String),
    /// A string literal.
    String(String),
    /// `NULL` compared with `=` / `<>` — the SNC smell.
    Null,
    /// A boolean literal.
    Bool(bool),
    /// A host variable `@x`.
    Variable(String),
    /// Another column (join-style predicate).
    Column(String),
    /// Anything else (arithmetic, function call, subquery, …).
    Complex,
}

impl ValueKind {
    fn of_expr(e: &Expr) -> ValueKind {
        match e {
            Expr::Literal(Literal::Number(n)) => ValueKind::Number(n.clone()),
            Expr::Literal(Literal::String(s)) => ValueKind::String(s.clone()),
            Expr::Literal(Literal::Null) => ValueKind::Null,
            Expr::Literal(Literal::Boolean(b)) => ValueKind::Bool(*b),
            Expr::Variable(v) => ValueKind::Variable(v.to_ascii_lowercase()),
            Expr::Column(name) => ValueKind::Column(name.last().normalized()),
            Expr::Nested(inner) => ValueKind::of_expr(inner),
            Expr::Unary {
                op: UnaryOp::Minus,
                expr,
            } => match ValueKind::of_expr(expr) {
                ValueKind::Number(n) => ValueKind::Number(format!("-{n}")),
                _ => ValueKind::Complex,
            },
            _ => ValueKind::Complex,
        }
    }

    /// Bytes this value owns on the heap (string text; no allocator slack).
    fn heap_bytes(&self) -> usize {
        match self {
            ValueKind::Number(s)
            | ValueKind::String(s)
            | ValueKind::Variable(s)
            | ValueKind::Column(s) => s.len(),
            ValueKind::Null | ValueKind::Bool(_) | ValueKind::Complex => 0,
        }
    }

    /// True when the value is a constant (number, string, bool).
    pub fn is_constant(&self) -> bool {
        matches!(
            self,
            ValueKind::Number(_) | ValueKind::String(_) | ValueKind::Bool(_)
        )
    }
}

/// One top-level conjunct of the WHERE clause, classified.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PredicateKind {
    /// `column θ value` (either orientation in the source).
    Comparison {
        /// Unqualified, lower-cased column name.
        column: String,
        /// Comparison operator, normalized to column-on-the-left.
        theta: Theta,
        /// The value side.
        value: ValueKind,
    },
    /// `column BETWEEN low AND high`.
    Between {
        /// Filter column.
        column: String,
        /// Lower bound.
        low: ValueKind,
        /// Upper bound.
        high: ValueKind,
        /// `NOT BETWEEN`.
        negated: bool,
    },
    /// `column IN (v1, …, vn)`.
    InList {
        /// Filter column.
        column: String,
        /// List values.
        values: Vec<ValueKind>,
        /// `NOT IN`.
        negated: bool,
    },
    /// `column IS [NOT] NULL`.
    IsNull {
        /// Tested column.
        column: String,
        /// `IS NOT NULL`.
        negated: bool,
    },
    /// `column [NOT] LIKE pattern`.
    Like {
        /// Filter column.
        column: String,
        /// The pattern if constant.
        pattern: ValueKind,
        /// `NOT LIKE`.
        negated: bool,
    },
    /// Any other conjunct (OR trees, EXISTS, function predicates, …).
    Other,
}

impl PredicateKind {
    fn of_conjunct(e: &Expr) -> PredicateKind {
        match e {
            Expr::Binary { left, op, right } => {
                let Some(theta) = Theta::from_binop(*op) else {
                    return PredicateKind::Other;
                };
                if let Expr::Column(name) = strip(left) {
                    PredicateKind::Comparison {
                        column: name.last().normalized(),
                        theta,
                        value: ValueKind::of_expr(strip(right)),
                    }
                } else if let Expr::Column(name) = strip(right) {
                    PredicateKind::Comparison {
                        column: name.last().normalized(),
                        theta: theta.flipped(),
                        value: ValueKind::of_expr(strip(left)),
                    }
                } else {
                    PredicateKind::Other
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => match strip(expr) {
                Expr::Column(name) => PredicateKind::Between {
                    column: name.last().normalized(),
                    low: ValueKind::of_expr(strip(low)),
                    high: ValueKind::of_expr(strip(high)),
                    negated: *negated,
                },
                _ => PredicateKind::Other,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => match strip(expr) {
                Expr::Column(name) => PredicateKind::InList {
                    column: name.last().normalized(),
                    values: list.iter().map(|v| ValueKind::of_expr(strip(v))).collect(),
                    negated: *negated,
                },
                _ => PredicateKind::Other,
            },
            Expr::IsNull { expr, negated } => match strip(expr) {
                Expr::Column(name) => PredicateKind::IsNull {
                    column: name.last().normalized(),
                    negated: *negated,
                },
                _ => PredicateKind::Other,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => match strip(expr) {
                Expr::Column(name) => PredicateKind::Like {
                    column: name.last().normalized(),
                    pattern: ValueKind::of_expr(strip(pattern)),
                    negated: *negated,
                },
                _ => PredicateKind::Other,
            },
            _ => PredicateKind::Other,
        }
    }

    /// Bytes this conjunct owns on the heap: its column and value text.
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.column().map_or(0, str::len)
            + match self {
                PredicateKind::Comparison { value, .. }
                | PredicateKind::Like { pattern: value, .. } => value.heap_bytes(),
                PredicateKind::Between { low, high, .. } => low.heap_bytes() + high.heap_bytes(),
                PredicateKind::InList { values, .. } => {
                    values.capacity() * size_of::<ValueKind>()
                        + values.iter().map(ValueKind::heap_bytes).sum::<usize>()
                }
                PredicateKind::IsNull { .. } | PredicateKind::Other => 0,
            }
    }

    /// The filter column (the paper's *filCol*), when this predicate has one.
    pub fn column(&self) -> Option<&str> {
        match self {
            PredicateKind::Comparison { column, .. }
            | PredicateKind::Between { column, .. }
            | PredicateKind::InList { column, .. }
            | PredicateKind::IsNull { column, .. }
            | PredicateKind::Like { column, .. } => Some(column),
            PredicateKind::Other => None,
        }
    }
}

fn strip(e: &Expr) -> &Expr {
    match e {
        Expr::Nested(inner) => strip(inner),
        other => other,
    }
}

/// The predicate profile of one SELECT body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredicateProfile {
    /// Classified top-level conjuncts of the WHERE clause, in source order.
    pub conjuncts: Vec<PredicateKind>,
}

impl PredicateProfile {
    /// Analyzes the WHERE clause of a SELECT body.
    pub fn of_select(s: &Select) -> Self {
        let conjuncts = match &s.selection {
            Some(w) => w
                .conjuncts()
                .iter()
                .map(|c| PredicateKind::of_conjunct(c))
                .collect(),
            None => Vec::new(),
        };
        PredicateProfile { conjuncts }
    }

    /// Approximate heap footprint in bytes: the conjunct buffer at capacity
    /// plus every column and value string. Memory accounting only (it
    /// ignores allocator slack and `String` over-capacity).
    pub fn approx_heap_bytes(&self) -> usize {
        self.conjuncts.capacity() * std::mem::size_of::<PredicateKind>()
            + self
                .conjuncts
                .iter()
                .map(PredicateKind::heap_bytes)
                .sum::<usize>()
    }

    /// The paper's CP: count of predicates (top-level conjuncts).
    pub fn cp(&self) -> usize {
        self.conjuncts.len()
    }

    /// Definition 11 / 15 shape: exactly one predicate, which is an equality
    /// comparison of a column against a constant or variable. Returns the
    /// column and value.
    pub fn single_equality(&self) -> Option<(&str, &ValueKind)> {
        match self.conjuncts.as_slice() {
            [PredicateKind::Comparison {
                column,
                theta: Theta::Eq,
                value,
            }] if !matches!(value, ValueKind::Column(_) | ValueKind::Complex) => {
                Some((column.as_str(), value))
            }
            _ => None,
        }
    }

    /// SNC (Def. 16): predicates of the form `col = NULL` or `col <> NULL`.
    /// Returns `(index, column, theta)` for each occurrence.
    pub fn null_comparisons(&self) -> Vec<(usize, &str, Theta)> {
        self.conjuncts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c {
                PredicateKind::Comparison {
                    column,
                    theta: theta @ (Theta::Eq | Theta::NotEq),
                    value: ValueKind::Null,
                } => Some((i, column.as_str(), *theta)),
                _ => None,
            })
            .collect()
    }

    /// All filter columns mentioned by classified predicates.
    pub fn columns(&self) -> impl Iterator<Item = &str> {
        self.conjuncts.iter().filter_map(|c| c.column())
    }
}

/// Output columns of a SELECT body, for CTH's "attribute of the first query's
/// SELECT clause appears in the WHERE clause of a later query" test.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OutputColumns {
    /// True if the projection contains `*` or `alias.*` — then *any*
    /// attribute of the source tables may be in the output.
    pub wildcard: bool,
    /// Unqualified, lower-cased output names (alias if given, otherwise the
    /// column's own name). Expressions without aliases produce no name.
    pub names: Vec<String>,
}

impl OutputColumns {
    /// Extracts the output columns of a SELECT body.
    pub fn of_select(s: &Select) -> Self {
        let mut wildcard = false;
        let mut names = Vec::new();
        for item in &s.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => wildcard = true,
                SelectItem::Expr { expr, alias } => {
                    if let Some(a) = alias {
                        names.push(a.normalized());
                    } else if let Expr::Column(name) = expr {
                        names.push(name.last().normalized());
                    }
                }
            }
        }
        OutputColumns { wildcard, names }
    }

    /// Approximate heap footprint in bytes: the name buffer at capacity
    /// plus the name text. Memory accounting only.
    pub fn approx_heap_bytes(&self) -> usize {
        self.names.capacity() * std::mem::size_of::<String>()
            + self.names.iter().map(String::len).sum::<usize>()
    }

    /// True if the output may contain `column` (case-insensitive).
    pub fn may_contain(&self, column: &str) -> bool {
        self.wildcard || self.names.iter().any(|n| n.eq_ignore_ascii_case(column))
    }
}

/// The single base table of a SELECT body, when the FROM clause is exactly
/// one unjoined plain table. The Stifle key-attribute check (Def. 11, third
/// axiom) resolves the filter column against this table in the catalog.
pub fn primary_table(s: &Select) -> Option<String> {
    match s.from.as_slice() {
        [TableRef::Table { name, .. }] => Some(name.last().normalized()),
        _ => None,
    }
}

/// All base-table names (lower-cased) mentioned anywhere in the FROM clause.
pub fn base_tables(s: &Select) -> Vec<String> {
    let mut names = Vec::new();
    for t in &s.from {
        t.visit_names(&mut |n| names.push(n.last().normalized()));
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_sql::parse_query;

    fn profile(sql: &str) -> PredicateProfile {
        PredicateProfile::of_select(&parse_query(sql).unwrap().body)
    }

    #[test]
    fn cp_counts_conjuncts() {
        assert_eq!(profile("SELECT a FROM t").cp(), 0);
        assert_eq!(profile("SELECT a FROM t WHERE x = 1").cp(), 1);
        assert_eq!(
            profile("SELECT a FROM t WHERE x = 1 AND y > 2 AND z LIKE 'q%'").cp(),
            3
        );
        // OR is one conjunct.
        assert_eq!(profile("SELECT a FROM t WHERE x = 1 OR y = 2").cp(), 1);
    }

    #[test]
    fn single_equality_matches_def_11_shape() {
        let p = profile("SELECT name FROM Employee WHERE empId = 8");
        let (col, val) = p.single_equality().unwrap();
        assert_eq!(col, "empid");
        assert_eq!(val, &ValueKind::Number("8".into()));

        assert!(profile("SELECT a FROM t WHERE x > 1")
            .single_equality()
            .is_none());
        assert!(profile("SELECT a FROM t WHERE x = 1 AND y = 2")
            .single_equality()
            .is_none());
        assert!(profile("SELECT a FROM t").single_equality().is_none());
        // Join predicates are not value filters.
        assert!(profile("SELECT a FROM t, u WHERE t.id = u.id")
            .single_equality()
            .is_none());
    }

    #[test]
    fn reversed_comparison_is_normalized() {
        let p = profile("SELECT a FROM t WHERE 5 < x");
        match &p.conjuncts[0] {
            PredicateKind::Comparison { column, theta, .. } => {
                assert_eq!(column, "x");
                assert_eq!(*theta, Theta::Gt);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn qualified_columns_are_unqualified() {
        let p = profile("SELECT a FROM Employees E WHERE E.id = 12");
        assert_eq!(p.single_equality().unwrap().0, "id");
    }

    #[test]
    fn null_comparisons_found_for_snc() {
        let p = profile("SELECT * FROM Bugs WHERE assigned_to = NULL");
        let nc = p.null_comparisons();
        assert_eq!(nc.len(), 1);
        assert_eq!(nc[0].1, "assigned_to");
        assert_eq!(nc[0].2, Theta::Eq);

        let p = profile("SELECT * FROM Bugs WHERE assigned_to <> NULL AND x = 1");
        let nc = p.null_comparisons();
        assert_eq!(nc.len(), 1);
        assert_eq!(nc[0].0, 0);
        assert_eq!(nc[0].2, Theta::NotEq);

        // Proper IS NULL is *not* an SNC.
        let p = profile("SELECT * FROM Bugs WHERE assigned_to IS NULL");
        assert!(p.null_comparisons().is_empty());
    }

    #[test]
    fn between_in_like_classified() {
        let p = profile("SELECT a FROM t WHERE r BETWEEN 1 AND 2 AND id IN (3, 4) AND s LIKE 'x%'");
        assert!(matches!(&p.conjuncts[0], PredicateKind::Between { column, .. } if column == "r"));
        assert!(
            matches!(&p.conjuncts[1], PredicateKind::InList { values, .. } if values.len() == 2)
        );
        assert!(matches!(&p.conjuncts[2], PredicateKind::Like { .. }));
    }

    #[test]
    fn output_columns_with_aliases_and_wildcards() {
        let q = parse_query("SELECT E.empId, name AS n, count(*) AS c FROM Employees E").unwrap();
        let out = OutputColumns::of_select(&q.body);
        assert!(!out.wildcard);
        assert!(out.may_contain("EMPID"));
        assert!(out.may_contain("n"));
        assert!(out.may_contain("c"));
        assert!(!out.may_contain("name")); // aliased away

        let q = parse_query("SELECT * FROM dbo.fGetNearestObjEq(1, 2, 3)").unwrap();
        let out = OutputColumns::of_select(&q.body);
        assert!(out.wildcard);
        assert!(out.may_contain("specobjid"));
    }

    #[test]
    fn primary_table_only_for_single_plain_table() {
        let q = parse_query("SELECT a FROM PhotoPrimary").unwrap();
        assert_eq!(primary_table(&q.body).as_deref(), Some("photoprimary"));
        let q = parse_query("SELECT a FROM t, u").unwrap();
        assert_eq!(primary_table(&q.body), None);
        let q = parse_query("SELECT a FROM t JOIN u ON t.x = u.x").unwrap();
        assert_eq!(primary_table(&q.body), None);
    }

    #[test]
    fn base_tables_recurse_into_joins() {
        let q = parse_query("SELECT a FROM t JOIN u ON t.x = u.x, (SELECT b FROM v) AS d").unwrap();
        assert_eq!(base_tables(&q.body), vec!["t", "u", "v"]);
    }

    #[test]
    fn variable_equality_counts_as_single_equality() {
        // The SkyServer web templates filter with @variables; Def. 15's
        // equality test must accept them.
        let p = profile("SELECT a FROM t WHERE objid = @id");
        assert!(p.single_equality().is_some());
    }
}
