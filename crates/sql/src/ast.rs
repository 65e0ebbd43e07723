//! Abstract syntax tree for the SELECT-centric SQL dialect.
//!
//! The AST is the common currency of the whole workspace: the skeleton crate
//! walks it to build skeleton trees (literals → placeholders), the cleaning
//! framework rewrites it to *solve* antipatterns, the mini database executes
//! it, and the clustering crate extracts accessed data regions from it.
//!
//! Statements that are not `SELECT` (DML/DDL/procedural) are classified but
//! not modeled further — the paper's pipeline drops them right after parsing
//! (§5.3), and keeping them opaque keeps the grammar honest about what the
//! downstream analyses actually consume.

use serde::{Deserialize, Serialize};

/// A dot-separated, possibly-qualified name such as `dbo.fGetNearestObjEq`
/// or `p.objid`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectName(pub Vec<Ident>);

impl ObjectName {
    /// Single-part name.
    pub fn simple(name: impl Into<String>) -> Self {
        ObjectName(vec![Ident::new(name)])
    }

    /// The final (unqualified) part of the name.
    pub fn last(&self) -> &Ident {
        self.0.last().expect("ObjectName is never empty")
    }

    /// The qualifier parts (everything but the last), if any.
    pub fn qualifier(&self) -> &[Ident] {
        &self.0[..self.0.len() - 1]
    }
}

/// An identifier. Comparison and hashing are case-insensitive, matching SQL
/// semantics: `PhotoPrimary` and `photoprimary` refer to the same table, and
/// the paper's skeleton equality must treat them identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ident {
    /// The identifier as written in the query.
    pub value: String,
}

impl Ident {
    /// Creates an identifier.
    pub fn new(value: impl Into<String>) -> Self {
        Ident {
            value: value.into(),
        }
    }

    /// Lower-cased form used for comparisons and fingerprints.
    pub fn normalized(&self) -> String {
        self.value.to_ascii_lowercase()
    }
}

impl PartialEq for Ident {
    fn eq(&self, other: &Self) -> bool {
        self.value.eq_ignore_ascii_case(&other.value)
    }
}

impl Eq for Ident {}

impl std::hash::Hash for Ident {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for b in self.value.bytes() {
            state.write_u8(b.to_ascii_lowercase());
        }
    }
}

impl PartialOrd for Ident {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ident {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.value
            .bytes()
            .map(|b| b.to_ascii_lowercase())
            .cmp(other.value.bytes().map(|b| b.to_ascii_lowercase()))
    }
}

/// Classification of a parsed statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Statement {
    /// A `SELECT` query — the only kind analyzed further.
    Select(Box<Query>),
    /// Any other recognized statement, kept only as a classification.
    Other(StatementKind),
}

impl Statement {
    /// Returns the query if this is a `SELECT`.
    pub fn as_select(&self) -> Option<&Query> {
        match self {
            Statement::Select(q) => Some(q),
            Statement::Other(_) => None,
        }
    }
}

/// Coarse classification of non-SELECT statements, used by the pipeline's
/// filtering statistics (the paper keeps only SELECTs: 95.9 % of SkyServer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum StatementKind {
    Insert,
    Update,
    Delete,
    Ddl,
    Exec,
    Other,
}

/// A full query: one or more `SELECT` bodies combined with set operators,
/// plus an optional `ORDER BY` / `LIMIT` tail.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// The first (or only) SELECT body.
    pub body: Select,
    /// Further bodies combined with `UNION`/`EXCEPT`/`INTERSECT`.
    pub set_ops: Vec<(SetOperator, bool, Select)>,
    /// `ORDER BY` items (applies to the whole query).
    pub order_by: Vec<OrderByItem>,
    /// `LIMIT n` (MySQL/Postgres spelling; SkyServer uses TOP instead).
    pub limit: Option<Expr>,
}

impl Query {
    /// Wraps a single SELECT body with no set operations or tail.
    pub fn simple(body: Select) -> Self {
        Query {
            body,
            set_ops: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// True if the query is a single SELECT body (no set operators).
    pub fn is_simple(&self) -> bool {
        self.set_ops.is_empty()
    }
}

/// Set operators combining SELECT bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SetOperator {
    Union,
    Except,
    Intersect,
}

/// One `SELECT ... FROM ... WHERE ...` body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Select {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// `TOP n` (SQL Server), e.g. `SELECT TOP 10 ...`.
    pub top: Option<Expr>,
    /// `TOP n PERCENT` variant.
    pub top_percent: bool,
    /// The projection list (`SELECT` clause, Def. 3's SC).
    pub projection: Vec<SelectItem>,
    /// `INTO table` (SQL Server); rare in logs but present.
    pub into: Option<ObjectName>,
    /// The `FROM` clause (Def. 3's FC): comma-separated table references,
    /// each possibly a join tree.
    pub from: Vec<TableRef>,
    /// The `WHERE` clause (Def. 3's WC).
    pub selection: Option<Expr>,
    /// `GROUP BY` expressions.
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate.
    pub having: Option<Expr>,
}

impl Select {
    /// An empty SELECT body; useful as a builder seed in tests and rewrites.
    pub fn empty() -> Self {
        Select {
            distinct: false,
            top: None,
            top_percent: false,
            projection: Vec::new(),
            into: None,
            from: Vec::new(),
            selection: None,
            group_by: Vec::new(),
            having: None,
        }
    }
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(ObjectName),
    /// An expression with an optional alias.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// `AS alias`, if present.
        alias: Option<Ident>,
    },
}

impl SelectItem {
    /// Plain unaliased column reference.
    pub fn column(name: ObjectName) -> Self {
        SelectItem::Expr {
            expr: Expr::Column(name),
            alias: None,
        }
    }
}

/// A table reference in the FROM clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TableRef {
    /// A base table, optionally aliased.
    Table {
        /// Table name (possibly qualified).
        name: ObjectName,
        /// `AS alias`.
        alias: Option<Ident>,
    },
    /// A table-valued function call such as `fGetNearbyObjEq(@ra,@dec,@r)`.
    Function {
        /// Function name.
        name: ObjectName,
        /// Call arguments.
        args: Vec<Expr>,
        /// `AS alias`.
        alias: Option<Ident>,
    },
    /// A parenthesized subquery used as a table.
    Derived {
        /// The inner query.
        subquery: Box<Query>,
        /// `AS alias`.
        alias: Option<Ident>,
    },
    /// A join of two table references.
    Join {
        /// Left operand.
        left: Box<TableRef>,
        /// Right operand.
        right: Box<TableRef>,
        /// Kind of join.
        kind: JoinKind,
        /// `ON` condition (`None` for CROSS joins).
        constraint: Option<Expr>,
    },
}

impl TableRef {
    /// Convenience constructor for an aliased base table.
    pub fn table(name: impl Into<String>, alias: Option<&str>) -> Self {
        TableRef::Table {
            name: ObjectName::simple(name),
            alias: alias.map(Ident::new),
        }
    }

    /// Visits every base-table / function name mentioned in this reference.
    pub fn visit_names<'a>(&'a self, f: &mut impl FnMut(&'a ObjectName)) {
        match self {
            TableRef::Table { name, .. } | TableRef::Function { name, .. } => f(name),
            TableRef::Derived { subquery, .. } => {
                for t in &subquery.body.from {
                    t.visit_names(f);
                }
            }
            TableRef::Join { left, right, .. } => {
                left.visit_names(f);
                right.visit_names(f);
            }
        }
    }
}

/// Join kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum JoinKind {
    Inner,
    Left,
    Right,
    Full,
    Cross,
    /// SQL Server `CROSS APPLY` — a lateral join against a table-valued
    /// function (SkyServer: `photoprimary p CROSS APPLY fGetNearbyObjEq(...)`).
    CrossApply,
    /// SQL Server `OUTER APPLY` (lateral left join).
    OuterApply,
}

/// One `ORDER BY` item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderByItem {
    /// Sort expression.
    pub expr: Expr,
    /// `ASC` (true) or `DESC` (false); `None` if unspecified.
    pub asc: Option<bool>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum BinaryOp {
    And,
    Or,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Multiply,
    Divide,
    Modulo,
    BitAnd,
    BitOr,
    BitXor,
}

impl BinaryOp {
    /// True for `=`, `<>`, `<`, `<=`, `>`, `>=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum UnaryOp {
    Not,
    Minus,
    Plus,
}

/// Literal values. Numbers keep their textual form (SkyServer objids exceed
/// `f64` precision) together with a parsed numeric value for range analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// Numeric literal: original text.
    Number(String),
    /// String literal (unescaped contents).
    String(String),
    /// `NULL`.
    Null,
    /// `TRUE` / `FALSE`.
    Boolean(bool),
}

impl Literal {
    /// Numeric value if this literal is a number (hex supported).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Literal::Number(text) => {
                if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
                    u64::from_str_radix(hex, 16).ok().map(|v| v as f64)
                } else {
                    text.parse().ok()
                }
            }
            Literal::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference (possibly qualified).
    Column(ObjectName),
    /// A literal constant — the *parameters* that skeletons replace.
    Literal(Literal),
    /// Host variable `@x`.
    Variable(String),
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Function call, e.g. `count(*)`, `str(p.ra, 10, 4)`.
    Function {
        /// Function name.
        name: ObjectName,
        /// Arguments.
        args: Vec<Expr>,
        /// `DISTINCT` inside an aggregate call.
        distinct: bool,
    },
    /// `*` as a function argument (`count(*)`).
    Wildcard,
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// `expr [NOT] IN (e1, e2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// List members.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] IN (subquery)`.
    InSubquery {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery.
        subquery: Box<Query>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound.
        low: Box<Expr>,
        /// Upper bound.
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Box<Expr>,
        /// Pattern expression.
        pattern: Box<Expr>,
        /// True for `NOT LIKE`.
        negated: bool,
    },
    /// Parenthesized expression (kept so the printer round-trips shape).
    Nested(Box<Expr>),
    /// Scalar subquery `(SELECT ...)`.
    Subquery(Box<Query>),
    /// `[NOT] EXISTS (subquery)`.
    Exists {
        /// The subquery.
        subquery: Box<Query>,
        /// True for `NOT EXISTS`.
        negated: bool,
    },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        /// Optional operand of a simple CASE.
        operand: Option<Box<Expr>>,
        /// `(WHEN, THEN)` pairs.
        branches: Vec<(Expr, Expr)>,
        /// `ELSE` result.
        else_result: Option<Box<Expr>>,
    },
    /// `CAST(expr AS type)`.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Target type name, kept as written (e.g. `varchar(32)` → "varchar(32)").
        ty: String,
    },
}

impl Expr {
    /// Convenience: equality comparison between a column and a literal.
    pub fn eq_lit(column: ObjectName, lit: Literal) -> Expr {
        Expr::Binary {
            left: Box::new(Expr::Column(column)),
            op: BinaryOp::Eq,
            right: Box::new(Expr::Literal(lit)),
        }
    }

    /// Conjunction of two expressions.
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op: BinaryOp::And,
            right: Box::new(right),
        }
    }

    /// Splits a predicate tree into its top-level conjuncts.
    ///
    /// `a = 1 AND b > 2 AND c = 3` yields `[a = 1, b > 2, c = 3]`.
    /// Parenthesized sub-expressions are looked through: the paper's CP
    /// ("count of predicates", Def. 11) counts logical conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    op: BinaryOp::And,
                    left,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                Expr::Nested(inner) => walk(inner, out),
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Visits every node of the expression tree, depth-first, pre-order.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::IsNull { expr, .. } => expr.visit(f),
            Expr::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.visit(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.visit(f);
                low.visit(f);
                high.visit(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            Expr::Nested(e) => e.visit(f),
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                if let Some(op) = operand {
                    op.visit(f);
                }
                for (w, t) in branches {
                    w.visit(f);
                    t.visit(f);
                }
                if let Some(e) = else_result {
                    e.visit(f);
                }
            }
            Expr::Cast { expr, .. } => expr.visit(f),
            Expr::Column(_)
            | Expr::Literal(_)
            | Expr::Variable(_)
            | Expr::Wildcard
            | Expr::Subquery(_)
            | Expr::Exists { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_equality_is_case_insensitive() {
        assert_eq!(Ident::new("PhotoPrimary"), Ident::new("photoprimary"));
        let mut set = std::collections::HashSet::new();
        set.insert(Ident::new("ObjID"));
        assert!(set.contains(&Ident::new("objid")));
    }

    #[test]
    fn ident_ordering_is_case_insensitive() {
        assert!(Ident::new("abc") < Ident::new("ABD"));
        assert_eq!(
            Ident::new("X").cmp(&Ident::new("x")),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn conjuncts_flatten_and_trees() {
        let e = Expr::and(
            Expr::eq_lit(ObjectName::simple("a"), Literal::Number("1".into())),
            Expr::and(
                Expr::Nested(Box::new(Expr::eq_lit(
                    ObjectName::simple("b"),
                    Literal::Number("2".into()),
                ))),
                Expr::eq_lit(ObjectName::simple("c"), Literal::Number("3".into())),
            ),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn or_is_a_single_conjunct() {
        let e = Expr::Binary {
            left: Box::new(Expr::eq_lit(
                ObjectName::simple("a"),
                Literal::Number("1".into()),
            )),
            op: BinaryOp::Or,
            right: Box::new(Expr::eq_lit(
                ObjectName::simple("b"),
                Literal::Number("2".into()),
            )),
        };
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn literal_numeric_values() {
        assert_eq!(Literal::Number("3.5".into()).as_f64(), Some(3.5));
        assert_eq!(Literal::Number("0x10".into()).as_f64(), Some(16.0));
        assert_eq!(Literal::String("x".into()).as_f64(), None);
        assert_eq!(Literal::Boolean(true).as_f64(), Some(1.0));
    }

    #[test]
    fn visit_reaches_nested_nodes() {
        let e = Expr::Between {
            expr: Box::new(Expr::Column(ObjectName::simple("r"))),
            low: Box::new(Expr::Literal(Literal::Number("1".into()))),
            high: Box::new(Expr::Literal(Literal::Number("2".into()))),
            negated: false,
        };
        let mut literals = 0;
        e.visit(&mut |node| {
            if matches!(node, Expr::Literal(_)) {
                literals += 1;
            }
        });
        assert_eq!(literals, 2);
    }

    #[test]
    fn table_ref_visit_names_recurses_joins_and_derived() {
        let inner = Query::simple(Select {
            from: vec![TableRef::table("orders", None)],
            ..Select::empty()
        });
        let t = TableRef::Join {
            left: Box::new(TableRef::table("employees", Some("e"))),
            right: Box::new(TableRef::Derived {
                subquery: Box::new(inner),
                alias: Some(Ident::new("o")),
            }),
            kind: JoinKind::Inner,
            constraint: None,
        };
        let mut names = Vec::new();
        t.visit_names(&mut |n| names.push(n.last().normalized()));
        assert_eq!(names, vec!["employees", "orders"]);
    }
}
