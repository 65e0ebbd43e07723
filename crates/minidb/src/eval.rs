//! Bind once, evaluate many: expressions compiled against a query's sources.
//!
//! Once `bind_table_ref` has fixed a query's sources, [`Binder`] turns each
//! expression the executors evaluate into a [`Scalar`] or [`Pred`] tree.
//! Column references become a source index and the column's storage, found
//! by the one resolution rule (a qualifier names a source by binding or
//! table name, the first matching source wins, and a qualified column
//! missing from its source is an error); literals become [`Value`]s and
//! function names are lower-cased. Per row, evaluation reads typed cells in
//! place ([`Cell`]): no name lookup, no literal parsing, and no string copy
//! unless a function computes new text.
//!
//! Errors are deferred. An unknown column, an unsupported expression or an
//! unknown function binds to a node that returns its [`ExecError`] when
//! evaluated, so a query whose bad expression no row reaches still succeeds.
//! Evaluation order is left before right; AND/OR skip their right side only
//! when the left side decides the result and the right side cannot fail.

use crate::exec::{ExecError, Source};
use crate::table::ColumnData;
use crate::value::{Cell, Value};
use sqlog_sql::ast::*;
use std::borrow::Cow;
use std::cmp::Ordering;

#[cfg(test)]
mod oracle_tests;

/// One candidate tuple: a row id per source. Single-table queries leave the
/// second slot unread; the executors join at most two sources.
pub(crate) type RowIds = [usize; 2];

/// A scalar expression bound to the query's sources.
pub(crate) enum Scalar<'a> {
    /// A column of source `source`.
    Column {
        source: usize,
        data: &'a ColumnData,
    },
    Const(Value),
    Neg(Box<Scalar<'a>>),
    /// `&`, `|` or `^` over two integers.
    Bits(BinaryOp, Box<Scalar<'a>>, Box<Scalar<'a>>),
    /// `+`, `-`, `*` or `/` in floating point.
    Arith(BinaryOp, Box<Scalar<'a>>, Box<Scalar<'a>>),
    /// A scalar function call: lower-cased name and arguments.
    Func(String, Vec<Scalar<'a>>),
    /// A deferred error.
    Fail(ExecError),
}

impl Scalar<'_> {
    /// Evaluates against one candidate tuple. Columns and constants, the
    /// leaves of every hot predicate, are read inline.
    #[inline]
    pub(crate) fn eval(&self, row: &RowIds) -> Result<Cell<'_>, ExecError> {
        match self {
            Scalar::Column { source, data } => Ok(data.cell(row[*source])),
            Scalar::Const(v) => Ok(Cell::of(v)),
            _ => self.eval_compound(row),
        }
    }

    #[inline(never)]
    fn eval_compound(&self, row: &RowIds) -> Result<Cell<'_>, ExecError> {
        Ok(match self {
            Scalar::Column { .. } | Scalar::Const(_) => unreachable!("read inline by eval"),
            Scalar::Neg(e) => match e.eval(row)? {
                Cell::Int(i) => Cell::Int(-i),
                Cell::Float(f) => Cell::Float(-f),
                _ => Cell::Null,
            },
            Scalar::Bits(op, left, right) => match (left.eval(row)?, right.eval(row)?) {
                (Cell::Int(a), Cell::Int(b)) => Cell::Int(match op {
                    BinaryOp::BitAnd => a & b,
                    BinaryOp::BitOr => a | b,
                    _ => a ^ b,
                }),
                _ => Cell::Null,
            },
            Scalar::Arith(op, left, right) => arith(*op, &left.eval(row)?, &right.eval(row)?),
            Scalar::Func(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(row)?);
                }
                return scalar_function(name, &vals);
            }
            Scalar::Fail(e) => return Err(e.clone()),
        })
    }
}

/// What a [`Pred`] compares: a row-level [`Scalar`] or a group-level
/// expression.
pub(crate) trait Operand {
    /// False when evaluation provably cannot return an error.
    fn can_fail(&self) -> bool;
}

impl Operand for Scalar<'_> {
    fn can_fail(&self) -> bool {
        match self {
            Scalar::Column { .. } | Scalar::Const(_) => false,
            Scalar::Neg(e) => e.can_fail(),
            Scalar::Bits(_, l, r) | Scalar::Arith(_, l, r) => l.can_fail() || r.can_fail(),
            // Functions fail on argument types (`upper(1)`) and arity.
            Scalar::Func(..) | Scalar::Fail(_) => true,
        }
    }
}

/// A three-valued predicate over operands `S`.
pub(crate) enum Pred<S> {
    /// `left AND right`, or `left OR right` when `or`.
    Junction {
        or: bool,
        left: Box<Pred<S>>,
        right: Box<Pred<S>>,
        right_fails: bool,
    },
    Not(Box<Pred<S>>),
    Cmp(BinaryOp, S, S),
    Between {
        expr: S,
        low: S,
        high: S,
        negated: bool,
    },
    In {
        expr: S,
        list: Vec<S>,
        negated: bool,
    },
    IsNull(S, bool),
    Like {
        expr: S,
        pattern: S,
        negated: bool,
    },
    /// A deferred error.
    Fail(ExecError),
}

/// Where a predicate is evaluated: WHERE/ON over rows, or HAVING over
/// groups (comparisons under AND/OR/NOT only).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    Row,
    Group,
}

impl<S: Operand> Pred<S> {
    /// Binds a predicate whose operands `scalar` binds.
    pub(crate) fn bind(e: &Expr, scalar: &impl Fn(&Expr) -> S, level: Level) -> Pred<S> {
        let sub = |e: &Expr| Pred::bind(e, scalar, level);
        match e {
            Expr::Binary {
                left,
                op: op @ (BinaryOp::And | BinaryOp::Or),
                right,
            } => Pred::junction(*op == BinaryOp::Or, sub(left), sub(right)),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => Pred::Not(Box::new(sub(expr))),
            Expr::Binary { left, op, right } if op.is_comparison() => {
                Pred::Cmp(*op, scalar(left), scalar(right))
            }
            Expr::Nested(inner) => Pred::bind(inner, scalar, level),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } if level == Level::Row => Pred::Between {
                expr: scalar(expr),
                low: scalar(low),
                high: scalar(high),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } if level == Level::Row => Pred::In {
                expr: scalar(expr),
                list: list.iter().map(scalar).collect(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } if level == Level::Row => {
                Pred::IsNull(scalar(expr), *negated)
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } if level == Level::Row => Pred::Like {
                expr: scalar(expr),
                pattern: scalar(pattern),
                negated: *negated,
            },
            other => Pred::Fail(ExecError::Unsupported(match level {
                Level::Row => format!("predicate {other:?}"),
                Level::Group => format!("HAVING predicate {other:?}"),
            })),
        }
    }

    /// `left AND right`, or `left OR right` when `or`.
    pub(crate) fn junction(or: bool, left: Pred<S>, right: Pred<S>) -> Pred<S> {
        Pred::Junction {
            or,
            right_fails: right.can_fail(),
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn can_fail(&self) -> bool {
        match self {
            Pred::Junction { left, right, .. } => left.can_fail() || right.can_fail(),
            Pred::Not(p) => p.can_fail(),
            Pred::Cmp(_, l, r) => l.can_fail() || r.can_fail(),
            Pred::Between {
                expr, low, high, ..
            } => expr.can_fail() || low.can_fail() || high.can_fail(),
            Pred::In { expr, list, .. } => expr.can_fail() || list.iter().any(S::can_fail),
            Pred::IsNull(e, _) => e.can_fail(),
            Pred::Like { expr, pattern, .. } => expr.can_fail() || pattern.can_fail(),
            Pred::Fail(_) => true,
        }
    }
}

impl<S> Pred<S> {
    /// Evaluates with `operand` evaluating each operand (`None` = unknown).
    /// Comparisons, the leaves of every hot predicate, are evaluated inline.
    #[inline]
    pub(crate) fn eval<'s>(
        &'s self,
        operand: &impl Fn(&'s S) -> Result<Cell<'s>, ExecError>,
    ) -> Result<Option<bool>, ExecError> {
        match self {
            Pred::Cmp(op, left, right) => {
                let (a, b) = (operand(left)?, operand(right)?);
                Ok(a.compare(&b).map(|ord| match op {
                    BinaryOp::Eq => ord.is_eq(),
                    BinaryOp::NotEq => !ord.is_eq(),
                    BinaryOp::Lt => ord.is_lt(),
                    BinaryOp::LtEq => ord.is_le(),
                    BinaryOp::Gt => ord.is_gt(),
                    BinaryOp::GtEq => ord.is_ge(),
                    _ => unreachable!("bound comparisons only"),
                }))
            }
            _ => self.eval_compound(operand),
        }
    }

    #[inline(never)]
    fn eval_compound<'s>(
        &'s self,
        operand: &impl Fn(&'s S) -> Result<Cell<'s>, ExecError>,
    ) -> Result<Option<bool>, ExecError> {
        Ok(match self {
            Pred::Junction {
                or,
                left,
                right,
                right_fails,
            } => {
                // FALSE decides an AND, TRUE an OR; the right side is
                // evaluated anyway when it could fail.
                let decisive = Some(*or);
                let a = left.eval(operand)?;
                if a == decisive && !right_fails {
                    return Ok(a);
                }
                let b = right.eval(operand)?;
                if a == decisive || b == decisive {
                    decisive
                } else if a.is_some() && b.is_some() {
                    Some(!or)
                } else {
                    None
                }
            }
            Pred::Not(p) => p.eval(operand)?.map(|b| !b),
            Pred::Cmp(..) => unreachable!("evaluated inline by eval"),
            Pred::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let v = operand(expr)?;
                let (lo, hi) = (operand(low)?, operand(high)?);
                match (v.compare(&lo), v.compare(&hi)) {
                    (Some(a), Some(b)) => Some((a.is_ge() && b.is_le()) != *negated),
                    _ => None,
                }
            }
            Pred::In {
                expr,
                list,
                negated,
            } => {
                let v = operand(expr)?;
                if v.is_null() {
                    return Ok(None);
                }
                let mut saw_null = false;
                for item in list {
                    let w = operand(item)?;
                    if w.is_null() {
                        saw_null = true;
                    } else if v.sql_eq(&w) {
                        return Ok(Some(!*negated));
                    }
                }
                if saw_null {
                    None
                } else {
                    Some(*negated)
                }
            }
            Pred::IsNull(e, negated) => Some(operand(e)?.is_null() != *negated),
            Pred::Like {
                expr,
                pattern,
                negated,
            } => match (operand(expr)?, operand(pattern)?) {
                (Cell::Str(t), Cell::Str(p)) => Some(like_match(&t, &p) != *negated),
                (Cell::Null, _) | (_, Cell::Null) => None,
                _ => Some(*negated),
            },
            Pred::Fail(e) => return Err(e.clone()),
        })
    }
}

/// Binds expressions to a query's sources.
pub(crate) struct Binder<'s, 'a> {
    pub(crate) sources: &'s [Source<'a>],
}

impl<'a> Binder<'_, 'a> {
    /// Binds a scalar expression.
    pub(crate) fn scalar(&self, e: &Expr) -> Scalar<'a> {
        let sub = |e: &Expr| Box::new(self.scalar(e));
        match e {
            Expr::Column(name) => self.column(name),
            Expr::Literal(lit) => Scalar::Const(literal_value(lit)),
            Expr::Nested(inner)
            | Expr::Unary {
                op: UnaryOp::Plus,
                expr: inner,
            } => self.scalar(inner),
            Expr::Unary {
                op: UnaryOp::Minus,
                expr,
            } => Scalar::Neg(sub(expr)),
            Expr::Binary { left, op, right }
                if matches!(op, BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor) =>
            {
                Scalar::Bits(*op, sub(left), sub(right))
            }
            Expr::Binary { left, op, right } if is_arith(*op) => {
                Scalar::Arith(*op, sub(left), sub(right))
            }
            Expr::Function {
                name,
                args,
                distinct: false,
            } => Scalar::Func(
                name.last().normalized(),
                args.iter().map(|a| self.scalar(a)).collect(),
            ),
            other => Scalar::Fail(ExecError::Unsupported(format!(
                "scalar expression {other:?}"
            ))),
        }
    }

    /// Binds a WHERE/ON predicate.
    pub(crate) fn pred(&self, e: &Expr) -> Pred<Scalar<'a>> {
        Pred::bind(e, &|e| self.scalar(e), Level::Row)
    }

    /// Resolves a column reference: a qualifier picks the first source it
    /// names (by binding or table name) and the column must be there; an
    /// unqualified name takes the first source that has the column.
    fn column(&self, name: &ObjectName) -> Scalar<'a> {
        let col = &name.last().value;
        let found = match name.qualifier().last() {
            Some(q) => self
                .sources
                .iter()
                .enumerate()
                .find(|(_, s)| {
                    s.binding.eq_ignore_ascii_case(&q.value)
                        || s.table.name.eq_ignore_ascii_case(&q.value)
                })
                .and_then(|(si, s)| Some((si, s.table.column(col)?))),
            None => self
                .sources
                .iter()
                .enumerate()
                .find_map(|(si, s)| Some((si, s.table.column(col)?))),
        };
        match found {
            Some((source, c)) => Scalar::Column {
                source,
                data: &c.data,
            },
            None => Scalar::Fail(ExecError::UnknownColumn(name.to_string())),
        }
    }
}

/// The value of a literal. Numbers are integers when they fit (hex too),
/// else floats; a number that parses as neither is NULL.
pub(crate) fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Number(text) => {
            if let Ok(i) = text.parse::<i64>() {
                Value::Int(i)
            } else if let Some(hex) = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
                i64::from_str_radix(hex, 16).map_or(Value::Null, Value::Int)
            } else {
                text.parse::<f64>().map_or(Value::Null, Value::Float)
            }
        }
        Literal::String(s) => Value::Str(s.clone()),
        Literal::Null => Value::Null,
        Literal::Boolean(b) => Value::Int(i64::from(*b)),
    }
}

/// True for `+ - * /`, the operators [`arith`] evaluates.
pub(crate) fn is_arith(op: BinaryOp) -> bool {
    matches!(
        op,
        BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Divide
    )
}

/// `+ - * /` in floating point; NULL when either side is not a number or
/// on division by zero.
pub(crate) fn arith(op: BinaryOp, a: &Cell<'_>, b: &Cell<'_>) -> Cell<'static> {
    let (a, b) = match (a, b) {
        (Cell::Int(a), Cell::Int(b)) => (*a as f64, *b as f64),
        (Cell::Float(a), Cell::Float(b)) => (*a, *b),
        (Cell::Int(a), Cell::Float(b)) => (*a as f64, *b),
        (Cell::Float(a), Cell::Int(b)) => (*a, *b as f64),
        _ => return Cell::Null,
    };
    Cell::Float(match op {
        BinaryOp::Plus => a + b,
        BinaryOp::Minus => a - b,
        BinaryOp::Multiply => a * b,
        _ => {
            if b == 0.0 {
                return Cell::Null;
            }
            a / b
        }
    })
}

/// Built-in scalar functions: the numeric/string helpers that show up in
/// logged SkyServer queries (`abs`, `floor`, `ceiling`, `sqrt`, `power`,
/// `round`, `str`, `upper`, `lower`, `len`).
fn scalar_function<'s>(name: &str, args: &[Cell<'_>]) -> Result<Cell<'s>, ExecError> {
    let num = |v: &Cell<'_>| -> Option<f64> {
        match v {
            Cell::Int(i) => Some(*i as f64),
            Cell::Float(f) => Some(*f),
            _ => None,
        }
    };
    let unary_num = |f: fn(f64) -> f64| -> Result<Cell<'s>, ExecError> {
        match args {
            [v] => Ok(num(v).map_or(Cell::Null, |x| Cell::Float(f(x)))),
            _ => Err(ExecError::Unsupported(format!("{name} takes one argument"))),
        }
    };
    let text = |s: String| Ok(Cell::Str(Cow::Owned(s)));
    match name {
        "abs" => match args {
            [Cell::Int(i)] => Ok(Cell::Int(i.abs())),
            [v] => Ok(num(v).map_or(Cell::Null, |x| Cell::Float(x.abs()))),
            _ => Err(ExecError::Unsupported("abs takes one argument".into())),
        },
        "floor" => unary_num(f64::floor),
        "ceiling" | "ceil" => unary_num(f64::ceil),
        "sqrt" => unary_num(f64::sqrt),
        "round" => match args {
            [v] => Ok(num(v).map_or(Cell::Null, |x| Cell::Float(x.round()))),
            [v, d] => {
                let (Some(x), Some(d)) = (num(v), num(d)) else {
                    return Ok(Cell::Null);
                };
                let m = 10f64.powi(d as i32);
                Ok(Cell::Float((x * m).round() / m))
            }
            _ => Err(ExecError::Unsupported("round takes 1–2 arguments".into())),
        },
        "power" => match args {
            [a, b] => match (num(a), num(b)) {
                (Some(x), Some(y)) => Ok(Cell::Float(x.powf(y))),
                _ => Ok(Cell::Null),
            },
            _ => Err(ExecError::Unsupported("power takes two arguments".into())),
        },
        // SQL Server's `str(float [, length [, decimals]])`.
        "str" => match args {
            [] => Err(ExecError::Unsupported("str takes 1–3 arguments".into())),
            [v, rest @ ..] if rest.len() <= 2 => {
                let Some(x) = num(v) else {
                    return Ok(Cell::Null);
                };
                let decimals = rest.get(1).and_then(num).unwrap_or(0.0) as usize;
                text(format!("{x:.decimals$}"))
            }
            _ => Err(ExecError::Unsupported("str takes 1–3 arguments".into())),
        },
        "upper" => match args {
            [Cell::Str(s)] => text(s.to_uppercase()),
            [Cell::Null] => Ok(Cell::Null),
            _ => Err(ExecError::Unsupported("upper takes one string".into())),
        },
        "lower" => match args {
            [Cell::Str(s)] => text(s.to_lowercase()),
            [Cell::Null] => Ok(Cell::Null),
            _ => Err(ExecError::Unsupported("lower takes one string".into())),
        },
        "len" | "length" => match args {
            [Cell::Str(s)] => Ok(Cell::Int(s.chars().count() as i64)),
            [Cell::Null] => Ok(Cell::Null),
            _ => Err(ExecError::Unsupported("len takes one string".into())),
        },
        other => Err(ExecError::Unsupported(format!("function {other}"))),
    }
}

/// SQL LIKE with `%` (any byte run) and `_` (one byte), ASCII
/// case-insensitive. On a mismatch it backtracks only to the last `%`,
/// letting that `%` absorb one more byte, so the cost is at most
/// `text × pattern` steps however many `%` the pattern has.
pub(crate) fn like_match(text: &str, pattern: &str) -> bool {
    let (t, p) = (text.as_bytes(), pattern.as_bytes());
    let (mut ti, mut pi) = (0, 0);
    // After the last `%` seen: the pattern index past it, and the text
    // index it has absorbed up to.
    let mut resume: Option<(usize, usize)> = None;
    while ti < t.len() {
        match p.get(pi) {
            Some(b'%') => {
                pi += 1;
                resume = Some((pi, ti));
            }
            Some(&c) if c == b'_' || c.eq_ignore_ascii_case(&t[ti]) => {
                pi += 1;
                ti += 1;
            }
            _ => match &mut resume {
                Some((after, absorbed)) => {
                    *absorbed += 1;
                    (pi, ti) = (*after, *absorbed);
                }
                None => return false,
            },
        }
    }
    p[pi..].iter().all(|&c| c == b'%')
}

/// Orders two sort-key tuples: column by column, ascending where `asc`
/// says so, incomparable keys (NULLs) as equal.
pub(crate) fn cmp_keys(a: &[Cell<'_>], b: &[Cell<'_>], asc: &[bool]) -> Ordering {
    for ((x, y), &asc) in a.iter().zip(b).zip(asc) {
        let ord = x.compare(y).unwrap_or(Ordering::Equal);
        let ord = if asc { ord } else { ord.reverse() };
        if !ord.is_eq() {
            return ord;
        }
    }
    Ordering::Equal
}
