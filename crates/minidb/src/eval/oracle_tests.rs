//! Differential tests of bound evaluation against the AST interpreter it
//! replaced, which resolved every column by name and re-read every literal
//! for each row. Over random tables and random expressions both must return
//! the identical `Result` per row and per group, error text included; the
//! linear LIKE matcher must agree with the recursive one.

use super::*;
use crate::aggregate::GroupScalar;
use crate::table::Table;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Reference row context: one row id per source, columns looked up by name.
struct OracleRow<'a, 'b> {
    sources: &'b [Source<'a>],
    rows: &'b [usize],
}

impl OracleRow<'_, '_> {
    fn resolve(&self, name: &ObjectName) -> Result<Value, ExecError> {
        let col = name.last().normalized();
        if let Some(qualifier) = name.qualifier().last() {
            for (si, s) in self.sources.iter().enumerate() {
                if s.binding.eq_ignore_ascii_case(&qualifier.value)
                    || s.table.name.eq_ignore_ascii_case(&qualifier.value)
                {
                    let c = s
                        .table
                        .column(&col)
                        .ok_or_else(|| ExecError::UnknownColumn(name.to_string()))?;
                    return Ok(c.data.get(self.rows[si]));
                }
            }
            return Err(ExecError::UnknownColumn(name.to_string()));
        }
        for (si, s) in self.sources.iter().enumerate() {
            if let Some(c) = s.table.column(&col) {
                return Ok(c.data.get(self.rows[si]));
            }
        }
        Err(ExecError::UnknownColumn(name.to_string()))
    }
}

fn oracle_literal_value(lit: &Literal) -> Value {
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

fn oracle_eval_scalar(expr: &Expr, ctx: &OracleRow<'_, '_>) -> Result<Value, ExecError> {
    match expr {
        Expr::Column(name) => ctx.resolve(name),
        Expr::Literal(lit) => Ok(oracle_literal_value(lit)),
        Expr::Nested(inner) => oracle_eval_scalar(inner, ctx),
        Expr::Unary {
            op: UnaryOp::Minus,
            expr,
        } => match oracle_eval_scalar(expr, ctx)? {
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            _ => Ok(Value::Null),
        },
        Expr::Unary {
            op: UnaryOp::Plus,
            expr,
        } => oracle_eval_scalar(expr, ctx),
        Expr::Binary { left, op, right }
            if matches!(op, BinaryOp::BitAnd | BinaryOp::BitOr | BinaryOp::BitXor) =>
        {
            let (a, b) = (
                oracle_eval_scalar(left, ctx)?,
                oracle_eval_scalar(right, ctx)?,
            );
            match (a, b) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(match op {
                    BinaryOp::BitAnd => a & b,
                    BinaryOp::BitOr => a | b,
                    _ => a ^ b,
                })),
                _ => Ok(Value::Null),
            }
        }
        Expr::Binary { left, op, right }
            if matches!(
                op,
                BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Divide
            ) =>
        {
            let (a, b) = (
                oracle_eval_scalar(left, ctx)?,
                oracle_eval_scalar(right, ctx)?,
            );
            let (a, b) = match (a, b) {
                (Value::Int(a), Value::Int(b)) => (a as f64, b as f64),
                (Value::Float(a), Value::Float(b)) => (a, b),
                (Value::Int(a), Value::Float(b)) => (a as f64, b),
                (Value::Float(a), Value::Int(b)) => (a, b as f64),
                _ => return Ok(Value::Null),
            };
            let r = match op {
                BinaryOp::Plus => a + b,
                BinaryOp::Minus => a - b,
                BinaryOp::Multiply => a * b,
                _ => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
            };
            Ok(Value::Float(r))
        }
        Expr::Function {
            name,
            args,
            distinct: false,
        } => {
            let fname = name.last().normalized();
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(oracle_eval_scalar(a, ctx)?);
            }
            oracle_scalar_function(&fname, &vals)
        }
        other => Err(ExecError::Unsupported(format!(
            "scalar expression {other:?}"
        ))),
    }
}

fn oracle_scalar_function(name: &str, args: &[Value]) -> Result<Value, ExecError> {
    let num = |v: &Value| -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    };
    let unary_num = |f: fn(f64) -> f64| -> Result<Value, ExecError> {
        match args {
            [v] => Ok(num(v).map_or(Value::Null, |x| Value::Float(f(x)))),
            _ => Err(ExecError::Unsupported(format!("{name} takes one argument"))),
        }
    };
    match name {
        "abs" => match args {
            [Value::Int(i)] => Ok(Value::Int(i.abs())),
            [v] => Ok(num(v).map_or(Value::Null, |x| Value::Float(x.abs()))),
            _ => Err(ExecError::Unsupported("abs takes one argument".into())),
        },
        "floor" => unary_num(f64::floor),
        "ceiling" | "ceil" => unary_num(f64::ceil),
        "sqrt" => unary_num(f64::sqrt),
        "round" => match args {
            [v] => Ok(num(v).map_or(Value::Null, |x| Value::Float(x.round()))),
            [v, d] => {
                let (Some(x), Some(d)) = (num(v), num(d)) else {
                    return Ok(Value::Null);
                };
                let m = 10f64.powi(d as i32);
                Ok(Value::Float((x * m).round() / m))
            }
            _ => Err(ExecError::Unsupported("round takes 1–2 arguments".into())),
        },
        "power" => match args {
            [a, b] => match (num(a), num(b)) {
                (Some(x), Some(y)) => Ok(Value::Float(x.powf(y))),
                _ => Ok(Value::Null),
            },
            _ => Err(ExecError::Unsupported("power takes two arguments".into())),
        },
        "str" => match args {
            [] => Err(ExecError::Unsupported("str takes 1–3 arguments".into())),
            [v, rest @ ..] if rest.len() <= 2 => {
                let Some(x) = num(v) else {
                    return Ok(Value::Null);
                };
                let decimals = rest.get(1).and_then(num).unwrap_or(0.0) as usize;
                Ok(Value::Str(format!("{x:.decimals$}")))
            }
            _ => Err(ExecError::Unsupported("str takes 1–3 arguments".into())),
        },
        "upper" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.to_uppercase())),
            [Value::Null] => Ok(Value::Null),
            _ => Err(ExecError::Unsupported("upper takes one string".into())),
        },
        "lower" => match args {
            [Value::Str(s)] => Ok(Value::Str(s.to_lowercase())),
            [Value::Null] => Ok(Value::Null),
            _ => Err(ExecError::Unsupported("lower takes one string".into())),
        },
        "len" | "length" => match args {
            [Value::Str(s)] => Ok(Value::Int(s.chars().count() as i64)),
            [Value::Null] => Ok(Value::Null),
            _ => Err(ExecError::Unsupported("len takes one string".into())),
        },
        other => Err(ExecError::Unsupported(format!("function {other}"))),
    }
}

/// Reference LIKE: recursion over every split at each `%`.
fn oracle_like_match(text: &str, pattern: &str) -> bool {
    fn rec(t: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some(b'%') => (0..=t.len()).any(|k| rec(&t[k..], &p[1..])),
            Some(b'_') => !t.is_empty() && rec(&t[1..], &p[1..]),
            Some(&c) => !t.is_empty() && t[0].eq_ignore_ascii_case(&c) && rec(&t[1..], &p[1..]),
        }
    }
    rec(text.as_bytes(), pattern.as_bytes())
}

fn oracle_eval_pred(expr: &Expr, ctx: &OracleRow<'_, '_>) -> Result<Option<bool>, ExecError> {
    match expr {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let (a, b) = (oracle_eval_pred(left, ctx)?, oracle_eval_pred(right, ctx)?);
            Ok(match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
        }
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let (a, b) = (oracle_eval_pred(left, ctx)?, oracle_eval_pred(right, ctx)?);
            Ok(match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Ok(oracle_eval_pred(expr, ctx)?.map(|b| !b)),
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let (a, b) = (
                oracle_eval_scalar(left, ctx)?,
                oracle_eval_scalar(right, ctx)?,
            );
            let Some(ord) = a.compare(&b) else {
                return Ok(None);
            };
            Ok(Some(match op {
                BinaryOp::Eq => ord.is_eq(),
                BinaryOp::NotEq => !ord.is_eq(),
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::LtEq => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::GtEq => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let v = oracle_eval_scalar(expr, ctx)?;
            let (lo, hi) = (
                oracle_eval_scalar(low, ctx)?,
                oracle_eval_scalar(high, ctx)?,
            );
            let (Some(a), Some(b)) = (v.compare(&lo), v.compare(&hi)) else {
                return Ok(None);
            };
            let inside = a.is_ge() && b.is_le();
            Ok(Some(inside != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = oracle_eval_scalar(expr, ctx)?;
            if v.is_null() {
                return Ok(None);
            }
            let mut saw_null = false;
            for item in list {
                let w = oracle_eval_scalar(item, ctx)?;
                if w.is_null() {
                    saw_null = true;
                } else if v.sql_eq(&w) {
                    return Ok(Some(!*negated));
                }
            }
            if saw_null {
                Ok(None)
            } else {
                Ok(Some(*negated))
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = oracle_eval_scalar(expr, ctx)?;
            Ok(Some(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let (v, p) = (
                oracle_eval_scalar(expr, ctx)?,
                oracle_eval_scalar(pattern, ctx)?,
            );
            match (v, p) {
                (Value::Str(t), Value::Str(p)) => Ok(Some(oracle_like_match(&t, &p) != *negated)),
                (Value::Null, _) | (_, Value::Null) => Ok(None),
                _ => Ok(Some(*negated)),
            }
        }
        Expr::Nested(inner) => oracle_eval_pred(inner, ctx),
        other => Err(ExecError::Unsupported(format!("predicate {other:?}"))),
    }
}

/// Reference aggregate: one call over the rows of a group.
fn oracle_eval_aggregate(
    name: &str,
    args: &[Expr],
    distinct: bool,
    group: &[OracleRow<'_, '_>],
) -> Result<Value, ExecError> {
    // Collect the argument values (None for `count(*)`).
    let arg = match args {
        [Expr::Wildcard] | [] => None,
        [e] => Some(e),
        _ => {
            return Err(ExecError::Unsupported(format!(
                "aggregate {name} with {} arguments",
                args.len()
            )))
        }
    };
    let mut values: Vec<Value> = Vec::with_capacity(group.len());
    for ctx in group {
        match arg {
            None => values.push(Value::Int(1)),
            Some(e) => values.push(oracle_eval_scalar(e, ctx)?),
        }
    }
    if arg.is_some() {
        // SQL aggregates skip NULLs.
        values.retain(|v| !v.is_null());
    }
    if distinct {
        let mut seen: Vec<Value> = Vec::new();
        values.retain(|v| {
            if seen.iter().any(|s| s.sql_eq(v)) {
                false
            } else {
                seen.push(v.clone());
                true
            }
        });
    }
    let numeric = |v: &Value| -> Option<f64> {
        match v {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    };
    Ok(match name {
        "count" => Value::Int(values.len() as i64),
        "sum" => {
            let mut acc = 0.0;
            for v in &values {
                acc += numeric(v)
                    .ok_or_else(|| ExecError::Unsupported("SUM over non-numeric values".into()))?;
            }
            Value::Float(acc)
        }
        "avg" => {
            if values.is_empty() {
                Value::Null
            } else {
                let mut acc = 0.0;
                for v in &values {
                    acc += numeric(v).ok_or_else(|| {
                        ExecError::Unsupported("AVG over non-numeric values".into())
                    })?;
                }
                Value::Float(acc / values.len() as f64)
            }
        }
        "min" | "max" => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => match v.compare(&b) {
                        Some(std::cmp::Ordering::Less) if name == "min" => v,
                        Some(std::cmp::Ordering::Greater) if name == "max" => v,
                        _ => b,
                    },
                });
            }
            best.unwrap_or(Value::Null)
        }
        other => return Err(ExecError::Unsupported(format!("aggregate {other}"))),
    })
}

/// Reference group-context evaluation: aggregate calls range over the
/// group, anything else is evaluated on its first row.
fn oracle_eval_group_scalar(e: &Expr, group: &[OracleRow<'_, '_>]) -> Result<Value, ExecError> {
    match e {
        Expr::Function {
            name,
            args,
            distinct,
        } if matches!(
            name.last().normalized().as_str(),
            "count" | "sum" | "avg" | "min" | "max"
        ) =>
        {
            oracle_eval_aggregate(&name.last().normalized(), args, *distinct, group)
        }
        Expr::Binary { left, op, right }
            if matches!(
                op,
                BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Multiply | BinaryOp::Divide
            ) =>
        {
            let (a, b) = (
                oracle_eval_group_scalar(left, group)?,
                oracle_eval_group_scalar(right, group)?,
            );
            let (x, y) = match (a, b) {
                (Value::Int(a), Value::Int(b)) => (a as f64, b as f64),
                (Value::Float(a), Value::Float(b)) => (a, b),
                (Value::Int(a), Value::Float(b)) => (a as f64, b),
                (Value::Float(a), Value::Int(b)) => (a, b as f64),
                _ => return Ok(Value::Null),
            };
            Ok(match op {
                BinaryOp::Plus => Value::Float(x + y),
                BinaryOp::Minus => Value::Float(x - y),
                BinaryOp::Multiply => Value::Float(x * y),
                _ => {
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(x / y)
                    }
                }
            })
        }
        Expr::Nested(inner) => oracle_eval_group_scalar(inner, group),
        other => {
            let first = group
                .first()
                .ok_or_else(|| ExecError::Unsupported("empty group".into()))?;
            oracle_eval_scalar(other, first)
        }
    }
}

/// Reference HAVING evaluation.
fn oracle_eval_group_pred(
    e: &Expr,
    group: &[OracleRow<'_, '_>],
) -> Result<Option<bool>, ExecError> {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let (a, b) = (
                oracle_eval_group_pred(left, group)?,
                oracle_eval_group_pred(right, group)?,
            );
            Ok(match (a, b) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            })
        }
        Expr::Binary {
            left,
            op: BinaryOp::Or,
            right,
        } => {
            let (a, b) = (
                oracle_eval_group_pred(left, group)?,
                oracle_eval_group_pred(right, group)?,
            );
            Ok(match (a, b) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            })
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => Ok(oracle_eval_group_pred(expr, group)?.map(|b| !b)),
        Expr::Binary { left, op, right } if op.is_comparison() => {
            let (a, b) = (
                oracle_eval_group_scalar(left, group)?,
                oracle_eval_group_scalar(right, group)?,
            );
            let Some(ord) = a.compare(&b) else {
                return Ok(None);
            };
            Ok(Some(match op {
                BinaryOp::Eq => ord.is_eq(),
                BinaryOp::NotEq => !ord.is_eq(),
                BinaryOp::Lt => ord.is_lt(),
                BinaryOp::LtEq => ord.is_le(),
                BinaryOp::Gt => ord.is_gt(),
                BinaryOp::GtEq => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        Expr::Nested(inner) => oracle_eval_group_pred(inner, group),
        other => Err(ExecError::Unsupported(format!(
            "HAVING predicate {other:?}"
        ))),
    }
}

/// The FROM clause under test: table `t` alone, `t` joined with `u` (which
/// shares the column names `b` and `c`), `t` joined with itself, or `t`
/// joined with `u` aliased `t`.
#[derive(Debug, Clone)]
struct FromClause {
    tables: Vec<Table>,
    bindings: Vec<&'static str>,
}

impl FromClause {
    fn sources(&self) -> Vec<Source<'_>> {
        self.tables
            .iter()
            .zip(&self.bindings)
            .map(|(table, binding)| Source {
                binding: binding.to_string(),
                table,
            })
            .collect()
    }

    /// Every candidate tuple, in nested-loop order.
    fn tuples(&self) -> Vec<RowIds> {
        let rows = |i: usize| self.tables.get(i).map_or(1, Table::rows);
        (0..rows(0))
            .flat_map(|a| (0..rows(1)).map(move |b| [a, b]))
            .collect()
    }
}

/// Four cells of one type, NULLs included; `table` keeps as many as the
/// table has rows.
fn column_strategy() -> impl Strategy<Value = ColumnData> {
    prop_oneof![
        prop::collection::vec(
            prop_oneof![3 => (-4i64..5).prop_map(Some), 1 => Just(None)],
            4
        )
        .prop_map(ColumnData::Int),
        prop::collection::vec(
            prop_oneof![3 => (-4i64..5).prop_map(|i| Some(i as f64 / 2.0)), 1 => Just(None)],
            4
        )
        .prop_map(ColumnData::Float),
        prop::collection::vec(
            prop_oneof![3 => "[abAé%_]{0,3}".prop_map(Some), 1 => Just(None)],
            4
        )
        .prop_map(ColumnData::Str),
    ]
}

fn table(name: &str, columns: [&str; 3], rows: usize, data: Vec<ColumnData>) -> Table {
    let mut t = Table::new(name);
    for (col, data) in columns.into_iter().zip(data) {
        t.add_column(
            col,
            match data {
                ColumnData::Int(mut v) => {
                    v.truncate(rows);
                    ColumnData::Int(v)
                }
                ColumnData::Float(mut v) => {
                    v.truncate(rows);
                    ColumnData::Float(v)
                }
                ColumnData::Str(mut v) => {
                    v.truncate(rows);
                    ColumnData::Str(v)
                }
            },
        );
    }
    t
}

fn from_strategy() -> impl Strategy<Value = FromClause> {
    (
        0u8..4,
        0u8..2,
        (1usize..5, 1usize..5),
        prop::collection::vec(column_strategy(), 3),
        prop::collection::vec(column_strategy(), 3),
    )
        .prop_map(|(shape, aliased, (rows_t, rows_u), t_cols, u_cols)| {
            let t = table("T", ["a", "b", "c"], rows_t, t_cols);
            match shape {
                0 => FromClause {
                    tables: vec![t],
                    bindings: vec![if aliased == 1 { "x" } else { "t" }],
                },
                1 => FromClause {
                    tables: vec![t, table("u", ["b", "C", "d"], rows_u, u_cols)],
                    bindings: if aliased == 1 {
                        vec!["x", "y"]
                    } else {
                        vec!["t", "u"]
                    },
                },
                2 => FromClause {
                    tables: vec![t.clone(), t],
                    bindings: vec!["x", "y"],
                },
                // `t` names the first source by table name and the second
                // by alias: a qualified column resolves in the first only.
                _ => FromClause {
                    tables: vec![t, table("u", ["b", "C", "d"], rows_u, u_cols)],
                    bindings: vec!["x", "t"],
                },
            }
        })
}

fn name_strategy() -> impl Strategy<Value = ObjectName> {
    let column = prop_oneof![Just("a"), Just("B"), Just("c"), Just("d"), Just("nosuch")];
    let qualifier = prop_oneof![
        3 => Just(None),
        1 => Just(Some("t")),
        1 => Just(Some("U")),
        1 => Just(Some("x")),
        1 => Just(Some("Y")),
        1 => Just(Some("z")),
    ];
    (qualifier, column)
        .prop_map(|(q, c)| ObjectName(q.into_iter().chain([c]).map(Ident::new).collect()))
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    let number = prop_oneof![
        Just("0"),
        Just("1"),
        Just("3"),
        Just("-2"),
        Just("2.5"),
        Just("19.50"),
        Just("1e3"),
        Just("0x1F"),
        Just("0XfF"),
        Just("0x"),
        Just("0x7FFFFFFFFFFFFFFF"),
        Just("0xFFFFFFFFFFFFFFFFF"),
        Just("99999999999999999999"),
        Just("1.2.3"),
    ];
    prop_oneof![
        4 => number.prop_map(|n| Literal::Number(n.to_string())),
        2 => "[abAé%_]{0,3}".prop_map(Literal::String),
        1 => Just(Literal::Null),
        1 => (0u8..2).prop_map(|b| Literal::Boolean(b == 1)),
    ]
}

fn boxed(e: Expr) -> Box<Expr> {
    Box::new(e)
}

fn scalar_strategy() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        4 => name_strategy().prop_map(Expr::Column),
        4 => literal_strategy().prop_map(Expr::Literal),
        1 => Just(Expr::Variable("@x".into())),
        1 => Just(Expr::Wildcard),
    ];
    let binary = prop_oneof![
        Just(BinaryOp::Plus),
        Just(BinaryOp::Minus),
        Just(BinaryOp::Multiply),
        Just(BinaryOp::Divide),
        Just(BinaryOp::BitAnd),
        Just(BinaryOp::BitOr),
        Just(BinaryOp::BitXor),
        Just(BinaryOp::Modulo),
        Just(BinaryOp::Eq),
    ]
    .boxed();
    let unary = prop_oneof![
        Just(UnaryOp::Minus),
        Just(UnaryOp::Plus),
        Just(UnaryOp::Not)
    ]
    .boxed();
    let function = prop_oneof![
        Just("abs"),
        Just("floor"),
        Just("ceiling"),
        Just("ceil"),
        Just("sqrt"),
        Just("round"),
        Just("power"),
        Just("str"),
        Just("upper"),
        Just("LOWER"),
        Just("len"),
        Just("length"),
        Just("frob"),
        Just("count"),
    ]
    .boxed();
    leaf.prop_recursive(3, 24, 3, move |inner| {
        prop_oneof![
            1 => (unary.clone(), inner.clone()).prop_map(|(op, e)| Expr::Unary {
                op,
                expr: boxed(e)
            }),
            3 => (binary.clone(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| {
                Expr::Binary {
                    left: boxed(l),
                    op,
                    right: boxed(r),
                }
            }),
            2 => (function.clone(), prop::collection::vec(inner.clone(), 0..4), 0u8..8).prop_map(
                |(name, mut args, distinct)| {
                    // `str`'s third argument is a precision: keep it small.
                    if name == "str" && args.len() == 3 {
                        args[2] = Expr::Literal(Literal::Number("2".into()));
                    }
                    Expr::Function {
                        name: ObjectName::simple(name),
                        args,
                        distinct: distinct == 0,
                    }
                }
            ),
            1 => inner.prop_map(|e| Expr::Nested(boxed(e))),
        ]
    })
    .boxed()
}

fn pred_strategy() -> impl Strategy<Value = Expr> {
    let s = scalar_strategy;
    let comparison = prop_oneof![
        Just(BinaryOp::Eq),
        Just(BinaryOp::NotEq),
        Just(BinaryOp::Lt),
        Just(BinaryOp::LtEq),
        Just(BinaryOp::Gt),
        Just(BinaryOp::GtEq),
    ];
    let negated = || (0u8..2).prop_map(|n| n == 1);
    let leaf = prop_oneof![
        4 => (comparison, s(), s()).prop_map(|(op, l, r)| Expr::Binary {
            left: boxed(l),
            op,
            right: boxed(r)
        }),
        1 => (s(), s(), s(), negated()).prop_map(|(e, lo, hi, negated)| Expr::Between {
            expr: boxed(e),
            low: boxed(lo),
            high: boxed(hi),
            negated
        }),
        1 => (s(), prop::collection::vec(s(), 0..4), negated()).prop_map(|(e, list, negated)| {
            Expr::InList {
                expr: boxed(e),
                list,
                negated,
            }
        }),
        1 => (s(), negated()).prop_map(|(e, negated)| Expr::IsNull {
            expr: boxed(e),
            negated
        }),
        1 => (s(), s(), negated()).prop_map(|(e, p, negated)| Expr::Like {
            expr: boxed(e),
            pattern: boxed(p),
            negated
        }),
        1 => s(),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Binary {
                left: boxed(l),
                op: BinaryOp::Or,
                right: boxed(r)
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: boxed(e)
            }),
            inner.prop_map(|e| Expr::Nested(boxed(e))),
        ]
    })
}

/// Expressions in group context: aggregate calls (any arity, `*`,
/// DISTINCT), arithmetic over them, and plain or nested-aggregate scalars.
fn group_strategy() -> BoxedStrategy<Expr> {
    let aggregate = (
        prop_oneof![
            Just("count"),
            Just("SUM"),
            Just("avg"),
            Just("min"),
            Just("max")
        ],
        prop_oneof![
            1 => Just(Vec::new()),
            2 => Just(vec![Expr::Wildcard]),
            4 => scalar_strategy().prop_map(|e| vec![e]),
            1 => (scalar_strategy(), scalar_strategy()).prop_map(|(a, b)| vec![a, b]),
        ],
        0u8..4,
    )
        .prop_map(|(name, args, distinct)| Expr::Function {
            name: ObjectName::simple(name),
            args,
            distinct: distinct == 0,
        });
    let arith = prop_oneof![
        Just(BinaryOp::Plus),
        Just(BinaryOp::Minus),
        Just(BinaryOp::Multiply),
        Just(BinaryOp::Divide),
    ]
    .boxed();
    prop_oneof![3 => aggregate, 1 => scalar_strategy()]
        .prop_recursive(2, 8, 2, move |inner| {
            prop_oneof![
                3 => (arith.clone(), inner.clone(), inner.clone()).prop_map(|(op, l, r)| {
                    Expr::Binary {
                        left: boxed(l),
                        op,
                        right: boxed(r),
                    }
                }),
                1 => inner.clone().prop_map(|e| Expr::Nested(boxed(e))),
                1 => inner.prop_map(|e| Expr::Unary {
                    op: UnaryOp::Minus,
                    expr: boxed(e)
                }),
            ]
        })
        .boxed()
}

/// HAVING predicates: comparisons of group expressions under AND/OR/NOT,
/// and forms HAVING does not support.
fn having_strategy() -> impl Strategy<Value = Expr> {
    let g = group_strategy;
    let comparison = prop_oneof![
        Just(BinaryOp::Eq),
        Just(BinaryOp::NotEq),
        Just(BinaryOp::Lt),
        Just(BinaryOp::GtEq),
    ];
    let leaf = prop_oneof![
        4 => (comparison, g(), g()).prop_map(|(op, l, r)| Expr::Binary {
            left: boxed(l),
            op,
            right: boxed(r)
        }),
        1 => g().prop_map(|e| Expr::IsNull {
            expr: boxed(e),
            negated: false
        }),
        1 => (g(), g(), g()).prop_map(|(e, lo, hi)| Expr::Between {
            expr: boxed(e),
            low: boxed(lo),
            high: boxed(hi),
            negated: false
        }),
        1 => g(),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::and(l, r)),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Binary {
                left: boxed(l),
                op: BinaryOp::Or,
                right: boxed(r)
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: boxed(e)
            }),
            inner.prop_map(|e| Expr::Nested(boxed(e))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn bound_scalars_match_the_interpreter(from in from_strategy(), expr in scalar_strategy()) {
        let sources = from.sources();
        let bound = Binder { sources: &sources }.scalar(&expr);
        for ids in from.tuples() {
            let old = oracle_eval_scalar(&expr, &OracleRow { sources: &sources, rows: &ids });
            let new = bound.eval(&ids).map(Cell::into_value);
            // Debug renderings compare NaN equal to NaN.
            prop_assert_eq!(format!("{new:?}"), format!("{old:?}"), "row {:?}", ids);
        }
    }

    #[test]
    fn bound_predicates_match_the_interpreter(from in from_strategy(), expr in pred_strategy()) {
        let sources = from.sources();
        let bound = Binder { sources: &sources }.pred(&expr);
        for ids in from.tuples() {
            let old = oracle_eval_pred(&expr, &OracleRow { sources: &sources, rows: &ids });
            let new = bound.eval(&|s| s.eval(&ids));
            prop_assert_eq!(new, old, "row {:?}", ids);
        }
    }

    #[test]
    fn bound_group_expressions_match_the_interpreter(
        from in from_strategy(),
        expr in group_strategy(),
        having in having_strategy(),
    ) {
        let sources = from.sources();
        let b = Binder { sources: &sources };
        let bound = GroupScalar::bind(&b, &expr);
        let bound_having = Pred::bind(&having, &|e| GroupScalar::bind(&b, e), Level::Group);
        let tuples = from.tuples();
        // The whole match set, a part of it, and an empty global group.
        for n in [tuples.len(), tuples.len() / 2, 0] {
            let group: Vec<&RowIds> = tuples[..n].iter().collect();
            let rows: Vec<OracleRow<'_, '_>> = tuples[..n]
                .iter()
                .map(|ids| OracleRow { sources: &sources, rows: ids })
                .collect();
            let old = oracle_eval_group_scalar(&expr, &rows);
            let new = bound.eval(&group).map(Cell::into_value);
            prop_assert_eq!(format!("{new:?}"), format!("{old:?}"), "group of {}", n);
            let old = oracle_eval_group_pred(&having, &rows);
            let new = bound_having.eval(&|e| e.eval(&group));
            prop_assert_eq!(new, old, "group of {}", n);
        }
    }

    #[test]
    fn like_matches_the_recursive_matcher(text in "[abAé_%]{0,7}", pattern in "[abAé_%]{0,6}") {
        prop_assert_eq!(like_match(&text, &pattern), oracle_like_match(&text, &pattern));
    }
}

#[test]
fn hostile_like_pattern_finishes_quickly() {
    let text = "a".repeat(60);
    let start = Instant::now();
    assert!(!like_match(&text, "%a%a%a%a%a%a%a%b"));
    assert!(like_match(&text, "%a%a%a%a%a%a%a%"));
    assert!(start.elapsed() < Duration::from_millis(100));
}
