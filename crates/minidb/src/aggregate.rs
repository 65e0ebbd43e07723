//! Grouped / aggregate execution: `GROUP BY`, `HAVING`, and the aggregate
//! functions `count`, `sum`, `avg`, `min`, `max`.
//!
//! This is the engine piece behind the paper's own rewrite target — the
//! introduction's merged query ends in
//! `(SELECT empId, count(orders) AS oCount FROM Orders GROUP BY empId)`.

use crate::eval::{arith, is_arith, Binder, Operand, RowIds, Scalar};
use crate::exec::ExecError;
use crate::value::Cell;
use sqlog_sql::ast::*;

/// True if the expression tree contains an aggregate function call.
pub fn contains_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.visit(&mut |node| {
        if let Expr::Function { name, .. } = node {
            if AggFn::of(&name.last().normalized()).is_some() {
                found = true;
            }
        }
    });
    found
}

/// True if any projection item uses an aggregate.
pub fn projection_has_aggregate(projection: &[SelectItem]) -> bool {
    projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => contains_aggregate(expr),
        _ => false,
    })
}

/// An aggregate function.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum AggFn {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFn {
    /// The aggregate a lower-cased function name calls, if any.
    fn of(name: &str) -> Option<AggFn> {
        Some(match name {
            "count" => AggFn::Count,
            "sum" => AggFn::Sum,
            "avg" => AggFn::Avg,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            _ => return None,
        })
    }
}

/// An expression evaluated over a group of matched rows (the projection,
/// HAVING and ORDER BY of a grouped query), bound like [`Scalar`].
pub(crate) enum GroupScalar<'a> {
    /// An aggregate call; `arg` is `None` for `count(*)`.
    Agg {
        func: AggFn,
        arg: Option<Scalar<'a>>,
        distinct: bool,
    },
    /// `+ - * /` over group-level operands.
    Arith(BinaryOp, Box<GroupScalar<'a>>, Box<GroupScalar<'a>>),
    /// Anything else, evaluated on the group's first row (i.e. it must be
    /// group-constant, which GROUP BY columns are).
    First(Scalar<'a>),
    /// A deferred error.
    Fail(ExecError),
}

impl<'a> GroupScalar<'a> {
    /// Binds an expression in group context.
    pub(crate) fn bind(b: &Binder<'_, 'a>, e: &Expr) -> GroupScalar<'a> {
        if let Expr::Function {
            name,
            args,
            distinct,
        } = e
        {
            let name = name.last().normalized();
            if let Some(func) = AggFn::of(&name) {
                let arg = match args.as_slice() {
                    [Expr::Wildcard] | [] => None,
                    [e] => Some(b.scalar(e)),
                    _ => {
                        return GroupScalar::Fail(ExecError::Unsupported(format!(
                            "aggregate {name} with {} arguments",
                            args.len()
                        )))
                    }
                };
                return GroupScalar::Agg {
                    func,
                    arg,
                    distinct: *distinct,
                };
            }
        }
        match e {
            Expr::Binary { left, op, right } if is_arith(*op) => GroupScalar::Arith(
                *op,
                Box::new(GroupScalar::bind(b, left)),
                Box::new(GroupScalar::bind(b, right)),
            ),
            Expr::Nested(inner) => GroupScalar::bind(b, inner),
            other => GroupScalar::First(b.scalar(other)),
        }
    }

    /// Evaluates over the rows of one group.
    pub(crate) fn eval(&self, group: &[&RowIds]) -> Result<Cell<'_>, ExecError> {
        match self {
            GroupScalar::Agg {
                func,
                arg,
                distinct,
            } => aggregate(*func, arg.as_ref(), *distinct, group),
            GroupScalar::Arith(op, left, right) => {
                let (a, b) = (left.eval(group)?, right.eval(group)?);
                Ok(arith(*op, &a, &b))
            }
            GroupScalar::First(e) => {
                let first = group
                    .first()
                    .ok_or_else(|| ExecError::Unsupported("empty group".into()))?;
                e.eval(first)
            }
            GroupScalar::Fail(e) => Err(e.clone()),
        }
    }
}

impl Operand for GroupScalar<'_> {
    fn can_fail(&self) -> bool {
        match self {
            GroupScalar::Agg { func, arg, .. } => {
                matches!(func, AggFn::Sum | AggFn::Avg)
                    || arg.as_ref().is_some_and(Scalar::can_fail)
            }
            GroupScalar::Arith(_, l, r) => l.can_fail() || r.can_fail(),
            // `First` fails on an empty group.
            GroupScalar::First(_) | GroupScalar::Fail(_) => true,
        }
    }
}

/// Computes one aggregate call over the rows of a group.
fn aggregate<'s>(
    func: AggFn,
    arg: Option<&'s Scalar<'_>>,
    distinct: bool,
    group: &[&RowIds],
) -> Result<Cell<'s>, ExecError> {
    let mut values: Vec<Cell<'s>> = Vec::with_capacity(group.len());
    for row in group {
        values.push(match arg {
            None => Cell::Int(1),
            Some(e) => e.eval(row)?,
        });
    }
    if arg.is_some() {
        // SQL aggregates skip NULLs.
        values.retain(|v| !v.is_null());
    }
    if distinct {
        let mut kept: Vec<Cell<'s>> = Vec::with_capacity(values.len());
        for v in values {
            if !kept.iter().any(|s| s.sql_eq(&v)) {
                kept.push(v);
            }
        }
        values = kept;
    }
    let sum = |what: &str| -> Result<f64, ExecError> {
        let mut acc = 0.0;
        for v in &values {
            acc += match v {
                Cell::Int(i) => *i as f64,
                Cell::Float(f) => *f,
                _ => {
                    return Err(ExecError::Unsupported(format!(
                        "{what} over non-numeric values"
                    )))
                }
            };
        }
        Ok(acc)
    };
    Ok(match func {
        AggFn::Count => Cell::Int(values.len() as i64),
        AggFn::Sum => Cell::Float(sum("SUM")?),
        AggFn::Avg if values.is_empty() => Cell::Null,
        AggFn::Avg => Cell::Float(sum("AVG")? / values.len() as f64),
        AggFn::Min | AggFn::Max => {
            let want = if func == AggFn::Min {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            };
            let mut best: Option<Cell<'s>> = None;
            for v in values {
                best = Some(match best {
                    Some(b) if v.compare(&b) != Some(want) => b,
                    _ => v,
                });
            }
            best.unwrap_or(Cell::Null)
        }
    })
}
