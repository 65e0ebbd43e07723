//! Solving SNC (Definition 16): `= NULL` → `IS NULL`,
//! `<> NULL` / `!= NULL` → `IS NOT NULL`.

use crate::detect::{AntipatternClass, AntipatternInstance, DetectCtx};
use crate::ext::Solver;
use sqlog_sql::ast::*;
use sqlog_sql::parse_statement;

/// Solver for SNC occurrences.
pub struct SncSolver;

/// Recursively rewrites NULL comparisons inside an expression.
fn rewrite(e: Expr) -> Expr {
    match e {
        Expr::Binary { left, op, right } => {
            let null_side = |x: &Expr| matches!(x, Expr::Literal(Literal::Null));
            match op {
                BinaryOp::Eq | BinaryOp::NotEq if null_side(&right) => Expr::IsNull {
                    expr: Box::new(rewrite(*left)),
                    negated: op == BinaryOp::NotEq,
                },
                BinaryOp::Eq | BinaryOp::NotEq if null_side(&left) => Expr::IsNull {
                    expr: Box::new(rewrite(*right)),
                    negated: op == BinaryOp::NotEq,
                },
                _ => Expr::Binary {
                    left: Box::new(rewrite(*left)),
                    op,
                    right: Box::new(rewrite(*right)),
                },
            }
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(rewrite(*expr)),
        },
        Expr::Nested(inner) => Expr::Nested(Box::new(rewrite(*inner))),
        other => other,
    }
}

impl Solver for SncSolver {
    fn name(&self) -> &str {
        "snc"
    }

    fn solve(&self, inst: &AntipatternInstance, ctx: &DetectCtx<'_>) -> Option<Vec<String>> {
        if inst.class != AntipatternClass::Snc {
            return None;
        }
        let entry = ctx.record_entry(*inst.records.first()?);
        let Statement::Select(mut q) = parse_statement(&entry.statement).ok()? else {
            return None;
        };
        q.body.selection = q.body.selection.take().map(rewrite);
        q.body.having = q.body.having.take().map(rewrite);
        Some(vec![q.to_string()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::detect::snc::SncDetector;
    use crate::detect::Detector;
    use crate::testkit::{user_log, with_ctx};

    fn solve(sql: &str) -> String {
        with_ctx(&user_log(&[sql]), &PipelineConfig::default(), |ctx| {
            let instances = SncDetector.detect(ctx);
            assert_eq!(instances.len(), 1, "expected one SNC in {sql:?}");
            SncSolver.solve(&instances[0], ctx).unwrap().remove(0)
        })
    }

    #[test]
    fn paper_rewrites() {
        assert_eq!(
            solve("SELECT * FROM Bugs WHERE assigned_to = NULL"),
            "SELECT * FROM Bugs WHERE assigned_to IS NULL"
        );
        assert_eq!(
            solve("SELECT * FROM Bugs WHERE assigned_to <> NULL"),
            "SELECT * FROM Bugs WHERE assigned_to IS NOT NULL"
        );
    }

    #[test]
    fn rewrites_inside_conjunctions_and_reversed() {
        assert_eq!(
            solve("SELECT a FROM t WHERE x = 1 AND y = NULL"),
            "SELECT a FROM t WHERE x = 1 AND y IS NULL"
        );
        assert_eq!(
            solve("SELECT a FROM t WHERE NULL = y"),
            "SELECT a FROM t WHERE y IS NULL"
        );
    }
}
