//! Skeleton rendering (Definitions 2–6 of the paper).
//!
//! A *skeleton query* (SQ) is obtained from the syntax tree by replacing all
//! parameters in leaf nodes with placeholders (Example 8):
//!
//! ```text
//! SELECT a, b FROM t WHERE a = 0  AND b >= 3
//! SELECT a, b FROM t WHERE a = 10 AND b >= 5
//!        both render to
//! SELECT a, b FROM t WHERE a = <num> AND b >= <num>
//! ```
//!
//! Rendering is canonical: identifiers are lower-cased, keywords upper-cased,
//! whitespace normalized — so the skeletons of two statements are equal
//! exactly when their syntax trees agree on everything but literal values
//! and letter case. Literals always become `<num>` / `<str>` placeholders;
//! the constants that Def. 3's SC/FC/WC keep, and that the DW/DS/DF-Stifle
//! definitions compare, are read per record from its
//! [`crate::PredicateProfile`] instead.

use sqlog_sql::ast::*;
use std::fmt::Write as _;

/// Renders the full skeleton text of a query.
pub fn render_query(q: &Query) -> String {
    let mut out = String::with_capacity(96);
    query(q, &mut out);
    out
}

/// Renders one clause of a SELECT body. Empty string when the clause is
/// absent — two queries that both lack a WHERE clause have equal (empty) SWCs.
pub fn render_select_clause(s: &Select) -> String {
    let mut out = String::with_capacity(32);
    projection(&s.projection, &mut out);
    out
}

/// Renders the FROM clause (see [`render_select_clause`]).
pub fn render_from_clause(s: &Select) -> String {
    let mut out = String::with_capacity(32);
    from(&s.from, &mut out);
    out
}

/// Renders the WHERE clause (see [`render_select_clause`]).
pub fn render_where_clause(s: &Select) -> String {
    let mut out = String::with_capacity(32);
    if let Some(w) = &s.selection {
        expr(w, &mut out);
    }
    out
}

// ---- internal walkers ------------------------------------------------------

fn query(q: &Query, out: &mut String) {
    select_body(&q.body, out);
    for (op, all, body) in &q.set_ops {
        out.push_str(match op {
            SetOperator::Union => " UNION",
            SetOperator::Except => " EXCEPT",
            SetOperator::Intersect => " INTERSECT",
        });
        if *all {
            out.push_str(" ALL");
        }
        out.push(' ');
        select_body(body, out);
    }
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        for (i, item) in q.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            expr(&item.expr, out);
            match item.asc {
                Some(true) => out.push_str(" ASC"),
                Some(false) => out.push_str(" DESC"),
                None => {}
            }
        }
    }
    if let Some(l) = &q.limit {
        out.push_str(" LIMIT ");
        expr(l, out);
    }
}

fn select_body(s: &Select, out: &mut String) {
    out.push_str("SELECT ");
    if s.distinct {
        out.push_str("DISTINCT ");
    }
    if let Some(top) = &s.top {
        out.push_str("TOP ");
        expr(top, out);
        if s.top_percent {
            out.push_str(" PERCENT");
        }
        out.push(' ');
    }
    projection(&s.projection, out);
    if let Some(into) = &s.into {
        out.push_str(" INTO ");
        object_name(into, out);
    }
    if !s.from.is_empty() {
        out.push_str(" FROM ");
        from(&s.from, out);
    }
    if let Some(w) = &s.selection {
        out.push_str(" WHERE ");
        expr(w, out);
    }
    if !s.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        for (i, e) in s.group_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            expr(e, out);
        }
    }
    if let Some(h) = &s.having {
        out.push_str(" HAVING ");
        expr(h, out);
    }
}

fn projection(items: &[SelectItem], out: &mut String) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => out.push('*'),
            SelectItem::QualifiedWildcard(name) => {
                object_name(name, out);
                out.push_str(".*");
            }
            SelectItem::Expr { expr: e, alias } => {
                expr(e, out);
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    ident(a, out);
                }
            }
        }
    }
}

fn from(tables: &[TableRef], out: &mut String) {
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        table_ref(t, out);
    }
}

fn table_ref(t: &TableRef, out: &mut String) {
    match t {
        TableRef::Table { name, alias } => {
            object_name(name, out);
            if let Some(a) = alias {
                out.push_str(" AS ");
                ident(a, out);
            }
        }
        TableRef::Function { name, args, alias } => {
            object_name(name, out);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(a, out);
            }
            out.push(')');
            if let Some(a) = alias {
                out.push_str(" AS ");
                ident(a, out);
            }
        }
        TableRef::Derived { subquery, alias } => {
            out.push('(');
            query(subquery, out);
            out.push(')');
            if let Some(a) = alias {
                out.push_str(" AS ");
                ident(a, out);
            }
        }
        TableRef::Join {
            left,
            right,
            kind,
            constraint,
        } => {
            table_ref(left, out);
            out.push_str(match kind {
                JoinKind::Inner => " INNER JOIN ",
                JoinKind::Left => " LEFT OUTER JOIN ",
                JoinKind::Right => " RIGHT OUTER JOIN ",
                JoinKind::Full => " FULL OUTER JOIN ",
                JoinKind::Cross => " CROSS JOIN ",
                JoinKind::CrossApply => " CROSS APPLY ",
                JoinKind::OuterApply => " OUTER APPLY ",
            });
            if matches!(right.as_ref(), TableRef::Join { .. }) {
                out.push('(');
                table_ref(right, out);
                out.push(')');
            } else {
                table_ref(right, out);
            }
            if let Some(on) = constraint {
                out.push_str(" ON ");
                expr(on, out);
            }
        }
    }
}

fn object_name(name: &ObjectName, out: &mut String) {
    for (i, part) in name.0.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        ident(part, out);
    }
}

fn ident(id: &Ident, out: &mut String) {
    for c in id.value.chars() {
        out.push(c.to_ascii_lowercase());
    }
}

fn literal(lit: &Literal, out: &mut String) {
    out.push_str(match lit {
        Literal::Number(_) => "<num>",
        Literal::String(_) => "<str>",
        // NULL and booleans are structural, not parameters: the SNC
        // antipattern (Def. 16) is recognizable only if `= NULL` survives in
        // the skeleton.
        Literal::Null => "NULL",
        Literal::Boolean(true) => "TRUE",
        Literal::Boolean(false) => "FALSE",
    });
}

fn expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Column(name) => object_name(name, out),
        Expr::Literal(lit) => literal(lit, out),
        Expr::Variable(v) => {
            out.push('@');
            for c in v.chars() {
                out.push(c.to_ascii_lowercase());
            }
        }
        Expr::Binary { left, op, right } => {
            expr(left, out);
            let _ = write!(out, " {op} ");
            expr(right, out);
        }
        Expr::Unary { op, expr: inner } => {
            // A signed numeric literal is a parameter: `-0.9` and `0.5`
            // must map to the same `<num>` placeholder.
            if matches!(op, UnaryOp::Minus | UnaryOp::Plus)
                && matches!(inner.as_ref(), Expr::Literal(Literal::Number(_)))
            {
                out.push_str("<num>");
                return;
            }
            match op {
                UnaryOp::Not => out.push_str("NOT "),
                UnaryOp::Minus => out.push('-'),
                UnaryOp::Plus => out.push('+'),
            }
            expr(inner, out);
        }
        Expr::Function {
            name,
            args,
            distinct,
        } => {
            object_name(name, out);
            out.push('(');
            if *distinct {
                out.push_str("DISTINCT ");
            }
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                expr(a, out);
            }
            out.push(')');
        }
        Expr::Wildcard => out.push('*'),
        Expr::IsNull {
            expr: inner,
            negated,
        } => {
            expr(inner, out);
            out.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        Expr::InList {
            expr: inner,
            list,
            negated,
        } => {
            expr(inner, out);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            // A skeleton abstracts the *whole* list: `IN (1,2)` and
            // `IN (3,4,5)` share one skeleton. This is what makes a
            // DW-Stifle rewrite idempotent — the merged IN-query maps to
            // one template no matter how many values were merged.
            if list.iter().all(is_literal) && !list.is_empty() {
                out.push_str("<list>");
            } else {
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    expr(v, out);
                }
            }
            out.push(')');
        }
        Expr::InSubquery {
            expr: inner,
            subquery,
            negated,
        } => {
            expr(inner, out);
            out.push_str(if *negated { " NOT IN (" } else { " IN (" });
            query(subquery, out);
            out.push(')');
        }
        Expr::Between {
            expr: inner,
            low,
            high,
            negated,
        } => {
            expr(inner, out);
            out.push_str(if *negated {
                " NOT BETWEEN "
            } else {
                " BETWEEN "
            });
            expr(low, out);
            out.push_str(" AND ");
            expr(high, out);
        }
        Expr::Like {
            expr: inner,
            pattern,
            negated,
        } => {
            expr(inner, out);
            out.push_str(if *negated { " NOT LIKE " } else { " LIKE " });
            expr(pattern, out);
        }
        Expr::Nested(inner) => {
            out.push('(');
            expr(inner, out);
            out.push(')');
        }
        Expr::Subquery(q) => {
            out.push('(');
            query(q, out);
            out.push(')');
        }
        Expr::Exists { subquery, negated } => {
            if *negated {
                out.push_str("NOT ");
            }
            out.push_str("EXISTS (");
            query(subquery, out);
            out.push(')');
        }
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            out.push_str("CASE");
            if let Some(op) = operand {
                out.push(' ');
                expr(op, out);
            }
            for (w, t) in branches {
                out.push_str(" WHEN ");
                expr(w, out);
                out.push_str(" THEN ");
                expr(t, out);
            }
            if let Some(el) = else_result {
                out.push_str(" ELSE ");
                expr(el, out);
            }
            out.push_str(" END");
        }
        Expr::Cast { expr: inner, ty } => {
            out.push_str("CAST(");
            expr(inner, out);
            let _ = write!(out, " AS {}", ty.to_ascii_lowercase());
            out.push(')');
        }
    }
}

fn is_literal(e: &Expr) -> bool {
    matches!(e, Expr::Literal(Literal::Number(_) | Literal::String(_)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_sql::parse_query;

    fn skel(sql: &str) -> String {
        render_query(&parse_query(sql).unwrap())
    }

    #[test]
    fn example_8_of_the_paper() {
        let a = skel("SELECT a, b FROM T WHERE a = 0 AND b >= 3");
        let b = skel("SELECT a, b FROM T WHERE a = 10 AND b >= 5");
        assert_eq!(a, b);
        assert_eq!(a, "SELECT a, b FROM t WHERE a = <num> AND b >= <num>");
    }

    #[test]
    fn case_differences_do_not_split_skeletons() {
        assert_eq!(
            skel("select OBJID from PhotoPrimary where objid = 5"),
            skel("SELECT objid FROM photoprimary WHERE OBJID = 7")
        );
    }

    #[test]
    fn string_and_number_placeholders_differ() {
        assert_ne!(
            skel("SELECT a FROM t WHERE a = 5"),
            skel("SELECT a FROM t WHERE a = '5'")
        );
    }

    #[test]
    fn null_survives_in_skeleton() {
        // Required for SNC detection (Def. 16).
        assert_eq!(
            skel("SELECT * FROM Bugs WHERE assigned_to = NULL"),
            "SELECT * FROM bugs WHERE assigned_to = NULL"
        );
    }

    #[test]
    fn in_lists_of_literals_collapse() {
        assert_eq!(
            skel("SELECT a FROM t WHERE id IN (1, 2)"),
            skel("SELECT a FROM t WHERE id IN (3, 4, 5)")
        );
        assert_eq!(
            skel("SELECT a FROM t WHERE id IN (1, 2)"),
            "SELECT a FROM t WHERE id IN (<list>)"
        );
    }

    #[test]
    fn in_lists_with_non_literals_do_not_collapse() {
        assert_eq!(
            skel("SELECT a FROM t WHERE id IN (b, c)"),
            "SELECT a FROM t WHERE id IN (b, c)"
        );
    }

    #[test]
    fn clause_renderers_split_the_triple() {
        let q = parse_query("SELECT name, ra FROM photoprimary WHERE objid = 42").unwrap();
        assert_eq!(render_select_clause(&q.body), "name, ra");
        assert_eq!(render_from_clause(&q.body), "photoprimary");
        assert_eq!(render_where_clause(&q.body), "objid = <num>");
    }

    #[test]
    fn missing_where_renders_empty() {
        let q = parse_query("SELECT a FROM t").unwrap();
        assert_eq!(render_where_clause(&q.body), "");
    }

    #[test]
    fn full_skeleton_keeps_order_group_top() {
        assert_eq!(
            skel("SELECT TOP 10 a FROM t GROUP BY a HAVING count(*) > 2 ORDER BY a DESC"),
            "SELECT TOP <num> a FROM t GROUP BY a HAVING count(*) > <num> ORDER BY a DESC"
        );
    }

    #[test]
    fn variables_are_kept_as_parameters_of_the_template() {
        // The Table-7 SkyServer patterns parameterize on @ra/@dec/@r; those
        // markers are part of the template, not per-instance constants.
        let a = skel("SELECT p.objid FROM fgetnearbyobjeq(@ra, @dec, @r) n, photoprimary p WHERE n.objid = p.objid");
        assert!(a.contains("@ra"));
    }

    #[test]
    fn tvf_literal_args_are_parameters() {
        assert_eq!(
            skel("SELECT * FROM dbo.fGetNearestObjEq(145.38708, 0.12532, 0.1)"),
            skel("SELECT * FROM dbo.fGetNearestObjEq(211.0, -0.9, 0.5)")
        );
    }

    #[test]
    fn derived_tables_and_joins_render() {
        let s = skel(
            "SELECT E.empId FROM Employees E INNER JOIN \
             (SELECT empId, count(orders) AS oCount FROM Orders GROUP BY empId) O \
             ON O.empId = E.empId",
        );
        assert_eq!(
            s,
            "SELECT e.empid FROM employees AS e INNER JOIN \
             (SELECT empid, count(orders) AS ocount FROM orders GROUP BY empid) AS o \
             ON o.empid = e.empid"
        );
    }
}
