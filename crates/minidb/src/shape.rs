//! Statement shapes: the key under which [`MiniDb`](crate::MiniDb) keeps
//! prepared plans, and the literal-free rendering of plan strings.
//!
//! [`Shape::of`] walks a query once. Every node writes a tag byte, every
//! list its length and every identifier its bytes *as written* (plan strings
//! render names as written, and `Ident`'s own `Eq` ignores case), so the
//! encoding is injective on everything but literal values. A literal writes
//! only its [kind](literal_kind) and joins the statement's literal residue,
//! in walk order. The kind fixes every planning decision a literal takes
//! part in — whether it is a seek key, a range bound or a `TOP` cap — so two
//! statements with equal keys plan alike up to the values that
//! [`crate::plan::Prepared::instantiate`] fills in.
//!
//! A [`Template`] is a plan string (a Filter predicate, a sort key, a
//! projection name) rendered once per shape with each literal replaced by a
//! slot that names its index in the residue.

use crate::eval::literal_value;
use crate::value::Value;
use sqlog_sql::ast::*;
use std::collections::HashMap;
use std::fmt::Write as _;

/// A query's shape key and its literal residue.
pub(crate) struct Shape<'q> {
    /// The structural encoding, literal values masked.
    pub(crate) key: Vec<u8>,
    /// The literals, in walk order: the values one shape's statements
    /// differ in.
    pub(crate) literals: Vec<&'q Literal>,
}

/// How the planner reads a literal: the [`Value`] kind it evaluates to,
/// with decimal integers (range bounds and row caps) told apart from hex
/// ones (seek keys only).
fn literal_kind(lit: &Literal) -> u8 {
    match lit {
        Literal::Number(text) if text.parse::<i64>().is_ok() => b'i',
        Literal::Number(_) => match literal_value(lit) {
            Value::Int(_) => b'x',
            Value::Float(_) => b'f',
            _ => b'n',
        },
        Literal::String(_) => b's',
        Literal::Null => b'z',
        Literal::Boolean(_) => b'b',
    }
}

impl<'q> Shape<'q> {
    /// Walks `query`.
    pub(crate) fn of(query: &'q Query) -> Self {
        let mut shape = Shape {
            key: Vec::with_capacity(256),
            literals: Vec::new(),
        };
        shape.query(query);
        shape
    }

    fn tag(&mut self, tag: u8) {
        self.key.push(tag);
    }

    /// A length, LEB128.
    fn len(&mut self, mut n: usize) {
        while n >= 0x80 {
            self.key.push(n as u8 | 0x80);
            n >>= 7;
        }
        self.key.push(n as u8);
    }

    fn text(&mut self, s: &str) {
        self.len(s.len());
        self.key.extend_from_slice(s.as_bytes());
    }

    fn name(&mut self, name: &ObjectName) {
        self.len(name.0.len());
        for part in &name.0 {
            self.text(&part.value);
        }
    }

    fn alias(&mut self, alias: &Option<Ident>) {
        match alias {
            Some(a) => {
                self.tag(1);
                self.text(&a.value);
            }
            None => self.tag(0),
        }
    }

    fn exprs(&mut self, exprs: &'q [Expr]) {
        self.len(exprs.len());
        for e in exprs {
            self.expr(e);
        }
    }

    fn opt_expr(&mut self, e: Option<&'q Expr>) {
        match e {
            Some(e) => {
                self.tag(1);
                self.expr(e);
            }
            None => self.tag(0),
        }
    }

    fn query(&mut self, q: &'q Query) {
        self.select(&q.body);
        self.len(q.set_ops.len());
        for (op, all, body) in &q.set_ops {
            self.tag(*op as u8);
            self.tag(u8::from(*all));
            self.select(body);
        }
        self.len(q.order_by.len());
        for item in &q.order_by {
            self.expr(&item.expr);
            self.tag(match item.asc {
                None => 0,
                Some(true) => 1,
                Some(false) => 2,
            });
        }
        self.opt_expr(q.limit.as_ref());
    }

    fn select(&mut self, s: &'q Select) {
        self.tag(u8::from(s.distinct) | u8::from(s.top_percent) << 1);
        self.opt_expr(s.top.as_ref());
        self.len(s.projection.len());
        for item in &s.projection {
            match item {
                SelectItem::Wildcard => self.tag(0),
                SelectItem::QualifiedWildcard(name) => {
                    self.tag(1);
                    self.name(name);
                }
                SelectItem::Expr { expr, alias } => {
                    self.tag(2);
                    self.expr(expr);
                    self.alias(alias);
                }
            }
        }
        match &s.into {
            Some(name) => {
                self.tag(1);
                self.name(name);
            }
            None => self.tag(0),
        }
        self.len(s.from.len());
        for t in &s.from {
            self.table_ref(t);
        }
        self.opt_expr(s.selection.as_ref());
        self.exprs(&s.group_by);
        self.opt_expr(s.having.as_ref());
    }

    fn table_ref(&mut self, t: &'q TableRef) {
        match t {
            TableRef::Table { name, alias } => {
                self.tag(0);
                self.name(name);
                self.alias(alias);
            }
            TableRef::Function { name, args, alias } => {
                self.tag(1);
                self.name(name);
                self.exprs(args);
                self.alias(alias);
            }
            TableRef::Derived { subquery, alias } => {
                self.tag(2);
                self.query(subquery);
                self.alias(alias);
            }
            TableRef::Join {
                left,
                right,
                kind,
                constraint,
            } => {
                self.tag(3);
                self.tag(*kind as u8);
                self.table_ref(left);
                self.table_ref(right);
                self.opt_expr(constraint.as_ref());
            }
        }
    }

    fn expr(&mut self, e: &'q Expr) {
        match e {
            Expr::Column(name) => {
                self.tag(0);
                self.name(name);
            }
            Expr::Literal(lit) => {
                self.tag(1);
                self.tag(literal_kind(lit));
                self.literals.push(lit);
            }
            Expr::Variable(v) => {
                self.tag(2);
                self.text(v);
            }
            Expr::Binary { left, op, right } => {
                self.tag(3);
                self.tag(*op as u8);
                self.expr(left);
                self.expr(right);
            }
            Expr::Unary { op, expr } => {
                self.tag(4);
                self.tag(*op as u8);
                self.expr(expr);
            }
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                self.tag(5);
                self.name(name);
                self.tag(u8::from(*distinct));
                self.exprs(args);
            }
            Expr::Wildcard => self.tag(6),
            Expr::IsNull { expr, negated } => {
                self.tag(7);
                self.tag(u8::from(*negated));
                self.expr(expr);
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                self.tag(8);
                self.tag(u8::from(*negated));
                self.expr(expr);
                self.exprs(list);
            }
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                self.tag(9);
                self.tag(u8::from(*negated));
                self.expr(expr);
                self.query(subquery);
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.tag(10);
                self.tag(u8::from(*negated));
                self.expr(expr);
                self.expr(low);
                self.expr(high);
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.tag(11);
                self.tag(u8::from(*negated));
                self.expr(expr);
                self.expr(pattern);
            }
            Expr::Nested(inner) => {
                self.tag(12);
                self.expr(inner);
            }
            Expr::Subquery(q) => {
                self.tag(13);
                self.query(q);
            }
            Expr::Exists { subquery, negated } => {
                self.tag(14);
                self.tag(u8::from(*negated));
                self.query(subquery);
            }
            Expr::Case {
                operand,
                branches,
                else_result,
            } => {
                self.tag(15);
                self.opt_expr(operand.as_deref());
                self.len(branches.len());
                for (when, then) in branches {
                    self.expr(when);
                    self.expr(then);
                }
                self.opt_expr(else_result.as_deref());
            }
            Expr::Cast { expr, ty } => {
                self.tag(16);
                self.expr(expr);
                self.text(ty);
            }
        }
    }
}

/// Opens a literal slot in a masked rendering: the printer writes a
/// variable as `@` and its name, and a slot's name is `\0<index>\0`.
const SLOT_OPEN: &str = "@\0";

/// A plan string with literal slots: `pieces[0] lit pieces[1] … lit
/// pieces[n]`, the `i`-th literal being residue entry `slots[i]`.
#[derive(Debug)]
pub(crate) struct Template {
    pieces: Vec<String>,
    slots: Vec<usize>,
}

impl Template {
    /// A string with no literal in it.
    pub(crate) fn fixed(text: String) -> Self {
        Template {
            pieces: vec![text],
            slots: Vec::new(),
        }
    }

    /// Splits a masked rendering at its slots.
    fn parse(text: &str) -> Option<Template> {
        let mut pieces = Vec::new();
        let mut slots = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find(SLOT_OPEN) {
            pieces.push(rest[..at].to_string());
            let tail = &rest[at + SLOT_OPEN.len()..];
            let end = tail.find('\0')?;
            slots.push(tail[..end].parse().ok()?);
            rest = &tail[end + 1..];
        }
        pieces.push(rest.to_string());
        Some(Template { pieces, slots })
    }

    /// The string for one statement's literals.
    pub(crate) fn fill(&self, literals: &[&Literal]) -> String {
        let mut out = self.pieces[0].clone();
        for (slot, piece) in self.slots.iter().zip(&self.pieces[1..]) {
            let _ = write!(out, "{}", literals[*slot]);
            out.push_str(piece);
        }
        out
    }
}

/// Builds the templates of one shape from the statement that prepares it.
pub(crate) struct Masker<'q> {
    /// Residue index of each literal node, by address.
    slot_of: HashMap<*const Literal, usize>,
    literals: &'q [&'q Literal],
    /// False once a template could not be cut at its literals: the plan is
    /// then right for this statement only and must not be kept.
    pub(crate) reusable: bool,
}

impl<'q> Masker<'q> {
    pub(crate) fn new(literals: &'q [&'q Literal]) -> Self {
        Masker {
            slot_of: literals
                .iter()
                .enumerate()
                .map(|(i, lit)| (std::ptr::from_ref(*lit), i))
                .collect(),
            literals,
            reusable: true,
        }
    }

    /// The residue index of a literal node of the statement being
    /// prepared.
    pub(crate) fn slot(&self, lit: &Literal) -> usize {
        self.slot_of[&std::ptr::from_ref(lit)]
    }

    /// The template of `render(exprs)`. `render` runs twice: over copies
    /// of `exprs` whose literals are slots, and over `exprs` themselves to
    /// check that filling the slots gives the same string back.
    pub(crate) fn template(
        &mut self,
        exprs: &[&Expr],
        render: impl Fn(&[&Expr]) -> String,
    ) -> Template {
        let masked: Vec<Expr> = exprs.iter().map(|e| self.expr(e)).collect();
        let masked: Vec<&Expr> = masked.iter().collect();
        let actual = render(exprs);
        match Template::parse(&render(&masked)) {
            Some(t) if t.fill(self.literals) == actual => t,
            _ => {
                self.reusable = false;
                Template::fixed(actual)
            }
        }
    }

    fn literal(&mut self, lit: &Literal) -> Expr {
        match self.slot_of.get(&std::ptr::from_ref(lit)) {
            Some(i) => Expr::Variable(format!("\0{i}\0")),
            None => {
                // Not in the residue, so not in the key either.
                self.reusable = false;
                Expr::Literal(lit.clone())
            }
        }
    }

    fn boxed(&mut self, e: &Expr) -> Box<Expr> {
        Box::new(self.expr(e))
    }

    fn exprs(&mut self, exprs: &[Expr]) -> Vec<Expr> {
        exprs.iter().map(|e| self.expr(e)).collect()
    }

    /// A copy of `e` with every literal replaced by its slot.
    fn expr(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Literal(lit) => self.literal(lit),
            Expr::Column(_) | Expr::Variable(_) | Expr::Wildcard => e.clone(),
            Expr::Binary { left, op, right } => Expr::Binary {
                left: self.boxed(left),
                op: *op,
                right: self.boxed(right),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: self.boxed(expr),
            },
            Expr::Function {
                name,
                args,
                distinct,
            } => Expr::Function {
                name: name.clone(),
                args: self.exprs(args),
                distinct: *distinct,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: self.boxed(expr),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: self.boxed(expr),
                list: self.exprs(list),
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: self.boxed(expr),
                low: self.boxed(low),
                high: self.boxed(high),
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: self.boxed(expr),
                pattern: self.boxed(pattern),
                negated: *negated,
            },
            Expr::Nested(inner) => Expr::Nested(self.boxed(inner)),
            Expr::InSubquery { .. } | Expr::Subquery(_) | Expr::Exists { .. } => {
                // minidb cannot evaluate a subquery expression, so a plan
                // that renders one is not worth keeping: the copy keeps its
                // literals and fits this statement only.
                self.reusable = false;
                e.clone()
            }
            Expr::Case {
                operand,
                branches,
                else_result,
            } => Expr::Case {
                operand: operand.as_ref().map(|o| self.boxed(o)),
                branches: branches
                    .iter()
                    .map(|(w, t)| (self.expr(w), self.expr(t)))
                    .collect(),
                else_result: else_result.as_ref().map(|e| self.boxed(e)),
            },
            Expr::Cast { expr, ty } => Expr::Cast {
                expr: self.boxed(expr),
                ty: ty.clone(),
            },
        }
    }
}
