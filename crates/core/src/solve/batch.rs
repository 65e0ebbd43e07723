//! Batched statement parsing for solvers.
//!
//! Stifle instances group statements that differ only in their literals —
//! exactly what a DW chain is. The solvers used to re-parse every statement
//! from scratch ([`sqlog_sql::parse_statement`] per record); at paper scale
//! that full parse dominates the solve stage. [`QueryCache`] removes it:
//!
//! 1. each statement is scanned by [`raw_shape_scan`] into its literal spans
//!    and hashed into a **masked key** — an FNV-1a hash of the raw bytes with
//!    every literal span replaced by a kind marker. Two statements share a
//!    masked key iff they are byte-identical outside their literal spans
//!    (case, whitespace and comments included) with the same literal kinds
//!    in the same places, so they lex to the same token sequence modulo
//!    literal *values* and the parser — which never branches on literal
//!    values — builds the same tree shape with the literals in the same
//!    slots;
//! 2. the first statement of a shape is parsed in full and **certified**:
//!    its own span texts are substituted back into a clone of its AST (in
//!    [`walk_query`] order) and the result must equal the original. With
//!    pairwise-distinct span texts this proves the mutable walker visits the
//!    literal slots in statement order, so the certified template can be
//!    instantiated for *any* statement of the shape;
//! 3. every later statement of a certified shape skips the parser entirely:
//!    clone the template, write its own span texts into the literal slots.
//!
//! Certification failure (duplicate span texts, a literal the walker cannot
//! see — e.g. the number inside `CAST(x AS varchar(32))`'s type — or a
//! count mismatch) marks the shape unbatchable and those statements take the
//! full-parse path forever; the cache is a pure win or a no-op, never a
//! change in output. Substitution reproduces the parser's literal handling
//! exactly: numbers keep their verbatim token text, strings fold each `''`
//! escape to `'`.

use sqlog_obs::Recorder;
use sqlog_skeleton::{
    raw_shape_scan, Fnv1a, FnvHashMap, RawLiteral, RawLiteralKind, RAW_NUM, RAW_STR,
};
use sqlog_sql::ast::{Expr, Literal, Query, Select, SelectItem, Statement, TableRef};
use sqlog_sql::parse_statement;
use std::collections::hash_map::Entry;
use std::sync::{Arc, RwLock};

/// Cache key: FNV-1a over the statement's raw bytes with each literal span
/// found by [`raw_shape_scan`] replaced by its kind marker ([`RAW_NUM`] /
/// [`RAW_STR`]), plus the masked length and the span count (collision
/// backstop, mirroring [`sqlog_skeleton::RawKey`]). Unlike `RawKey` this key
/// is case- and whitespace-*sensitive*: the certified template is
/// re-rendered with the original identifier spelling, so shapes that differ
/// anywhere outside their literals must not share a template. Being finer
/// than token equivalence costs at most an extra certification per spelling
/// variant. The markers cannot occur in valid UTF-8, so the masked stream
/// determines where the spans sit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct MaskedKey {
    hash: u64,
    len: u32,
    literals: u32,
}

impl MaskedKey {
    /// Scans `sql` into its key, leaving its literal spans in `spans`.
    /// `None` exactly when [`raw_shape_scan`] cannot key the statement.
    fn of(sql: &str, spans: &mut Vec<RawLiteral>) -> Option<MaskedKey> {
        raw_shape_scan(sql, spans)?;
        let bytes = sql.as_bytes();
        let mut h = Fnv1a::new();
        let mut at = 0usize;
        let mut masked = 0usize;
        for span in spans.iter() {
            h.update(&bytes[at..span.start as usize]);
            h.update(&[match span.kind {
                RawLiteralKind::Number => RAW_NUM,
                RawLiteralKind::String { .. } => RAW_STR,
            }]);
            at = span.end as usize;
            masked += (span.end - span.start) as usize;
        }
        h.update(&bytes[at..]);
        Some(MaskedKey {
            hash: h.finish().0,
            len: (bytes.len() - masked + spans.len()) as u32,
            literals: spans.len() as u32,
        })
    }
}

/// What the cache knows about one statement shape.
#[derive(Clone)]
enum Slot {
    /// Certified template: clone + literal substitution reproduces a full
    /// parse of any statement with this masked key.
    Certified(Arc<Query>),
    /// Certification failed; statements of this shape always full-parse.
    Unbatchable,
}

/// A concurrent masked-key → certified-template cache.
///
/// [`QueryCache::query`] is a drop-in replacement for "parse the statement,
/// keep it if it is a SELECT": same result for every input, amortized
/// parse-free for repeated shapes. The solver pass calls it from every
/// shard worker; a lookup holds the lock only to copy the slot out.
#[derive(Default)]
pub struct QueryCache {
    map: RwLock<FnvHashMap<MaskedKey, Slot>>,
}

impl QueryCache {
    /// Parses `sql` through the template cache. Returns `None` exactly when
    /// a direct [`parse_select`] would: parse error or non-SELECT.
    ///
    /// Each newly certified shape bumps the `solve.batched_templates`
    /// counter on `rec`.
    pub fn query(&self, sql: &str, rec: &Recorder) -> Option<Query> {
        let mut spans = Vec::new();
        let Some(key) = MaskedKey::of(sql, &mut spans) else {
            return parse_select(sql);
        };
        let slot = self
            .map
            .read()
            .expect("query cache poisoned")
            .get(&key)
            .cloned();
        match slot {
            Some(Slot::Certified(template)) => {
                let mut q = (*template).clone();
                if substitute(&mut q, sql, &spans) {
                    return Some(q);
                }
                // Defensive: substitution cannot fail for a certified
                // shape, but the full parse is always a correct answer.
                return parse_select(sql);
            }
            Some(Slot::Unbatchable) => return parse_select(sql),
            None => {}
        }
        // First sighting of this shape: full-parse, then try to certify the
        // statement as the shape's template. The lock is not held across the
        // parse; a racing thread at worst also parses, the first insert
        // wins and only it is counted.
        let q = parse_select(sql);
        let slot = match &q {
            Some(parsed) if certify(parsed, sql, &spans) => {
                Slot::Certified(Arc::new(parsed.clone()))
            }
            _ => Slot::Unbatchable,
        };
        let certified = matches!(slot, Slot::Certified(_));
        let mut map = self.map.write().expect("query cache poisoned");
        if let Entry::Vacant(v) = map.entry(key) {
            v.insert(slot);
            if certified {
                rec.counter("solve.batched_templates", 1);
            }
        }
        q
    }
}

/// Direct parse: the statement's query if it is a SELECT.
pub fn parse_select(sql: &str) -> Option<Query> {
    match parse_statement(sql).ok()? {
        Statement::Select(q) => Some(*q),
        Statement::Other(_) => None,
    }
}

/// True when `parsed` (the full parse of `sql`, whose literal spans are
/// `spans`) can serve as the shape's template: the span texts are pairwise
/// distinct per kind, and substituting them back into a clone reproduces
/// `parsed` exactly — which proves the walker visits the literal slots in
/// statement order and that no literal is outside the walker's reach.
fn certify(parsed: &Query, sql: &str, spans: &[RawLiteral]) -> bool {
    for (i, a) in spans.iter().enumerate() {
        for b in &spans[..i] {
            let same_kind = matches!(a.kind, RawLiteralKind::Number)
                == matches!(b.kind, RawLiteralKind::Number);
            if same_kind && a.text(sql) == b.text(sql) {
                return false;
            }
        }
    }
    let mut round_trip = parsed.clone();
    substitute(&mut round_trip, sql, spans) && round_trip == *parsed
}

/// Writes the literal spans of `sql` into the number/string literal slots of
/// `q`, in walker order. True iff every slot got a span and every span a
/// slot.
fn substitute(q: &mut Query, sql: &str, spans: &[RawLiteral]) -> bool {
    let mut idx = 0usize;
    let mut ok = true;
    walk_query(q, &mut |lit| {
        if !matches!(lit, Literal::Number(_) | Literal::String(_)) {
            return; // NULL / TRUE / FALSE are word tokens, not spans.
        }
        match spans.get(idx).and_then(|s| s.text(sql).map(|t| (s, t))) {
            Some((span, text)) => {
                *lit = match span.kind {
                    RawLiteralKind::Number => Literal::Number(text.to_string()),
                    RawLiteralKind::String { has_escape } => Literal::String(if has_escape {
                        text.replace("''", "'")
                    } else {
                        text.to_string()
                    }),
                };
                idx += 1;
            }
            None => ok = false,
        }
    });
    ok && idx == spans.len()
}

/// Visits every number/string literal slot of a query, mutably, in source
/// order (certification double-checks the order, so a clause this walk
/// misses degrades the shape to unbatchable rather than corrupting it).
fn walk_query(q: &mut Query, f: &mut impl FnMut(&mut Literal)) {
    walk_select(&mut q.body, f);
    for (_, _, sel) in &mut q.set_ops {
        walk_select(sel, f);
    }
    for item in &mut q.order_by {
        walk_expr(&mut item.expr, f);
    }
    if let Some(e) = &mut q.limit {
        walk_expr(e, f);
    }
}

fn walk_select(s: &mut Select, f: &mut impl FnMut(&mut Literal)) {
    if let Some(e) = &mut s.top {
        walk_expr(e, f);
    }
    for item in &mut s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr(expr, f);
        }
    }
    for t in &mut s.from {
        walk_table(t, f);
    }
    if let Some(e) = &mut s.selection {
        walk_expr(e, f);
    }
    for e in &mut s.group_by {
        walk_expr(e, f);
    }
    if let Some(e) = &mut s.having {
        walk_expr(e, f);
    }
}

fn walk_table(t: &mut TableRef, f: &mut impl FnMut(&mut Literal)) {
    match t {
        TableRef::Table { .. } => {}
        TableRef::Function { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        TableRef::Derived { subquery, .. } => walk_query(subquery, f),
        TableRef::Join {
            left,
            right,
            constraint,
            ..
        } => {
            walk_table(left, f);
            walk_table(right, f);
            if let Some(c) = constraint {
                walk_expr(c, f);
            }
        }
    }
}

fn walk_expr(e: &mut Expr, f: &mut impl FnMut(&mut Literal)) {
    match e {
        Expr::Literal(lit) => f(lit),
        Expr::Binary { left, right, .. } => {
            walk_expr(left, f);
            walk_expr(right, f);
        }
        Expr::Unary { expr, .. } => walk_expr(expr, f),
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::IsNull { expr, .. } => walk_expr(expr, f),
        Expr::InList { expr, list, .. } => {
            walk_expr(expr, f);
            for x in list {
                walk_expr(x, f);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            walk_expr(expr, f);
            walk_query(subquery, f);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(expr, f);
            walk_expr(low, f);
            walk_expr(high, f);
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr(expr, f);
            walk_expr(pattern, f);
        }
        Expr::Nested(inner) => walk_expr(inner, f),
        Expr::Subquery(q) => walk_query(q, f),
        Expr::Exists { subquery, .. } => walk_query(subquery, f),
        Expr::Case {
            operand,
            branches,
            else_result,
        } => {
            if let Some(op) = operand {
                walk_expr(op, f);
            }
            for (when, then) in branches {
                walk_expr(when, f);
                walk_expr(then, f);
            }
            if let Some(e) = else_result {
                walk_expr(e, f);
            }
        }
        Expr::Cast { expr, .. } => walk_expr(expr, f),
        Expr::Column(_) | Expr::Variable(_) | Expr::Wildcard => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The strong equivalence check: rendered text, not `PartialEq` — Ident
    /// equality is case-insensitive, so only rendering catches a template
    /// that leaked another statement's identifier spelling.
    fn assert_batched_matches_direct(cache: &QueryCache, sql: &str) {
        let rec = Recorder::disabled();
        let batched = cache.query(sql, &rec);
        let direct = parse_select(sql);
        match (&batched, &direct) {
            (Some(b), Some(d)) => {
                assert_eq!(b.to_string(), d.to_string(), "render mismatch for {sql}");
                assert_eq!(b, d, "AST mismatch for {sql}");
            }
            (None, None) => {}
            _ => panic!("batched={batched:?} direct={direct:?} for {sql}"),
        }
    }

    #[test]
    fn repeated_shapes_reproduce_the_direct_parse() {
        let cache = QueryCache::default();
        for sql in [
            "SELECT name FROM Employee WHERE empId = 8",
            "SELECT name FROM Employee WHERE empId = 12345",
            "SELECT name FROM Employee WHERE empId = 0x1AF",
            "SELECT name FROM Employee WHERE empId = 1.5e-3",
            "SELECT description FROM DBObjects WHERE name = 'Galaxy'",
            "SELECT description FROM DBObjects WHERE name = 'it''s'",
            "SELECT description FROM DBObjects WHERE name = 'a''''b'",
            "SELECT TOP 10 ra, dec FROM photoprimary WHERE objid = 42 ORDER BY ra",
            "SELECT TOP 99 ra, dec FROM photoprimary WHERE objid = 43 ORDER BY ra",
            "SELECT a FROM t WHERE x BETWEEN 1 AND 2 AND s LIKE 'p%'",
            "SELECT a FROM t WHERE x BETWEEN 30 AND 44 AND s LIKE 'q%'",
            "SELECT a FROM (SELECT b FROM u WHERE c = 7) d WHERE e IN (1, 2, 3)",
            "SELECT a FROM (SELECT b FROM u WHERE c = 9) d WHERE e IN (4, 5, 6)",
            "SELECT count(*) FROM t GROUP BY g HAVING count(*) > 5",
            "SELECT str(p.ra, 10, 4) FROM photoprimary p WHERE p.objid = 1",
            "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
            "SELECT CASE WHEN x = 1 THEN 'one' ELSE 'other' END FROM t",
            "SELECT x FROM a INNER JOIN b ON a.id = b.id WHERE a.v = 3",
            "SELECT x FROM t WHERE y IN (SELECT z FROM u WHERE w = 11)",
            "SELECT a FROM t WHERE x = 1 UNION SELECT a FROM t WHERE x = 2",
        ] {
            assert_batched_matches_direct(&cache, sql);
        }
    }

    #[test]
    fn identifier_spelling_is_not_shared_across_statements() {
        // Same tokens modulo case → same RawKey, but masked keys differ, so
        // each spelling renders with its own identifiers.
        let cache = QueryCache::default();
        assert_batched_matches_direct(&cache, "SELECT Name FROM Employee WHERE EmpId = 8");
        assert_batched_matches_direct(&cache, "select name from employee where empid = 9");
    }

    #[test]
    fn duplicate_literal_representatives_degrade_soundly() {
        // "1, 1" cannot be certified (ambiguous slot order); the shape must
        // still answer correctly for "2, 3".
        let cache = QueryCache::default();
        assert_batched_matches_direct(&cache, "SELECT a FROM t WHERE x = 1 AND y = 1");
        assert_batched_matches_direct(&cache, "SELECT a FROM t WHERE x = 2 AND y = 3");
    }

    #[test]
    fn literals_outside_the_walker_degrade_soundly() {
        // The CAST type's "32" is a scanned span but lives in `ty: String`,
        // not a literal slot — certification must reject the shape.
        let cache = QueryCache::default();
        assert_batched_matches_direct(&cache, "SELECT CAST(x AS varchar(32)) FROM t WHERE y = 1");
        assert_batched_matches_direct(&cache, "SELECT CAST(x AS varchar(32)) FROM t WHERE y = 2");
    }

    #[test]
    fn unkeyable_and_non_select_statements_pass_through() {
        let cache = QueryCache::default();
        let rec = Recorder::disabled();
        assert!(cache.query("SELECT 'oops", &rec).is_none());
        assert!(cache.query("DELETE FROM t WHERE x = 1", &rec).is_none());
        assert!(cache.query("DELETE FROM t WHERE x = 2", &rec).is_none());
    }

    #[test]
    fn certified_templates_are_counted_once_per_shape() {
        let cache = QueryCache::default();
        let rec = Recorder::new();
        for v in 0..5 {
            cache
                .query(&format!("SELECT a FROM t WHERE x = {v}"), &rec)
                .unwrap();
        }
        cache
            .query("SELECT b FROM other WHERE y = 'z'", &rec)
            .unwrap();
        assert_eq!(rec.counters().get("solve.batched_templates"), Some(&2));
    }

    #[test]
    fn number_and_string_kinds_never_cross_shapes() {
        let cache = QueryCache::default();
        assert_batched_matches_direct(&cache, "SELECT a FROM t WHERE x = 1");
        assert_batched_matches_direct(&cache, "SELECT a FROM t WHERE x = '1'");
    }
}
