//! Metamorphic invariants: transformations that must not change anything.
//!
//! Three families of checks, all driven by statements sampled from the
//! generated log:
//!
//! * **Parse → print → parse fixpoint** — printing a parsed statement and
//!   re-parsing the printed text must converge after one round (the second
//!   print equals the first) and must preserve the template fingerprint.
//! * **Skeleton invariance** — whitespace inflation, case flipping,
//!   comment insertion and literal substitution are all identity
//!   transformations for the query *template* ([`QueryTemplate`]
//!   fingerprint) and for the raw parse-cache key ([`RawKey`](sqlog_skeleton::RawKey)).
//!   Perturbations are literal-aware: string-literal bytes are never
//!   touched, so every perturbed statement means the same thing.
//! * **Session-shift invariance** — shifting each user's clock by a
//!   per-user constant reorders sessions globally but preserves every
//!   per-user gap, so per-class detection counts and the clean/removal log
//!   sizes must not move.

use sqlog_catalog::Catalog;
use sqlog_core::Pipeline;
use sqlog_log::{QueryLog, Timestamp};
use sqlog_skeleton::{raw_shape_scan, QueryTemplate, RawLiteral, RawLiteralKind};
use sqlog_sql::parse_statement;
use std::collections::BTreeMap;

/// At most this many distinct statements are sampled per run.
const SAMPLE_LIMIT: usize = 300;

/// Outcome of the metamorphic checks.
#[derive(Debug, Clone, Default)]
pub struct MetamorphicReport {
    /// Statements put through the parse→print→parse fixpoint check.
    pub fixpoint_checked: usize,
    /// (statement, perturbation) pairs put through skeleton invariance.
    pub skeleton_checked: usize,
    /// Statements skipped by the skeleton check because their raw shape is
    /// unkeyable (unterminated strings/comments/quoted identifiers, bare
    /// `@`) — byte-level perturbation is unsafe without literal spans.
    pub skeleton_skipped: usize,
    /// Whether the session-shift pipeline comparison ran.
    pub shift_checked: bool,
    /// Human-readable description of every violated invariant.
    pub failures: Vec<String>,
}

impl MetamorphicReport {
    /// Number of violated invariants.
    pub fn failure_count(&self) -> usize {
        self.failures.len()
    }

    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs all metamorphic checks over a log.
pub fn check_invariants(log: &QueryLog, catalog: &Catalog, seed: u64) -> MetamorphicReport {
    let mut report = MetamorphicReport::default();
    for sql in sample_statements(log) {
        check_fixpoint(sql, &mut report);
        check_skeleton_invariance(sql, &mut report);
    }
    check_session_shift(log, catalog, seed, &mut report);
    report
}

/// Distinct statements of the log, in first-appearance order, strided down
/// to at most [`SAMPLE_LIMIT`].
fn sample_statements(log: &QueryLog) -> Vec<&str> {
    let mut seen = std::collections::HashSet::new();
    let distinct: Vec<&str> = log
        .entries
        .iter()
        .map(|e| e.statement.as_str())
        .filter(|s| seen.insert(*s))
        .collect();
    let stride = distinct.len().div_ceil(SAMPLE_LIMIT).max(1);
    distinct.into_iter().step_by(stride).collect()
}

fn fingerprint_of(sql: &str) -> Option<(sqlog_skeleton::Fingerprint, QueryTemplate)> {
    let stmt = parse_statement(sql).ok()?;
    let q = stmt.as_select()?;
    let t = QueryTemplate::of_query(q);
    Some((t.fingerprint, t))
}

/// Parse → print → parse: one round reaches the fixpoint, and the printed
/// form keeps the template.
fn check_fixpoint(sql: &str, report: &mut MetamorphicReport) {
    let Ok(stmt) = parse_statement(sql) else {
        return; // planted Malformed noise; nothing to round-trip
    };
    if stmt.as_select().is_none() {
        // Non-SELECT kinds are recognized but not printable — the pipeline
        // only rewrites SELECTs, so only those need to round-trip.
        return;
    }
    report.fixpoint_checked += 1;
    let printed = stmt.to_string();
    let reparsed = match parse_statement(&printed) {
        Ok(s) => s,
        Err(e) => {
            report
                .failures
                .push(format!("printed form of {sql:?} fails to re-parse: {e}"));
            return;
        }
    };
    let printed_again = reparsed.to_string();
    if printed_again != printed {
        report.failures.push(format!(
            "print is not a fixpoint for {sql:?}: {printed:?} vs {printed_again:?}"
        ));
        return;
    }
    if let (Some(a), Some(b)) = (stmt.as_select(), reparsed.as_select()) {
        let (ta, tb) = (QueryTemplate::of_query(a), QueryTemplate::of_query(b));
        if !ta.similar(&tb) || ta.fingerprint != tb.fingerprint {
            report.failures.push(format!(
                "printing changed the template of {sql:?}: {:?} vs {:?}",
                ta.full, tb.full
            ));
        }
    }
}

/// Whitespace / case / comment / literal perturbations preserve the
/// template fingerprint and the raw cache key.
fn check_skeleton_invariance(sql: &str, report: &mut MetamorphicReport) {
    let Some((base_fp, _)) = fingerprint_of(sql) else {
        return; // non-SELECT or malformed: no template to preserve
    };
    let mut literals = Vec::new();
    let Some(base_key) = raw_shape_scan(sql, &mut literals) else {
        // No raw key means no reliable literal spans, and byte-level
        // perturbation is not safe without them.
        report.skeleton_skipped += 1;
        return;
    };
    let perturbed = [
        ("whitespace", inflate_whitespace(sql, &literals)),
        ("case", flip_case(sql, &literals)),
        ("comment", wrap_in_comments(sql)),
        ("literal", remap_number_literals(sql, &literals)),
    ];
    for (name, variant) in perturbed {
        report.skeleton_checked += 1;
        let literal_variant = name == "literal";
        match fingerprint_of(&variant) {
            None => report.failures.push(format!(
                "{name} perturbation broke parsing: {sql:?} -> {variant:?}"
            )),
            // Literal substitution changes constants, never the template.
            Some((fp, _)) if fp != base_fp => report.failures.push(format!(
                "{name} perturbation changed the template fingerprint: \
                 {sql:?} -> {variant:?}"
            )),
            Some(_) => {}
        }
        let mut scratch = Vec::new();
        match raw_shape_scan(&variant, &mut scratch) {
            None => report.failures.push(format!(
                "{name} perturbation made the raw key uncacheable: {variant:?}"
            )),
            Some(key) if key != base_key => report.failures.push(format!(
                "{name} perturbation changed the raw cache key: {sql:?} -> {variant:?}"
            )),
            Some(_) => {}
        }
        if literal_variant {
            // Literal spans must still be found at matching positions-in-kind.
            if scratch.len() != literals.len() {
                report.failures.push(format!(
                    "literal perturbation changed the literal count of {sql:?}"
                ));
            }
        }
    }
}

fn string_spans(literals: &[RawLiteral]) -> Vec<(usize, usize)> {
    literals
        .iter()
        .filter(|l| matches!(l.kind, RawLiteralKind::String { .. }))
        .map(|l| (l.start as usize, l.end as usize))
        .collect()
}

fn in_spans(spans: &[(usize, usize)], i: usize) -> bool {
    spans.iter().any(|&(s, e)| i >= s && i < e)
}

/// Doubles every space outside string literals and appends trailing blanks.
fn inflate_whitespace(sql: &str, literals: &[RawLiteral]) -> String {
    let spans = string_spans(literals);
    let mut out = String::with_capacity(sql.len() * 2);
    for (i, c) in sql.char_indices() {
        out.push(c);
        if c == ' ' && !in_spans(&spans, i) {
            out.push_str(" \t ");
        }
    }
    out.push_str("  ");
    out
}

/// Flips the case of every ASCII letter outside string literals. Safe
/// because a successful [`raw_shape_scan`] guarantees there are no quoted
/// identifiers in the statement.
fn flip_case(sql: &str, literals: &[RawLiteral]) -> String {
    let spans = string_spans(literals);
    sql.char_indices()
        .map(|(i, c)| {
            if in_spans(&spans, i) {
                c
            } else if c.is_ascii_lowercase() {
                c.to_ascii_uppercase()
            } else if c.is_ascii_uppercase() {
                c.to_ascii_lowercase()
            } else {
                c
            }
        })
        .collect()
}

/// Prefixes and suffixes the statement with line comments.
fn wrap_in_comments(sql: &str) -> String {
    format!("-- metamorphic head\n{sql}\n-- metamorphic tail")
}

/// Is the number starting at byte `start` a CAST type size (`DECIMAL(10,2)`)
/// rather than a data literal? Type sizes are part of the query *template*
/// (the skeleton renders the full type name), so substituting them is not an
/// identity transformation and they must be left alone.
fn is_cast_type_size(sql: &[u8], start: usize) -> bool {
    let ws = |b: u8| matches!(b, b' ' | b'\t' | b'\r' | b'\n');
    let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut i = start;
    // Left over the size list (digits, commas, blanks) to an opening paren.
    while i > 0 && (sql[i - 1].is_ascii_digit() || sql[i - 1] == b',' || ws(sql[i - 1])) {
        i -= 1;
    }
    if i == 0 || sql[i - 1] != b'(' {
        return false;
    }
    i -= 1;
    while i > 0 && ws(sql[i - 1]) {
        i -= 1;
    }
    // The type name, then the `AS` keyword before it.
    let name_end = i;
    while i > 0 && word(sql[i - 1]) {
        i -= 1;
    }
    if i == name_end {
        return false;
    }
    while i > 0 && ws(sql[i - 1]) {
        i -= 1;
    }
    i >= 2 && sql[i - 2..i].eq_ignore_ascii_case(b"as") && (i == 2 || !word(sql[i - 3]))
}

/// Rewrites every digit of every number literal to a different digit,
/// producing different — but still valid — constants. CAST type sizes are
/// not literals (see [`is_cast_type_size`]) and stay untouched.
fn remap_number_literals(sql: &str, literals: &[RawLiteral]) -> String {
    let number_spans: Vec<(usize, usize)> = literals
        .iter()
        .filter(|l| l.kind == RawLiteralKind::Number)
        .filter(|l| !is_cast_type_size(sql.as_bytes(), l.start as usize))
        .map(|l| (l.start as usize, l.end as usize))
        .collect();
    sql.char_indices()
        .map(|(i, c)| {
            if in_spans(&number_spans, i) && c.is_ascii_digit() {
                // 0..=4 shift up, 5..=9 shift down: stays one digit and the
                // huge SkyServer object ids stay within i64.
                let d = c as u8 - b'0';
                let mapped = if d < 5 { d + 1 } else { d - 1 };
                (b'0' + mapped) as char
            } else {
                c
            }
        })
        .collect()
}

/// A deterministic per-user clock shift (whole minutes, up to ~3 days) that
/// preserves all intra-user gaps.
fn user_shift_ms(user: &str, seed: u64) -> i64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in user.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    ((h % 4_320) * 60_000) as i64
}

/// Runs the pipeline on the original and the per-user time-shifted log and
/// compares detection counts and output sizes.
fn check_session_shift(
    log: &QueryLog,
    catalog: &Catalog,
    seed: u64,
    report: &mut MetamorphicReport,
) {
    let mut shifted = log.clone();
    for e in &mut shifted.entries {
        let user = e.user.as_deref().unwrap_or("");
        e.timestamp = Timestamp::from_millis(e.timestamp.0 + user_shift_ms(user, seed));
    }
    let base = Pipeline::new(catalog).run(log);
    let moved = Pipeline::new(catalog).run(&shifted);
    report.shift_checked = true;

    let counts = |r: &sqlog_core::PipelineResult| -> BTreeMap<String, (usize, usize)> {
        r.stats
            .per_class
            .iter()
            .map(|(k, c)| (k.clone(), (c.instances, c.queries)))
            .collect()
    };
    if counts(&base) != counts(&moved) {
        report.failures.push(format!(
            "session shift changed per-class counts: {:?} vs {:?}",
            counts(&base),
            counts(&moved)
        ));
    }
    if base.stats.final_size != moved.stats.final_size
        || base.stats.removal_size != moved.stats.removal_size
    {
        report.failures.push(format!(
            "session shift changed output sizes: final {} -> {}, removal {} -> {}",
            base.stats.final_size,
            moved.stats.final_size,
            base.stats.removal_size,
            moved.stats.removal_size
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_catalog::skyserver_catalog;
    use sqlog_gen::{generate, GenConfig};

    #[test]
    fn perturbations_change_bytes_but_not_shape() {
        let sql = "SELECT name, dept FROM Employee WHERE empId = 8 AND note = 'a b'";
        let mut lits = Vec::new();
        raw_shape_scan(sql, &mut lits).expect("cacheable");
        let ws = inflate_whitespace(sql, &lits);
        let case = flip_case(sql, &lits);
        let lit = remap_number_literals(sql, &lits);
        assert_ne!(ws, sql);
        assert_ne!(case, sql);
        assert_ne!(lit, sql);
        // The string literal is untouched by all of them.
        for v in [&ws, &case, &lit] {
            assert!(v.contains("'a b'"), "{v}");
        }
        assert!(lit.contains("= 7"), "{lit}"); // 8 -> 7
    }

    #[test]
    fn cast_type_sizes_are_not_literals() {
        let sql = "SELECT CAST(ra AS DECIMAL(10,2)) FROM photoprimary WHERE objid = 42";
        let mut lits = Vec::new();
        raw_shape_scan(sql, &mut lits).unwrap();
        let out = remap_number_literals(sql, &lits);
        // Type sizes are template, not data: they must survive unchanged
        // while the real constant moves.
        assert!(out.contains("DECIMAL(10,2)"), "{out}");
        assert!(out.contains("= 53"), "{out}"); // 42 -> 53
    }

    #[test]
    fn invariants_hold_on_a_generated_log() {
        let catalog = skyserver_catalog();
        let log = generate(&GenConfig::with_scale(800, 5));
        let report = check_invariants(&log, &catalog, 5);
        assert!(report.passed(), "{:#?}", report.failures);
        assert!(report.fixpoint_checked > 0);
        assert!(report.skeleton_checked > 0);
        assert!(report.shift_checked);
    }

    #[test]
    fn a_broken_printer_would_be_caught() {
        // Sanity: the fixpoint check actually fires on a non-fixpoint pair.
        let mut report = MetamorphicReport::default();
        check_fixpoint("SELECT a FROM t WHERE x = 1", &mut report);
        assert_eq!(report.fixpoint_checked, 1);
        assert!(report.passed());
    }
}
