//! The semantic oracle: solver rewrites must preserve result sets.
//!
//! Every [`SolvedRewrite`] pair from the pipeline is executed against a
//! `sqlog-minidb` instance over generated SkyServer-like tables, with a
//! class-aware equivalence rule:
//!
//! * **DW-Stifle** — the merged `IN`-query, projected onto the originals'
//!   column list, must return exactly the multiset union of the original
//!   point queries' rows. (The rewrite may prepend the filter column; the
//!   solver deduplicates repeated constants, so the originals are
//!   deduplicated by statement text first.)
//! * **DS-Stifle** — for every original, the merged union-projection query
//!   restricted to that original's columns must equal its rows.
//! * **DF-Stifle** — for every original, the merged join projected onto
//!   that original's table-qualified columns must equal its rows.
//! * **SNC** — *intentionally not* result-equivalent: `col = NULL` /
//!   `col <> NULL` is never true under three-valued logic, so the original
//!   must return no rows and the `IS [NOT] NULL` rewrite must execute.
//!
//! Statements minidb cannot execute (features outside its SQL subset,
//! tables outside the generated schema) are counted as skipped, never as
//! passes; a rewrite that fails to execute while its originals ran is a
//! hard mismatch.
//!
//! With plan checks enabled ([`check_rewrites_with_plans`]), every
//! semantically-equivalent DW/DS/DF pair is additionally held to *plan*
//! properties of the cost-based planner:
//!
//! * the rewrite must plan an index seek (PkSeek / IndexSeek /
//!   IndexRangeSeek) whenever one was available — a rewrite that
//!   full-scans past a usable index is a planner regression;
//! * the rewrite's estimated plan cost must not exceed the summed plan
//!   costs of its distinct originals — merging never plans worse.
//!
//! The rewrites execute through the planner; the naive reference executor
//! (a plain full scan) is not consulted here. minidb's own differential
//! tests hold the two executors to the same rows.

use sqlog_core::{AntipatternClass, SolvedRewrite};
use sqlog_minidb::{ExecResult, MiniDb, QueryPlan, Value};

/// Outcome of the oracle over one run's rewrites.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// Rewrite pairs examined.
    pub pairs: usize,
    /// Pairs proven result-set equivalent (or SNC-policy conformant).
    pub equivalent: usize,
    /// Pairs where at least one original returned rows — the pairs with
    /// actual discriminative power.
    pub nonempty: usize,
    /// Pairs skipped because minidb could not execute an original.
    pub skipped: usize,
    /// Human-readable description of every failed pair (empty = pass).
    pub mismatches: Vec<String>,
    /// Pairs whose plans were inspected (plan checks enabled, pair
    /// equivalent, class DW/DS/DF).
    pub plan_checked: usize,
    /// Rewrites that planned an index seek on their primary scan.
    pub plan_seeks: usize,
    /// Plan-property violations (empty = pass).
    pub plan_failures: Vec<String>,
}

impl OracleReport {
    /// Did every executable pair check out, plans included?
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.plan_failures.is_empty()
    }
}

/// Verdict for one rewrite pair.
enum Verdict {
    Equivalent { nonempty: bool },
    Skipped(#[allow(dead_code)] String),
    Mismatch(String),
}

/// Checks every rewrite pair against the database (result sets only).
pub fn check_rewrites(db: &MiniDb, rewrites: &[SolvedRewrite]) -> OracleReport {
    check_rewrites_with_plans(db, rewrites, false)
}

/// Checks every rewrite pair against the database, optionally holding the
/// equivalent DW/DS/DF pairs to the planner's plan properties as well.
pub fn check_rewrites_with_plans(
    db: &MiniDb,
    rewrites: &[SolvedRewrite],
    plan_checks: bool,
) -> OracleReport {
    let mut report = OracleReport::default();
    for rw in rewrites {
        report.pairs += 1;
        match check_one(db, rw) {
            Verdict::Equivalent { nonempty } => {
                report.equivalent += 1;
                if nonempty {
                    report.nonempty += 1;
                }
                if plan_checks && plan_checkable(&rw.class) {
                    check_plans(db, rw, &mut report);
                }
            }
            Verdict::Skipped(_) => report.skipped += 1,
            Verdict::Mismatch(why) => report.mismatches.push(format!(
                "{} [entries {:?}]: {why}",
                rw.class.label(),
                rw.entry_ids
            )),
        }
    }
    report
}

/// Plan properties only apply to the merge rewrites: SNC deliberately
/// changes semantics and carries no merged access path to inspect.
fn plan_checkable(class: &AntipatternClass) -> bool {
    matches!(
        class,
        AntipatternClass::DwStifle | AntipatternClass::DsStifle | AntipatternClass::DfStifle
    )
}

/// Plans a statement without executing it.
fn plan_of(db: &MiniDb, sql: &str) -> Result<QueryPlan, String> {
    let stmt = sqlog_sql::parse_statement(sql).map_err(|e| format!("{e}"))?;
    let q = stmt.as_select().ok_or_else(|| "not a SELECT".to_string())?;
    db.plan(q).map_err(|e| format!("{e:?}"))
}

/// Holds one equivalent pair to the planner's plan properties.
fn check_plans(db: &MiniDb, rw: &SolvedRewrite, report: &mut OracleReport) {
    let fail = |report: &mut OracleReport, why: String| {
        report.plan_failures.push(format!(
            "{} [entries {:?}]: {why}",
            rw.class.label(),
            rw.entry_ids
        ));
    };
    let Ok(merged_sql) = single_rewrite(rw) else {
        return; // already a mismatch shape; semantic check reported it
    };
    let plan = match plan_of(db, merged_sql) {
        Ok(p) => p,
        // The pair executed (it is equivalent), so an unplannable rewrite
        // is a planner bug, not a skip.
        Err(e) => return fail(report, format!("rewrite unplannable: {e}")),
    };
    report.plan_checked += 1;

    let seeks = plan
        .primary_scan()
        .is_some_and(|scan| scan.access.is_seek());
    if seeks {
        report.plan_seeks += 1;
    } else if plan.seek_was_available() {
        let chosen = plan
            .primary_scan()
            .map(|s| s.access.variant())
            .unwrap_or("none");
        return fail(
            report,
            format!(
                "rewrite planned {chosen} though an index seek was \
                 available: {merged_sql:?}"
            ),
        );
    }

    // Merging never plans worse: the rewrite's estimated cost must not
    // exceed the summed plan costs of its distinct originals.
    let mut seen: Vec<&String> = Vec::new();
    let mut originals_cost = 0.0;
    for sql in &rw.original_statements {
        if seen.contains(&sql) {
            continue;
        }
        seen.push(sql);
        match plan_of(db, sql) {
            Ok(p) => originals_cost += p.est_cost,
            // Originals executed; treat an unplannable one as a bug too.
            Err(e) => return fail(report, format!("original unplannable: {e}")),
        }
    }
    if plan.est_cost > originals_cost + 1e-6 {
        fail(
            report,
            format!(
                "rewrite plan cost {:.3} exceeds the originals' summed plan \
                 cost {originals_cost:.3} ({} distinct originals)",
                plan.est_cost,
                seen.len()
            ),
        );
    }
}

fn check_one(db: &MiniDb, rw: &SolvedRewrite) -> Verdict {
    match rw.class {
        AntipatternClass::DwStifle => check_dw(db, rw),
        AntipatternClass::DsStifle | AntipatternClass::DfStifle => check_per_original(db, rw),
        AntipatternClass::Snc => check_snc(db, rw),
        _ => Verdict::Skipped(format!("no oracle rule for class {}", rw.class.label())),
    }
}

fn exec(db: &MiniDb, sql: &str) -> Result<ExecResult, String> {
    db.execute_sql(sql)
        .map(|(r, _cost)| r)
        .map_err(|e| format!("{e:?}"))
}

/// Canonical multiset key of a row set: one stable string per row, sorted.
fn row_keys(rows: &[Vec<Value>]) -> Vec<String> {
    let mut keys: Vec<String> = rows.iter().map(|row| format!("{row:?}")).collect();
    keys.sort();
    keys
}

/// Index of `want` in `columns`: exact case-insensitive match first, then a
/// unique match on the qualifier-stripped last segment.
fn col_index(columns: &[String], want: &str) -> Option<usize> {
    let norm = |s: &str| s.to_ascii_lowercase();
    let last = |s: &str| norm(s.rsplit('.').next().unwrap_or(s));
    if let Some(i) = columns.iter().position(|c| norm(c) == norm(want)) {
        return Some(i);
    }
    let want_last = last(want);
    let hits: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| last(c) == want_last)
        .map(|(i, _)| i)
        .collect();
    match hits.as_slice() {
        [only] => Some(*only),
        _ => None,
    }
}

/// Projects a result onto a column-name list (names from another result).
fn project(result: &ExecResult, columns: &[String]) -> Result<Vec<Vec<Value>>, String> {
    let mut idx = Vec::with_capacity(columns.len());
    for want in columns {
        idx.push(col_index(&result.columns, want).ok_or_else(|| {
            format!(
                "column {want:?} not found in rewritten projection {:?}",
                result.columns
            )
        })?);
    }
    Ok(result
        .rows
        .iter()
        .map(|row| idx.iter().map(|&i| row[i].clone()).collect())
        .collect())
}

fn single_rewrite(rw: &SolvedRewrite) -> Result<&str, String> {
    match rw.rewritten_statements.as_slice() {
        [only] => Ok(only),
        other => Err(format!(
            "expected one rewritten statement, got {}",
            other.len()
        )),
    }
}

/// DW: multiset union of the (text-deduplicated) originals == the merged
/// query projected onto the originals' columns.
fn check_dw(db: &MiniDb, rw: &SolvedRewrite) -> Verdict {
    let merged_sql = match single_rewrite(rw) {
        Ok(s) => s,
        Err(e) => return Verdict::Mismatch(e),
    };
    // The solver deduplicates repeated IN-list constants; a repeated
    // original statement contributes its rows once.
    let mut seen = Vec::new();
    let mut union_rows: Vec<Vec<Value>> = Vec::new();
    let mut columns: Option<Vec<String>> = None;
    for sql in &rw.original_statements {
        if seen.contains(sql) {
            continue;
        }
        seen.push(sql.clone());
        let r = match exec(db, sql) {
            Ok(r) => r,
            Err(e) => return Verdict::Skipped(format!("original inexecutable: {e}")),
        };
        if columns.is_none() {
            columns = Some(r.columns.clone());
        }
        union_rows.extend(r.rows);
    }
    let Some(columns) = columns else {
        return Verdict::Skipped("instance has no originals".into());
    };
    let merged = match exec(db, merged_sql) {
        Ok(r) => r,
        Err(e) => return Verdict::Mismatch(format!("rewrite inexecutable: {e}")),
    };
    let projected = match project(&merged, &columns) {
        Ok(rows) => rows,
        Err(e) => return Verdict::Mismatch(e),
    };
    if row_keys(&projected) != row_keys(&union_rows) {
        return Verdict::Mismatch(format!(
            "result sets differ: originals returned {} rows, rewrite {} \
             (projected onto {columns:?})",
            union_rows.len(),
            projected.len()
        ));
    }
    Verdict::Equivalent {
        nonempty: !union_rows.is_empty(),
    }
}

/// DS/DF: for every original, the merged query projected onto that
/// original's columns equals its rows. For DF the original's columns are
/// qualified by its table in the merged projection; [`col_index`]'s
/// qualified-first matching covers both cases because each original names
/// its table via the qualified spelling when the bare name is ambiguous.
fn check_per_original(db: &MiniDb, rw: &SolvedRewrite) -> Verdict {
    let merged_sql = match single_rewrite(rw) {
        Ok(s) => s,
        Err(e) => return Verdict::Mismatch(e),
    };
    let merged = match exec(db, merged_sql) {
        Ok(r) => r,
        Err(e) => return Verdict::Mismatch(format!("rewrite inexecutable: {e}")),
    };
    let mut nonempty = false;
    for sql in &rw.original_statements {
        let original = match exec(db, sql) {
            Ok(r) => r,
            Err(e) => return Verdict::Skipped(format!("original inexecutable: {e}")),
        };
        nonempty |= !original.rows.is_empty();
        // Qualify the original's columns by its table when the rewrite is a
        // join (DF): `ra` in the query against `galaxy` maps to `galaxy.ra`.
        let columns: Vec<String> = if rw.class == AntipatternClass::DfStifle {
            match table_of(sql) {
                Some(table) => original
                    .columns
                    .iter()
                    .map(|c| format!("{table}.{}", c.rsplit('.').next().unwrap_or(c)))
                    .collect(),
                None => original.columns.clone(),
            }
        } else {
            original.columns.clone()
        };
        let projected = match project(&merged, &columns) {
            Ok(rows) => rows,
            Err(e) => return Verdict::Mismatch(e),
        };
        if row_keys(&projected) != row_keys(&original.rows) {
            return Verdict::Mismatch(format!(
                "original {sql:?} returned {} rows, rewrite projected onto \
                 {columns:?} returned {}",
                original.rows.len(),
                projected.len()
            ));
        }
    }
    Verdict::Equivalent { nonempty }
}

/// The primary table of a statement, lower-cased the way the solver's
/// analysis facts spell it.
fn table_of(sql: &str) -> Option<String> {
    let stmt = sqlog_sql::parse_statement(sql).ok()?;
    let q = stmt.as_select()?;
    sqlog_skeleton::primary_table(&q.body)
}

/// SNC: the original's never-true predicate returns no rows; the rewrite
/// executes (its result is the *corrected* semantics, deliberately
/// different — that is what makes SNC an antipattern).
fn check_snc(db: &MiniDb, rw: &SolvedRewrite) -> Verdict {
    for sql in &rw.original_statements {
        match exec(db, sql) {
            Ok(r) if r.rows.is_empty() => {}
            Ok(r) => {
                return Verdict::Mismatch(format!(
                    "SNC original {sql:?} returned {} rows; `= NULL` is never true",
                    r.rows.len()
                ))
            }
            Err(e) => return Verdict::Skipped(format!("original inexecutable: {e}")),
        }
    }
    for sql in &rw.rewritten_statements {
        if let Err(e) = exec(db, sql) {
            return Verdict::Mismatch(format!("rewrite inexecutable: {e}"));
        }
    }
    Verdict::Equivalent { nonempty: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_minidb::datagen::skyserver_db;

    fn rewrite(class: AntipatternClass, originals: &[&str], rewritten: &[&str]) -> SolvedRewrite {
        SolvedRewrite {
            class,
            entry_ids: (0..originals.len() as u64).collect(),
            original_statements: originals.iter().map(|s| s.to_string()).collect(),
            rewritten_statements: rewritten.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn dw_merge_is_equivalent() {
        let db = skyserver_db(500, 7);
        let rw = rewrite(
            AntipatternClass::DwStifle,
            &[
                "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982000000000",
                "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982000001000",
            ],
            &[
                "SELECT objid, rowc_g, colc_g FROM photoprimary WHERE objid IN \
               (587722982000000000, 587722982000001000)",
            ],
        );
        let report = check_rewrites(&db, &[rw]);
        assert!(report.passed(), "{:?}", report.mismatches);
        assert_eq!(report.equivalent, 1);
        assert_eq!(report.nonempty, 1);
    }

    #[test]
    fn dw_dropped_constant_is_caught() {
        let db = skyserver_db(500, 7);
        let rw = rewrite(
            AntipatternClass::DwStifle,
            &[
                "SELECT rowc_g FROM photoprimary WHERE objid=587722982000000000",
                "SELECT rowc_g FROM photoprimary WHERE objid=587722982000001000",
            ],
            // Broken rewrite: one constant lost.
            &["SELECT objid, rowc_g FROM photoprimary WHERE objid IN (587722982000000000)"],
        );
        let report = check_rewrites(&db, &[rw]);
        assert_eq!(report.mismatches.len(), 1, "{report:?}");
    }

    #[test]
    fn ds_union_is_equivalent() {
        let db = skyserver_db(500, 7);
        let rw = rewrite(
            AntipatternClass::DsStifle,
            &[
                "SELECT rowc_r, colc_r FROM photoprimary WHERE objid=587722982000002000",
                "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982000002000",
            ],
            &["SELECT rowc_r, colc_r, rowc_g, colc_g FROM photoprimary \
               WHERE objid = 587722982000002000"],
        );
        let report = check_rewrites(&db, &[rw]);
        assert!(report.passed(), "{:?}", report.mismatches);
    }

    #[test]
    fn df_join_is_equivalent() {
        let db = skyserver_db(500, 7);
        let rw = rewrite(
            AntipatternClass::DfStifle,
            &[
                "SELECT ra FROM photoprimary WHERE objid=587722982000003000",
                "SELECT ra FROM galaxy WHERE objid=587722982000003000",
            ],
            &[
                "SELECT photoprimary.ra, galaxy.ra FROM photoprimary INNER JOIN galaxy \
               ON galaxy.objid = photoprimary.objid WHERE photoprimary.objid = \
               587722982000003000",
            ],
        );
        let report = check_rewrites(&db, &[rw]);
        assert!(report.passed(), "{:?}", report.mismatches);
        assert_eq!(report.nonempty, 1);
    }

    #[test]
    fn snc_originals_must_be_empty() {
        let db = skyserver_db(500, 7);
        let good = rewrite(
            AntipatternClass::Snc,
            &["SELECT * FROM photoprimary WHERE flags = NULL"],
            &["SELECT * FROM photoprimary WHERE flags IS NULL"],
        );
        // A "rewrite" whose original actually returns rows is not SNC.
        let bad = rewrite(
            AntipatternClass::Snc,
            &["SELECT * FROM photoprimary WHERE type = 3"],
            &["SELECT * FROM photoprimary WHERE type IS NULL"],
        );
        let report = check_rewrites(&db, &[good, bad]);
        assert_eq!(report.equivalent, 1);
        assert_eq!(report.mismatches.len(), 1);
    }

    #[test]
    fn dw_rewrite_plans_a_pk_seek() {
        let db = skyserver_db(500, 7);
        let rw = rewrite(
            AntipatternClass::DwStifle,
            &[
                "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982000000000",
                "SELECT rowc_g, colc_g FROM photoprimary WHERE objid=587722982000001000",
            ],
            &[
                "SELECT objid, rowc_g, colc_g FROM photoprimary WHERE objid IN \
               (587722982000000000, 587722982000001000)",
            ],
        );
        let report = check_rewrites_with_plans(&db, &[rw], true);
        assert!(report.passed(), "{:?}", report.plan_failures);
        assert_eq!(report.plan_checked, 1);
        assert_eq!(report.plan_seeks, 1);
    }

    #[test]
    fn dw_rewrite_seeks_where_naive_originals_full_scanned() {
        // htmid only has a *range* index: the naive reference executor
        // full-scans every original, while the planner answers the merged
        // rewrite with a degenerate range seek. This is exactly the stifle
        // win the §6.3 experiment measures.
        let db = skyserver_db(500, 7);
        let htmid = {
            let (r, _) = db
                .execute_sql(
                    "SELECT TOP 1 htmid FROM photoprimary WHERE objid = 587722982000000000",
                )
                .unwrap();
            match r.rows[0][0] {
                Value::Int(v) => v,
                ref other => panic!("unexpected htmid {other:?}"),
            }
        };
        let original = format!("SELECT ra, dec FROM photoprimary WHERE htmid = {htmid}");
        let merged = format!("SELECT htmid, ra, dec FROM photoprimary WHERE htmid IN ({htmid})");
        let rw = rewrite(
            AntipatternClass::DwStifle,
            &[&original, &original],
            &[&merged],
        );
        let report = check_rewrites_with_plans(&db, &[rw], true);
        assert!(report.passed(), "{:?}", report.plan_failures);
        assert_eq!(report.plan_seeks, 1);
        let plan = plan_of(&db, &merged).unwrap();
        assert_eq!(
            plan.primary_scan().unwrap().access.variant(),
            "IndexRangeSeek"
        );
    }

    #[test]
    fn oversized_in_list_trips_the_seek_assertion() {
        // employee has 50 rows: an IN list probing most of the table makes
        // the full scan estimate cheaper than the seek, so the planner
        // (correctly, by cost) full-scans — and the strict plan assertion
        // reports it. The generated corpus never gets near this regime.
        let db = skyserver_db(500, 7);
        let keys: Vec<String> = (1..=40).map(|k| k.to_string()).collect();
        let originals: Vec<String> = (1..=40)
            .map(|k| format!("SELECT name FROM employee WHERE empid={k}"))
            .collect();
        let original_refs: Vec<&str> = originals.iter().map(|s| s.as_str()).collect();
        let merged = format!(
            "SELECT empid, name FROM employee WHERE empid IN ({})",
            keys.join(", ")
        );
        let rw = rewrite(AntipatternClass::DwStifle, &original_refs, &[&merged]);
        let report = check_rewrites_with_plans(&db, &[rw], true);
        assert_eq!(report.equivalent, 1, "{:?}", report.mismatches);
        assert_eq!(report.plan_failures.len(), 1, "{:?}", report.plan_failures);
        assert!(report.plan_failures[0].contains("index seek was available"));
    }

    #[test]
    fn plan_checks_off_by_default_in_check_rewrites() {
        let db = skyserver_db(200, 7);
        let rw = rewrite(
            AntipatternClass::DwStifle,
            &["SELECT rowc_g FROM photoprimary WHERE objid=587722982000000000"],
            &["SELECT objid, rowc_g FROM photoprimary WHERE objid IN (587722982000000000)"],
        );
        let report = check_rewrites(&db, &[rw]);
        assert!(report.passed());
        assert_eq!(report.plan_checked, 0);
        assert_eq!(report.plan_seeks, 0);
    }

    #[test]
    fn unknown_tables_are_skipped_not_passed() {
        let db = skyserver_db(100, 7);
        let rw = rewrite(
            AntipatternClass::DwStifle,
            &["SELECT a FROM nosuchtable WHERE k = 1"],
            &["SELECT k, a FROM nosuchtable WHERE k IN (1)"],
        );
        let report = check_rewrites(&db, &[rw]);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.equivalent, 0);
        assert!(report.passed());
    }
}
