//! Executor coverage over the generated workload: every statement of the
//! synthetic log either executes or fails with an *honest* error — the
//! engine never panics and never silently mis-executes an unsupported shape.
//!
//! The differential tests below additionally pin the cost-based
//! planner + Volcano executor to the naive reference path, a nested-loop
//! full scan that uses no index: over the full generated log and over
//! every statement of the solver-rewrite corpus, both executors must
//! produce identical rows (order-normalized) or both must reject the
//! statement.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::Pipeline;
use sqlog_gen::{generate, GenConfig};
use sqlog_minidb::datagen::skyserver_db;
use sqlog_minidb::{ExecError, ExecResult, MiniDb, PlanNode, Value};
use sqlog_sql::ast::Query;

#[test]
fn every_generated_statement_executes_or_errors_honestly() {
    let log = generate(&GenConfig::with_scale(4_000, 31415));
    let db = skyserver_db(2_000, 31415);
    let mut executed = 0usize;
    let mut unsupported = 0usize;
    let mut rejected = 0usize;
    for e in &log.entries {
        match db.execute_sql(&e.statement) {
            Ok(_) => executed += 1,
            Err(ExecError::Unsupported(_)) => unsupported += 1,
            Err(
                ExecError::UnknownTable(_) | ExecError::UnknownColumn(_) | ExecError::NotGrouped(_),
            ) => rejected += 1,
        }
    }
    // The point-lookup crawlers, window scans, metadata browsing and most
    // human idioms execute; the table-valued-function spatial searches are
    // honestly Unsupported.
    assert!(
        executed as f64 > 0.5 * log.len() as f64,
        "executed {executed} of {}",
        log.len()
    );
    assert!(unsupported > 0);
    // Nothing should reference tables/columns the datagen lacks.
    assert_eq!(
        rejected, 0,
        "{rejected} statements hit missing tables/columns"
    );
}

fn parse_select(sql: &str) -> Option<Query> {
    let stmt = sqlog_sql::parse_statement(sql).ok()?;
    stmt.as_select().cloned()
}

/// Order-normalized row multiset of a result.
fn sorted_rows(r: &ExecResult) -> Vec<String> {
    let mut keys: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    keys.sort();
    keys
}

/// Runs one statement through both executors and asserts they agree:
/// identical columns and rows (order-normalized) when both execute, or
/// both rejecting it. Returns whether the statement executed.
fn assert_paths_agree(db: &MiniDb, sql: &str) -> bool {
    let Some(query) = parse_select(sql) else {
        return false;
    };
    let planned = db.execute_query(&query);
    let naive = db.execute_query_naive(&query);
    match (planned, naive) {
        (Ok(p), Ok(n)) => {
            assert_eq!(p.columns, n.columns, "columns diverge on {sql:?}");
            assert_eq!(sorted_rows(&p), sorted_rows(&n), "rows diverge on {sql:?}");
            true
        }
        (Err(_), Err(_)) => false,
        (p, n) => panic!(
            "executors diverge on {sql:?}: planned {:?}, naive {:?}",
            p.as_ref().map(|r| r.rows.len()),
            n.as_ref().map(|r| r.rows.len())
        ),
    }
}

#[test]
fn planned_executor_matches_naive_reference_on_generated_log() {
    let log = generate(&GenConfig::with_scale(3_000, 27182));
    let db = skyserver_db(2_000, 27182);
    let mut executed = 0usize;
    for e in &log.entries {
        if assert_paths_agree(&db, &e.statement) {
            executed += 1;
        }
    }
    assert!(
        executed as f64 > 0.5 * log.len() as f64,
        "compared only {executed} of {}",
        log.len()
    );
}

#[test]
fn planned_executor_matches_naive_reference_on_solver_rewrites() {
    let log = generate(&GenConfig::with_scale(3_000, 16180));
    let corpus = Pipeline::new(&skyserver_catalog()).run(&log);
    assert!(
        !corpus.rewrites.is_empty(),
        "pipeline produced no rewrites to compare"
    );
    let db = skyserver_db(2_000, 16180);
    let mut executed = 0usize;
    for rw in &corpus.rewrites {
        for sql in rw
            .original_statements
            .iter()
            .chain(&rw.rewritten_statements)
        {
            if assert_paths_agree(&db, sql) {
                executed += 1;
            }
        }
    }
    assert!(executed > 0, "no corpus statement executed on both paths");
}

/// A self-join `t AS a JOIN t AS b` with `t.id = 1` (or `b.id = 1`): the
/// executor binds a qualifier to the *first* source it names, so the planner
/// must seek on that one source only. Returns the (binding, access) pairs
/// of the plan's scans after checking both executors agree on the rows.
fn self_join_scans(filter: &str) -> Vec<(String, &'static str)> {
    use sqlog_minidb::table::{ColumnData, Table};
    let mut t = Table::new("t");
    t.add_column("id", ColumnData::Int(vec![Some(1), Some(2), Some(3)]));
    t.add_column("g", ColumnData::Int(vec![Some(7), Some(7), Some(8)]));
    t.build_pk("id");
    let mut db = MiniDb::new();
    db.add_table(t);

    let sql = format!("SELECT a.id, b.id FROM t AS a JOIN t AS b ON a.g = b.g WHERE {filter}");
    let q = parse_select(&sql).expect("self-join parses");
    let naive = db.execute_query_naive(&q).unwrap();
    let planned = db.execute_query_planned(&q).unwrap();
    assert_eq!(naive.rows, planned.result.rows, "rows diverge on {sql:?}");
    assert!(!naive.rows.is_empty(), "{sql:?} should return rows");
    db.plan(&q)
        .unwrap()
        .scans()
        .into_iter()
        .map(|s| (s.binding.clone(), s.access.variant()))
        .collect()
}

#[test]
fn self_join_table_qualifier_seeks_on_first_binding_only() {
    assert_eq!(
        self_join_scans("t.id = 1"),
        [("a".to_string(), "PkSeek"), ("b".to_string(), "FullScan")]
    );
}

#[test]
fn self_join_alias_qualifier_seeks_on_that_binding() {
    assert_eq!(
        self_join_scans("b.id = 1"),
        [("a".to_string(), "FullScan"), ("b".to_string(), "PkSeek")]
    );
}

/// `t(id pk, v int, s str)` and `u(id pk, d int)`, three rows each.
fn small_db() -> MiniDb {
    use sqlog_minidb::table::{ColumnData, Table};
    let mut t = Table::new("t");
    t.add_column("id", ColumnData::Int(vec![Some(1), Some(2), Some(3)]));
    t.add_column("v", ColumnData::Int(vec![Some(10), Some(20), None]));
    t.add_column(
        "s",
        ColumnData::Str(vec![Some("ab".into()), None, Some("cd".into())]),
    );
    t.build_pk("id");
    let mut u = Table::new("u");
    u.add_column("id", ColumnData::Int(vec![Some(1), Some(2), Some(3)]));
    u.add_column("d", ColumnData::Int(vec![Some(7), Some(8), Some(9)]));
    u.build_pk("id");
    let mut db = MiniDb::new();
    db.add_table(t);
    db.add_table(u);
    db
}

/// Runs `sql` through both executors, asserts they agree (rows and error
/// text alike), and returns the planned outcome.
fn run_both(db: &MiniDb, sql: &str) -> Result<ExecResult, String> {
    let q = parse_select(sql).expect("test statement parses");
    let planned = db
        .execute_query_planned(&q)
        .map(|p| p.result)
        .map_err(|e| e.to_string());
    let naive = db.execute_query_naive(&q).map_err(|e| e.to_string());
    assert_eq!(
        planned.as_ref().map(|r| (&r.columns, &r.rows)),
        naive.as_ref().map(|r| (&r.columns, &r.rows)),
        "executors diverge on {sql:?}"
    );
    planned
}

#[test]
fn bad_expressions_no_row_reaches_do_not_fail() {
    let db = small_db();
    for sql in [
        // Full scan, no row passes the filter.
        "SELECT nosuch FROM t WHERE v > 1000000",
        "SELECT upper(v) FROM t WHERE v > 1000000",
        // Primary-key seek that finds no key: no candidate row at all.
        "SELECT nosuch FROM t WHERE id = 99",
    ] {
        let r = run_both(&db, sql).unwrap_or_else(|e| panic!("{sql:?} failed: {e}"));
        assert!(r.rows.is_empty(), "{sql:?} returned rows");
    }
    let q = parse_select("SELECT nosuch FROM t WHERE id = 99").unwrap();
    let plan = db.plan(&q).unwrap();
    assert_eq!(plan.scans()[0].access.variant(), "PkSeek");

    // The one statement here whose outcome depends on the access path: the
    // planned PkSeek reaches no row, so the bad conjunct is never
    // evaluated; the naive full scan reaches every row and reports it.
    let q = parse_select("SELECT id FROM t WHERE id = 99 AND nosuch = 1").unwrap();
    assert_eq!(db.plan(&q).unwrap().scans()[0].access.variant(), "PkSeek");
    let planned = db.execute_query(&q).unwrap();
    assert_eq!(planned.columns, ["id"]);
    assert!(planned.rows.is_empty());
    assert_eq!(
        db.execute_query_naive(&q).map_err(|e| e.to_string()),
        Err("unknown column nosuch".to_string())
    );
}

#[test]
fn bad_expressions_a_row_reaches_fail_with_the_same_error() {
    let db = small_db();
    for (sql, error) in [
        ("SELECT nosuch FROM t WHERE v > 0", "unknown column nosuch"),
        ("SELECT nosuch FROM t WHERE id = 2", "unknown column nosuch"),
        ("SELECT id FROM t WHERE nosuch = 1", "unknown column nosuch"),
        (
            "SELECT upper(v) FROM t WHERE id = 1",
            "unsupported query shape: upper takes one string",
        ),
        (
            "SELECT id FROM t WHERE frob(v) = 1",
            "unsupported query shape: function frob",
        ),
        // A qualifier binds to the first source it names; the column must
        // be there even when a later source (`u`, aliased `t`) has it.
        (
            "SELECT t.d FROM t AS x JOIN u AS t ON x.id = t.id",
            "unknown column t.d",
        ),
        (
            "SELECT a.nosuch FROM t AS a JOIN t AS b ON a.id = b.id",
            "unknown column a.nosuch",
        ),
    ] {
        assert_eq!(run_both(&db, sql).err().as_deref(), Some(error), "{sql:?}");
    }
    // `upper` of an integer fails only for a row that reaches it: NULL `v`
    // (row 3) and string columns are fine.
    assert!(run_both(&db, "SELECT upper(v) FROM t WHERE id = 3").is_ok());
    let r = run_both(&db, "SELECT upper(s) FROM t WHERE id IN (1, 2)").unwrap();
    assert_eq!(r.rows, vec![vec![Value::from("AB")], vec![Value::Null]]);
}

#[test]
fn derived_columns_and_self_join_qualifiers_resolve() {
    let db = small_db();
    let r = run_both(
        &db,
        "SELECT d.v, w FROM (SELECT v, v + 1 AS w FROM t WHERE v > 0) AS d WHERE d.v > 10",
    )
    .unwrap();
    assert_eq!(r.columns, ["d.v", "w"]);
    assert_eq!(r.rows, vec![vec![Value::Int(20), Value::Float(21.0)]]);
    let r = run_both(
        &db,
        "SELECT a.v, b.v FROM t AS a JOIN t AS b ON a.id = b.id WHERE t.id = 2",
    )
    .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(20), Value::Int(20)]]);
    // `t.id` names `x` (the first source called `t`), so the ON condition
    // reads `x.id = x.id` and every `u` row joins the `x.id = 1` row. The
    // planner must not hash-probe `u` on `u.id`, which would drop two.
    let sql = "SELECT t.v, d FROM t AS x JOIN u AS t ON x.id = t.id WHERE x.id = 1";
    let r = run_both(&db, sql).unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(10), Value::Int(7)],
            vec![Value::Int(10), Value::Int(8)],
            vec![Value::Int(10), Value::Int(9)],
        ]
    );
    let plan = db.plan(&parse_select(sql).unwrap()).unwrap();
    let mut join = &plan.root;
    while let Some(input) = join.input() {
        join = input;
    }
    assert!(
        matches!(join, PlanNode::NestedLoopJoin { probe: None, .. }),
        "{}",
        plan.to_json().render()
    );
}

#[test]
fn top_reads_a_parenthesized_literal_on_every_path() {
    let db = skyserver_db(400, 1);
    let bare = run_both(
        &db,
        "SELECT TOP 2 type, count(*) FROM photoprimary GROUP BY type",
    )
    .unwrap();
    assert_eq!(bare.rows.len(), 2);
    for sql in [
        "SELECT TOP (2) type, count(*) FROM photoprimary GROUP BY type",
        "SELECT TOP ((2)) type, count(*) FROM photoprimary GROUP BY type",
    ] {
        assert_eq!(run_both(&db, sql).unwrap().rows, bare.rows, "{sql:?}");
    }
    let bare = run_both(&db, "SELECT TOP 2 objid FROM photoprimary").unwrap();
    assert_eq!(bare.rows.len(), 2);
    for sql in [
        "SELECT TOP (2) objid FROM photoprimary",
        "SELECT TOP ((2)) objid FROM photoprimary",
    ] {
        assert_eq!(run_both(&db, sql).unwrap().rows, bare.rows, "{sql:?}");
    }
}

#[test]
fn grouped_order_by_an_aggregate_sorts_the_groups() {
    let db = small_db();
    // `t.id = k` joins k rows of `u`: v = 10, 20, NULL get counts 1, 2, 3.
    let from = "FROM t AS a JOIN u AS b ON a.id >= b.id GROUP BY v";
    let asc = vec![
        vec![Value::Int(10), Value::Int(1)],
        vec![Value::Int(20), Value::Int(2)],
        vec![Value::Null, Value::Int(3)],
    ];
    let desc: Vec<_> = asc.iter().rev().cloned().collect();
    for (sql, want) in [
        (format!("SELECT v, count(*) {from} ORDER BY count(*)"), &asc),
        (
            format!("SELECT v, count(*) AS n {from} ORDER BY n DESC"),
            &desc,
        ),
    ] {
        let r = run_both(&db, &sql).unwrap_or_else(|e| panic!("{sql:?} failed: {e}"));
        assert_eq!(&r.rows, want, "{sql:?}");
    }
}

#[test]
fn grouped_order_by_an_alias_of_a_projected_column_sorts_the_groups() {
    let db = skyserver_db(400, 1);
    let by_alias = run_both(
        &db,
        "SELECT type AS t, count(*) FROM photoprimary GROUP BY type ORDER BY t",
    )
    .unwrap_or_else(|e| panic!("ORDER BY an alias failed: {e}"));
    let by_column = run_both(
        &db,
        "SELECT type, count(*) FROM photoprimary GROUP BY type ORDER BY type",
    )
    .unwrap();
    assert!(by_alias.rows.len() > 1);
    assert_eq!(by_alias.rows, by_column.rows);

    let db = small_db();
    let r = run_both(&db, "SELECT -v AS w, count(*) FROM t GROUP BY v ORDER BY w").unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(-20), Value::Int(1)],
            vec![Value::Int(-10), Value::Int(1)],
            vec![Value::Null, Value::Int(1)],
        ]
    );
    // An alias that shadows a column that is not grouped sorts by the
    // alias: t.s has no value per group, so `s` can only be the projected v.
    let r = run_both(
        &db,
        "SELECT v AS s, count(*) FROM t GROUP BY v ORDER BY s DESC",
    )
    .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(20), Value::Int(1)],
            vec![Value::Int(10), Value::Int(1)],
            vec![Value::Null, Value::Int(1)],
        ]
    );
    // A grouped column still shadows an alias of the same name: the
    // groups sort by t.v, not by the projected -v.
    let r = run_both(&db, "SELECT -v AS v, count(*) FROM t GROUP BY v ORDER BY v").unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(-10), Value::Int(1)],
            vec![Value::Int(-20), Value::Int(1)],
            vec![Value::Null, Value::Int(1)],
        ]
    );
}

#[test]
fn grouped_order_by_a_column_neither_grouped_nor_aggregated_is_an_error() {
    let db = small_db();
    for (sql, column) in [
        ("SELECT v, count(*) FROM t GROUP BY v ORDER BY s", "s"),
        (
            "SELECT v, count(*) FROM t GROUP BY v ORDER BY t.s DESC",
            "t.s",
        ),
        ("SELECT count(*) FROM t ORDER BY s", "s"),
    ] {
        let err = run_both(&db, sql).expect_err(sql);
        assert_eq!(
            err,
            format!(
                "column {column} is invalid in the ORDER BY clause because it is not \
                 contained in either an aggregate function or the GROUP BY clause"
            ),
            "{sql}"
        );
    }
    // A grouped column, however it is qualified, is a valid key.
    let r = run_both(
        &db,
        "SELECT v, count(*) FROM t GROUP BY v ORDER BY t.v DESC",
    )
    .unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(20), Value::Int(1)]);
}
