//! Prepared plans: a `MiniDb` that has planned many statements (a *warm*
//! one, whose prepared shapes are reused) must plan, execute and count
//! exactly like a fresh `MiniDb` that plans the one statement from scratch.
//!
//! Each edge case below runs a sequence of statements built to share or
//! almost share a shape — names that differ only in case, `TOP 5` and
//! `TOP (5)`, an integer, a float and a string in the same position — on
//! one warm database, and compares every statement's plan JSON, rows and
//! `OpStats` (or error) with a fresh database's.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::Pipeline;
use sqlog_gen::{generate, GenConfig};
use sqlog_minidb::datagen::skyserver_db;
use sqlog_minidb::table::{ColumnData, Table};
use sqlog_minidb::{MiniDb, PlanMemoStats};
use sqlog_sql::ast::{Query, Statement};
use std::collections::HashSet;

fn parse(sql: &str) -> Query {
    let stmt = sqlog_sql::parse_statement(sql).expect("test statement parses");
    stmt.as_select()
        .expect("test statement is a SELECT")
        .clone()
}

/// Everything a planned execution shows: plan JSON, result and operator
/// counters, or the error text; plus the `explain` JSON.
fn outcome(db: &MiniDb, sql: &str) -> (String, String) {
    let q = parse(sql);
    let exec = match db.execute_query_planned(&q) {
        Ok(p) => format!(
            "{}\n{:?}\n{:?}\n{}",
            p.plan.to_json().render(),
            p.result.columns,
            p.result.rows,
            p.ops.to_json().render()
        ),
        Err(e) => format!("error: {e}"),
    };
    let explain = match db.explain(&q) {
        Ok(j) => j.render(),
        Err(e) => format!("error: {e}"),
    };
    (exec, explain)
}

/// Runs `statements` in order on one warm database and checks each
/// against a fresh database from `fresh`.
fn assert_warm_matches_fresh(fresh: impl Fn() -> MiniDb, statements: &[&str]) -> PlanMemoStats {
    let warm = fresh();
    for sql in statements {
        let expected = outcome(&fresh(), sql);
        assert_eq!(
            outcome(&warm, sql),
            expected,
            "warm and fresh diverge on {sql:?}"
        );
    }
    warm.plan_memo_stats()
}

/// `t(k, h, v, s)` over 200 rows: `k` is the primary key, `h` has an
/// ordered index (values 0..49, four rows each), `v = k / 10` is a float
/// and `s` a hash-indexed string.
fn table_t() -> Table {
    let mut t = Table::new("t");
    t.add_column("k", ColumnData::Int((0..200).map(Some).collect()));
    t.add_column(
        "h",
        ColumnData::Int((0..200).map(|i| Some(i / 4)).collect()),
    );
    t.add_column(
        "v",
        ColumnData::Float((0..200).map(|i| Some(i as f64 / 10.0)).collect()),
    );
    t.add_column(
        "s",
        ColumnData::Str(
            (0..200)
                .map(|i| {
                    Some(if i % 7 == 0 {
                        "it's".to_string()
                    } else {
                        i.to_string()
                    })
                })
                .collect(),
        ),
    );
    t.build_pk("k");
    t.build_range_index("h");
    t.build_index("s");
    t
}

fn db_t() -> MiniDb {
    let mut db = MiniDb::new();
    db.add_table(table_t());
    db
}

#[test]
fn literal_kinds_are_part_of_the_shape() {
    let stats = assert_warm_matches_fresh(
        db_t,
        &[
            "SELECT v FROM t WHERE k = 7",
            "SELECT v FROM t WHERE k = 8",
            "SELECT v FROM t WHERE k = 7.0",
            "SELECT v FROM t WHERE k = 8.0",
            "SELECT v FROM t WHERE k = 7.5",
            "SELECT v FROM t WHERE k = '7'",
            "SELECT v FROM t WHERE k = 0x7",
            "SELECT v FROM t WHERE k = NULL",
            "SELECT v FROM t WHERE k = 7",
        ],
    );
    // Integer, float, string, hex and NULL keys are five shapes; every
    // other plan (each statement is executed and explained) reuses one.
    assert_eq!((stats.misses, stats.hits, stats.shapes), (5, 13, 5));
}

#[test]
fn range_bounds_are_re_costed() {
    let stats = assert_warm_matches_fresh(
        db_t,
        &[
            "SELECT k FROM t WHERE h > 5",
            // A wide range loses to the full scan, a narrow one wins.
            "SELECT k FROM t WHERE h > 45",
            "SELECT k FROM t WHERE h > 0",
            "SELECT k FROM t WHERE h > 5.5",
            "SELECT k FROM t WHERE h BETWEEN 3 AND 4",
            "SELECT k FROM t WHERE h BETWEEN 0 AND 48",
            "SELECT k FROM t WHERE h >= 10 AND h < 12 AND h > 2",
            "SELECT k FROM t WHERE h >= 40 AND h < 12 AND h > 2",
            "SELECT k FROM t WHERE h = 9",
            "SELECT k FROM t WHERE h = 9223372036854775807",
        ],
    );
    assert_eq!(stats.shapes, 5);
}

#[test]
fn identifiers_keep_their_case() {
    assert_warm_matches_fresh(
        db_t,
        &[
            "SELECT P.k FROM t AS P WHERE P.k = 3",
            "SELECT p.k FROM t AS p WHERE p.k = 3",
            "SELECT p.K FROM t AS p WHERE p.K = 4",
            "SELECT P.k FROM T AS P WHERE P.k = 5",
        ],
    );
}

#[test]
fn row_caps_fill_in_per_statement() {
    assert_warm_matches_fresh(
        db_t,
        &[
            "SELECT TOP 5 k FROM t ORDER BY v DESC",
            "SELECT TOP (5) k FROM t ORDER BY v DESC",
            "SELECT TOP 2 k FROM t ORDER BY v DESC",
            "SELECT TOP (300) k FROM t ORDER BY v DESC",
            "SELECT k FROM t WHERE h > 10 ORDER BY k LIMIT 3",
            "SELECT k FROM t WHERE h > 10 ORDER BY k LIMIT 30",
            "SELECT TOP 5 PERCENT k FROM t",
        ],
    );
}

#[test]
fn negative_numbers_strings_and_in_lists() {
    let stats = assert_warm_matches_fresh(
        db_t,
        &[
            "SELECT k, -3 FROM t WHERE k = -3",
            "SELECT k, -4 FROM t WHERE k = -4",
            "SELECT k FROM t WHERE v > -1.5 AND h < 2",
            "SELECT k FROM t WHERE v > -0.5 AND h < 3",
            "SELECT k, 'a''b' FROM t WHERE s = 'it''s' AND k < 20",
            "SELECT k, 'cd' FROM t WHERE s = '14' AND k < 20",
            "SELECT k FROM t WHERE s LIKE 'it''%'",
            "SELECT k FROM t WHERE k IN (1, 2)",
            "SELECT k FROM t WHERE k IN (3, 4)",
            "SELECT k FROM t WHERE k IN (5, 6, 7)",
            "SELECT k FROM t WHERE k IN (8)",
            "SELECT k FROM t WHERE k IN (9, 9.0, 10.5, '11')",
            "SELECT k FROM t WHERE k IN (1, 2) AND s IN ('it''s', '3')",
            "SELECT k FROM t WHERE k IN (1, 21) AND s IN ('2', '21')",
        ],
    );
    assert!(stats.hits >= 5, "{stats:?}");
}

#[test]
fn grouping_joins_and_derived_tables() {
    let db = || {
        let mut db = db_t();
        let mut u = Table::new("u");
        u.add_column("k", ColumnData::Int((0..50).map(|i| Some(i * 3)).collect()));
        u.add_column("w", ColumnData::Int((0..50).map(|i| Some(i % 5)).collect()));
        u.build_pk("k");
        db.add_table(u);
        db
    };
    assert_warm_matches_fresh(
        db,
        &[
            "SELECT h, count(*) FROM t WHERE k < 40 GROUP BY h HAVING count(*) > 1",
            "SELECT h, count(*) FROM t WHERE k < 80 GROUP BY h HAVING count(*) > 3",
            "SELECT h % 3, count(*) FROM t GROUP BY h % 3",
            "SELECT h % 4, count(*) FROM t GROUP BY h % 4",
            "SELECT t.k, u.w FROM t INNER JOIN u ON u.k = t.k WHERE t.k = 9",
            "SELECT t.k, u.w FROM t INNER JOIN u ON u.k = t.k WHERE t.k = 10",
            "SELECT t.k, u.w FROM t INNER JOIN u ON u.w = t.h WHERE t.k IN (3, 4)",
            "SELECT d.k FROM (SELECT k, h FROM t WHERE h BETWEEN 2 AND 3) AS d WHERE d.k > 9",
            "SELECT d.k FROM (SELECT k, h FROM t WHERE h BETWEEN 20 AND 30) AS d WHERE d.k > 90",
            "SELECT 1 + 2, 'x'",
            "SELECT 3 + 4, 'y'",
            "SELECT k FROM t WHERE k = 1 AND k IN (SELECT k FROM u WHERE w = 2)",
            "SELECT k FROM t WHERE k = 3 AND k IN (SELECT k FROM u WHERE w = 4)",
            "SELECT k FROM nosuch WHERE k = 1",
            "SELECT k FROM t WHERE k = 1 UNION SELECT k FROM u",
        ],
    );
}

#[test]
fn refused_shapes_fail_again_without_planning() {
    let statements = [
        "SELECT * FROM dbo.fGetNearbyObjEq(1.5, 2, 3) AS n",
        "SELECT * FROM dbo.fGetNearbyObjEq(7.25, 8, 9) AS n",
        "SELECT k FROM t WHERE k = 1 UNION SELECT k FROM t WHERE k = 2",
        "SELECT k FROM t WHERE k = 3 UNION SELECT k FROM t WHERE k = 4",
        "SELECT a.k FROM t a LEFT JOIN t b ON a.k = b.h WHERE a.k = 5",
        "SELECT a.k FROM t a LEFT JOIN t b ON a.k = b.h WHERE a.k = 6",
        "SELECT v FROM u WHERE k = 7",
        "SELECT v FROM u WHERE k = 8",
        "SELECT v FROM U WHERE k = 9",
    ];
    let stats = assert_warm_matches_fresh(db_t, &statements);
    // Five refused shapes (`U` is written in another case), each planned
    // once; every other attempt (each statement is executed and
    // explained) finds its refusal kept.
    assert_eq!((stats.misses, stats.hits), (5, 13));
    assert_eq!((stats.shapes, stats.rejected), (0, 5));
    // Adding the missing table forgets its refusal.
    let mut warm = db_t();
    assert!(warm.plan(&parse(statements[6])).is_err());
    let mut u = table_t();
    u.name = "u".to_string();
    warm.add_table(u);
    assert_eq!(warm.plan_memo_stats().rejected, 0);
    assert!(warm.plan(&parse(statements[6])).is_ok());
}

#[test]
fn replacing_a_table_forgets_its_prepared_shapes() {
    let statements = [
        "SELECT v FROM t WHERE k = 7",
        "SELECT v FROM t WHERE s = '8'",
        "SELECT k FROM t WHERE h > 30",
        "SELECT k FROM t WHERE h = 3",
    ];
    // `t` again, 40 rows, with different indexes: `s` is now the primary
    // key, `k` has none and `h` only a hash index.
    let replacement = || {
        let mut t = Table::new("t");
        t.add_column("k", ColumnData::Int((0..40).map(Some).collect()));
        t.add_column("h", ColumnData::Int((0..40).map(|i| Some(i % 3)).collect()));
        t.add_column(
            "v",
            ColumnData::Float((0..40).map(|i| Some(i as f64)).collect()),
        );
        t.add_column(
            "s",
            ColumnData::Str((0..40).map(|i| Some(i.to_string())).collect()),
        );
        t.build_pk("s");
        t.build_index("h");
        t
    };
    let replaced = || {
        let mut db = db_t();
        db.add_table(replacement());
        db
    };

    let mut warm = db_t();
    for sql in statements {
        outcome(&warm, sql);
    }
    assert_eq!(warm.plan_memo_stats().shapes, statements.len());
    warm.add_table(replacement());
    assert_eq!(warm.plan_memo_stats().shapes, 0);
    for sql in statements {
        assert_eq!(outcome(&warm, sql), outcome(&replaced(), sql), "{sql:?}");
    }
}

#[test]
fn four_threads_share_one_database() {
    let statements: Vec<String> = (0..40)
        .flat_map(|i| {
            [
                format!("SELECT v FROM t WHERE k = {i}"),
                format!("SELECT k FROM t WHERE h > {}", i % 50),
                format!("SELECT TOP {} k FROM t WHERE s = '{i}' ORDER BY k", i % 4),
                format!(
                    "SELECT h, count(*) FROM t WHERE k IN ({i}, {}) GROUP BY h",
                    i + 1
                ),
            ]
        })
        .collect();
    let expected: Vec<(String, String)> =
        statements.iter().map(|sql| outcome(&db_t(), sql)).collect();
    let shared = db_t();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for thread in 0..4 {
            let (shared, statements, expected, start) = (&shared, &statements, &expected, &start);
            scope.spawn(move || {
                // All four start together on the empty memo, each walking
                // the statements from its own offset.
                start.wait();
                for i in 0..statements.len() {
                    let j = (i + thread * 37) % statements.len();
                    assert_eq!(outcome(shared, &statements[j]), expected[j]);
                }
            });
        }
    });
    let stats = shared.plan_memo_stats();
    assert_eq!(stats.shapes, 4);
    // Two plans (execute and explain) per statement per thread.
    assert_eq!(stats.hits + stats.misses, 4 * 2 * statements.len() as u64);
}

/// Pins the plan, rows and operator counters of derived tables, which
/// execute along the subplans of the plan that holds them.
#[test]
fn derived_tables_execute_along_their_subplans() {
    let db = db_t();
    let one = "SELECT d.k, d.v FROM (SELECT k, v FROM t WHERE h = 3) AS d WHERE d.k > 12";
    let two =
        "SELECT e.k FROM (SELECT d.k AS k FROM (SELECT k, h FROM t WHERE k IN (5, 6, 7)) AS d \
               WHERE d.h = 1) AS e WHERE e.k < 7";
    let (one_exec, _) = outcome(&db, one);
    let (two_exec, _) = outcome(&db, two);
    assert_eq!(one_exec, ONE_LEVEL);
    assert_eq!(two_exec, TWO_LEVELS);
    // One plan per execution: a derived table is planned with its parent.
    let fresh = db_t();
    fresh.execute_query_planned(&parse(two)).unwrap();
    let stats = fresh.plan_memo_stats();
    assert_eq!((stats.misses, stats.hits), (1, 0));
}

/// Pinned from the planner that planned a derived table a second time to
/// execute it.
const ONE_LEVEL: &str = concat!(
    r#"{"est_rows":4,"est_cost":8,"root":{"op":"Project","columns":["d.k","d.v"],"input":{"op":"Filter","predicate":"d.k > 12","input":{"op":"SeqScan","table":"d","access":{"path":"FullScan"},"est_rows":4,"est_cost":4,"subplan":{"est_rows":4,"est_cost":16,"root":{"op":"Project","columns":["k","v"],"input":{"op":"Filter","predicate":"h = 3","input":{"op":"IndexScan","table":"t","access":{"path":"IndexRangeSeek","column":"h","lo":3,"hi":3},"est_rows":4,"est_cost":12,"alternatives":[{"access":{"path":"FullScan"},"est_cost":200}]}}}}}}}}"#,
    "\n",
    r#"["d.k", "d.v"]"#,
    "\n",
    "[[Int(13), Float(1.3)], [Int(14), Float(1.4)], [Int(15), Float(1.5)]]",
    "\n",
    r#"{"op":"Project","rows_scanned":3,"rows_produced":3,"children":[{"op":"Filter","detail":"d.k > 12","rows_scanned":4,"rows_produced":3,"children":[{"op":"SeqScan","detail":"d FullScan","rows_scanned":4,"rows_produced":4}]}]}"#,
);
const TWO_LEVELS: &str = concat!(
    r#"{"est_rows":3,"est_cost":6,"root":{"op":"Project","columns":["e.k"],"input":{"op":"Filter","predicate":"e.k < 7","input":{"op":"SeqScan","table":"e","access":{"path":"FullScan"},"est_rows":3,"est_cost":3,"subplan":{"est_rows":3,"est_cost":6,"root":{"op":"Project","columns":["k"],"input":{"op":"Filter","predicate":"d.h = 1","input":{"op":"SeqScan","table":"d","access":{"path":"FullScan"},"est_rows":3,"est_cost":3,"subplan":{"est_rows":3,"est_cost":7.5,"root":{"op":"Project","columns":["k","h"],"input":{"op":"Filter","predicate":"k IN (5, 6, 7)","input":{"op":"IndexScan","table":"t","access":{"path":"PkSeek","column":"k","keys":["5","6","7"]},"est_rows":3,"est_cost":4.5,"alternatives":[{"access":{"path":"FullScan"},"est_cost":200}]}}}}}}}}}}}}"#,
    "\n",
    r#"["e.k"]"#,
    "\n",
    "[[Int(5)], [Int(6)]]",
    "\n",
    r#"{"op":"Project","rows_scanned":2,"rows_produced":2,"children":[{"op":"Filter","detail":"e.k < 7","rows_scanned":3,"rows_produced":2,"children":[{"op":"SeqScan","detail":"e FullScan","rows_scanned":3,"rows_produced":3}]}]}"#,
);

/// The plan JSON of a statement, or its error text.
fn plan_outcome(db: &MiniDb, q: &Query) -> String {
    match db.plan(q) {
        Ok(plan) => plan.to_json().render(),
        Err(e) => format!("error: {e}"),
    }
}

/// The replay statements of a 12 000-entry log and its clean log have a
/// few hundred shapes among thousands of texts: a first pass prepares one
/// entry per shape, not per text, and keeps each refused shape with its
/// error; a second pass prepares nothing. Every statement, on either pass,
/// plans or fails exactly as on a database planning everything in full.
#[test]
fn replay_prepares_once_per_shape() {
    let log = generate(&GenConfig::with_scale(12_000, 5));
    let clean = Pipeline::new(&skyserver_catalog()).run(&log).clean_log;
    let db = skyserver_db(400, 5);
    // A database whose memo is full keeps no new shape, so it plans every
    // replay statement in full.
    let fresh = skyserver_db(400, 5);
    for i in 0.. {
        let kept = fresh.plan_memo_stats().shapes;
        fresh.plan(&parse(&format!("SELECT 1 AS c{i}"))).unwrap();
        if fresh.plan_memo_stats().shapes == kept {
            break;
        }
    }
    let fresh_misses = fresh.plan_memo_stats().misses;
    let queries: Vec<(Query, &str)> = log
        .entries
        .iter()
        .chain(&clean.entries)
        .filter_map(|e| match sqlog_sql::parse_statement(&e.statement) {
            Ok(Statement::Select(q)) => Some((*q, e.statement.as_str())),
            _ => None,
        })
        .collect();
    let attempted = queries.len() as u64;
    let mut texts = HashSet::new();
    let mut rejected = 0u64;
    for pass in 0..2 {
        for (q, sql) in &queries {
            let outcome = plan_outcome(&db, q);
            assert_eq!(outcome, plan_outcome(&fresh, q), "pass {pass}: {sql:?}");
            if outcome.starts_with("error: ") {
                rejected += u64::from(pass == 0);
            } else {
                texts.insert(*sql);
            }
        }
        let stats = db.plan_memo_stats();
        assert!(
            attempted - rejected > 10_000,
            "{attempted} attempted, {rejected} rejected"
        );
        assert!(texts.len() > 4_000, "{} distinct texts", texts.len());
        assert!(
            (400..=600).contains(&stats.shapes),
            "{} shapes prepared for {} texts",
            stats.shapes,
            texts.len()
        );
        // One miss per kept shape, prepared or refused, and none on the
        // second pass.
        assert!(stats.rejected > 0 && (stats.rejected as u64) < rejected);
        assert_eq!(stats.misses, (stats.shapes + stats.rejected) as u64);
        assert_eq!(stats.hits + stats.misses, (pass + 1) * attempted);
    }
    assert_eq!(fresh.plan_memo_stats().misses, fresh_misses + 2 * attempted);
}
