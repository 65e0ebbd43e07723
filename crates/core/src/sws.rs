//! Sliding-window-search (SWS) classification (§6.5, Table 8).
//!
//! SWS patterns are *machine downloads*: hugely frequent patterns issued by
//! very few users. They are not antipatterns (no negative performance
//! effect), but they drown out genuine user interests, so analyses may want
//! to exclude them. Classification keys on exactly the two properties the
//! paper's Table 8 sweeps: a **frequency** threshold (relative, % of the
//! log) and a **userPopularity** ceiling.

use crate::detect::AntipatternClass;
use crate::mine::MinedPatterns;
use crate::store::TemplateId;
use std::collections::HashMap;

/// SWS thresholds.
///
/// The paper's Table 8 sweeps a relative frequency threshold; its cell
/// values (the 10 %-threshold corner equals exactly the top pattern's
/// coverage) indicate the threshold is relative to the *maximum* pattern
/// frequency, which is the interpretation used here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwsThresholds {
    /// Minimum pattern frequency as a percentage of the maximum pattern
    /// frequency in the log.
    pub frequency_pct: f64,
    /// Maximum userPopularity.
    pub max_user_popularity: usize,
}

/// Result of SWS classification.
#[derive(Debug, Default)]
pub struct SwsResult {
    /// The unigram patterns classified as SWS.
    pub patterns: Vec<Vec<TemplateId>>,
    /// Queries covered by SWS patterns.
    pub covered_queries: u64,
    /// Coverage as a percentage of all mined queries (a Table 8 cell).
    pub coverage_pct: f64,
}

/// Classifies SWS patterns.
///
/// Only length-1 patterns are considered so that coverage counts each query
/// at most once; antipattern-marked patterns are excluded (SWS is a pattern
/// property, and the Stifles are already accounted for elsewhere).
pub fn classify_sws(
    mined: &MinedPatterns,
    marks: &HashMap<Vec<TemplateId>, AntipatternClass>,
    thresholds: SwsThresholds,
) -> SwsResult {
    let total = mined.total_queries.max(1);
    let max_freq = mined
        .patterns
        .iter()
        .filter(|(k, _)| k.len() == 1)
        .map(|(_, d)| d.frequency)
        .max()
        .unwrap_or(0);
    let min_freq = (max_freq as f64 * thresholds.frequency_pct / 100.0).ceil() as u64;
    let mut result = SwsResult::default();

    for (key, data) in &mined.patterns {
        if key.len() != 1 {
            continue;
        }
        if data.frequency < min_freq.max(1) {
            continue;
        }
        if data.users.len() > thresholds.max_user_popularity {
            continue;
        }
        if marks.contains_key(key) {
            continue;
        }
        result.covered_queries += data.frequency;
        result.patterns.push(key.clone());
    }
    result.patterns.sort();
    result.coverage_pct = 100.0 * result.covered_queries as f64 / total as f64;
    result
}

/// Computes the full Table-8 grid: coverage for every combination of the
/// given threshold lists.
pub fn sws_grid(
    mined: &MinedPatterns,
    marks: &HashMap<Vec<TemplateId>, AntipatternClass>,
    frequency_pcts: &[f64],
    user_popularities: &[usize],
) -> Vec<Vec<f64>> {
    user_popularities
        .iter()
        .map(|&up| {
            frequency_pcts
                .iter()
                .map(|&fp| {
                    classify_sws(
                        mined,
                        marks,
                        SwsThresholds {
                            frequency_pct: fp,
                            max_user_popularity: up,
                        },
                    )
                    .coverage_pct
                })
                .collect()
        })
        .collect()
}

/// The §6.5 alternative to excluding SWS noise: "a union of the filtering
/// conditions, i.e., replacing all these queries with one that yields the
/// same result".
///
/// Merges queries that share one skeleton:
///
/// * when every WHERE clause is a contiguous numeric window on the same
///   column (`col >= a AND col <= b`, or `col BETWEEN a AND b`), the result
///   filters `col BETWEEN min AND max` — one clean range;
/// * otherwise the result ORs the original WHERE clauses together.
///
/// Returns `None` when fewer than two queries are given or a query has no
/// WHERE clause to merge.
pub fn union_windows(queries: &[sqlog_sql::Query]) -> Option<sqlog_sql::Query> {
    use sqlog_sql::ast::{BinaryOp, Expr, Literal};
    if queries.len() < 2 {
        return None;
    }

    /// `col >= a AND col <= b` / `col BETWEEN a AND b` → (col expr, a, b).
    fn window(selection: &Expr) -> Option<(Expr, f64, f64)> {
        fn lit(e: &Expr) -> Option<f64> {
            match e {
                Expr::Literal(l) => l.as_f64(),
                Expr::Nested(inner) => lit(inner),
                _ => None,
            }
        }
        match selection.conjuncts().as_slice() {
            [Expr::Between {
                expr,
                low,
                high,
                negated: false,
            }] => Some((expr.as_ref().clone(), lit(low)?, lit(high)?)),
            [Expr::Binary {
                left: l1,
                op: BinaryOp::GtEq,
                right: r1,
            }, Expr::Binary {
                left: l2,
                op: BinaryOp::LtEq,
                right: r2,
            }] if matches!(l1.as_ref(), Expr::Column(_)) && format!("{l1}") == format!("{l2}") => {
                Some((l1.as_ref().clone(), lit(r1)?, lit(r2)?))
            }
            _ => None,
        }
    }

    let mut base = queries[0].clone();
    let selections: Vec<&Expr> = queries
        .iter()
        .map(|q| q.body.selection.as_ref())
        .collect::<Option<Vec<_>>>()?;

    // Try the contiguous-window fast path.
    let windows: Option<Vec<(Expr, f64, f64)>> = selections.iter().map(|sel| window(sel)).collect();
    if let Some(mut windows) = windows {
        let col_text = format!("{}", windows[0].0);
        if windows.iter().all(|(c, _, _)| format!("{c}") == col_text) {
            windows.sort_by(|a, b| a.1.total_cmp(&b.1));
            let contiguous = windows.windows(2).all(|w| w[1].1 <= w[0].2 + 1.0 + 1e-9);
            if contiguous {
                let lo = windows[0].1;
                let hi = windows.iter().map(|w| w.2).fold(f64::MIN, f64::max);
                let fmt = |v: f64| {
                    if v.fract() == 0.0 && v.abs() < 9e15 {
                        format!("{}", v as i64)
                    } else {
                        format!("{v}")
                    }
                };
                base.body.selection = Some(Expr::Between {
                    expr: Box::new(windows[0].0.clone()),
                    low: Box::new(Expr::Literal(Literal::Number(fmt(lo)))),
                    high: Box::new(Expr::Literal(Literal::Number(fmt(hi)))),
                    negated: false,
                });
                return Some(base);
            }
        }
    }

    // General fallback: OR of the original conditions.
    let mut merged: Option<Expr> = None;
    for sel in selections {
        let clause = Expr::Nested(Box::new(sel.clone()));
        merged = Some(match merged {
            None => clause,
            Some(acc) => Expr::Binary {
                left: Box::new(acc),
                op: BinaryOp::Or,
                right: Box::new(clause),
            },
        });
    }
    base.body.selection = merged;
    Some(base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::PatternData;

    fn mined_fixture() -> MinedPatterns {
        let mut patterns = sqlog_skeleton::FnvHashMap::default();
        let mk = |freq: u64, users: &[u32]| PatternData {
            frequency: freq,
            users: users.to_vec(),
        };
        // A bot pattern: 500 of 1000 queries, 1 user.
        patterns.insert(vec![TemplateId(0)], mk(500, &[0]));
        // A popular human pattern: 300 queries, 40 users.
        patterns.insert(
            vec![TemplateId(1)],
            PatternData {
                frequency: 300,
                users: (0..40).collect(),
            },
        );
        // A small single-user pattern.
        patterns.insert(vec![TemplateId(2)], mk(10, &[7]));
        // A bigram (never counted for coverage).
        patterns.insert(vec![TemplateId(0), TemplateId(1)], mk(200, &[0]));
        MinedPatterns {
            patterns,
            total_queries: 1_000,
            ..Default::default()
        }
    }

    #[test]
    fn strict_thresholds_take_only_the_obvious_bot() {
        // Max unigram frequency is 500; at 80 % of max only the bot pattern
        // qualifies, and the 40-user pattern is excluded by userPopularity.
        let m = mined_fixture();
        let r = classify_sws(
            &m,
            &HashMap::new(),
            SwsThresholds {
                frequency_pct: 80.0,
                max_user_popularity: 1,
            },
        );
        assert_eq!(r.patterns, vec![vec![TemplateId(0)]]);
        assert!((r.coverage_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn loose_thresholds_cover_more() {
        // Matches the Table 8 monotonicity: lower frequency threshold and
        // higher userPopularity ceiling → more coverage.
        let m = mined_fixture();
        let marks = HashMap::new();
        let grid = sws_grid(&m, &marks, &[80.0, 10.0, 0.1], &[1, 64]);
        // Rows: user popularity; columns: frequency threshold.
        assert!(grid[0][0] <= grid[0][2] + 1e-9);
        assert!(grid[0][2] <= grid[1][2] + 1e-9);
        // At up=64, fp=0.1 %: everything qualifies → 81 % coverage.
        assert!((grid[1][2] - 81.0).abs() < 1e-9);
    }

    #[test]
    fn union_merges_contiguous_windows_into_one_range() {
        let qs: Vec<_> = [
            "SELECT count(*) FROM photoprimary WHERE htmid >= 100 AND htmid <= 199",
            "SELECT count(*) FROM photoprimary WHERE htmid >= 200 AND htmid <= 299",
            "SELECT count(*) FROM photoprimary WHERE htmid >= 300 AND htmid <= 399",
        ]
        .iter()
        .map(|s| sqlog_sql::parse_query(s).unwrap())
        .collect();
        let merged = union_windows(&qs).unwrap();
        assert_eq!(
            merged.to_string(),
            "SELECT count(*) FROM photoprimary WHERE htmid BETWEEN 100 AND 399"
        );
    }

    #[test]
    fn union_merges_between_windows_regardless_of_order() {
        let qs: Vec<_> = [
            "SELECT a FROM t WHERE r BETWEEN 20 AND 29",
            "SELECT a FROM t WHERE r BETWEEN 10 AND 19",
        ]
        .iter()
        .map(|s| sqlog_sql::parse_query(s).unwrap())
        .collect();
        let merged = union_windows(&qs).unwrap();
        assert!(merged.to_string().ends_with("r BETWEEN 10 AND 29"));
    }

    #[test]
    fn union_falls_back_to_or_for_disjoint_windows() {
        let qs: Vec<_> = [
            "SELECT a FROM t WHERE htmid >= 100 AND htmid <= 199",
            "SELECT a FROM t WHERE htmid >= 900 AND htmid <= 999",
        ]
        .iter()
        .map(|s| sqlog_sql::parse_query(s).unwrap())
        .collect();
        let merged = union_windows(&qs).unwrap();
        let text = merged.to_string();
        assert!(text.contains(" OR "), "{text}");
        // The fallback must still re-parse.
        sqlog_sql::parse_query(&text).unwrap();
    }

    #[test]
    fn union_requires_at_least_two_queries_with_where() {
        let one = [sqlog_sql::parse_query("SELECT a FROM t WHERE x = 1").unwrap()];
        assert!(union_windows(&one).is_none());
        let no_where: Vec<_> = ["SELECT a FROM t", "SELECT a FROM t"]
            .iter()
            .map(|s| sqlog_sql::parse_query(s).unwrap())
            .collect();
        assert!(union_windows(&no_where).is_none());
    }

    #[test]
    fn antipattern_marks_exclude_patterns() {
        let m = mined_fixture();
        let mut marks = HashMap::new();
        marks.insert(vec![TemplateId(0)], AntipatternClass::DwStifle);
        let r = classify_sws(
            &m,
            &marks,
            SwsThresholds {
                frequency_pct: 0.1,
                max_user_popularity: 1,
            },
        );
        assert!(!r.patterns.contains(&vec![TemplateId(0)]));
    }
}
