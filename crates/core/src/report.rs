//! Report rendering: the paper's tables as plain text.

use crate::detect::AntipatternClass;
use crate::mine::MinedPatterns;
use crate::stats::Statistics;
use crate::store::{TemplateId, TemplateStore};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One row of a top-patterns table (Tables 6 and 7 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct PatternRow {
    /// 1-based rank by frequency.
    pub rank: usize,
    /// Frequency (Def. 9).
    pub frequency: u64,
    /// userPopularity (Def. 10).
    pub user_popularity: usize,
    /// Coverage of the mined queries, in percent.
    pub coverage_pct: f64,
    /// Antipattern class, when the pattern is marked.
    pub class: Option<AntipatternClass>,
    /// The first skeleton statements of the pattern (up to two, as printed
    /// in Table 6).
    pub skeletons: Vec<String>,
    /// The pattern key.
    pub key: Vec<TemplateId>,
}

/// Builds the ranked top-`k` pattern rows.
pub fn top_patterns(
    mined: &MinedPatterns,
    marks: &HashMap<Vec<TemplateId>, AntipatternClass>,
    store: &TemplateStore,
    k: usize,
    min_frequency: u64,
) -> Vec<PatternRow> {
    let total = mined.total_queries.max(1) as f64;
    mined
        .ranked(min_frequency)
        .into_iter()
        .take(k)
        .enumerate()
        .map(|(i, (key, data))| PatternRow {
            rank: i + 1,
            frequency: data.frequency,
            user_popularity: data.users.len(),
            coverage_pct: 100.0 * (data.frequency * key.len() as u64) as f64 / total,
            class: marks.get(key).cloned(),
            skeletons: key
                .iter()
                .take(2)
                .map(|&t| store.with(t, |tpl| tpl.full.clone()))
                .collect(),
            key: key.clone(),
        })
        .collect()
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let cut: String = s.chars().take(max.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// Renders pattern rows as an aligned text table.
pub fn render_pattern_table(rows: &[PatternRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>4} {:>12} {:>8} {:>7} {:<12} skeleton",
        "rank", "frequency", "userPop", "cov%", "type"
    );
    for r in rows {
        let class = r.class.as_ref().map_or("pattern", |c| c.label());
        let skel = r.skeletons.first().map(String::as_str).unwrap_or("");
        let _ = writeln!(
            out,
            "{:>4} {:>12} {:>8} {:>7.2} {:<12} {}",
            r.rank,
            r.frequency,
            r.user_popularity,
            r.coverage_pct,
            class,
            truncate(skel, 90)
        );
    }
    out
}

/// Renders the statistics block (the paper's Table 5).
pub fn render_statistics(s: &Statistics) -> String {
    let mut out = String::new();
    let mut row = |name: &str, value: String| {
        let _ = writeln!(out, "{name:<44} {value}");
    };
    row("Size of original query log", s.original_size.to_string());
    row(
        "Size after deleting duplicates",
        format!(
            "{} ({:.2}%)",
            s.after_dedup,
            s.pct_of_original(s.after_dedup)
        ),
    );
    row(
        "Count of SELECT queries",
        format!(
            "{} ({:.2}%)",
            s.select_count,
            s.pct_of_original(s.select_count)
        ),
    );
    row("  dropped: syntax errors", s.syntax_errors.to_string());
    row("  dropped: non-SELECT", s.non_select.to_string());
    row(
        "Final log size",
        format!("{} ({:.2}%)", s.final_size, s.pct_of_original(s.final_size)),
    );
    row(
        "Removal log size",
        format!(
            "{} ({:.2}%)",
            s.removal_size,
            s.pct_of_original(s.removal_size)
        ),
    );
    row("Count of patterns", s.pattern_count.to_string());
    row(
        "Maximal pattern frequency",
        s.max_pattern_frequency.to_string(),
    );
    for (label, counts) in &s.per_class {
        row(
            &format!("Count of distinct {label}"),
            counts.distinct.to_string(),
        );
        row(
            &format!("Count of queries in all {label}"),
            counts.queries.to_string(),
        );
    }
    row(
        "Solvable-antipattern coverage",
        format!("{:.2}% of SELECTs", s.solvable_coverage_pct()),
    );
    row("Solved instances", s.solved_instances.to_string());
    row("Solved queries", s.solved_queries.to_string());
    row(
        "Rewritten statements emitted",
        s.rewritten_statements.to_string(),
    );
    let t = &s.timings;
    row(
        "Stage timings (ms)",
        format!(
            "ingest {} | sort {} | dedup {} | parse {} | sessions {} | mine {} | detect {} \
             | solve {} | write {} | report {} | total {}",
            t.ingest_ms,
            t.sort_ms,
            t.dedup_ms,
            t.parse_ms,
            t.sessions_ms,
            t.mine_ms,
            t.detect_ms,
            t.solve_ms,
            t.write_ms,
            t.report_ms,
            t.total_ms
        ),
    );
    let c = &s.parse_cache;
    if c.enabled {
        row(
            "Parse cache",
            format!(
                "{} hits | {} misses | {} fallbacks ({:.1}% hit rate)",
                c.hits,
                c.misses,
                c.fallbacks,
                c.hit_rate_pct()
            ),
        );
    } else {
        row("Parse cache", "disabled".to_string());
    }
    let h = &s.run_health;
    if h.is_clean() {
        row("Run health", "clean (no faults)".to_string());
    } else if !h.completed_degraded() {
        // Interrupted and resumed, but nothing was lost along the way.
        row(
            "Run health",
            format!(
                "clean (resumed after {} interruption{})",
                h.interruptions,
                if h.interruptions == 1 { "" } else { "s" }
            ),
        );
    } else {
        row("Run health", "degraded".to_string());
        row(
            "  quarantined input lines",
            format!(
                "{} ({} invalid UTF-8)",
                h.quarantined_lines, h.invalid_utf8_lines
            ),
        );
        row("  limit-rejected statements", h.limit_rejected.to_string());
        row("  poison records skipped", h.poison_records.to_string());
        row("  poison sessions skipped", h.poison_sessions.to_string());
        row(
            "  degraded (recovered) shards",
            h.degraded_shards.to_string(),
        );
        if h.interruptions > 0 {
            row("  interruptions resumed from", h.interruptions.to_string());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::PatternData;

    #[test]
    fn top_patterns_ranks_and_marks() {
        let store = TemplateStore::new();
        let t0 = store.intern(sqlog_skeleton::QueryTemplate::of_query(
            &sqlog_sql::parse_query("SELECT a FROM t WHERE x = 1").unwrap(),
        ));
        let t1 = store.intern(sqlog_skeleton::QueryTemplate::of_query(
            &sqlog_sql::parse_query("SELECT b FROM t WHERE x = 1").unwrap(),
        ));
        let mut mined = MinedPatterns {
            total_queries: 100,
            ..Default::default()
        };
        mined.patterns.insert(
            vec![t0],
            PatternData {
                frequency: 60,
                users: [0].into_iter().collect(),
            },
        );
        mined.patterns.insert(
            vec![t1],
            PatternData {
                frequency: 30,
                users: (0..5).collect(),
            },
        );
        let mut marks = HashMap::new();
        marks.insert(vec![t0], AntipatternClass::DwStifle);

        let rows = top_patterns(&mined, &marks, &store, 10, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rank, 1);
        assert_eq!(rows[0].frequency, 60);
        assert_eq!(rows[0].class, Some(AntipatternClass::DwStifle));
        assert_eq!(rows[1].class, None);
        assert!(rows[0].skeletons[0].contains("<num>"));

        let table = render_pattern_table(&rows);
        assert!(table.contains("DW-Stifle"));
        assert!(table.contains("pattern"));
    }

    #[test]
    fn statistics_render_contains_key_rows() {
        let s = Statistics {
            original_size: 1_000,
            after_dedup: 950,
            select_count: 900,
            final_size: 700,
            ..Default::default()
        };
        let text = render_statistics(&s);
        assert!(text.contains("Size of original query log"));
        assert!(text.contains("95.00%"));
        assert!(text.contains("70.00%"));
    }

    #[test]
    fn statistics_render_reports_run_health() {
        let clean = render_statistics(&Statistics::default());
        assert!(clean.contains("clean (no faults)"));

        let mut s = Statistics::default();
        s.run_health.quarantined_lines = 3;
        s.run_health.invalid_utf8_lines = 1;
        s.run_health.poison_records = 2;
        let degraded = render_statistics(&s);
        assert!(degraded.contains("degraded"));
        assert!(degraded.contains("3 (1 invalid UTF-8)"));
        assert!(degraded.contains("poison records skipped"));
    }

    #[test]
    fn truncate_respects_char_boundaries() {
        assert_eq!(truncate("äöü", 2), "ä…");
        assert_eq!(truncate("abc", 3), "abc");
    }
}
