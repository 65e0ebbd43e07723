//! The machine-readable run report behind `sqlog-clean --stats-json`:
//! [`Statistics`] (with [`RunHealth`] and [`StageTimings`]) plus the
//! aggregated observability section ([`ObsReport`]), serialized through
//! the exact-integer JSON model of `sqlog-obs` (the vendored serde is a
//! no-op stand-in, so serialization is explicit here).
//!
//! The format is versioned (`schema`) and round-trips: `from_json ∘
//! to_json` is the identity, which the tests pin down field by field.

use crate::parse_step::ParseCacheStats;
use crate::stats::{ClassCounts, RunHealth, StageTimings, Statistics};
use sqlog_obs::{Json, ObsReport};

/// Schema version written into every report.
pub const RUN_REPORT_SCHEMA: u64 = 1;

/// Everything a run reports: the paper-facing statistics plus the
/// observability aggregate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Table-5-style statistics, run health and stage timings.
    pub stats: Statistics,
    /// Per-stage/per-shard timings, counters, histograms, warnings.
    pub obs: ObsReport,
}

fn u(v: usize) -> Json {
    Json::U64(v as u64)
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("run report: missing or non-integer {key:?}"))
}

fn get_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("run report: missing or non-integer {key:?}"))
}

fn timings_to_json(t: &StageTimings) -> Json {
    Json::obj(vec![
        ("ingest_ms", Json::U64(t.ingest_ms)),
        ("sort_ms", Json::U64(t.sort_ms)),
        ("dedup_ms", Json::U64(t.dedup_ms)),
        ("parse_ms", Json::U64(t.parse_ms)),
        ("sessions_ms", Json::U64(t.sessions_ms)),
        ("mine_ms", Json::U64(t.mine_ms)),
        ("detect_ms", Json::U64(t.detect_ms)),
        ("solve_ms", Json::U64(t.solve_ms)),
        ("write_ms", Json::U64(t.write_ms)),
        ("report_ms", Json::U64(t.report_ms)),
        ("total_ms", Json::U64(t.total_ms)),
    ])
}

fn timings_from_json(v: &Json) -> Result<StageTimings, String> {
    Ok(StageTimings {
        ingest_ms: get_u64(v, "ingest_ms")?,
        sort_ms: get_u64(v, "sort_ms")?,
        dedup_ms: get_u64(v, "dedup_ms")?,
        parse_ms: get_u64(v, "parse_ms")?,
        sessions_ms: get_u64(v, "sessions_ms")?,
        mine_ms: get_u64(v, "mine_ms")?,
        detect_ms: get_u64(v, "detect_ms")?,
        solve_ms: get_u64(v, "solve_ms")?,
        // Absent in reports written before the output write was timed.
        write_ms: v.get("write_ms").and_then(Json::as_u64).unwrap_or(0),
        report_ms: get_u64(v, "report_ms")?,
        total_ms: get_u64(v, "total_ms")?,
    })
}

fn cache_to_json(c: &ParseCacheStats) -> Json {
    Json::obj(vec![
        ("enabled", Json::Bool(c.enabled)),
        ("hits", Json::U64(c.hits)),
        ("misses", Json::U64(c.misses)),
        ("fallbacks", Json::U64(c.fallbacks)),
        ("crosschecks", Json::U64(c.crosschecks)),
    ])
}

fn cache_from_json(v: &Json) -> Result<ParseCacheStats, String> {
    Ok(ParseCacheStats {
        enabled: v
            .get("enabled")
            .and_then(Json::as_bool)
            .ok_or("run report: missing or non-boolean \"enabled\"")?,
        hits: get_u64(v, "hits")?,
        misses: get_u64(v, "misses")?,
        fallbacks: get_u64(v, "fallbacks")?,
        crosschecks: get_u64(v, "crosschecks")?,
    })
}

fn health_to_json(h: &RunHealth) -> Json {
    Json::obj(vec![
        ("quarantined_lines", u(h.quarantined_lines)),
        ("invalid_utf8_lines", u(h.invalid_utf8_lines)),
        ("limit_rejected", u(h.limit_rejected)),
        ("poison_records", u(h.poison_records)),
        ("poison_sessions", u(h.poison_sessions)),
        ("degraded_shards", u(h.degraded_shards)),
        ("interruptions", u(h.interruptions)),
    ])
}

fn health_from_json(v: &Json) -> Result<RunHealth, String> {
    Ok(RunHealth {
        quarantined_lines: get_usize(v, "quarantined_lines")?,
        invalid_utf8_lines: get_usize(v, "invalid_utf8_lines")?,
        limit_rejected: get_usize(v, "limit_rejected")?,
        poison_records: get_usize(v, "poison_records")?,
        poison_sessions: get_usize(v, "poison_sessions")?,
        degraded_shards: get_usize(v, "degraded_shards")?,
        // Absent in reports written before checkpointed runs existed.
        interruptions: v.get("interruptions").and_then(Json::as_usize).unwrap_or(0),
    })
}

/// The statistics as a JSON object (helper shared with tests and tooling).
pub fn statistics_to_json(s: &Statistics) -> Json {
    let per_class = Json::Obj(
        s.per_class
            .iter()
            .map(|(label, c)| {
                (
                    label.clone(),
                    Json::obj(vec![
                        ("distinct", u(c.distinct)),
                        ("instances", u(c.instances)),
                        ("queries", u(c.queries)),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj(vec![
        ("original_size", u(s.original_size)),
        ("duplicates_removed", u(s.duplicates_removed)),
        ("after_dedup", u(s.after_dedup)),
        ("select_count", u(s.select_count)),
        ("syntax_errors", u(s.syntax_errors)),
        ("non_select", u(s.non_select)),
        ("final_size", u(s.final_size)),
        ("removal_size", u(s.removal_size)),
        ("pattern_count", u(s.pattern_count)),
        ("max_pattern_frequency", Json::U64(s.max_pattern_frequency)),
        ("per_class", per_class),
        ("solved_instances", u(s.solved_instances)),
        ("solved_queries", u(s.solved_queries)),
        ("rewritten_statements", u(s.rewritten_statements)),
        ("skipped_overlaps", u(s.skipped_overlaps)),
        ("timings", timings_to_json(&s.timings)),
        ("parse_cache", cache_to_json(&s.parse_cache)),
        ("run_health", health_to_json(&s.run_health)),
    ])
}

/// Rebuilds statistics from their [`statistics_to_json`] form.
pub fn statistics_from_json(v: &Json) -> Result<Statistics, String> {
    let mut s = Statistics {
        original_size: get_usize(v, "original_size")?,
        duplicates_removed: get_usize(v, "duplicates_removed")?,
        after_dedup: get_usize(v, "after_dedup")?,
        select_count: get_usize(v, "select_count")?,
        syntax_errors: get_usize(v, "syntax_errors")?,
        non_select: get_usize(v, "non_select")?,
        final_size: get_usize(v, "final_size")?,
        removal_size: get_usize(v, "removal_size")?,
        pattern_count: get_usize(v, "pattern_count")?,
        max_pattern_frequency: get_u64(v, "max_pattern_frequency")?,
        solved_instances: get_usize(v, "solved_instances")?,
        solved_queries: get_usize(v, "solved_queries")?,
        rewritten_statements: get_usize(v, "rewritten_statements")?,
        skipped_overlaps: get_usize(v, "skipped_overlaps")?,
        timings: timings_from_json(v.get("timings").ok_or("run report: missing \"timings\"")?)?,
        parse_cache: cache_from_json(
            v.get("parse_cache")
                .ok_or("run report: missing \"parse_cache\"")?,
        )?,
        run_health: health_from_json(
            v.get("run_health")
                .ok_or("run report: missing \"run_health\"")?,
        )?,
        ..Statistics::default()
    };
    for (label, cv) in v
        .get("per_class")
        .and_then(Json::as_obj)
        .ok_or("run report: missing \"per_class\"")?
    {
        s.per_class.insert(
            label.clone(),
            ClassCounts {
                distinct: get_usize(cv, "distinct")?,
                instances: get_usize(cv, "instances")?,
                queries: get_usize(cv, "queries")?,
            },
        );
    }
    Ok(s)
}

impl RunReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::U64(RUN_REPORT_SCHEMA)),
            ("stats", statistics_to_json(&self.stats)),
            ("obs", self.obs.to_json()),
        ])
    }

    /// The report as pretty-free single-line JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Rebuilds a report from its [`RunReport::to_json`] form. Rejects
    /// unknown schema versions.
    pub fn from_json(v: &Json) -> Result<RunReport, String> {
        let schema = get_u64(v, "schema")?;
        if schema != RUN_REPORT_SCHEMA {
            return Err(format!(
                "run report: unsupported schema {schema} (expected {RUN_REPORT_SCHEMA})"
            ));
        }
        Ok(RunReport {
            stats: statistics_from_json(v.get("stats").ok_or("run report: missing \"stats\"")?)?,
            obs: ObsReport::from_json(v.get("obs").ok_or("run report: missing \"obs\"")?)?,
        })
    }

    /// Parses report text (the `--stats-json` file contents).
    pub fn parse(text: &str) -> Result<RunReport, String> {
        let v = Json::parse(text).map_err(|e| format!("run report: {e}"))?;
        RunReport::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_obs::Recorder;
    use std::collections::BTreeMap;

    fn sample_stats() -> Statistics {
        let mut per_class = BTreeMap::new();
        per_class.insert(
            "DW-Stifle".to_string(),
            ClassCounts {
                distinct: 2,
                instances: 5,
                queries: 17,
            },
        );
        per_class.insert(
            "CTH".to_string(),
            ClassCounts {
                distinct: 1,
                instances: 1,
                queries: 4,
            },
        );
        Statistics {
            original_size: 1_000,
            duplicates_removed: 50,
            after_dedup: 950,
            select_count: 800,
            syntax_errors: 100,
            non_select: 50,
            final_size: 760,
            removal_size: 700,
            pattern_count: 12,
            max_pattern_frequency: 99,
            per_class,
            solved_instances: 5,
            solved_queries: 17,
            rewritten_statements: 5,
            skipped_overlaps: 1,
            timings: StageTimings {
                ingest_ms: 3,
                sort_ms: 1,
                dedup_ms: 2,
                parse_ms: 10,
                sessions_ms: 1,
                mine_ms: 4,
                detect_ms: 6,
                solve_ms: 2,
                write_ms: 4,
                report_ms: 1,
                total_ms: 34,
            },
            parse_cache: ParseCacheStats {
                enabled: true,
                hits: 700,
                misses: 90,
                fallbacks: 10,
                crosschecks: 64,
            },
            run_health: RunHealth {
                quarantined_lines: 7,
                invalid_utf8_lines: 2,
                limit_rejected: 1,
                poison_records: 0,
                poison_sessions: 0,
                degraded_shards: 0,
                interruptions: 1,
            },
        }
    }

    #[test]
    fn round_trips_statistics_run_health_and_obs() {
        let rec = Recorder::new();
        {
            let _stage = rec.span("parse");
            let id = rec.current();
            let mut g = rec.span_in(id, "parse.shard");
            g.field("shard", 0u64);
            g.field("items", 950u64);
        }
        rec.counter("parse.selects", 800);
        rec.histogram("parse.shard_us", 12_345);
        rec.warning("something");
        let report = RunReport {
            stats: sample_stats(),
            obs: ObsReport::from_recorder(&rec),
        };
        let text = report.render();
        let parsed = RunReport::parse(&text).unwrap();
        assert_eq!(parsed, report);
        // Field-level spot checks through the generic JSON view.
        let v = Json::parse(&text).unwrap();
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("original_size"))
                .and_then(Json::as_u64),
            Some(1_000)
        );
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("timings"))
                .and_then(|t| t.get("ingest_ms"))
                .and_then(Json::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("stats")
                .and_then(|s| s.get("run_health"))
                .and_then(|h| h.get("quarantined_lines"))
                .and_then(Json::as_u64),
            Some(7)
        );
    }

    #[test]
    fn default_report_round_trips() {
        let report = RunReport::default();
        assert_eq!(RunReport::parse(&report.render()).unwrap(), report);
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut v = RunReport::default().to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs[0].1 = Json::U64(999);
        }
        let err = RunReport::from_json(&v).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn report_without_write_ms_loads_it_as_zero() {
        let report = RunReport {
            stats: sample_stats(),
            obs: ObsReport::default(),
        };
        let text = report.render();
        let older = text.replace("\"write_ms\":4,", "");
        assert_ne!(older, text, "the field is rendered");
        let loaded = RunReport::parse(&older).unwrap();
        assert_eq!(loaded.stats.timings.write_ms, 0);
        assert_eq!(loaded.stats.timings.total_ms, report.stats.timings.total_ms);
    }

    #[test]
    fn stage_sum_reconciles_with_total() {
        let t = sample_stats().timings;
        assert_eq!(t.stage_sum_ms(), 34);
        assert!(t.total_ms >= t.stage_sum_ms().saturating_sub(9));
    }
}
