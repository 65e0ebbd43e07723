//! Pipeline statistics — the fields of the paper's Table 5.

use crate::detect::AntipatternClass;
use crate::parse_step::ParseCacheStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-antipattern-class tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Distinct antipatterns (distinct identity keys).
    pub distinct: usize,
    /// Instances detected.
    pub instances: usize,
    /// Queries covered by instances.
    pub queries: usize,
}

/// Wall-clock spent in each pipeline stage, in milliseconds.
///
/// Each field is the clock of the stage's span
/// ([`sqlog_obs::Recorder::stage`]); a stage loaded from a checkpoint has
/// zero and no span.
///
/// Timings are measurement noise, not results: two runs that clean a log
/// identically will still differ here. Comparisons of pipeline *output*
/// should go through [`Statistics::with_zeroed_timings`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTimings {
    /// Reading (and checking against a run's manifest) + quarantining the
    /// input log. Filled by
    /// [`crate::Pipeline::run_file`]; zero for [`crate::Pipeline::run`],
    /// which gets a log already in memory.
    pub ingest_ms: u64,
    /// Sorting the input by timestamp (zero when already sorted).
    pub sort_ms: u64,
    /// Duplicate elimination (§5.2).
    pub dedup_ms: u64,
    /// Parsing + template interning (§5.3).
    pub parse_ms: u64,
    /// Session building (Def. 7).
    pub sessions_ms: u64,
    /// Pattern mining (Defs. 8–10).
    pub mine_ms: u64,
    /// Antipattern detection (Defs. 11–16 + extensions).
    pub detect_ms: u64,
    /// Solving / rewriting (§5.5): the solver pass and the splice.
    pub solve_ms: u64,
    /// Rendering the statistics report and the top-pattern table. Filled
    /// by the binary.
    pub report_ms: u64,
    /// Writing the clean and removal logs. Filled by the binary; zero when
    /// it writes neither, and in reports written before it was timed.
    pub write_ms: u64,
    /// End-to-end time: the `pipeline` span (ingest included for
    /// [`crate::Pipeline::run_file`]), plus `write_ms` and `report_ms` once
    /// the binary adds them.
    pub total_ms: u64,
}

impl StageTimings {
    /// Sum of the individual stage timings (including ingest, write and
    /// report). Stage spans never overlap, so `total_ms` is at least this;
    /// the CLI observability tests check it.
    pub fn stage_sum_ms(&self) -> u64 {
        self.ingest_ms
            + self.sort_ms
            + self.dedup_ms
            + self.parse_ms
            + self.sessions_ms
            + self.mine_ms
            + self.detect_ms
            + self.solve_ms
            + self.write_ms
            + self.report_ms
    }
}

/// Run-to-completion accounting: everything the pipeline skipped, rejected
/// or recovered from instead of aborting.
///
/// All-zero on a healthy run. The counts are deterministic for a given
/// input — a poison record panics wherever it lands, so the same records
/// are skipped at every thread count — with one exception:
/// `degraded_shards` counts *shards* that panicked and were recovered, and
/// how work maps to shards depends on the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunHealth {
    /// Input lines skipped at ingestion (lenient mode): malformed plus
    /// invalid-UTF-8. Filled by the caller that read the log — the pipeline
    /// itself never sees quarantined lines.
    pub quarantined_lines: usize,
    /// The subset of `quarantined_lines` that were not valid UTF-8.
    pub invalid_utf8_lines: usize,
    /// Statements rejected by a parser resource guard (depth, length or
    /// token budget) rather than a grammar error. Also included in
    /// [`Statistics::syntax_errors`].
    pub limit_rejected: usize,
    /// Records skipped because processing them panicked (dedup, parse and
    /// session stages).
    pub poison_records: usize,
    /// Sessions skipped because mining or detection panicked on them.
    pub poison_sessions: usize,
    /// Stage shards that panicked and were re-run with per-record,
    /// per-session or (solver pass) per-instance isolation, summed across
    /// stages. A poison instance is left unsolved; it is counted only here
    /// and in the `solve.poison_instances` counter.
    pub degraded_shards: usize,
    /// Prior attempts of this run that were interrupted before completing
    /// (checkpointed runs only: the manifest counts every start, so a run
    /// resumed after two crashes reports 2). Purely informational — an
    /// interrupted-then-resumed run is *not* degraded, so this field does
    /// not affect [`RunHealth::completed_degraded`].
    pub interruptions: usize,
}

impl RunHealth {
    /// True when nothing was skipped, rejected or recovered and the run was
    /// never interrupted.
    pub fn is_clean(&self) -> bool {
        *self == RunHealth::default()
    }

    /// True when the run completed but skipped, rejected or recovered some
    /// work (quarantined lines, limit rejections, poison records/sessions,
    /// degraded shards) — the condition behind `sqlog-clean`'s exit code 2.
    /// Interruptions alone do not count: a resumed run that lost nothing is
    /// a full-fidelity result.
    pub fn completed_degraded(&self) -> bool {
        self.quarantined_lines > 0
            || self.invalid_utf8_lines > 0
            || self.limit_rejected > 0
            || self.poison_records > 0
            || self.poison_sessions > 0
            || self.degraded_shards > 0
    }
}

/// The overall result statistics (Table 5 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Statistics {
    /// Size of the original query log.
    pub original_size: usize,
    /// Duplicates removed (§5.2).
    pub duplicates_removed: usize,
    /// Size after deleting duplicates.
    pub after_dedup: usize,
    /// SELECT statements among the deduplicated log.
    pub select_count: usize,
    /// Statements dropped for syntax errors.
    pub syntax_errors: usize,
    /// Non-SELECT statements dropped.
    pub non_select: usize,
    /// Final (clean) log size.
    pub final_size: usize,
    /// Removal-log size (all antipattern queries dropped).
    pub removal_size: usize,
    /// Count of mined patterns (frequency ≥ configured minimum).
    pub pattern_count: usize,
    /// Maximal pattern frequency.
    pub max_pattern_frequency: u64,
    /// Per-class counts, keyed by class label.
    pub per_class: BTreeMap<String, ClassCounts>,
    /// Solvable instances rewritten.
    pub solved_instances: usize,
    /// Queries consumed by rewrites.
    pub solved_queries: usize,
    /// Replacement statements emitted.
    pub rewritten_statements: usize,
    /// Solvable instances skipped due to overlap with earlier instances.
    pub skipped_overlaps: usize,
    /// Per-stage wall-clock timings.
    pub timings: StageTimings,
    /// Parse-cache effectiveness. Like timings, these counters are
    /// measurement detail, not results: the hit/miss split depends on how
    /// statements shard across workers, while the parse *output* does not.
    /// [`Statistics::with_zeroed_timings`] zeroes them too.
    pub parse_cache: ParseCacheStats,
    /// Faults skipped, rejected or recovered during the run.
    pub run_health: RunHealth,
}

impl Statistics {
    /// A copy with timings zeroed — the deterministic part of the result,
    /// suitable for equality checks across thread counts.
    pub fn with_zeroed_timings(&self) -> Statistics {
        Statistics {
            timings: StageTimings::default(),
            parse_cache: ParseCacheStats::default(),
            ..self.clone()
        }
    }

    /// Percentage of the original size.
    pub fn pct_of_original(&self, n: usize) -> f64 {
        if self.original_size == 0 {
            0.0
        } else {
            100.0 * n as f64 / self.original_size as f64
        }
    }

    /// Convenience accessor for one class (zero counts when absent).
    pub fn class(&self, class: &AntipatternClass) -> ClassCounts {
        self.per_class
            .get(class.label())
            .copied()
            .unwrap_or_default()
    }

    /// Share of the deduplicated log covered by solvable-antipattern queries
    /// (the paper reports ≈ 19.2 % for the Stifles).
    pub fn solvable_coverage_pct(&self) -> f64 {
        let solvable: usize = ["DW-Stifle", "DS-Stifle", "DF-Stifle", "SNC"]
            .iter()
            .filter_map(|label| self.per_class.get(*label))
            .map(|c| c.queries)
            .sum();
        if self.select_count == 0 {
            0.0
        } else {
            100.0 * solvable as f64 / self.select_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages() {
        let s = Statistics {
            original_size: 200,
            ..Statistics::default()
        };
        assert!((s.pct_of_original(50) - 25.0).abs() < 1e-9);
        let empty = Statistics::default();
        assert_eq!(empty.pct_of_original(10), 0.0);
    }

    #[test]
    fn class_accessor_defaults_to_zero() {
        let s = Statistics::default();
        assert_eq!(s.class(&AntipatternClass::DwStifle).queries, 0);
    }

    #[test]
    fn solvable_coverage() {
        let mut s = Statistics {
            select_count: 1_000,
            ..Statistics::default()
        };
        s.per_class.insert(
            "DW-Stifle".into(),
            ClassCounts {
                distinct: 2,
                instances: 5,
                queries: 150,
            },
        );
        s.per_class.insert(
            "CTH".into(),
            ClassCounts {
                distinct: 1,
                instances: 1,
                queries: 500, // must not count: CTH is unsolvable
            },
        );
        assert!((s.solvable_coverage_pct() - 15.0).abs() < 1e-9);
    }
}
