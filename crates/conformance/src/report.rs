//! The combined conformance report: one pass/fail and a machine-readable
//! JSON form for CI artifacts.

use crate::{DifferentialReport, MetamorphicReport, OracleReport, RecallReport};
use sqlog_obs::Json;

/// Everything one conformance run produced.
#[derive(Debug, Clone)]
pub struct ConformanceReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Requested generator scale (`--cases`).
    pub cases: usize,
    /// Entries the generated log actually contains.
    pub log_entries: usize,
    /// Differential-matrix outcome.
    pub differential: DifferentialReport,
    /// Semantic-oracle outcome; `None` when the oracle was disabled.
    pub oracle: Option<OracleReport>,
    /// Metamorphic-invariant outcome.
    pub metamorphic: MetamorphicReport,
    /// Recall against the generator's ground truth.
    pub recall: RecallReport,
}

impl ConformanceReport {
    /// Did every enabled check pass?
    pub fn passed(&self) -> bool {
        self.differential.passed()
            && self.oracle.as_ref().is_none_or(|o| o.passed())
            && self.metamorphic.passed()
            && self.recall.passed()
    }

    /// Every failure across all checks, prefixed by its check name.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in &self.differential.mismatches {
            out.push(format!("differential: {m}"));
        }
        if let Some(oracle) = &self.oracle {
            for m in &oracle.mismatches {
                out.push(format!("oracle: {m}"));
            }
            for m in &oracle.plan_failures {
                out.push(format!("oracle-plan: {m}"));
            }
        }
        for m in &self.metamorphic.failures {
            out.push(format!("metamorphic: {m}"));
        }
        for m in &self.recall.missed {
            out.push(format!("recall: {m}"));
        }
        out
    }

    /// The machine-readable report (schema 1).
    pub fn to_json(&self) -> Json {
        let strings = |v: &[String]| Json::Arr(v.iter().map(|s| Json::Str(s.clone())).collect());
        let mut fields = vec![
            ("schema", Json::U64(1)),
            ("tool", Json::Str("sqlog-conform".into())),
            ("passed", Json::Bool(self.passed())),
            ("seed", Json::U64(self.seed)),
            ("cases", Json::U64(self.cases as u64)),
            ("log_entries", Json::U64(self.log_entries as u64)),
            (
                "differential",
                Json::obj(vec![
                    ("legs", Json::U64(self.differential.legs as u64)),
                    (
                        "hostile_lines",
                        Json::U64(self.differential.hostile_lines as u64),
                    ),
                    ("entries", Json::U64(self.differential.entries as u64)),
                    ("mismatches", strings(&self.differential.mismatches)),
                ]),
            ),
        ];
        if let Some(oracle) = &self.oracle {
            fields.push((
                "oracle",
                Json::obj(vec![
                    ("pairs", Json::U64(oracle.pairs as u64)),
                    ("equivalent", Json::U64(oracle.equivalent as u64)),
                    ("nonempty", Json::U64(oracle.nonempty as u64)),
                    ("skipped", Json::U64(oracle.skipped as u64)),
                    ("mismatches", strings(&oracle.mismatches)),
                    ("plan_checked", Json::U64(oracle.plan_checked as u64)),
                    ("plan_seeks", Json::U64(oracle.plan_seeks as u64)),
                    ("plan_failures", strings(&oracle.plan_failures)),
                ]),
            ));
        }
        fields.push((
            "metamorphic",
            Json::obj(vec![
                (
                    "fixpoint_checked",
                    Json::U64(self.metamorphic.fixpoint_checked as u64),
                ),
                (
                    "skeleton_checked",
                    Json::U64(self.metamorphic.skeleton_checked as u64),
                ),
                (
                    "skeleton_skipped",
                    Json::U64(self.metamorphic.skeleton_skipped as u64),
                ),
                ("shift_checked", Json::Bool(self.metamorphic.shift_checked)),
                ("failures", strings(&self.metamorphic.failures)),
            ]),
        ));
        let per_class = Json::Obj(
            self.recall
                .per_class
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        Json::obj(vec![
                            ("expected", Json::U64(v.expected as u64)),
                            ("detected", Json::U64(v.detected as u64)),
                        ]),
                    )
                })
                .collect(),
        );
        fields.push((
            "recall",
            Json::obj(vec![
                ("expected", Json::U64(self.recall.expected as u64)),
                ("detected", Json::U64(self.recall.detected as u64)),
                // F64 so the value always renders with a fraction ("1.0").
                ("recall", Json::F64(self.recall.recall())),
                ("per_class", per_class),
                ("missed", strings(&self.recall.missed)),
            ]),
        ));
        Json::obj(fields)
    }

    /// A short human summary, one line per check.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "conformance seed={} cases={} entries={}\n",
            self.seed, self.cases, self.log_entries
        );
        out.push_str(&format!(
            "  differential: {} legs, {} hostile lines, {} mismatches\n",
            self.differential.legs,
            self.differential.hostile_lines,
            self.differential.mismatches.len()
        ));
        match &self.oracle {
            Some(o) => {
                out.push_str(&format!(
                    "  oracle: {}/{} equivalent ({} non-empty, {} skipped), {} mismatches\n",
                    o.equivalent,
                    o.pairs,
                    o.nonempty,
                    o.skipped,
                    o.mismatches.len()
                ));
                if o.plan_checked > 0 || !o.plan_failures.is_empty() {
                    out.push_str(&format!(
                        "  oracle plans: {} checked, {} seeks, {} failures\n",
                        o.plan_checked,
                        o.plan_seeks,
                        o.plan_failures.len()
                    ));
                }
            }
            None => out.push_str("  oracle: disabled\n"),
        }
        out.push_str(&format!(
            "  metamorphic: {} fixpoint + {} skeleton checks, {} failures\n",
            self.metamorphic.fixpoint_checked,
            self.metamorphic.skeleton_checked,
            self.metamorphic.failure_count()
        ));
        out.push_str(&format!(
            "  recall: {}/{} planted groups detected ({:.3})\n",
            self.recall.detected,
            self.recall.expected,
            self.recall.recall()
        ));
        out.push_str(if self.passed() { "PASS" } else { "FAIL" });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> ConformanceReport {
        ConformanceReport {
            seed: 1,
            cases: 0,
            log_entries: 0,
            differential: DifferentialReport::default(),
            oracle: Some(OracleReport::default()),
            metamorphic: MetamorphicReport::default(),
            recall: RecallReport::default(),
        }
    }

    #[test]
    fn json_shape_is_stable() {
        let j = empty_report().to_json();
        assert_eq!(j.get("schema"), Some(&Json::U64(1)));
        assert_eq!(j.get("passed"), Some(&Json::Bool(true)));
        let recall = j.get("recall").expect("recall object");
        // An empty run has perfect recall and renders it with a fraction.
        assert!(recall.render().contains("\"recall\":1.0"), "{}", j.render());
    }

    #[test]
    fn failures_are_prefixed_by_check() {
        let mut r = empty_report();
        r.differential.mismatches.push("leg x".into());
        r.metamorphic.failures.push("fixpoint y".into());
        r.recall.missed.push("group 7".into());
        assert!(!r.passed());
        let f = r.failures();
        assert_eq!(f.len(), 3);
        assert!(f[0].starts_with("differential: "));
        assert!(f[1].starts_with("metamorphic: "));
        assert!(f[2].starts_with("recall: "));
        assert!(r.summary().ends_with("FAIL"));
    }
}
