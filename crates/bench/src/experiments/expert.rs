//! §6.7 "Feedback from Domain Experts", quantified.
//!
//! The paper showed its most popular patterns to astronomers, blind to the
//! antipattern marking; the experts judged every unmarked pattern meaningful
//! and recognized the marked ones as follow-up traffic. Here the generator's
//! ground truth plays the experts: for each top pattern we compare the
//! pipeline's antipattern mark with the majority intent of the queries
//! behind the pattern.

use crate::experiments::Experiment;
use sqlog_core::{top_patterns, Pipeline, TemplateStore};
use sqlog_log::{IntentKind, LogView};
use std::collections::HashMap;

/// Agreement between the marking and the ground truth over the top patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpertAgreement {
    /// Patterns examined.
    pub patterns: usize,
    /// Marked antipatterns whose majority intent really is antipattern
    /// traffic (stifle crawlers, CTH follow-ups, SNC) — the paper's experts
    /// "deem antipatterns follow-up queries".
    pub true_antipatterns: usize,
    /// Marked antipatterns whose majority intent is genuine user work.
    pub false_antipatterns: usize,
    /// Unmarked patterns whose majority intent is genuine user work — the
    /// experts' "all patterns are meaningful".
    pub true_patterns: usize,
    /// Unmarked patterns whose majority intent is antipattern traffic.
    pub missed_antipatterns: usize,
}

impl ExpertAgreement {
    /// Overall agreement rate in [0, 1].
    pub fn agreement(&self) -> f64 {
        (self.true_antipatterns + self.true_patterns) as f64 / self.patterns.max(1) as f64
    }
}

/// Runs the experiment over the top-`k` patterns of the raw log.
pub fn run(exp: &Experiment, k: usize) -> ExpertAgreement {
    // Majority intent per template, computed from the pre-cleaned log.
    let pipeline = Pipeline::new(&exp.catalog);
    let (pre_clean, _) = pipeline.op_dedup(&LogView::identity(&exp.log));
    let store = TemplateStore::new();
    let parsed = pipeline.op_parse(&pre_clean, &store);
    let mut label_per_template: HashMap<u64, HashMap<IntentKind, u64>> = HashMap::new();
    for rec in &parsed.records {
        let entry = pre_clean.entry(rec.entry_idx as usize);
        if let Some(t) = entry.truth {
            *label_per_template
                .entry(store.with(rec.template, |tpl| tpl.fingerprint.0))
                .or_default()
                .entry(t.kind)
                .or_default() += 1;
        }
    }

    let is_antipattern_traffic = |kind: IntentKind| {
        matches!(
            kind,
            IntentKind::StifleDw
                | IntentKind::StifleDs
                | IntentKind::StifleDf
                | IntentKind::CthSource
                | IntentKind::CthFollowUp
                | IntentKind::CthCoincidental
                | IntentKind::Snc
                | IntentKind::Duplicate
        )
    };

    let rows = top_patterns(
        &exp.result.mined,
        &exp.result.marks,
        &exp.result.store,
        k,
        2,
    );
    let mut agreement = ExpertAgreement {
        patterns: 0,
        true_antipatterns: 0,
        false_antipatterns: 0,
        true_patterns: 0,
        missed_antipatterns: 0,
    };
    for row in rows {
        // Majority intent across the pattern's templates.
        let mut tally: HashMap<IntentKind, u64> = HashMap::new();
        for &t in &row.key {
            let fp = exp.result.store.with(t, |tpl| tpl.fingerprint.0);
            if let Some(labels) = label_per_template.get(&fp) {
                for (kind, count) in labels {
                    *tally.entry(*kind).or_default() += count;
                }
            }
        }
        let Some((majority, _)) = tally.into_iter().max_by_key(|(_, c)| *c) else {
            continue;
        };
        agreement.patterns += 1;
        match (row.class.is_some(), is_antipattern_traffic(majority)) {
            (true, true) => agreement.true_antipatterns += 1,
            (true, false) => agreement.false_antipatterns += 1,
            (false, false) => agreement.true_patterns += 1,
            (false, true) => agreement.missed_antipatterns += 1,
        }
    }
    agreement
}

/// Renders the result.
pub fn render(a: &ExpertAgreement, k: usize) -> String {
    format!(
        "§6.7 — marking vs ground-truth 'expert' judgment (top {k} patterns)\n\
         marked antipatterns, confirmed        {:>4}\n\
         marked antipatterns, disputed         {:>4}\n\
         unmarked patterns, confirmed genuine  {:>4}\n\
         unmarked patterns that were traffic   {:>4}\n\
         agreement: {:.1}%\n",
        a.true_antipatterns,
        a.false_antipatterns,
        a.true_patterns,
        a.missed_antipatterns,
        100.0 * a.agreement(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experts_agree_with_the_marking() {
        let exp = Experiment::new(15_000, 4050);
        let a = run(&exp, 40);
        assert!(a.patterns >= 30, "patterns = {}", a.patterns);
        assert!(a.true_antipatterns >= 3);
        assert!(a.true_patterns >= 15);
        // The paper's experts agreed with every judgment; with CTH-shaped
        // web-UI patterns in the mix a small disagreement band remains.
        assert!(a.agreement() >= 0.85, "agreement = {}", a.agreement());
    }
}
