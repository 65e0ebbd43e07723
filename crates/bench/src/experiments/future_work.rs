//! The paper's §7 future-work experiment: antipattern rate of a query
//! recommender trained on the raw vs the cleaned log.
//!
//! > "If the rate now is much smaller, then our approach obviously is more
//! > useful compared to the outcome that it is not."

use crate::experiments::Experiment;
use sqlog_core::{Pipeline, Recommender, TemplateStore};
use sqlog_log::LogView;
use std::collections::HashSet;

/// Result of the study.
#[derive(Debug, Clone, PartialEq)]
pub struct FutureWork {
    /// Antipattern rate of the recommender trained on the raw log.
    pub raw_rate: f64,
    /// Antipattern rate of the recommender trained on the cleaned log.
    pub clean_rate: f64,
    /// Training transitions, raw.
    pub raw_transitions: u64,
    /// Training transitions, clean.
    pub clean_transitions: u64,
}

/// Trains on `log`, evaluates top-`k` suggestions against the set of
/// antipattern skeleton texts (store-independent identity).
fn rate_on(
    pipeline: &Pipeline<'_>,
    log: &LogView<'_>,
    anti: &HashSet<String>,
    k: usize,
) -> (f64, u64) {
    let store = TemplateStore::new();
    let parsed = pipeline.op_parse(log, &store);
    let sessions = pipeline.op_sessions(log, &parsed.records);
    let recommender = Recommender::train(&sessions, &parsed.records);

    let mut total = 0u64;
    let mut hits = 0u64;
    for (current, weight) in recommender.sources() {
        for suggestion in recommender.recommend(current, k) {
            total += weight;
            if store.with(suggestion, |t| anti.contains(&t.full)) {
                hits += weight;
            }
        }
    }
    (
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        },
        recommender.transition_count(),
    )
}

/// Runs the study at top-`k` recommendations.
pub fn run(exp: &Experiment, k: usize) -> FutureWork {
    // Antipattern identity across template stores: the skeleton text of
    // every antipattern-marked unigram in the raw pipeline result.
    let anti: HashSet<String> = exp
        .result
        .marks
        .keys()
        .filter(|key| key.len() == 1)
        .map(|key| exp.result.store.with(key[0], |t| t.full.clone()))
        .collect();

    // Pre-cleaned (dedup-only) log stands in for "the original log".
    let pipeline = Pipeline::new(&exp.catalog);
    let (pre_clean, _) = pipeline.op_dedup(&LogView::identity(&exp.log));
    let (raw_rate, raw_transitions) = rate_on(&pipeline, &pre_clean, &anti, k);
    let clean = LogView::identity(&exp.result.clean_log);
    let (clean_rate, clean_transitions) = rate_on(&pipeline, &clean, &anti, k);

    FutureWork {
        raw_rate,
        clean_rate,
        raw_transitions,
        clean_transitions,
    }
}

/// Renders the result.
pub fn render(f: &FutureWork) -> String {
    format!(
        "§7 future work — antipattern rate of next-query recommendations\n\
         trained on raw log    {:>6.1}% of recommendations are antipatterns \
         ({} transitions)\n\
         trained on clean log  {:>6.1}% of recommendations are antipatterns \
         ({} transitions)\n",
        100.0 * f.raw_rate,
        f.raw_transitions,
        100.0 * f.clean_rate,
        f.clean_transitions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cleaning_slashes_the_antipattern_recommendation_rate() {
        let exp = Experiment::new(15_000, 4020);
        let f = run(&exp, 1);
        assert!(f.raw_rate > 0.05, "raw rate = {}", f.raw_rate);
        assert!(
            f.clean_rate < f.raw_rate / 2.0,
            "raw {} vs clean {}",
            f.raw_rate,
            f.clean_rate
        );
    }
}
