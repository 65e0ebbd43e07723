//! Next-query recommendation — the paper's future-work experiment (§7).
//!
//! > "Clearly, queries suggested by a recommender system must not contain
//! > antipatterns. We would like to study the rate of recommended queries
//! > containing antipatterns if the recommender is trained on the original
//! > log. We then would like to do the same with the cleaned log."
//!
//! This module implements that study: a first-order Markov recommender over
//! template transitions (the simplest member of the QueRIE \[6\] family), plus
//! the evaluation that measures how often its suggestions are antipattern
//! templates. Trained on the raw log, the recommender eagerly proposes
//! stifle follow-ups; trained on the cleaned log, it cannot — the training
//! data no longer contains them.

use crate::detect::AntipatternClass;
use crate::mine::Sessions;
use crate::parse_step::ParsedRecord;
use crate::store::TemplateId;
use std::collections::HashMap;

/// A first-order Markov next-template recommender.
#[derive(Debug, Default)]
pub struct Recommender {
    /// `current template → (next template → transition count)`.
    transitions: HashMap<TemplateId, HashMap<TemplateId, u64>>,
    /// Occurrences per template (for weighting the evaluation).
    occurrences: HashMap<TemplateId, u64>,
}

impl Recommender {
    /// Trains on the session streams of a parsed log: every adjacent pair of
    /// queries inside a session is a transition.
    pub fn train(sessions: &Sessions, records: &[ParsedRecord]) -> Self {
        let mut r = Recommender::default();
        for session in &sessions.sessions {
            let templates: Vec<TemplateId> = session
                .records
                .iter()
                .map(|&ri| records[ri].template)
                .collect();
            for &t in &templates {
                *r.occurrences.entry(t).or_default() += 1;
            }
            for pair in templates.windows(2) {
                *r.transitions
                    .entry(pair[0])
                    .or_default()
                    .entry(pair[1])
                    .or_default() += 1;
            }
        }
        r
    }

    /// The top-`k` next templates after `current`, most frequent first.
    pub fn recommend(&self, current: TemplateId, k: usize) -> Vec<TemplateId> {
        let Some(nexts) = self.transitions.get(&current) else {
            return Vec::new();
        };
        let mut ranked: Vec<(&TemplateId, &u64)> = nexts.iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        ranked.into_iter().take(k).map(|(t, _)| *t).collect()
    }

    /// Number of distinct templates with at least one outgoing transition.
    pub fn states(&self) -> usize {
        self.transitions.len()
    }

    /// Total training transitions.
    pub fn transition_count(&self) -> u64 {
        self.transitions.values().flat_map(|m| m.values()).sum()
    }

    /// Iterates over `(template, occurrence count)` of the training data —
    /// the weights an evaluation should use.
    pub fn sources(&self) -> impl Iterator<Item = (TemplateId, u64)> + '_ {
        self.occurrences.iter().map(|(&t, &c)| (t, c))
    }
}

/// Outcome of the future-work evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecommendationEval {
    /// Share of issued recommendations that are antipattern templates,
    /// weighted by how often the source template occurs (i.e. how often the
    /// recommendation would actually be shown).
    pub antipattern_rate: f64,
    /// Recommendations issued (weighted).
    pub recommendations: u64,
    /// Of which antipattern templates (weighted).
    pub antipattern_recommendations: u64,
}

/// Measures how often the recommender's top-`k` suggestions are antipattern
/// templates, weighting each source template by its occurrence count.
///
/// `marks` is the pipeline's pattern-mark map; a suggested template counts
/// as an antipattern when its unigram pattern is marked.
pub fn evaluate_against_marks(
    recommender: &Recommender,
    marks: &HashMap<Vec<TemplateId>, AntipatternClass>,
    k: usize,
) -> RecommendationEval {
    let mut total = 0u64;
    let mut anti = 0u64;
    for (&current, &weight) in &recommender.occurrences {
        for suggestion in recommender.recommend(current, k) {
            total += weight;
            if marks.contains_key(&vec![suggestion]) {
                anti += weight;
            }
        }
    }
    RecommendationEval {
        antipattern_rate: if total == 0 {
            0.0
        } else {
            anti as f64 / total as f64
        },
        recommendations: total,
        antipattern_recommendations: anti,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::mine::build_sessions;
    use crate::parse_step::parse_log;
    use crate::store::TemplateStore;
    use sqlog_log::{LogEntry, QueryLog, Timestamp};

    fn setup(rows: &[&str]) -> (Recommender, Vec<TemplateId>) {
        let log = QueryLog::from_entries(
            rows.iter()
                .enumerate()
                .map(|(i, s)| {
                    LogEntry::minimal(i as u64, *s, Timestamp::from_secs(i as i64)).with_user("u")
                })
                .collect(),
        );
        let store = TemplateStore::new();
        let parsed = parse_log(&log, &store, 1);
        let cfg = PipelineConfig::default();
        let sessions = build_sessions(&log, &parsed.records, cfg.session_gap_ms);
        let templates = parsed.records.iter().map(|r| r.template).collect();
        (Recommender::train(&sessions, &parsed.records), templates)
    }

    #[test]
    fn recommends_the_most_frequent_next() {
        let (r, t) = setup(&[
            "SELECT a FROM t WHERE x = 1",
            "SELECT b FROM t WHERE x = 1",
            "SELECT a FROM t WHERE x = 2",
            "SELECT b FROM t WHERE x = 2",
            "SELECT a FROM t WHERE x = 3",
            "SELECT c FROM t WHERE x = 3",
        ]);
        // a → b twice, a → c once.
        let recs = r.recommend(t[0], 2);
        assert_eq!(recs[0], t[1]);
        assert_eq!(recs[1], t[5]);
        // Two templates have outgoing transitions: a → {b, c}, b → {a}.
        assert_eq!(r.states(), 2);
        assert_eq!(r.transition_count(), 5);
    }

    #[test]
    fn unknown_template_gets_no_recommendation() {
        let (r, _) = setup(&["SELECT a FROM t WHERE x = 1"]);
        assert!(r.recommend(TemplateId(999), 3).is_empty());
        assert_eq!(r.transition_count(), 0);
    }

    #[test]
    fn antipattern_rate_reflects_marks() {
        let (r, t) = setup(&[
            "SELECT a FROM t WHERE x = 1",
            "SELECT b FROM t WHERE x = 1",
            "SELECT a FROM t WHERE x = 2",
            "SELECT b FROM t WHERE x = 2",
        ]);
        let mut marks = HashMap::new();
        // Mark template b as an antipattern.
        marks.insert(vec![t[1]], AntipatternClass::DwStifle);
        let eval = evaluate_against_marks(&r, &marks, 1);
        assert!(eval.antipattern_rate > 0.0);
        assert!(eval.recommendations > 0);

        let clean_eval = evaluate_against_marks(&r, &HashMap::new(), 1);
        assert_eq!(clean_eval.antipattern_rate, 0.0);
    }
}
