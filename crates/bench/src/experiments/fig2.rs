//! Figure 2: (a) top patterns before/after cleaning, (b) frequency vs
//! userPopularity, (c) with/without user information, (d) true vs false CTH
//! by rank.

use crate::experiments::Experiment;
use sqlog_core::{top_patterns, AntipatternClass};
use sqlog_log::{IntentKind, UserTable};

/// One point of a rank series.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPoint {
    /// 1-based rank.
    pub rank: usize,
    /// Frequency.
    pub frequency: u64,
    /// userPopularity.
    pub user_popularity: usize,
    /// Whether this pattern is an antipattern.
    pub antipattern: bool,
}

/// Fig. 2 (a): the top-`k` patterns of the raw log and of the cleaned log.
pub fn fig2a(exp: &Experiment, k: usize) -> (Vec<RankPoint>, Vec<RankPoint>) {
    let before = top_patterns(
        &exp.result.mined,
        &exp.result.marks,
        &exp.result.store,
        k,
        2,
    )
    .into_iter()
    .map(|r| RankPoint {
        rank: r.rank,
        frequency: r.frequency,
        user_popularity: r.user_popularity,
        antipattern: r.class.is_some(),
    })
    .collect();
    let clean = exp.run_pipeline(&exp.result.clean_log);
    let after = top_patterns(&clean.mined, &clean.marks, &clean.store, k, 2)
        .into_iter()
        .map(|r| RankPoint {
            rank: r.rank,
            frequency: r.frequency,
            user_popularity: r.user_popularity,
            antipattern: r.class.is_some(),
        })
        .collect();
    (before, after)
}

/// Fig. 2 (b): frequency vs userPopularity of the top-`k` patterns.
pub fn fig2b(exp: &Experiment, k: usize) -> Vec<RankPoint> {
    top_patterns(
        &exp.result.mined,
        &exp.result.marks,
        &exp.result.store,
        k,
        2,
    )
    .into_iter()
    .map(|r| RankPoint {
        rank: r.rank,
        frequency: r.frequency,
        user_popularity: r.user_popularity,
        antipattern: r.class.is_some(),
    })
    .collect()
}

/// Fig. 2 (c): top-`k` frequencies with full information vs with user and
/// session metadata stripped. Points are matched by skeleton.
pub fn fig2c(exp: &Experiment, k: usize) -> Vec<(u64, Option<u64>, bool)> {
    let stripped_result = exp.run_pipeline(&exp.log.strip_metadata());
    let with = top_patterns(
        &exp.result.mined,
        &exp.result.marks,
        &exp.result.store,
        k,
        2,
    );
    let without = top_patterns(
        &stripped_result.mined,
        &stripped_result.marks,
        &stripped_result.store,
        k * 4,
        1,
    );
    with.into_iter()
        .map(|r| {
            // Template ids differ between the two stores, so patterns are
            // matched by shape: same length and same skeleton statements.
            let matched = without
                .iter()
                .find(|w| w.key.len() == r.key.len() && w.skeletons == r.skeletons)
                .map(|w| w.frequency);
            (r.frequency, matched, r.class.is_some())
        })
        .collect()
}

/// One Fig. 2 (d) point: a distinct CTH candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CthPoint {
    /// 1-based rank by frequency.
    pub rank: usize,
    /// Instance count of the candidate.
    pub frequency: u64,
    /// Distinct users across instances.
    pub user_popularity: usize,
    /// Ground-truth verdict.
    pub real: bool,
}

/// Fig. 2 (d): distinct CTH candidates with frequency, userPopularity and
/// the ground-truth verdict.
pub fn fig2d(exp: &Experiment) -> Vec<CthPoint> {
    use std::collections::HashMap;
    // identity → (instances, users, real votes)
    let users = UserTable::build(&exp.log).ids;
    let mut agg: HashMap<&[sqlog_core::TemplateId], (u64, std::collections::HashSet<u32>, u64)> =
        HashMap::new();
    for (inst, entry_ids) in exp
        .result
        .instances
        .iter()
        .zip(&exp.result.instance_entry_ids)
    {
        if inst.class != AntipatternClass::CthCandidate {
            continue;
        }
        let real = entry_ids[1..].iter().any(|&id| {
            exp.log.entries[id as usize].truth.map(|t| t.kind) == Some(IntentKind::CthFollowUp)
        });
        let e = agg.entry(inst.identity.as_slice()).or_default();
        e.0 += 1;
        e.1.insert(users[entry_ids[0] as usize]);
        e.2 += u64::from(real);
    }
    let mut points: Vec<_> = agg
        .into_iter()
        .map(|(identity, (freq, users, real_votes))| {
            let point = CthPoint {
                rank: 0,
                frequency: freq,
                user_popularity: users.len(),
                real: real_votes * 2 > freq,
            };
            (identity, point)
        })
        .collect();
    // Equal frequencies rank by identity, as `MinedPatterns::ranked` ranks
    // equal patterns by key, so the order does not follow the map's.
    points.sort_by(|a, b| b.1.frequency.cmp(&a.1.frequency).then_with(|| a.0.cmp(b.0)));
    points
        .into_iter()
        .enumerate()
        .map(|(i, (_, p))| CthPoint { rank: i + 1, ..p })
        .collect()
}

/// Renders a rank series.
pub fn render_rank_series(title: &str, points: &[RankPoint]) -> String {
    let mut out = format!(
        "{title}\n{:>4} {:>12} {:>8}  type\n",
        "rank", "freq", "userPop"
    );
    for p in points {
        out.push_str(&format!(
            "{:>4} {:>12} {:>8}  {}\n",
            p.rank,
            p.frequency,
            p.user_popularity,
            if p.antipattern {
                "antipattern"
            } else {
                "pattern"
            }
        ));
    }
    out
}

/// Renders the Fig. 2 (d) points.
pub fn render_cth_points(points: &[CthPoint]) -> String {
    let mut out = String::from("Fig. 2(d) — CTH candidates: frequency & userPopularity by rank\n");
    out.push_str(&format!(
        "{:>4} {:>10} {:>8}  verdict\n",
        "rank", "freq", "userPop"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>4} {:>10} {:>8}  {}\n",
            p.rank,
            p.frequency,
            p.user_popularity,
            if p.real { "true CTH" } else { "false CTH" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_cleaning_removes_top_antipatterns() {
        let exp = Experiment::new(20_000, 4007);
        let (before, after) = fig2a(&exp, 30);
        let anti_before = before.iter().filter(|p| p.antipattern).count();
        let anti_after = after.iter().filter(|p| p.antipattern).count();
        // Paper: 9 antipatterns in the top 30 before; far fewer after.
        assert!(anti_before >= 4, "before: {anti_before}");
        assert!(anti_after < anti_before, "after: {anti_after}");
    }

    #[test]
    fn fig2b_top_patterns_have_low_user_popularity() {
        let exp = Experiment::new(20_000, 4008);
        let points = fig2b(&exp, 40);
        // Paper §6.5: 23 of the top 40 patterns were run by one user.
        let single_user = points.iter().filter(|p| p.user_popularity <= 2).count();
        assert!(single_user >= 15, "single-user patterns: {single_user}");
    }

    #[test]
    fn fig2c_frequencies_survive_metadata_stripping() {
        let exp = Experiment::new(15_000, 4009);
        let pairs = fig2c(&exp, 10);
        let matched = pairs.iter().filter(|(_, m, _)| m.is_some()).count();
        assert!(matched >= 8, "matched patterns: {matched}");
        for (with, without, _) in pairs.iter().filter(|(_, m, _)| m.is_some()) {
            let ratio = without.unwrap() as f64 / *with as f64;
            assert!((0.65..=1.35).contains(&ratio), "ratio = {ratio}");
        }
    }

    #[test]
    fn fig2d_has_true_and_false_points() {
        let exp = Experiment::new(25_000, 4010);
        let points = fig2d(&exp);
        assert!(points.len() >= 10, "candidates: {}", points.len());
        assert!(points.iter().any(|p| p.real));
        assert!(points.iter().any(|p| !p.real));
        // Ranks are sequential.
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.rank, i + 1);
        }
        // Points that tie on frequency still rank the same on every call.
        assert!(points.windows(2).any(|w| w[0].frequency == w[1].frequency));
        assert_eq!(points, fig2d(&exp));
    }
}
