//! Differential test of pattern mining against a `HashSet` reference miner.
//!
//! The miner keeps each pattern's users as an ascending `Vec<u32>` and
//! merges shard counters in shard order, dropping only the user two
//! neighbouring shards share. The reference below is the plain form of the
//! same definitions (Defs. 9–10): one `HashMap` from pattern to frequency
//! and a `HashSet` of users, and a per-session map of non-overlap ends.
//! Both must agree on every pattern at every thread count, on the degraded
//! per-session path, and for sessions that are not in user order.
//!
//! The degraded leg arms the fault hook through process-global environment
//! variables, so every leg lives in one test function.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use sqlog_catalog::Catalog;
use sqlog_core::{
    balance_chunks, MinedPatterns, ParsedRecord, Pipeline, PipelineConfig, Session, Sessions,
    TemplateId, TemplateStore,
};
use sqlog_log::{LogEntry, LogView, QueryLog, Timestamp};
use std::collections::{HashMap, HashSet};

const GAP_MS: u64 = 60_000;
/// A table name: the mine stage's fault hook matches primary tables.
const MARKER: &str = "poison_mine_diff_tbl";

type Reference = HashMap<Vec<TemplateId>, (u64, HashSet<u32>)>;

/// Mines `sessions` the plain way, skipping those `skip` names.
fn reference(
    sessions: &[Session],
    records: &[ParsedRecord],
    max_ngram: usize,
    skip: impl Fn(&Session) -> bool,
) -> (Reference, u64) {
    let mut out = Reference::new();
    let mut total = 0u64;
    let mut bump = |key: Vec<TemplateId>, user: u32| {
        let e = out.entry(key).or_default();
        e.0 += 1;
        e.1.insert(user);
    };
    for s in sessions.iter().filter(|s| !skip(s)) {
        let t: Vec<TemplateId> = s.records.iter().map(|&r| records[r].template).collect();
        total += t.len() as u64;
        for &x in &t {
            bump(vec![x], s.user);
        }
        for n in 2..=max_ngram {
            let mut last_end: HashMap<&[TemplateId], usize> = HashMap::new();
            for i in 0..(t.len() + 1).saturating_sub(n) {
                let gram = &t[i..i + n];
                if last_end.get(gram).is_none_or(|&end| i >= end) {
                    last_end.insert(gram, i + n);
                    bump(gram.to_vec(), s.user);
                }
            }
        }
    }
    (out, total)
}

/// Asserts that `mined` equals the reference and that every user list is
/// ascending and duplicate-free.
fn assert_matches(mined: &MinedPatterns, want: &(Reference, u64), leg: &str) {
    assert_eq!(mined.total_queries, want.1, "{leg}: total queries");
    assert_eq!(mined.patterns.len(), want.0.len(), "{leg}: pattern count");
    for (key, d) in &mined.patterns {
        assert!(
            d.users.windows(2).all(|w| w[0] < w[1]),
            "{leg}: users of {key:?} not strictly ascending: {:?}",
            d.users
        );
        let (freq, users) = want
            .0
            .get(key)
            .unwrap_or_else(|| panic!("{leg}: extra {key:?}"));
        assert_eq!(d.frequency, *freq, "{leg}: frequency of {key:?}");
        let mut users: Vec<u32> = users.iter().copied().collect();
        users.sort_unstable();
        assert_eq!(d.users, users, "{leg}: users of {key:?}");
    }
}

/// Few users with many gap-separated sessions each, so shard boundaries
/// fall inside one user's sessions. `poison` plants the marker table in
/// some sessions of user 1.
fn session_log(seed: u64, poison: bool) -> (Vec<ParsedRecord>, Sessions) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut entries = Vec::new();
    for user in 0..4 {
        for session in 0..40i64 {
            let start = session * 10_000;
            for q in 0..rng.random_range(1..=8i64) {
                let table = if poison && user == 1 && session % 9 == 4 && q == 0 {
                    MARKER
                } else {
                    "t"
                };
                let column = rng.random_range(0..5);
                entries.push(
                    LogEntry::minimal(
                        entries.len() as u64,
                        format!("SELECT c{column} FROM {table} WHERE x = {q}"),
                        Timestamp::from_secs(start + q),
                    )
                    .with_user(format!("user{user}")),
                );
            }
        }
    }
    let mut log = QueryLog::from_entries(entries);
    log.sort_by_time();
    let catalog = Catalog::new();
    let pipeline = pipeline(&catalog, 1);
    let view = LogView::identity(&log);
    let records = pipeline.op_parse(&view, &TemplateStore::new()).records;
    let sessions = pipeline.op_sessions(&view, &records);
    (records, sessions)
}

/// True when some user's sessions lie in two of the shards `threads`
/// threads mine.
fn straddles(sessions: &Sessions, threads: usize) -> bool {
    let weights: Vec<u64> = sessions
        .sessions
        .iter()
        .map(|s| s.records.len() as u64)
        .collect();
    balance_chunks(&weights, threads)
        .windows(2)
        .any(|w| sessions.sessions[w[0].end - 1].user == sessions.sessions[w[1].start].user)
}

/// The default pipeline at a `GAP_MS` session gap on `threads` threads.
fn pipeline(catalog: &Catalog, threads: usize) -> Pipeline<'_> {
    Pipeline::new(catalog).with_config(PipelineConfig {
        session_gap_ms: GAP_MS,
        parallelism: threads,
        ..PipelineConfig::default()
    })
}

fn mine(sessions: &Sessions, records: &[ParsedRecord], threads: usize) -> MinedPatterns {
    pipeline(&Catalog::new(), threads).op_mine(sessions, records)
}

#[test]
fn mining_matches_the_hashset_reference() {
    let max_ngram = PipelineConfig::default().max_ngram;
    for seed in [1, 2, 3] {
        let (records, mut sessions) = session_log(seed, false);
        let want = reference(&sessions.sessions, &records, max_ngram, |_| false);
        for threads in [1, 2, 3, 8] {
            if threads > 1 {
                assert!(
                    straddles(&sessions, threads),
                    "seed {seed} threads {threads}"
                );
            }
            assert_matches(
                &mine(&sessions, &records, threads),
                &want,
                &format!("seed {seed} threads {threads}"),
            );
        }
        // Sessions out of user order take the insert and sorted-union
        // fallbacks and still agree.
        sessions.sessions.reverse();
        for threads in [1, 2, 8] {
            assert_matches(
                &mine(&sessions, &records, threads),
                &want,
                &format!("seed {seed} reversed threads {threads}"),
            );
        }
    }

    // Degraded: the shards holding a poison session re-run per session.
    let (records, sessions) = session_log(7, true);
    let poisoned = |s: &Session| {
        s.records
            .iter()
            .any(|&r| records[r].shape.primary_table.as_deref() == Some(MARKER))
    };
    let n_poison = sessions.sessions.iter().filter(|s| poisoned(s)).count();
    assert!(n_poison > 1, "the log must plant poison sessions");
    let want = reference(&sessions.sessions, &records, max_ngram, poisoned);

    std::env::set_var("SQLOG_FAULT_MARKER", MARKER);
    std::env::set_var("SQLOG_FAULT_STAGE", "mine");
    let runs: Vec<(usize, MinedPatterns)> = [1, 2, 3, 8]
        .into_iter()
        .map(|threads| (threads, mine(&sessions, &records, threads)))
        .collect();
    std::env::remove_var("SQLOG_FAULT_MARKER");
    std::env::remove_var("SQLOG_FAULT_STAGE");

    for (threads, mined) in runs {
        if threads > 1 {
            assert!(straddles(&sessions, threads), "threads {threads}");
        }
        assert!(
            mined.degraded_shards > 0,
            "threads {threads}: no shard degraded"
        );
        assert_eq!(mined.poison_sessions, n_poison, "threads {threads}");
        assert_matches(&mined, &want, &format!("degraded threads {threads}"));
    }
}
