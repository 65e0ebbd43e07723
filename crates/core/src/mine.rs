//! Step 3 of the pipeline: pattern mining (Definitions 7–10).
//!
//! A pattern is a sequence of query templates; an instance is an
//! uninterrupted run of matching queries from one user (Def. 8). The paper
//! defines patterns but not a mining algorithm; we use *run-collapse n-gram
//! mining*:
//!
//! 1. the parsed records are split into per-user **sessions** (a new session
//!    starts when the gap to the user's previous query exceeds
//!    `session_gap_ms` — Def. 8's "no other requests in between" plus
//!    §4.1.1's "short time between them"); users are numbered by first
//!    appearance in record order through [`LogView::dense_users`], not by
//!    the user table's base order, which would leave gaps for users
//!    without a SELECT,
//! 2. within each session, every template occurrence is an instance of the
//!    length-1 pattern `[t]`, and every *non-overlapping* n-gram occurrence
//!    (n ≤ `max_ngram`) is an instance of the length-n pattern.
//!
//! Frequency counts instances (Def. 9); userPopularity counts distinct users
//! across instances (Def. 10). Non-overlapping counting makes the DW pair
//! pattern `[A, A]` of the paper's Table 6 come out at roughly half the
//! frequency of `[A]`, matching the ratio between Tables 6 and 7.
//!
//! The hot path is allocation-free per occurrence: a `PatternCounter`
//! interns each pattern key once (dense `u32` pattern ids, slice-borrow
//! lookups — no `vec![t]` / `gram.to_vec()` per occurrence), tracks
//! non-overlap ends in a stamp-versioned table instead of a per-session
//! hash map, and resolves unigrams through a direct template-id index.
//!
//! A pattern's users are an ascending, duplicate-free `Vec<u32>`, not a
//! set: sessions come ordered by (user, time), so a user is appended only
//! when it differs from the pattern's last one. Mining shards across
//! contiguous session ranges, so shard *i*'s users all precede shard
//! *i + 1*'s except the one user whose sessions straddle the boundary.
//! `merge_counters` folds the shard counters in shard order, moving each key
//! and user list and dropping only that shared user, and the merged counts
//! are identical for every thread count. Sessions in any other order still
//! mine correctly, through an insert and a sorted union.

use crate::config::PipelineConfig;
use crate::parse_step::ParsedRecord;
use crate::shard::{plan_shards, resolve_threads, run_shards, ShardCtx, ShardTrace};
use crate::store::TemplateId;
use sqlog_log::LogView;
use sqlog_skeleton::FnvHashMap;
use std::collections::hash_map::Entry;

/// One per-user session: indices into the parsed-record vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// Interned user id (index into [`Sessions::user_names`]).
    pub user: u32,
    /// Record indices, in time order.
    pub records: Vec<usize>,
}

/// All sessions of a parsed log.
#[derive(Debug, Default)]
pub struct Sessions {
    /// The sessions, ordered by (user, time).
    pub sessions: Vec<Session>,
    /// Interned user names.
    pub user_names: Vec<String>,
    /// Poison records skipped during degraded re-runs of panicked shards.
    pub poison: usize,
    /// Session shards whose worker panicked and was recovered per-record.
    pub degraded_shards: usize,
}

/// Splits one user's record stream into gap-separated sessions, appending
/// them to `out`. Each record's timestamp read is one [`ShardCtx::item`]:
/// a poison record contributes neither a session member nor a timestamp,
/// exactly as if it had been dropped upstream.
fn split_user_stream(
    view: &LogView<'_>,
    records: &[ParsedRecord],
    shard: &ShardCtx,
    uid: u32,
    stream: &[usize],
    gap_ms: u64,
    out: &mut Vec<Session>,
) {
    let mut current = Session {
        user: uid,
        records: Vec::new(),
    };
    let mut last_ms: Option<i64> = None;
    for &ri in stream {
        let entry = view.entry(records[ri].entry_idx as usize);
        let Some(t) = shard.item(|| {
            shard.trip(&entry.statement);
            entry.timestamp.millis()
        }) else {
            continue;
        };
        if let Some(prev) = last_ms {
            if (t - prev) as u64 > gap_ms && !current.records.is_empty() {
                out.push(std::mem::replace(
                    &mut current,
                    Session {
                        user: uid,
                        records: Vec::new(),
                    },
                ));
            }
        }
        current.records.push(ri);
        last_ms = Some(t);
    }
    if !current.records.is_empty() {
        out.push(current);
    }
}

/// Splits parsed records into per-user sessions, starting a new one when
/// a user's gap exceeds [`PipelineConfig::session_gap_ms`].
///
/// Users are numbered by first appearance in record order
/// ([`LogView::dense_users`]); sessions come out ordered by (user id,
/// time). The gap-splitting shards across contiguous user ranges over
/// [`PipelineConfig::parallelism`] threads — the result is identical for
/// every thread count.
///
/// Observability: per-shard spans (`"sessions.shard"`, under the
/// recorder's current span), a shard-latency histogram and outcome counters
/// land in the config's recorder.
pub(crate) fn build_sessions(
    view: &LogView<'_>,
    records: &[ParsedRecord],
    cfg: &PipelineConfig,
) -> Sessions {
    let rec = &cfg.recorder;
    let (uids, users) = view.dense_users(records.iter().map(|r| r.entry_idx as usize));
    let names = &view.users().names;
    let user_names: Vec<String> = users.iter().map(|&t| names[t as usize].clone()).collect();
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); users.len()];
    for (ri, &uid) in uids.iter().enumerate() {
        streams[uid as usize].push(ri);
    }

    let run = run_shards(
        plan_shards(
            resolve_threads(cfg.parallelism),
            streams.iter().map(|s| s.len() as u64),
        ),
        ShardTrace {
            rec,
            parent: rec.current(),
            stage: "sessions",
            span_name: "sessions.shard",
            hist_name: "sessions.shard_us",
            degraded_counter: Some("sessions.degraded_shards"),
        },
        // Work units = records belonging to the shard's user range.
        |r| streams[r.clone()].iter().map(|s| s.len() as u64).sum(),
        |r, shard| {
            let mut out = Vec::new();
            for uid in r {
                split_user_stream(
                    view,
                    records,
                    shard,
                    uid as u32,
                    &streams[uid],
                    cfg.session_gap_ms,
                    &mut out,
                );
            }
            out
        },
    );
    // Shards cover contiguous user ranges in order, so concatenation
    // reproduces the sequential (user, time) session order.
    let mut sessions = Vec::new();
    for shard in run.outputs {
        sessions.extend(shard);
    }
    rec.counter("sessions.count", sessions.len() as u64);
    rec.counter("sessions.users", user_names.len() as u64);
    rec.counter("sessions.poison_records", run.poison as u64);
    Sessions {
        sessions,
        user_names,
        poison: run.poison,
        degraded_shards: run.degraded,
    }
}

/// Statistics of one mined pattern.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternData {
    /// Number of instances (Def. 9).
    pub frequency: u64,
    /// Distinct users with at least one instance, ascending and free of
    /// duplicates (Def. 10 is this list's length).
    pub users: Vec<u32>,
}

/// All mined patterns, keyed by their template sequence.
#[derive(Debug, Default)]
pub struct MinedPatterns {
    /// Pattern → statistics.
    pub patterns: FnvHashMap<Vec<TemplateId>, PatternData>,
    /// Total SELECT queries mined (denominator for coverage percentages).
    pub total_queries: u64,
    /// Sessions skipped because mining them panicked (isolated during a
    /// degraded shard re-run; their counts are excluded).
    pub poison_sessions: usize,
    /// Mining shards whose worker panicked and was recovered per-session.
    pub degraded_shards: usize,
}

impl MinedPatterns {
    /// Patterns sorted by descending frequency (rank order of the paper's
    /// tables and figures), filtered by the configured minimum frequency.
    pub fn ranked(&self, min_frequency: u64) -> Vec<(&Vec<TemplateId>, &PatternData)> {
        let mut v: Vec<_> = self
            .patterns
            .iter()
            .filter(|(_, d)| d.frequency >= min_frequency)
            .collect();
        v.sort_by(|a, b| b.1.frequency.cmp(&a.1.frequency).then_with(|| a.0.cmp(b.0)));
        v
    }

    /// userPopularity of a pattern (Def. 10).
    pub fn user_popularity(&self, key: &[TemplateId]) -> usize {
        self.patterns.get(key).map_or(0, |d| d.users.len())
    }
}

/// Allocation-free pattern accumulator: interns each distinct pattern key
/// once and counts occurrences against dense `u32` pattern ids.
#[derive(Default)]
struct PatternCounter {
    /// Pattern key → dense id. Lookups borrow the key as `&[TemplateId]`;
    /// the owned `Vec` is only allocated on a pattern's first occurrence.
    by_key: FnvHashMap<Vec<TemplateId>, u32>,
    /// Dense id → statistics.
    data: Vec<PatternData>,
    /// Template id → unigram pattern id + 1 (`0` = not yet interned):
    /// unigram counting never touches the hash map.
    uni: Vec<u32>,
    /// Pattern id → (session stamp, non-overlap end). The stamp versioning
    /// replaces the per-session `HashMap<&[TemplateId], usize>` of the
    /// naive implementation — no table is cleared or reallocated between
    /// sessions.
    last_end: Vec<(u32, u32)>,
    total_queries: u64,
}

impl PatternCounter {
    fn intern_slow(&mut self, key: &[TemplateId]) -> u32 {
        let id = self.data.len() as u32;
        self.by_key.insert(key.to_vec(), id);
        self.data.push(PatternData::default());
        self.last_end.push((u32::MAX, 0));
        id
    }

    fn unigram_id(&mut self, t: TemplateId) -> u32 {
        let ti = t.0 as usize;
        if ti >= self.uni.len() {
            self.uni.resize(ti + 1, 0);
        }
        if self.uni[ti] == 0 {
            let id = self.intern_slow(std::slice::from_ref(&t));
            self.uni[ti] = id + 1;
        }
        self.uni[ti] - 1
    }

    fn count(&mut self, id: u32, user: u32) {
        let d = &mut self.data[id as usize];
        d.frequency += 1;
        add_user(&mut d.users, user);
    }

    /// Mines one session's template sequence. `stamp` must be unique per
    /// session within this counter (it versions the non-overlap table).
    fn mine_session(&mut self, stamp: u32, user: u32, templates: &[TemplateId], max_ngram: usize) {
        self.total_queries += templates.len() as u64;

        // Unigrams: every occurrence is an instance.
        for &t in templates {
            let id = self.unigram_id(t);
            self.count(id, user);
        }

        // n-grams, non-overlapping per pattern. Keys of different lengths
        // never collide, so one stamped table serves all n at once.
        for n in 2..=max_ngram.max(1) {
            if templates.len() < n {
                break;
            }
            for i in 0..=(templates.len() - n) {
                let gram = &templates[i..i + n];
                let id = match self.by_key.get(gram) {
                    Some(&id) => id,
                    None => self.intern_slow(gram),
                };
                let (s, end) = self.last_end[id as usize];
                if s != stamp || i >= end as usize {
                    self.last_end[id as usize] = (stamp, (i + n) as u32);
                    self.count(id, user);
                }
            }
        }
    }

    /// Mines a slice of sessions into a fresh counter.
    fn mine_sessions(
        sessions: &[Session],
        records: &[ParsedRecord],
        max_ngram: usize,
        shard: &ShardCtx,
    ) -> PatternCounter {
        let mut counter = PatternCounter::default();
        let mut templates: Vec<TemplateId> = Vec::new();
        for (stamp, session) in sessions.iter().enumerate() {
            trip_session(shard, session, records);
            templates.clear();
            templates.extend(session.records.iter().map(|&ri| records[ri].template));
            counter.mine_session(stamp as u32, session.user, &templates, max_ngram);
        }
        counter
    }
}

/// Mining sees template ids, not statement text, so the fault-injection
/// marker is matched against each record's primary table name instead.
fn trip_session(shard: &ShardCtx, session: &Session, records: &[ParsedRecord]) {
    if shard.armed() {
        for &ri in &session.records {
            if let Some(t) = records[ri].shape.primary_table.as_deref() {
                shard.trip(t);
            }
        }
    }
}

/// Adds `user` to an ascending, duplicate-free list. Sessions arrive in
/// user order, so this appends or does nothing; the insert keeps the list
/// sorted for sessions in any other order.
fn add_user(users: &mut Vec<u32>, user: u32) {
    match users.last() {
        Some(&last) if last == user => {}
        Some(&last) if last > user => {
            if let Err(at) = users.binary_search(&user) {
                users.insert(at, user);
            }
        }
        _ => users.push(user),
    }
}

/// Unions the ascending, duplicate-free `src` into `dst`. A later shard's
/// users start at or after an earlier shard's last user, so this appends
/// and skips at most that one shared user; any other order falls back to a
/// sort.
fn union_users(dst: &mut Vec<u32>, mut src: Vec<u32>) {
    match (dst.last(), src.first()) {
        (Some(&last), Some(&first)) if last > first => {
            dst.append(&mut src);
            dst.sort_unstable();
            dst.dedup();
        }
        (Some(&last), Some(&first)) if last == first => dst.extend_from_slice(&src[1..]),
        _ => dst.append(&mut src),
    }
}

/// Merges per-shard counters, in shard order, into the final map. Counts
/// add and user lists union, so the result is independent of how sessions
/// were sharded.
fn merge_counters(counters: Vec<PatternCounter>) -> MinedPatterns {
    let mut patterns: FnvHashMap<Vec<TemplateId>, PatternData> = FnvHashMap::default();
    let mut total = 0u64;
    for c in counters {
        total += c.total_queries;
        let mut data = c.data;
        // Shards share few patterns: size for all of them up front rather
        // than rehash while growing.
        patterns.reserve(c.by_key.len());
        for (key, id) in c.by_key {
            let d = std::mem::take(&mut data[id as usize]);
            match patterns.entry(key) {
                Entry::Occupied(mut slot) => {
                    let merged = slot.get_mut();
                    merged.frequency += d.frequency;
                    union_users(&mut merged.users, d.users);
                }
                Entry::Vacant(slot) => {
                    slot.insert(d);
                }
            }
        }
    }
    MinedPatterns {
        patterns,
        total_queries: total,
        poison_sessions: 0,
        degraded_shards: 0,
    }
}

/// Mines patterns from the sessions on [`PipelineConfig::parallelism`]
/// threads, counting n-grams up to [`PipelineConfig::max_ngram`].
///
/// Sessions are user-partitioned and patterns never cross session
/// boundaries, so sharding the session list yields exactly the sequential
/// counts for any thread count.
///
/// Observability: per-shard spans (`"mine.shard"`, under the recorder's
/// current span), a shard-latency histogram, a session-size histogram and
/// outcome counters land in the config's recorder.
pub(crate) fn mine_patterns(
    sessions: &Sessions,
    records: &[ParsedRecord],
    cfg: &PipelineConfig,
) -> MinedPatterns {
    let rec = &cfg.recorder;
    let all = &sessions.sessions;
    let run = run_shards(
        plan_shards(
            resolve_threads(cfg.parallelism),
            all.iter().map(|s| s.records.len() as u64),
        ),
        ShardTrace {
            rec,
            parent: rec.current(),
            stage: "mine",
            span_name: "mine.shard",
            hist_name: "mine.shard_us",
            degraded_counter: Some("mine.degraded_shards"),
        },
        // Work units = queries in the shard's session range.
        |r| all[r.clone()].iter().map(|s| s.records.len() as u64).sum(),
        // A re-run mines each session into a fresh counter, so a poison
        // session leaves no partial counts behind. Counters merge in
        // session order through the same `merge_counters` either way.
        |r, shard| {
            shard.each(r, |sessions| {
                PatternCounter::mine_sessions(&all[sessions], records, cfg.max_ngram, shard)
            })
        },
    );
    let mut mined = merge_counters(run.outputs.into_iter().flatten().collect());
    mined.poison_sessions = run.poison;
    mined.degraded_shards = run.degraded;
    rec.counter("mine.patterns", mined.patterns.len() as u64);
    rec.counter("mine.total_queries", mined.total_queries);
    rec.counter("mine.poison_sessions", run.poison as u64);
    if rec.is_enabled() {
        // Session-length distribution: one batched merge, not a lock per
        // session.
        let mut sizes = sqlog_obs::Histogram::default();
        for s in all {
            sizes.record(s.records.len() as u64);
        }
        rec.histogram_merge("mine.session_len", &sizes);
    }
    mined
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_step::parse;
    use crate::store::TemplateStore;
    use sqlog_log::{LogEntry, QueryLog, Timestamp};

    fn cfg(session_gap_ms: u64, parallelism: usize) -> PipelineConfig {
        PipelineConfig {
            session_gap_ms,
            parallelism,
            ..PipelineConfig::default()
        }
    }

    /// One-thread sessions of all of `log` at a `gap_ms` session gap.
    fn sessions_of(log: &QueryLog, records: &[ParsedRecord], gap_ms: u64) -> Sessions {
        build_sessions(&LogView::identity(log), records, &cfg(gap_ms, 1))
    }

    fn log_of(rows: &[(&str, i64, &str)]) -> (QueryLog, Vec<ParsedRecord>, TemplateStore) {
        let log = QueryLog::from_entries(
            rows.iter()
                .enumerate()
                .map(|(i, (stmt, secs, user))| {
                    LogEntry::minimal(i as u64, *stmt, Timestamp::from_secs(*secs)).with_user(*user)
                })
                .collect(),
        );
        let store = TemplateStore::new();
        let parsed = parse(&LogView::identity(&log), &store, &PipelineConfig::default());
        (log, parsed.records, store)
    }

    #[test]
    fn sessions_split_on_gap_and_user() {
        let (log, records, _) = log_of(&[
            ("SELECT a FROM t WHERE x = 1", 0, "u1"),
            ("SELECT a FROM t WHERE x = 2", 10, "u1"),
            ("SELECT a FROM t WHERE x = 3", 10_000, "u1"), // > gap
            ("SELECT a FROM t WHERE x = 4", 12, "u2"),
        ]);
        // With a 20 000 s gap allowance only the user switch splits.
        let s = sessions_of(&log, &records, 20_000_000);
        assert_eq!(s.sessions.len(), 2);
        // With a 60 s allowance the 9 990 s pause splits u1's stream too
        // (but the 10 s gap does not).
        let s = sessions_of(&log, &records, 60_000);
        assert_eq!(s.sessions.len(), 3);
        assert_eq!(s.user_names.len(), 2);
    }

    #[test]
    fn session_users_follow_record_order_not_the_user_table() {
        // a's first entry is no SELECT, so b's SELECT is the first record:
        // the table numbers a first, the sessions number b first.
        let (log, records, _) = log_of(&[
            ("INSERT INTO t VALUES (1)", 0, "a"),
            ("SELECT a FROM t WHERE x = 1", 1, "b"),
            ("SELECT a FROM t WHERE x = 2", 2, "a"),
            ("SELECT a FROM t WHERE x = 3", 3, "b"),
        ]);
        assert_eq!(LogView::identity(&log).users().names, ["a", "b"]);
        let s = sessions_of(&log, &records, 300_000);
        assert_eq!(s.user_names, ["b", "a"]);
        let users: Vec<(u32, Vec<usize>)> = s
            .sessions
            .iter()
            .map(|s| (s.user, s.records.clone()))
            .collect();
        assert_eq!(users, [(0, vec![0, 2]), (1, vec![1])]);
    }

    #[test]
    fn sharded_sessions_equal_sequential() {
        let mut rows: Vec<(String, i64, String)> = Vec::new();
        for step in 0..120i64 {
            for u in 0..5 {
                rows.push((
                    format!("SELECT a FROM t WHERE x = {step}"),
                    step * ((u as i64 % 3) * 200 + 1),
                    format!("user{u}"),
                ));
            }
        }
        let refs: Vec<(&str, i64, &str)> = rows
            .iter()
            .map(|(s, t, u)| (s.as_str(), *t, u.as_str()))
            .collect();
        let (mut log, _, _) = log_of(&refs);
        log.sort_by_time();
        let view = LogView::identity(&log);
        let parsed = parse(&view, &TemplateStore::new(), &PipelineConfig::default());
        let seq = build_sessions(&view, &parsed.records, &cfg(60_000, 1));
        for threads in [2, 3, 8] {
            let par = build_sessions(&view, &parsed.records, &cfg(60_000, threads));
            assert_eq!(seq.sessions, par.sessions, "threads {threads}");
            assert_eq!(seq.user_names, par.user_names, "threads {threads}");
        }
    }

    #[test]
    fn unigram_frequencies_count_queries() {
        let (log, records, _) = log_of(&[
            ("SELECT a FROM t WHERE x = 1", 0, "u1"),
            ("SELECT a FROM t WHERE x = 2", 1, "u1"),
            ("SELECT a FROM t WHERE x = 3", 2, "u2"),
        ]);
        let sessions = sessions_of(&log, &records, 300_000);
        let mined = mine_patterns(&sessions, &records, &PipelineConfig::default());
        let t = records[0].template;
        let d = &mined.patterns[&vec![t]];
        assert_eq!(d.frequency, 3);
        assert_eq!(d.users.len(), 2);
        assert_eq!(mined.total_queries, 3);
    }

    #[test]
    fn bigrams_count_non_overlapping() {
        // A A A A → [A,A] must count 2, not 3.
        let (log, records, _) = log_of(&[
            ("SELECT a FROM t WHERE x = 1", 0, "u1"),
            ("SELECT a FROM t WHERE x = 2", 1, "u1"),
            ("SELECT a FROM t WHERE x = 3", 2, "u1"),
            ("SELECT a FROM t WHERE x = 4", 3, "u1"),
        ]);
        let sessions = sessions_of(&log, &records, 300_000);
        let mined = mine_patterns(&sessions, &records, &PipelineConfig::default());
        let t = records[0].template;
        assert_eq!(mined.patterns[&vec![t, t]].frequency, 2);
        assert_eq!(mined.patterns[&vec![t]].frequency, 4);
    }

    #[test]
    fn alternation_yields_both_orders() {
        // A B A B → [A,B] twice, [B,A] once.
        let (log, records, _) = log_of(&[
            ("SELECT a FROM t WHERE x = 1", 0, "u1"),
            ("SELECT b FROM t WHERE x = 1", 1, "u1"),
            ("SELECT a FROM t WHERE x = 2", 2, "u1"),
            ("SELECT b FROM t WHERE x = 2", 3, "u1"),
        ]);
        let sessions = sessions_of(&log, &records, 300_000);
        let mined = mine_patterns(&sessions, &records, &PipelineConfig::default());
        let (a, b) = (records[0].template, records[1].template);
        assert_eq!(mined.patterns[&vec![a, b]].frequency, 2);
        assert_eq!(mined.patterns[&vec![b, a]].frequency, 1);
    }

    #[test]
    fn patterns_do_not_cross_session_boundaries() {
        let (log, records, _) = log_of(&[
            ("SELECT a FROM t WHERE x = 1", 0, "u1"),
            ("SELECT b FROM t WHERE x = 1", 1_000_000, "u1"),
        ]);
        let sessions = sessions_of(&log, &records, 300_000);
        let mined = mine_patterns(&sessions, &records, &PipelineConfig::default());
        let (a, b) = (records[0].template, records[1].template);
        assert!(!mined.patterns.contains_key(&vec![a, b]));
    }

    #[test]
    fn ranked_orders_by_frequency() {
        let (log, records, _) = log_of(&[
            ("SELECT a FROM t WHERE x = 1", 0, "u1"),
            ("SELECT a FROM t WHERE x = 2", 1, "u1"),
            ("SELECT c FROM t WHERE x = 1", 2, "u1"),
        ]);
        let sessions = sessions_of(&log, &records, 300_000);
        let mined = mine_patterns(&sessions, &records, &PipelineConfig::default());
        let ranked = mined.ranked(1);
        assert!(ranked[0].1.frequency >= ranked.last().unwrap().1.frequency);
        // min_frequency filters.
        let ranked2 = mined.ranked(2);
        assert!(ranked2.len() < ranked.len());
    }

    #[test]
    fn sharded_mining_equals_sequential() {
        // Interleaved users, repeated templates, multi-session streams.
        let mut rows: Vec<(String, i64, String)> = Vec::new();
        for step in 0..150i64 {
            for u in 0..6 {
                rows.push((
                    format!("SELECT c{} FROM t WHERE x = {step}", (step + u as i64) % 4),
                    step * 2 + u as i64,
                    format!("user{u}"),
                ));
            }
        }
        let refs: Vec<(&str, i64, &str)> = rows
            .iter()
            .map(|(s, t, u)| (s.as_str(), *t, u.as_str()))
            .collect();
        let (mut log, _, _) = log_of(&refs);
        log.sort_by_time();
        let view = LogView::identity(&log);
        let parsed = parse(&view, &TemplateStore::new(), &PipelineConfig::default());
        let sessions = sessions_of(&log, &parsed.records, 60_000);
        let seq = mine_patterns(&sessions, &parsed.records, &cfg(60_000, 1));
        for threads in [2, 3, 8] {
            let par = mine_patterns(&sessions, &parsed.records, &cfg(60_000, threads));
            assert_eq!(seq.total_queries, par.total_queries, "threads {threads}");
            assert_eq!(seq.patterns, par.patterns, "threads {threads}");
        }
    }
}
