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
//!    §4.1.1's "short time between them"),
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
//! Sessions partition by user, so mining shards across contiguous session
//! ranges and the merged counts are identical for every thread count.

use crate::config::PipelineConfig;
use crate::fault;
use crate::parse_step::ParsedRecord;
use crate::shard::{
    balance_chunks, guarded, resolve_threads, run_shards_traced, whole_range, ShardTrace,
};
use crate::store::TemplateId;
use sqlog_log::{LogView, QueryLog};
use sqlog_obs::{Recorder, SpanId};
use sqlog_skeleton::FnvHashMap;
use std::collections::{HashMap, HashSet};

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

/// Per-shard fault state for session splitting: the armed injection marker
/// plus whether records run under per-record panic isolation (the degraded
/// re-run of a panicked shard).
struct SplitGuard {
    fault: Option<String>,
    isolate: bool,
}

/// Splits one user's record stream into gap-separated sessions, appending
/// them to `out`. With `guard.isolate`, every record is processed under a
/// panic guard and poison records are skipped (counted in the return value)
/// instead of aborting the stream.
fn split_user_stream(
    view: &LogView<'_>,
    records: &[ParsedRecord],
    guard: &SplitGuard,
    uid: u32,
    stream: &[usize],
    gap_ms: u64,
    out: &mut Vec<Session>,
) -> usize {
    let mut current = Session {
        user: uid,
        records: Vec::new(),
    };
    let mut poison = 0usize;
    let mut last_ms: Option<i64> = None;
    for &ri in stream {
        let entry = view.entry(records[ri].entry_idx as usize);
        let t = if guard.isolate {
            // A poison record contributes neither a session member nor a
            // timestamp, exactly as if it had been dropped upstream.
            match guarded(|| {
                fault::trip(&guard.fault, &entry.statement);
                entry.timestamp.millis()
            }) {
                Some(t) => t,
                None => {
                    poison += 1;
                    continue;
                }
            }
        } else {
            fault::trip(&guard.fault, &entry.statement);
            entry.timestamp.millis()
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
    poison
}

/// Splits parsed records into per-user sessions.
///
/// Users are interned by first appearance in record order; sessions come
/// out ordered by (user id, time). With `threads > 1` the gap-splitting
/// shards across contiguous user ranges — the result is identical for every
/// thread count.
///
/// Observability: per-shard spans (`"sessions.shard"`, parented under
/// `parent`), a shard-latency histogram and outcome counters land in `rec`;
/// pass [`Recorder::disabled`] and `None` for none.
pub fn build_sessions_view_traced(
    view: &LogView<'_>,
    records: &[ParsedRecord],
    gap_ms: u64,
    threads: usize,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Sessions {
    let mut user_ids: FnvHashMap<&str, u32> = FnvHashMap::default();
    let mut user_names: Vec<String> = Vec::new();
    let mut streams: Vec<Vec<usize>> = Vec::new();

    for (ri, rec) in records.iter().enumerate() {
        let user_key = view.entry(rec.entry_idx as usize).user_key();
        let next = streams.len() as u32;
        let uid = *user_ids.entry(user_key).or_insert(next);
        if uid == next {
            user_names.push(user_key.to_string());
            streams.push(Vec::new());
        }
        streams[uid as usize].push(ri);
    }

    let threads = resolve_threads(threads).min(streams.len().max(1));
    let ranges = if threads <= 1 || streams.len() <= 1 {
        whole_range(streams.len())
    } else {
        let weights: Vec<u64> = streams.iter().map(|s| s.len() as u64).collect();
        balance_chunks(&weights, threads)
    };
    let streams = &streams;
    let (shards, degraded) = run_shards_traced(
        ranges,
        ShardTrace {
            rec,
            parent,
            span_name: "sessions.shard",
            hist_name: "sessions.shard_us",
        },
        // Work units = records belonging to the shard's user range.
        |r| streams[r.clone()].iter().map(|s| s.len() as u64).sum(),
        |r| {
            let guard = SplitGuard {
                fault: fault::armed("sessions"),
                isolate: false,
            };
            let mut out = Vec::new();
            for uid in r {
                split_user_stream(
                    view,
                    records,
                    &guard,
                    uid as u32,
                    &streams[uid],
                    gap_ms,
                    &mut out,
                );
            }
            (out, 0usize)
        },
        |r| {
            // Degraded re-run: per-record isolation inside each stream.
            let guard = SplitGuard {
                fault: fault::armed("sessions"),
                isolate: true,
            };
            let mut out = Vec::new();
            let mut poison = 0usize;
            for uid in r {
                poison += split_user_stream(
                    view,
                    records,
                    &guard,
                    uid as u32,
                    &streams[uid],
                    gap_ms,
                    &mut out,
                );
            }
            (out, poison)
        },
    );
    // Shards cover contiguous user ranges in order, so concatenation
    // reproduces the sequential (user, time) session order.
    let mut sessions = Vec::new();
    let mut poison = 0usize;
    for (shard, shard_poison) in shards {
        sessions.extend(shard);
        poison += shard_poison;
    }
    rec.counter("sessions.count", sessions.len() as u64);
    rec.counter("sessions.users", user_names.len() as u64);
    rec.counter("sessions.poison_records", poison as u64);
    rec.counter("sessions.degraded_shards", degraded as u64);
    Sessions {
        sessions,
        user_names,
        poison,
        degraded_shards: degraded,
    }
}

/// Splits parsed records into per-user sessions.
///
/// Compatibility wrapper around [`build_sessions_view_traced`]
/// (single-threaded, untraced) for owned logs.
pub fn build_sessions(log: &QueryLog, records: &[ParsedRecord], gap_ms: u64) -> Sessions {
    let view = LogView::identity(log);
    build_sessions_view_traced(&view, records, gap_ms, 1, &Recorder::disabled(), None)
}

/// Statistics of one mined pattern.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PatternData {
    /// Number of instances (Def. 9).
    pub frequency: u64,
    /// Distinct users with at least one instance (Def. 10 is this set's size).
    pub users: HashSet<u32>,
}

/// All mined patterns, keyed by their template sequence.
#[derive(Debug, Default)]
pub struct MinedPatterns {
    /// Pattern → statistics.
    pub patterns: HashMap<Vec<TemplateId>, PatternData>,
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
    /// Dense id → key (for the final conversion to [`MinedPatterns`]).
    keys: Vec<Vec<TemplateId>>,
    freq: Vec<u64>,
    users: Vec<HashSet<u32>>,
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
        let id = self.keys.len() as u32;
        self.by_key.insert(key.to_vec(), id);
        self.keys.push(key.to_vec());
        self.freq.push(0);
        self.users.push(HashSet::new());
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
        self.freq[id as usize] += 1;
        self.users[id as usize].insert(user);
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

    /// Mines a slice of sessions (one shard's worth).
    fn mine_sessions(
        sessions: &[Session],
        records: &[ParsedRecord],
        max_ngram: usize,
    ) -> PatternCounter {
        let fault = fault::armed("mine");
        let mut counter = PatternCounter::default();
        let mut templates: Vec<TemplateId> = Vec::new();
        for (stamp, session) in sessions.iter().enumerate() {
            trip_session(&fault, session, records);
            templates.clear();
            templates.extend(session.records.iter().map(|&ri| records[ri].template));
            counter.mine_session(stamp as u32, session.user, &templates, max_ngram);
        }
        counter
    }

    /// Degraded re-run of [`Self::mine_sessions`]: each session is mined
    /// into a *fresh* scratch counter under a panic guard, so a poison
    /// session leaves no partial counts behind — its counter is simply
    /// dropped and the session counted as poisoned. The per-session
    /// counters merge through the same commutative [`merge_counters`] as
    /// shard counters.
    fn mine_sessions_isolated(
        sessions: &[Session],
        records: &[ParsedRecord],
        max_ngram: usize,
    ) -> (Vec<PatternCounter>, usize) {
        let fault = fault::armed("mine");
        let mut counters = Vec::new();
        let mut poison = 0usize;
        let mut templates: Vec<TemplateId> = Vec::new();
        for session in sessions {
            templates.clear();
            let mined = guarded(|| {
                trip_session(&fault, session, records);
                templates.extend(session.records.iter().map(|&ri| records[ri].template));
                let mut c = PatternCounter::default();
                c.mine_session(0, session.user, &templates, max_ngram);
                c
            });
            match mined {
                Some(c) => counters.push(c),
                None => poison += 1,
            }
        }
        (counters, poison)
    }
}

/// Mining sees template ids, not statement text, so the fault-injection
/// marker is matched against each record's primary table name instead.
fn trip_session(fault: &Option<String>, session: &Session, records: &[ParsedRecord]) {
    if fault.is_some() {
        for &ri in &session.records {
            if let Some(t) = records[ri].shape.primary_table.as_deref() {
                fault::trip(fault, t);
            }
        }
    }
}

/// Merges per-shard counters into the final map. Addition and set union are
/// commutative, so the result is independent of how sessions were sharded.
fn merge_counters(counters: Vec<PatternCounter>) -> MinedPatterns {
    let mut patterns: HashMap<Vec<TemplateId>, PatternData> = HashMap::new();
    let mut total = 0u64;
    for c in counters {
        total += c.total_queries;
        for (id, key) in c.keys.into_iter().enumerate() {
            let d = patterns.entry(key).or_default();
            d.frequency += c.freq[id];
            d.users.extend(c.users[id].iter().copied());
        }
    }
    MinedPatterns {
        patterns,
        total_queries: total,
        poison_sessions: 0,
        degraded_shards: 0,
    }
}

/// Mines patterns from the sessions (single-threaded, untraced).
pub fn mine_patterns(
    sessions: &Sessions,
    records: &[ParsedRecord],
    cfg: &PipelineConfig,
) -> MinedPatterns {
    mine_patterns_traced(sessions, records, cfg, 1, &Recorder::disabled(), None)
}

/// Mines patterns from the sessions on up to `threads` threads
/// (`0` = one per available core).
///
/// Sessions are user-partitioned and patterns never cross session
/// boundaries, so sharding the session list yields exactly the sequential
/// counts for any thread count.
///
/// Observability: per-shard spans (`"mine.shard"`, parented under
/// `parent`), a shard-latency histogram, a session-size histogram and
/// outcome counters land in `rec`; pass [`Recorder::disabled`] and `None`
/// for none.
pub fn mine_patterns_traced(
    sessions: &Sessions,
    records: &[ParsedRecord],
    cfg: &PipelineConfig,
    threads: usize,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> MinedPatterns {
    let all = &sessions.sessions;
    let threads = resolve_threads(threads).min(all.len().max(1));
    let ranges = if threads <= 1 || all.len() < 2 {
        whole_range(all.len())
    } else {
        let weights: Vec<u64> = all.iter().map(|s| s.records.len() as u64).collect();
        balance_chunks(&weights, threads)
    };
    let (shards, degraded) = run_shards_traced(
        ranges,
        ShardTrace {
            rec,
            parent,
            span_name: "mine.shard",
            hist_name: "mine.shard_us",
        },
        // Work units = queries in the shard's session range.
        |r| all[r.clone()].iter().map(|s| s.records.len() as u64).sum(),
        |r| {
            (
                vec![PatternCounter::mine_sessions(
                    &all[r],
                    records,
                    cfg.max_ngram,
                )],
                0usize,
            )
        },
        |r| PatternCounter::mine_sessions_isolated(&all[r], records, cfg.max_ngram),
    );
    let mut counters: Vec<PatternCounter> = Vec::new();
    let mut poison = 0usize;
    for (shard_counters, shard_poison) in shards {
        counters.extend(shard_counters);
        poison += shard_poison;
    }
    let mut mined = merge_counters(counters);
    mined.poison_sessions = poison;
    mined.degraded_shards = degraded;
    rec.counter("mine.patterns", mined.patterns.len() as u64);
    rec.counter("mine.total_queries", mined.total_queries);
    rec.counter("mine.poison_sessions", poison as u64);
    rec.counter("mine.degraded_shards", degraded as u64);
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
    use crate::parse_step::parse_log;
    use crate::store::TemplateStore;
    use sqlog_log::{LogEntry, QueryLog, Timestamp};

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
        let parsed = parse_log(&log, &store, 1);
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
        let s = build_sessions(&log, &records, 20_000_000);
        assert_eq!(s.sessions.len(), 2);
        // With a 60 s allowance the 9 990 s pause splits u1's stream too
        // (but the 10 s gap does not).
        let s = build_sessions(&log, &records, 60_000);
        assert_eq!(s.sessions.len(), 3);
        assert_eq!(s.user_names.len(), 2);
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
        let store = TemplateStore::new();
        let parsed = parse_log(&log, &store, 1);
        let view = LogView::identity(&log);
        let none = Recorder::disabled();
        let seq = build_sessions_view_traced(&view, &parsed.records, 60_000, 1, &none, None);
        for threads in [2, 3, 8] {
            let par =
                build_sessions_view_traced(&view, &parsed.records, 60_000, threads, &none, None);
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
        let sessions = build_sessions(&log, &records, 300_000);
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
        let sessions = build_sessions(&log, &records, 300_000);
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
        let sessions = build_sessions(&log, &records, 300_000);
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
        let sessions = build_sessions(&log, &records, 300_000);
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
        let sessions = build_sessions(&log, &records, 300_000);
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
        let store = TemplateStore::new();
        let parsed = parse_log(&log, &store, 1);
        let sessions = build_sessions(&log, &parsed.records, 60_000);
        let cfg = PipelineConfig::default();
        let none = Recorder::disabled();
        let seq = mine_patterns(&sessions, &parsed.records, &cfg);
        for threads in [2, 3, 8] {
            let par = mine_patterns_traced(&sessions, &parsed.records, &cfg, threads, &none, None);
            assert_eq!(seq.total_queries, par.total_queries, "threads {threads}");
            assert_eq!(seq.patterns, par.patterns, "threads {threads}");
        }
    }
}
