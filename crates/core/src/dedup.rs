//! Step 1 of the pipeline: deleting duplicate queries (§5.2).
//!
//! Duplicates are identical statements (after text normalization — see
//! [`sqlog_skeleton::normalize_sql_text`]) from the same user within a small
//! time window. They are unintended re-submissions — web-form reloads or
//! application errors — and stand for the *same* information need, so they
//! are removed before any analysis. The threshold is configurable and
//! `None` means "unrestricted" (Table 4's last row).
//!
//! Deduplication is keyed by `(user, statement fingerprint)`, so the log
//! partitions cleanly by user: the stage numbers the view's users
//! by first appearance ([`LogView::dense_users`], read from the base log's
//! one user table), shards the scan across contiguous user ranges (each
//! shard walks every position and skips other users'), and merges the
//! per-shard survivors back into log order, producing exactly the
//! sequential result for any thread count. The output is a [`LogView`]
//! — an index vector over the input — so no [`LogEntry`](sqlog_log::LogEntry) (or its statement
//! `String`) is ever cloned on this path.

use crate::config::PipelineConfig;
use crate::shard::{plan_shards, resolve_threads, run_shards, ShardCtx, ShardTrace};
use sqlog_log::LogView;
use sqlog_skeleton::{text_fingerprint, Fingerprint, FnvHashMap};

/// Outcome statistics of duplicate removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DedupStats {
    /// Entries examined.
    pub input: usize,
    /// Entries removed as duplicates.
    pub removed: usize,
    /// Entries kept.
    pub kept: usize,
    /// Poison entries skipped during degraded (per-record) re-runs of
    /// panicked shards.
    pub poison: usize,
    /// Shards whose worker panicked and was recovered per-record.
    pub degraded_shards: usize,
}

/// Duplicate decision for one record: the user's previous statement with
/// the same fingerprint ran at most `threshold_ms` earlier. Always records
/// the latest occurrence — kept *or* removed — so a burst of reloads
/// collapses to its first statement (chain collapse).
fn is_dup(
    last_seen: &mut FnvHashMap<(u32, Fingerprint), i64>,
    uid: u32,
    fp: Fingerprint,
    now: i64,
    threshold_ms: Option<u64>,
) -> bool {
    let dup = match last_seen.get(&(uid, fp)) {
        Some(&prev) => match threshold_ms {
            Some(t) => (now - prev) as u64 <= t,
            None => true,
        },
        None => false,
    };
    last_seen.insert((uid, fp), now);
    dup
}

/// Sequential scan over one user-partition of the view: positions whose
/// entry repeats the user's previous identical statement within the
/// threshold are duplicates. `uids[i]` identifies the user of position `i`;
/// only positions with `uid_range.contains(uids[i])` are examined. The
/// steps that run untrusted statement text (the fault hook and the
/// fingerprint) form one [`ShardCtx::item`], so a poison record
/// contributes neither a kept position nor a `last_seen` stamp.
fn scan_partition(
    view: &LogView<'_>,
    uids: &[u32],
    uid_range: std::ops::Range<u32>,
    threshold_ms: Option<u64>,
    shard: &ShardCtx,
) -> Vec<u32> {
    let mut last_seen = FnvHashMap::default();
    let mut kept = Vec::new();
    for (i, &uid) in uids.iter().enumerate() {
        if !uid_range.contains(&uid) {
            continue;
        }
        let e = view.entry(i);
        let Some(fp) = shard.item(|| {
            shard.trip(&e.statement);
            text_fingerprint(&e.statement)
        }) else {
            continue;
        };
        if !is_dup(&mut last_seen, uid, fp, e.timestamp.millis(), threshold_ms) {
            kept.push(i as u32);
        }
    }
    kept
}

/// Removes duplicates from a log view, returning the surviving entries as a
/// new view over the same base log (no entry clones) plus statistics.
///
/// An entry is a duplicate when the same user issued a textually identical
/// statement at most [`PipelineConfig::duplicate_threshold_ms`] earlier —
/// where "earlier" compares against the most recent occurrence, kept *or*
/// removed, so a burst of reloads collapses to its first statement. A large
/// number of removals can indicate an application refactoring, which is why
/// the count is reported (§5.2).
///
/// Users are independent under the `(user, fingerprint)` key, so the scan
/// shards by user over [`PipelineConfig::parallelism`] threads and the
/// merged result is identical for every thread count.
///
/// Observability: per-shard spans (`"dedup.shard"`, under the recorder's
/// current span), a shard-latency histogram and outcome counters land in
/// the config's recorder. The deduplicated view and statistics do not
/// depend on the recorder.
pub(crate) fn dedup<'a>(view: &LogView<'a>, cfg: &PipelineConfig) -> (LogView<'a>, DedupStats) {
    debug_assert!(view.is_time_sorted(), "dedup requires a time-sorted log");
    let n = view.len();
    let threads = resolve_threads(cfg.parallelism).min(n.max(1));
    let rec = &cfg.recorder;

    // Partition by user, numbered by first appearance in the view.
    let (uids, users) = view.dense_users(0..n);
    let mut counts = vec![0u64; users.len()];
    for &uid in &uids {
        counts[uid as usize] += 1;
    }

    let run = run_shards(
        plan_shards(threads, counts.iter().copied()),
        ShardTrace {
            rec,
            parent: rec.current(),
            stage: "dedup",
            span_name: "dedup.shard",
            hist_name: "dedup.shard_us",
            degraded_counter: Some("dedup.degraded_shards"),
        },
        // Work units = entries belonging to the shard's user range.
        |r| counts[r.clone()].iter().sum(),
        |r, shard| {
            scan_partition(
                view,
                &uids,
                r.start as u32..r.end as u32,
                cfg.duplicate_threshold_ms,
                shard,
            )
        },
    );
    // Per-shard survivors are disjoint view positions; sorting restores
    // global log order, making the merge independent of sharding.
    let mut kept: Vec<u32> = run.outputs.concat();
    kept.sort_unstable();

    let stats = DedupStats {
        input: n,
        removed: n - kept.len() - run.poison,
        kept: kept.len(),
        poison: run.poison,
        degraded_shards: run.degraded,
    };
    rec.counter("dedup.input", stats.input as u64);
    rec.counter("dedup.removed", stats.removed as u64);
    rec.counter("dedup.kept", stats.kept as u64);
    rec.counter("dedup.poison_records", stats.poison as u64);
    (view.select(kept), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_log::{LogEntry, QueryLog, Timestamp};

    fn entry(id: u64, ms: i64, user: &str, stmt: &str) -> LogEntry {
        LogEntry::minimal(id, stmt, Timestamp::from_millis(ms)).with_user(user)
    }

    fn cfg(duplicate_threshold_ms: Option<u64>, parallelism: usize) -> PipelineConfig {
        PipelineConfig {
            duplicate_threshold_ms,
            parallelism,
            ..PipelineConfig::default()
        }
    }

    /// Survivor ids and statistics of a one-thread dedup of `log`.
    fn dedup_ids(log: &QueryLog, threshold_ms: Option<u64>) -> (Vec<u64>, DedupStats) {
        let (clean, stats) = dedup(&LogView::identity(log), &cfg(threshold_ms, 1));
        (clean.iter().map(|e| e.id).collect(), stats)
    }

    #[test]
    fn removes_sub_threshold_repeats() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 500, "a", "SELECT 1"),
            entry(2, 5_000, "a", "SELECT 1"),
        ]);
        let (clean, stats) = dedup_ids(&log, Some(1_000));
        assert_eq!(stats.removed, 1);
        assert_eq!(clean, [0, 2]);
    }

    #[test]
    fn chains_collapse_to_the_first() {
        // 0 ─ 900ms ─ 1800ms: each repeat is within 1s of the previous one.
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 900, "a", "SELECT 1"),
            entry(2, 1_800, "a", "SELECT 1"),
        ]);
        let (clean, stats) = dedup_ids(&log, Some(1_000));
        assert_eq!(stats.removed, 2);
        assert_eq!(clean.len(), 1);
    }

    #[test]
    fn different_users_never_dedup() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 100, "b", "SELECT 1"),
        ]);
        let (_, stats) = dedup_ids(&log, Some(1_000));
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn unrestricted_threshold_removes_all_repeats() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 86_400_000, "a", "SELECT 1"),
            entry(2, 0, "a", "SELECT 2"),
        ]);
        let mut log = log;
        log.sort_by_time();
        let (clean, stats) = dedup_ids(&log, None);
        assert_eq!(stats.removed, 1);
        assert_eq!(clean.len(), 2);
    }

    #[test]
    fn whitespace_and_case_variants_are_duplicates() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT objid FROM photoprimary WHERE x = 1"),
            entry(1, 300, "a", "select  OBJID\nfrom photoprimary where x = 1"),
        ]);
        let (_, stats) = dedup_ids(&log, Some(1_000));
        assert_eq!(stats.removed, 1);
    }

    #[test]
    fn different_constants_are_not_duplicates() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT a FROM t WHERE x = 1"),
            entry(1, 100, "a", "SELECT a FROM t WHERE x = 2"),
        ]);
        let (_, stats) = dedup_ids(&log, Some(1_000));
        assert_eq!(stats.removed, 0);
    }

    #[test]
    fn higher_threshold_removes_at_least_as_much() {
        // Monotonicity property behind Table 4.
        let mut entries = Vec::new();
        for i in 0..50i64 {
            entries.push(entry(i as u64, i * 700, "a", "SELECT 1"));
            entries.push(entry(100 + i as u64, i * 700 + 350, "a", "SELECT 2"));
        }
        let mut log = QueryLog::from_entries(entries);
        log.sort_by_time();
        let mut prev_removed = 0;
        for t in [0u64, 500, 1_000, 2_000, 5_000] {
            let (_, stats) = dedup_ids(&log, Some(t));
            assert!(stats.removed >= prev_removed, "threshold {t}");
            prev_removed = stats.removed;
        }
        let (_, unrestricted) = dedup_ids(&log, None);
        assert!(unrestricted.removed >= prev_removed);
    }

    #[test]
    fn sharded_dedup_equals_sequential() {
        // Many interleaved users with in-user repeat chains.
        let mut entries = Vec::new();
        let mut id = 0u64;
        for step in 0..200i64 {
            for u in 0..7 {
                let user = format!("10.0.0.{u}");
                let stmt = format!("SELECT a FROM t WHERE x = {}", step % (u + 2));
                entries.push(entry(id, step * 400, &user, &stmt));
                id += 1;
            }
        }
        let mut log = QueryLog::from_entries(entries);
        log.sort_by_time();
        let view = LogView::identity(&log);
        let (seq, seq_stats) = dedup(&view, &cfg(Some(1_000), 1));
        for threads in [2, 3, 8] {
            let (par, par_stats) = dedup(&view, &cfg(Some(1_000), threads));
            assert_eq!(seq_stats, par_stats, "threads {threads}");
            let a: Vec<u64> = seq.iter().map(|e| e.id).collect();
            let b: Vec<u64> = par.iter().map(|e| e.id).collect();
            assert_eq!(a, b, "threads {threads}");
        }
    }

    #[test]
    fn exact_path_handles_hostile_text() {
        // Normalize-equal pairs that differ in raw bytes (trailing `;`,
        // comments, case, whitespace) must collapse; texts that differ after
        // normalization (comment-glued tokens, constants, literal case, `''`
        // escapes, unterminated `'oops` vs. a terminated literal) must not.
        let stmts = [
            ("a", "SELECT a FROM t WHERE x = 1"),       // 0 kept
            ("a", "SELECT a FROM t WHERE x = 1;"),      // 1 dup of 0
            ("a", "select A from T where X = 1 -- c"),  // 2 dup of 1
            ("a", "SELECT a/*gap*/FROM t WHERE x = 1"), // 3 kept: `afrom`
            ("a", "SELECT a FROM t WHERE x = 2"),       // 4 kept
            ("b", "SELECT a FROM t WHERE x = 1"),       // 5 kept: other user
            ("a", "SELECT 'it''s' FROM t"),             // 6 kept
            ("a", "SELECT 'its' FROM t"),               // 7 kept
            ("a", "select 'it''s' from T ;"),           // 8 dup of 6
            ("a", "SELECT 'IT''S' FROM t"),             // 9 kept: literal case
            ("a", "SELECT 'oops"),                      // 10 kept
            ("a", "SELECT  'oops"),                     // 11 dup of 10
            ("a", "SELECT 'oops'"),                     // 12 kept: terminated
            ("a", "INSERT INTO t VALUES (1)"),          // 13 kept
        ];
        let mut entries: Vec<LogEntry> = stmts
            .iter()
            .enumerate()
            .map(|(i, (user, stmt))| entry(i as u64, i as i64 * 100, user, stmt))
            .collect();
        // 14: statement 0 again, long after its last occurrence (2).
        entries.push(entry(14, 10_000, "a", stmts[0].1));
        let log = QueryLog::from_entries(entries);
        let view = LogView::identity(&log);
        let expected: [(Option<u64>, &[u64]); 2] = [
            (Some(1_000), &[0, 3, 4, 5, 6, 7, 9, 10, 12, 13, 14]),
            (None, &[0, 3, 4, 5, 6, 7, 9, 10, 12, 13]),
        ];
        for (threshold, survivors) in expected {
            for threads in [1usize, 4] {
                let (clean, stats) = dedup(&view, &cfg(threshold, threads));
                let ids: Vec<u64> = clean.iter().map(|e| e.id).collect();
                assert_eq!(ids, survivors, "threshold {threshold:?} threads {threads}");
                assert_eq!(stats.removed, 15 - survivors.len());
            }
        }
    }

    #[test]
    fn view_output_borrows_the_base_log() {
        let log = QueryLog::from_entries(vec![
            entry(0, 0, "a", "SELECT 1"),
            entry(1, 100, "a", "SELECT 1"),
            entry(2, 5_000, "a", "SELECT 2"),
        ]);
        let view = LogView::identity(&log);
        let (clean, stats) = dedup(&view, &cfg(Some(1_000), 1));
        assert_eq!(stats.removed, 1);
        assert_eq!(clean.len(), 2);
        // The surviving positions map back into the original log.
        assert_eq!(clean.base_index(0), 0);
        assert_eq!(clean.base_index(1), 2);
        assert!(std::ptr::eq(clean.base(), &log));
    }
}
