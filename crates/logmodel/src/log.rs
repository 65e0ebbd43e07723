//! The in-memory query log.

use crate::entry::LogEntry;
use crate::view::UserTable;

/// An ordered collection of log entries.
///
/// Invariant maintained by [`QueryLog::sort_by_time`] and relied on by the
/// pipeline: entries are ordered by `(timestamp, id)` — `id` breaks ties so
/// that same-second statements keep their original log order, which Def. 8
/// needs ("a pattern is a sequence of statements, not a set", §6.8).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryLog {
    /// The entries, in log order.
    pub entries: Vec<LogEntry>,
}

impl QueryLog {
    /// An empty log.
    pub fn new() -> Self {
        QueryLog::default()
    }

    /// Wraps a vector of entries (does not sort).
    pub fn from_entries(entries: Vec<LogEntry>) -> Self {
        QueryLog { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends an entry.
    pub fn push(&mut self, entry: LogEntry) {
        self.entries.push(entry);
    }

    /// Sorts entries by `(timestamp, id)`, restoring the pipeline invariant.
    pub fn sort_by_time(&mut self) {
        self.entries.sort_by_key(|e| (e.timestamp, e.id));
    }

    /// True if entries are sorted by `(timestamp, id)`.
    pub fn is_time_sorted(&self) -> bool {
        self.entries
            .windows(2)
            .all(|w| (w[0].timestamp, w[0].id) <= (w[1].timestamp, w[1].id))
    }

    /// Number of distinct users (the empty key counts as one).
    pub fn distinct_users(&self) -> usize {
        UserTable::build(self).names.len()
    }

    /// Drops user/session metadata, producing the "minimal input" variant
    /// used by the §6.8 experiment (statements and timestamps only).
    pub fn strip_metadata(&self) -> QueryLog {
        QueryLog {
            entries: self
                .entries
                .iter()
                .map(|e| LogEntry {
                    user: None,
                    session: None,
                    ..e.clone()
                })
                .collect(),
        }
    }
}

impl FromIterator<LogEntry> for QueryLog {
    fn from_iter<I: IntoIterator<Item = LogEntry>>(iter: I) -> Self {
        QueryLog {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn entry(id: u64, t: i64, user: &str) -> LogEntry {
        LogEntry::minimal(id, format!("SELECT {id}"), Timestamp::from_secs(t)).with_user(user)
    }

    #[test]
    fn sorting_is_stable_on_ties() {
        let mut log =
            QueryLog::from_entries(vec![entry(2, 5, "a"), entry(0, 5, "a"), entry(1, 3, "b")]);
        assert!(!log.is_time_sorted());
        log.sort_by_time();
        assert!(log.is_time_sorted());
        let ids: Vec<_> = log.entries.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![1, 0, 2]);
    }

    #[test]
    fn distinct_users_counts_user_keys() {
        let log =
            QueryLog::from_entries(vec![entry(0, 1, "a"), entry(1, 2, "b"), entry(2, 3, "a")]);
        assert_eq!(log.distinct_users(), 2);
    }

    #[test]
    fn strip_metadata_keeps_statements_and_times() {
        let log = QueryLog::from_entries(vec![entry(0, 1, "a")]);
        let stripped = log.strip_metadata();
        assert_eq!(stripped.entries[0].user, None);
        assert_eq!(stripped.entries[0].statement, "SELECT 0");
        assert_eq!(stripped.distinct_users(), 1);
    }
}
