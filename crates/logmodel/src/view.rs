//! Zero-copy views over a [`QueryLog`].
//!
//! The cleaning pipeline repeatedly needs "the same log, minus some entries
//! or in a different order" — the time-sorted input, the deduplicated
//! pre-clean log. Materializing those as fresh [`QueryLog`]s clones every
//! [`LogEntry`] (and its statement `String`), which dominates the cost of
//! the early pipeline stages on large logs. A [`LogView`] instead keeps a
//! borrowed base log plus an optional `u32` index vector: selecting or
//! reordering entries costs one machine word per entry, never a clone.
//!
//! Dedup and sessions partition by user (§5.2, Defs. 7–8). A view hands
//! them its base log's [`UserTable`], which hashes every user key once per
//! base log, on first use; [`LogView::dense_users`] renumbers it for any
//! sequence of positions without hashing.

use crate::entry::LogEntry;
use crate::log::QueryLog;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The users of a base log, interned by first appearance in base order;
/// a log without user data is one user, `""` (§4.1.1). Names are owned: a
/// borrowed name in a view's `OnceLock` would make `LogView<'a>` invariant.
#[derive(Debug)]
pub struct UserTable {
    /// The table id of each base entry's user.
    pub ids: Vec<u32>,
    /// The user key of each table id.
    pub names: Vec<String>,
}

impl UserTable {
    /// Interns the [`LogEntry::user_key`] of every entry of `base`.
    pub fn build(base: &QueryLog) -> Self {
        let mut index: HashMap<&str, u32> = HashMap::new();
        let (mut ids, mut names) = (Vec::with_capacity(base.len()), Vec::new());
        for key in base.entries.iter().map(LogEntry::user_key) {
            let next = names.len() as u32;
            let id = *index.entry(key).or_insert(next);
            if id == next {
                names.push(key.to_string());
            }
            ids.push(id);
        }
        UserTable { ids, names }
    }
}

/// A borrowed, possibly filtered/reordered view of a [`QueryLog`].
///
/// `idx == None` is the identity view (all entries, base order) — the common
/// case of an already-sorted input log stays entirely allocation-free.
#[derive(Debug, Clone)]
pub struct LogView<'a> {
    base: &'a QueryLog,
    idx: Option<Vec<u32>>,
    /// Built on first use; shared with every view `select` derives.
    users: Arc<OnceLock<UserTable>>,
}

impl<'a> LogView<'a> {
    /// The identity view: every entry of `base`, in base order.
    pub fn identity(base: &'a QueryLog) -> Self {
        LogView::new(base, None)
    }

    fn new(base: &'a QueryLog, idx: Option<Vec<u32>>) -> Self {
        LogView {
            base,
            idx,
            users: Arc::default(),
        }
    }

    /// A view selecting `idx[i]`-th base entries, in the given order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds for `base`.
    pub fn from_indices(base: &'a QueryLog, idx: Vec<u32>) -> Self {
        assert!(
            idx.iter().all(|&i| (i as usize) < base.len()),
            "view index out of bounds"
        );
        LogView::new(base, Some(idx))
    }

    /// The underlying log this view borrows from.
    pub fn base(&self) -> &'a QueryLog {
        self.base
    }

    /// Number of entries visible through the view.
    pub fn len(&self) -> usize {
        match &self.idx {
            Some(idx) => idx.len(),
            None => self.base.len(),
        }
    }

    /// True when the view selects no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th entry of the view.
    pub fn entry(&self, i: usize) -> &'a LogEntry {
        match &self.idx {
            Some(idx) => &self.base.entries[idx[i] as usize],
            None => &self.base.entries[i],
        }
    }

    /// Maps a view position to the index of that entry in the base log.
    pub fn base_index(&self, i: usize) -> usize {
        match &self.idx {
            Some(idx) => idx[i] as usize,
            None => i,
        }
    }

    /// Iterates the visible entries in view order.
    pub fn iter(&self) -> impl Iterator<Item = &'a LogEntry> + '_ {
        (0..self.len()).map(move |i| self.entry(i))
    }

    /// Restricts this view to the positions in `keep` (view positions, in
    /// the order given). Composes index vectors; no entries are cloned.
    pub fn select(&self, keep: Vec<u32>) -> LogView<'a> {
        let idx = match &self.idx {
            Some(idx) => keep.into_iter().map(|i| idx[i as usize]).collect(),
            None => {
                assert!(
                    keep.iter().all(|&i| (i as usize) < self.base.len()),
                    "view index out of bounds"
                );
                keep
            }
        };
        LogView {
            base: self.base,
            idx: Some(idx),
            users: Arc::clone(&self.users),
        }
    }

    /// The base log's user table.
    pub fn users(&self) -> &UserTable {
        self.users.get_or_init(|| UserTable::build(self.base))
    }

    /// Numbers the users at view `positions` by first appearance in that
    /// sequence: a dense id per position, and each dense id's table id.
    pub fn dense_users(&self, positions: impl IntoIterator<Item = usize>) -> (Vec<u32>, Vec<u32>) {
        let table = self.users();
        let mut dense = vec![u32::MAX; table.names.len()];
        let positions = positions.into_iter();
        let (mut ids, mut table_ids) = (Vec::with_capacity(positions.size_hint().0), Vec::new());
        for p in positions {
            let t = table.ids[self.base_index(p)];
            if dense[t as usize] == u32::MAX {
                dense[t as usize] = table_ids.len() as u32;
                table_ids.push(t);
            }
            ids.push(dense[t as usize]);
        }
        (ids, table_ids)
    }

    /// True if the visible entries are sorted by `(timestamp, id)`.
    pub fn is_time_sorted(&self) -> bool {
        (1..self.len()).all(|i| {
            let (a, b) = (self.entry(i - 1), self.entry(i));
            (a.timestamp, a.id) <= (b.timestamp, b.id)
        })
    }

    /// A view of `base` sorted by `(timestamp, id)`. When the base is
    /// already sorted this is the identity view (no index vector at all);
    /// otherwise only a permutation is sorted — entries are not cloned.
    pub fn sorted_by_time(base: &'a QueryLog) -> Self {
        if base.is_time_sorted() {
            return LogView::identity(base);
        }
        let mut perm: Vec<u32> = (0..base.len() as u32).collect();
        perm.sort_by_key(|&i| {
            let e = &base.entries[i as usize];
            (e.timestamp, e.id)
        });
        LogView::new(base, Some(perm))
    }
}

impl<'a> From<&'a QueryLog> for LogView<'a> {
    fn from(base: &'a QueryLog) -> Self {
        LogView::identity(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Timestamp;

    fn entry(id: u64, t: i64) -> LogEntry {
        LogEntry::minimal(id, format!("SELECT {id}"), Timestamp::from_secs(t))
    }

    #[test]
    fn identity_passes_through() {
        let log = QueryLog::from_entries(vec![entry(0, 0), entry(1, 1)]);
        let v = LogView::identity(&log);
        assert_eq!(v.len(), 2);
        assert_eq!(v.entry(1).id, 1);
        assert_eq!(v.base_index(1), 1);
        assert!(v.is_time_sorted());
        assert!(v.iter().eq(&log.entries));
    }

    #[test]
    fn select_composes_indices() {
        let log = QueryLog::from_entries(vec![entry(0, 0), entry(1, 1), entry(2, 2)]);
        let v = LogView::from_indices(&log, vec![2, 0, 1]);
        assert_eq!(v.entry(0).id, 2);
        let w = v.select(vec![1, 2]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.entry(0).id, 0);
        assert_eq!(w.entry(1).id, 1);
        assert_eq!(w.base_index(0), 0);
    }

    #[test]
    fn sorted_view_orders_without_cloning_base() {
        let log = QueryLog::from_entries(vec![entry(1, 5), entry(0, 3), entry(2, 5)]);
        let v = LogView::sorted_by_time(&log);
        assert!(v.is_time_sorted());
        let ids: Vec<_> = v.iter().map(|e| e.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        // The base log itself is untouched.
        assert_eq!(log.entries[0].id, 1);
    }

    fn user_entry(id: u64, t: i64, user: Option<&str>) -> LogEntry {
        LogEntry {
            user: user.map(str::to_string),
            ..entry(id, t)
        }
    }

    #[test]
    fn user_ids_follow_first_appearance_in_base_order() {
        let log = QueryLog::from_entries(vec![
            user_entry(0, 9, Some("b")),
            user_entry(1, 1, Some("a")),
            user_entry(2, 5, Some("b")),
            user_entry(3, 0, Some("c")),
        ]);
        // The sorted view reads c, a, b, b; the table keeps base order.
        let v = LogView::sorted_by_time(&log);
        assert_eq!(v.users().ids, [0, 1, 0, 2]);
        assert_eq!(v.users().names, ["b", "a", "c"]);
        // Dense ids follow the positions asked for, not the table.
        let (ids, table_ids) = v.dense_users(0..v.len());
        assert_eq!(ids, [0, 1, 2, 2]);
        assert_eq!(table_ids, [2, 1, 0]);
        let (ids, table_ids) = v.dense_users([3, 0, 2]);
        assert_eq!(ids, [0, 1, 0]);
        assert_eq!(table_ids, [0, 2]);
    }

    #[test]
    fn a_missing_user_is_the_single_empty_user() {
        let log = QueryLog::from_entries(vec![
            user_entry(0, 0, None),
            user_entry(1, 1, Some("")),
            user_entry(2, 2, None),
        ]);
        let v = LogView::identity(&log);
        assert_eq!(v.users().ids, [0, 0, 0]);
        assert_eq!(v.users().names, [""]);
        assert_eq!(log.distinct_users(), 1);
    }

    #[test]
    fn selected_views_share_the_table_and_fresh_views_do_not() {
        let log = QueryLog::from_entries(vec![
            user_entry(0, 0, Some("a")),
            user_entry(1, 1, Some("b")),
        ]);
        let v = LogView::identity(&log);
        let w = v.select(vec![1]);
        assert!(std::ptr::eq(v.users(), w.users()));
        assert!(std::ptr::eq(v.users(), w.select(vec![0]).users()));
        let (ids, table_ids) = w.dense_users(0..1);
        assert_eq!((ids, table_ids), (vec![0], vec![1]));
        let fresh = LogView::from_indices(&log, vec![1]);
        assert!(fresh.users.get().is_none());
        assert!(!std::ptr::eq(v.users(), fresh.users()));
        assert_eq!(fresh.users().names, ["a", "b"]);
    }

    #[test]
    fn sorted_view_of_sorted_log_is_identity() {
        let log = QueryLog::from_entries(vec![entry(0, 0), entry(1, 1)]);
        let v = LogView::sorted_by_time(&log);
        assert!(v.idx.is_none());
    }
}
