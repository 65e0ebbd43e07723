//! The template store: interned query templates.
//!
//! Every parsed statement maps to a [`QueryTemplate`]; the store interns
//! templates by fingerprint and hands out dense [`TemplateId`]s that the
//! miner and detectors use as cheap keys.

use sqlog_obs::Recorder;
use sqlog_skeleton::{Fingerprint, FnvHashMap, QueryTemplate};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Dense identifier of an interned template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// Thread-safe interner for query templates.
#[derive(Debug, Default)]
pub struct TemplateStore {
    inner: RwLock<StoreInner>,
    /// Observability sink for interner counters (disabled by default).
    /// Counters fire on the slow path only — a memoized worker never
    /// reaches the store, so an enabled recorder costs one counter update
    /// per *distinct-template sighting*, not per record.
    recorder: Recorder,
}

#[derive(Debug, Default)]
struct StoreInner {
    templates: Vec<QueryTemplate>,
    by_fp: FnvHashMap<Fingerprint, TemplateId>,
}

impl TemplateStore {
    /// An empty store.
    pub fn new() -> Self {
        TemplateStore::default()
    }

    /// An empty store that publishes interner counters (`store.intern_hits`,
    /// `store.intern_inserts`, `store.lock_poison_recovered`) to `rec`.
    pub fn with_recorder(rec: Recorder) -> Self {
        TemplateStore {
            inner: RwLock::default(),
            recorder: rec,
        }
    }

    // A panic while the write guard is held poisons the lock, but the store's
    // writers (`intern`, `renumber`) mutate `by_fp` and `templates` in
    // matched pairs with no fallible code in between — a poisoned store is
    // still internally consistent. Recover the data instead of cascading the
    // panic into every thread that touches the store afterwards.

    fn read(&self) -> RwLockReadGuard<'_, StoreInner> {
        self.inner.read().unwrap_or_else(|poisoned| {
            self.recorder.counter("store.lock_poison_recovered", 1);
            poisoned.into_inner()
        })
    }

    fn write(&self) -> RwLockWriteGuard<'_, StoreInner> {
        self.inner.write().unwrap_or_else(|poisoned| {
            self.recorder.counter("store.lock_poison_recovered", 1);
            poisoned.into_inner()
        })
    }

    /// Interns a template, returning its id (existing or fresh).
    pub fn intern(&self, template: QueryTemplate) -> TemplateId {
        // Fast path: read lock only. Counter updates take the recorder's own
        // mutex, so they run after the store guard drops.
        if let Some(&id) = self.read().by_fp.get(&template.fingerprint) {
            self.recorder.counter("store.intern_hits", 1);
            return id;
        }
        let mut inner = self.write();
        if let Some(&id) = inner.by_fp.get(&template.fingerprint) {
            drop(inner);
            self.recorder.counter("store.intern_hits", 1);
            return id;
        }
        let id = TemplateId(u32::try_from(inner.templates.len()).expect("template count < 2^32"));
        inner.by_fp.insert(template.fingerprint, id);
        inner.templates.push(template);
        drop(inner);
        self.recorder.counter("store.intern_inserts", 1);
        id
    }

    /// Returns a clone of the template with the given id.
    pub fn get(&self, id: TemplateId) -> QueryTemplate {
        self.read().templates[id.0 as usize].clone()
    }

    /// Runs `f` with a borrowed template (avoids the clone of [`Self::get`]).
    pub fn with<R>(&self, id: TemplateId, f: impl FnOnce(&QueryTemplate) -> R) -> R {
        f(&self.read().templates[id.0 as usize])
    }

    /// Renumbers the interned templates: `order[new]` is the *current* id of
    /// the template that receives id `new`. `order` must be a permutation of
    /// all current ids. Outstanding [`TemplateId`]s obtained before the call
    /// are invalidated — the parse step uses this to make ids canonical
    /// (first appearance in record order) regardless of how parser threads
    /// interleaved their interning, and remaps its records in the same pass.
    ///
    /// The permutation is checked before anything moves: a short, duplicate
    /// or out-of-range order panics with the store unchanged, so
    /// poisoned-lock recovery still finds `templates` and the fingerprint
    /// index in step. The templates are then moved into place, not cloned,
    /// and the index is updated in place.
    pub fn renumber(&self, order: &[TemplateId]) {
        let mut guard = self.write();
        let inner = &mut *guard;
        assert_eq!(
            order.len(),
            inner.templates.len(),
            "renumber order must cover every template"
        );
        let mut seen = vec![false; order.len()];
        for &TemplateId(old) in order {
            let fresh = seen
                .get_mut(old as usize)
                .is_some_and(|s| !std::mem::replace(s, true));
            assert!(fresh, "renumber order must be a permutation");
        }
        let mut old: Vec<Option<QueryTemplate>> = std::mem::take(&mut inner.templates)
            .into_iter()
            .map(Some)
            .collect();
        inner.templates = order
            .iter()
            .map(|&TemplateId(id)| old[id as usize].take().expect("order is a permutation"))
            .collect();
        for (new, t) in inner.templates.iter().enumerate() {
            *inner
                .by_fp
                .get_mut(&t.fingerprint)
                .expect("every template is indexed") = TemplateId(new as u32);
        }
    }

    /// Approximate bytes held by the store: interned templates (heap
    /// strings included) plus the fingerprint index. Memory accounting
    /// only — not an allocator-exact figure.
    pub fn approx_bytes(&self) -> usize {
        let inner = self.read();
        let templates: usize = inner.templates.iter().map(|t| t.approx_bytes()).sum();
        let index = inner.by_fp.capacity()
            * (std::mem::size_of::<Fingerprint>() + std::mem::size_of::<TemplateId>());
        templates + index
    }

    /// Number of interned templates.
    pub fn len(&self) -> usize {
        self.read().templates.len()
    }

    /// True when no template is interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlog_sql::parse_query;

    fn tpl(sql: &str) -> QueryTemplate {
        QueryTemplate::of_query(&parse_query(sql).unwrap())
    }

    #[test]
    fn interning_deduplicates() {
        let store = TemplateStore::new();
        let a = store.intern(tpl("SELECT a FROM t WHERE x = 1"));
        let b = store.intern(tpl("SELECT a FROM t WHERE x = 999"));
        let c = store.intern(tpl("SELECT b FROM t WHERE x = 1"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn get_and_with_return_the_template() {
        let store = TemplateStore::new();
        let id = store.intern(tpl("SELECT a FROM t WHERE x = 1"));
        assert_eq!(store.get(id).swc, "x = <num>");
        assert_eq!(store.with(id, |t| t.sfc.clone()), "t");
    }

    #[test]
    fn renumber_permutes_ids() {
        let store = TemplateStore::new();
        let a = store.intern(tpl("SELECT a FROM t WHERE x = 1"));
        let b = store.intern(tpl("SELECT b FROM t WHERE x = 1"));
        let fa = store.with(a, |t| t.fingerprint);
        let fb = store.with(b, |t| t.fingerprint);
        store.renumber(&[b, a]);
        // The template that was `b` now has id 0, and lookups agree.
        assert_eq!(store.with(TemplateId(0), |t| t.fingerprint), fb);
        assert_eq!(store.with(TemplateId(1), |t| t.fingerprint), fa);
        assert_eq!(
            store.intern(tpl("SELECT b FROM t WHERE x = 9")),
            TemplateId(0)
        );
        assert_eq!(store.len(), 2);
    }

    /// Three interned templates and their fingerprints, in id order.
    fn three() -> (TemplateStore, Vec<Fingerprint>) {
        let store = TemplateStore::new();
        for c in ["a", "b", "c"] {
            store.intern(tpl(&format!("SELECT {c} FROM t WHERE x = 1")));
        }
        let fps = (0..3)
            .map(|i| store.with(TemplateId(i), |t| t.fingerprint))
            .collect();
        (store, fps)
    }

    /// Asserts that id `i` holds `fps[i]` and that interning each template
    /// again finds that id.
    fn assert_ids(store: &TemplateStore, fps: &[Fingerprint]) {
        assert_eq!(store.len(), fps.len());
        for (i, fp) in fps.iter().enumerate() {
            let id = TemplateId(i as u32);
            assert_eq!(store.with(id, |t| t.fingerprint), *fp);
            assert_eq!(store.intern(store.get(id)), id);
        }
    }

    #[test]
    fn renumber_identity_and_reverse() {
        let (store, fps) = three();
        store.renumber(&[TemplateId(0), TemplateId(1), TemplateId(2)]);
        assert_ids(&store, &fps);
        store.renumber(&[TemplateId(2), TemplateId(1), TemplateId(0)]);
        assert_ids(&store, &[fps[2], fps[1], fps[0]]);
    }

    #[test]
    fn bad_renumber_orders_panic_and_leave_the_store_unchanged() {
        let (store, fps) = three();
        for order in [
            &[TemplateId(0), TemplateId(1)][..],
            &[TemplateId(0), TemplateId(1), TemplateId(1)],
            &[TemplateId(0), TemplateId(1), TemplateId(3)],
            &[TemplateId(2), TemplateId(1), TemplateId(u32::MAX)],
        ] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                store.renumber(order);
            }));
            assert!(result.is_err(), "{order:?} must be rejected");
            assert_ids(&store, &fps);
        }
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        // A panic while the write guard is held (here: renumber's length
        // assert) poisons the RwLock. The store must keep serving readers
        // and writers afterwards — one crashed worker must not take every
        // other pipeline thread down with it.
        let store = TemplateStore::new();
        let a = store.intern(tpl("SELECT a FROM t WHERE x = 1"));
        let poisoning = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.renumber(&[]);
        }));
        assert!(poisoning.is_err(), "renumber must reject a bad order");
        assert_eq!(store.len(), 1);
        assert_eq!(store.intern(tpl("SELECT a FROM t WHERE x = 2")), a);
        let b = store.intern(tpl("SELECT b FROM t WHERE x = 1"));
        assert_eq!(store.with(b, |t| t.sfc.clone()), "t");
    }

    #[test]
    fn poisoned_lock_with_parse_cache_enabled_parses_identically() {
        // The parse cache memoizes per worker but every cache miss still
        // goes through the store; a lock poisoned by an earlier panic must
        // not change what a cache-enabled parse produces.
        use crate::parse_step::{parse_view_traced, ParseOptions};
        use sqlog_log::{LogEntry, LogView, QueryLog, Timestamp};

        let log = QueryLog::from_entries(
            (0..48u64)
                .map(|i| {
                    LogEntry::minimal(
                        i,
                        format!("SELECT name FROM Employee WHERE empId = {}", i % 6),
                        Timestamp::from_secs(i as i64),
                    )
                    .with_user("u1")
                })
                .collect(),
        );
        let view = LogView::identity(&log);
        let options = ParseOptions {
            cache: true,
            ..ParseOptions::default()
        };

        // Reference: a healthy store.
        let healthy = TemplateStore::new();
        let expected = parse_view_traced(&view, &healthy, &options, 2, &Recorder::disabled());

        // Poison the lock (renumber's permutation assert fires while the
        // write guard is held), then parse with the cache enabled.
        let rec = Recorder::new();
        let store = TemplateStore::with_recorder(rec.clone());
        let poisoning = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.renumber(&[TemplateId(0)]);
        }));
        assert!(poisoning.is_err(), "renumber must reject a bad order");

        let got = parse_view_traced(&view, &store, &options, 2, &rec);
        assert!(got.cache.enabled, "cache must be on for this test");
        assert!(
            got.cache.hits > 0,
            "workload repeats shapes; cache must engage"
        );
        assert_eq!(got.records.len(), expected.records.len());
        for (a, b) in got.records.iter().zip(&expected.records) {
            assert_eq!((a.entry_idx, a.template), (b.entry_idx, b.template));
        }
        assert_eq!(store.len(), healthy.len());
        // The recovery is observable, not silent.
        assert!(
            rec.counters().get("store.lock_poison_recovered").copied() > Some(0),
            "poison recovery must bump its counter"
        );
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let store = TemplateStore::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..200 {
                        store.intern(tpl(&format!("SELECT c{} FROM t WHERE x = 1", i % 16)));
                    }
                });
            }
        });
        assert_eq!(store.len(), 16);
    }
}
