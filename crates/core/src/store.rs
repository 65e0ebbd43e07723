//! The template store: interned query templates.
//!
//! Every parsed statement maps to a [`QueryTemplate`]; the store interns
//! templates by fingerprint and hands out dense [`TemplateId`]s that the
//! miner and detectors use as cheap keys.

use sqlog_obs::Recorder;
use sqlog_skeleton::{Fingerprint, FnvHashMap, QueryTemplate};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Dense identifier of an interned template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TemplateId(pub u32);

/// Thread-safe interner for query templates.
#[derive(Debug, Default)]
pub struct TemplateStore {
    inner: RwLock<StoreInner>,
    /// Observability sink for interner counters (disabled by default).
    /// The parse stage interns into the run's store at its join, once per
    /// template and parse shard, so an enabled recorder costs one counter
    /// update per *distinct template of a shard*, not per record.
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
    // one writer (`intern`) mutates `by_fp` and `templates` in a matched
    // pair with no fallible code in between — a poisoned store is still
    // internally consistent. Recover the data instead of cascading the
    // panic into every thread that reads the store afterwards (detect and
    // solve shards read it concurrently).

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
        // Counter updates take the recorder's own mutex, so they run after
        // the store guard drops.
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

    /// The interned templates in id order, consuming the store. The parse
    /// join moves a shard's templates out of its own store this way.
    pub(crate) fn into_templates(self) -> Vec<QueryTemplate> {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .templates
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

    /// Panics while holding the write guard, poisoning the lock.
    fn poison(store: &TemplateStore) {
        let poisoning = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = store.write();
            panic!("poisoning the template store lock");
        }));
        assert!(poisoning.is_err());
        assert!(store.inner.is_poisoned());
    }

    #[test]
    fn poisoned_lock_recovers_instead_of_cascading() {
        // A panic while the write guard is held poisons the RwLock. The
        // store must keep serving readers and writers afterwards — one
        // crashed worker must not take every other pipeline thread down
        // with it — and count each recovery.
        let rec = Recorder::new();
        let store = TemplateStore::with_recorder(rec.clone());
        let a = store.intern(tpl("SELECT a FROM t WHERE x = 1"));
        poison(&store);
        assert_eq!(store.len(), 1);
        assert_eq!(store.intern(tpl("SELECT a FROM t WHERE x = 2")), a);
        let b = store.intern(tpl("SELECT b FROM t WHERE x = 1"));
        assert_eq!(store.with(b, |t| t.sfc.clone()), "t");
        assert_eq!(store.into_templates().len(), 2);
        assert!(rec.counters().get("store.lock_poison_recovered").copied() > Some(0));
    }

    #[test]
    fn poisoned_lock_with_parse_cache_enabled_parses_identically() {
        // The parse join interns every template into the run's store; a
        // lock poisoned by an earlier panic must not change what a
        // cache-enabled parse produces.
        use crate::config::PipelineConfig;
        use crate::parse_step::parse;
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
        let cfg = PipelineConfig {
            parse_cache: true,
            parallelism: 2,
            ..PipelineConfig::default()
        };

        // Reference: a healthy store.
        let healthy = TemplateStore::new();
        let expected = parse(&view, &healthy, &cfg);

        // Poison the lock, then parse with the cache enabled.
        let rec = Recorder::new();
        let store = TemplateStore::with_recorder(rec.clone());
        poison(&store);

        let got = parse(
            &view,
            &store,
            &PipelineConfig {
                recorder: rec.clone(),
                ..cfg
            },
        );
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
