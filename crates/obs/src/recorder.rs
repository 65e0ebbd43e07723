//! The recorder: spans, counters, histograms and warnings.
//!
//! A [`Recorder`] is either **enabled** — it owns shared state behind an
//! `Arc` and every observation lands there — or **disabled**, in which case
//! it holds nothing and every call is a branch on `Option::is_none` followed
//! by an immediate return. There is no global registry: the pipeline passes
//! its recorder through `PipelineConfig`, tests create their own, and two
//! recorders never interfere.
//!
//! **Spans** measure monotonic wall-clock (microseconds since the
//! recorder's creation) and nest: a span opened while another is active on
//! the same thread becomes its child. Work handed to another thread cannot
//! see the spawning thread's stack, so shard workers open their spans with
//! [`Recorder::span_in`], passing the parent id captured before the spawn.
//! Completed spans are pushed into the shared state under a mutex — one
//! lock per span *completion*, never per record.
//!
//! **Counters** are monotonic sums and **histograms** are fixed log2
//! buckets ([`crate::histogram`]); both are keyed by `&'static str` names.
//! Stages accumulate locally and flush per shard, so the mutex is taken a
//! handful of times per stage, not per query.

use crate::histogram::Histogram;
use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identifier of a recorded span (unique within one recorder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// A field attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An unsigned number.
    U64(u64),
    /// A string.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> FieldValue {
        FieldValue::U64(v)
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> FieldValue {
        FieldValue::U64(v as u64)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> FieldValue {
        FieldValue::Str(v.to_string())
    }
}

/// A completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id.
    pub id: u64,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// Span name (a static label like `"parse.shard"`).
    pub name: &'static str,
    /// Attached fields, in attachment order.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Start, in microseconds since the recorder's creation.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// A recorded warning (routed diagnostics, e.g. fault-injection arming).
#[derive(Debug, Clone, PartialEq)]
pub struct WarningRecord {
    /// When it was recorded, microseconds since recorder creation.
    pub at_us: u64,
    /// The message.
    pub message: String,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRecord>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    warnings: Vec<WarningRecord>,
}

/// Live gauge state of the stage currently executing (see
/// [`Recorder::stage`]). Kept under its own small mutex so a
/// progress poller never contends with span completions.
#[derive(Default)]
struct ProgressState {
    stage: Option<&'static str>,
    done: u64,
    total: u64,
    skipped: bool,
    started_us: u64,
    seq: u64,
    /// Every stage declared skipped so far, in order. A poller can consume
    /// this log at its own pace — fast stage transitions between two polls
    /// would otherwise make skipped stages invisible.
    skipped_log: Vec<&'static str>,
}

/// A point-in-time view of pipeline progress, for live `--progress`
/// rendering. Unlike spans (recorded on *completion*), this reflects the
/// stage that is executing right now.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Name of the current stage.
    pub stage: &'static str,
    /// Items processed so far (whatever unit the stage reports — log
    /// entries, statements, sessions).
    pub done: u64,
    /// Expected total items, `0` when unknown.
    pub total: u64,
    /// The stage was restored from a checkpoint rather than executed.
    pub skipped: bool,
    /// When the stage began, microseconds since the recorder's epoch.
    pub started_us: u64,
    /// When this snapshot was taken, same clock.
    pub now_us: u64,
    /// Monotonic stage sequence number (increments per `stage` /
    /// `stage_skipped`), so pollers can detect stage transitions.
    pub seq: u64,
}

impl ProgressSnapshot {
    /// Items per second since the stage began, `0.0` before any time has
    /// passed.
    pub fn throughput_per_sec(&self) -> f64 {
        let elapsed_us = self.now_us.saturating_sub(self.started_us);
        if elapsed_us == 0 {
            0.0
        } else {
            self.done as f64 * 1_000_000.0 / elapsed_us as f64
        }
    }

    /// Estimated seconds until the stage completes, `None` when the total
    /// is unknown or nothing has been processed yet.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.total == 0 || self.done == 0 {
            return None;
        }
        let remaining = self.total.saturating_sub(self.done);
        let rate = self.throughput_per_sec();
        (rate > 0.0).then(|| remaining as f64 / rate)
    }
}

struct Inner {
    epoch: Instant,
    next_span: AtomicU64,
    state: Mutex<State>,
    progress: Mutex<ProgressState>,
}

thread_local! {
    /// The innermost active span on this thread (0 = none). Only parent
    /// *ids* flow through here; records always land in the guard's own
    /// recorder.
    static CURRENT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Structured tracing + metrics sink. Cheap to clone (shared state).
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

// `Debug`/`PartialEq` care only about enablement: two enabled recorders
// compare equal even when their collected data differs, so a
// `PipelineConfig` carrying a recorder keeps its derived `PartialEq`
// meaning "same tunables".
impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.inner.is_some() {
            f.write_str("Recorder(enabled)")
        } else {
            f.write_str("Recorder(disabled)")
        }
    }
}

impl PartialEq for Recorder {
    fn eq(&self, other: &Recorder) -> bool {
        self.is_enabled() == other.is_enabled()
    }
}

impl Recorder {
    /// An enabled recorder with empty state.
    pub fn new() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                state: Mutex::new(State::default()),
                progress: Mutex::new(ProgressState::default()),
            })),
        }
    }

    /// The no-op recorder: every call returns after one branch.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether observations are collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn now_us(inner: &Inner) -> u64 {
        inner.epoch.elapsed().as_micros() as u64
    }

    fn state(inner: &Inner) -> std::sync::MutexGuard<'_, State> {
        // Observability must never take the pipeline down: a panic while
        // the state lock was held loses nothing we cannot tolerate losing.
        inner.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a span whose parent is the innermost active span on this
    /// thread (if any). Closed — and recorded — when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_impl(name, self.current())
    }

    /// Opens a span under an explicit parent — the cross-thread form:
    /// capture [`Recorder::current`] before spawning, pass it to workers.
    pub fn span_in(&self, parent: Option<SpanId>, name: &'static str) -> SpanGuard {
        self.span_impl(name, parent)
    }

    fn span_impl(&self, name: &'static str, parent: Option<SpanId>) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                inner: None,
                id: 0,
                parent: None,
                prev: 0,
                name,
                fields: Vec::new(),
                start: None,
            };
        };
        let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            inner: Some(Arc::clone(inner)),
            id,
            parent: parent.map(|p| p.0),
            prev,
            name,
            fields: Vec::new(),
            // On the epoch's µs grid: exact `start_us`, children end inside.
            start: Some(inner.epoch + Duration::from_micros(Self::now_us(inner))),
        }
    }

    /// The innermost active span on this thread.
    pub fn current(&self) -> Option<SpanId> {
        self.inner.as_ref()?;
        let id = CURRENT.with(|c| c.get());
        (id != 0).then_some(SpanId(id))
    }

    /// Adds `delta` to a named monotonic counter. Inlined so that a
    /// disabled recorder costs its caller one branch and no call.
    #[inline]
    pub fn counter(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            Self::add_counter(inner, name, delta);
        }
    }

    fn add_counter(inner: &Inner, name: &'static str, delta: u64) {
        if delta == 0 {
            return;
        }
        *Self::state(inner).counters.entry(name).or_insert(0) += delta;
    }

    /// Records one observation into a named log2 histogram. Inlined like
    /// [`Recorder::counter`].
    #[inline]
    pub fn histogram(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            Self::record_histogram(inner, name, value);
        }
    }

    fn record_histogram(inner: &Inner, name: &'static str, value: u64) {
        Self::state(inner)
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Merges a locally accumulated histogram (one lock for the batch).
    pub fn histogram_merge(&self, name: &'static str, local: &Histogram) {
        let Some(inner) = &self.inner else { return };
        if local.count == 0 {
            return;
        }
        Self::state(inner)
            .histograms
            .entry(name)
            .or_default()
            .merge(local);
    }

    fn progress_state(inner: &Inner) -> std::sync::MutexGuard<'_, ProgressState> {
        inner.progress.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a pipeline stage: declares it to the progress gauge with
    /// `total` expected items (`0` when unknown) and opens its
    /// [`Recorder::timed_span`]. Called once per stage — not a hot path.
    pub fn stage(&self, name: &'static str, total: u64) -> SpanGuard {
        if let Some(inner) = &self.inner {
            Self::declare(inner, name, total, false);
        }
        self.timed_span(name)
    }

    /// A span whose clock runs even when the recorder is disabled, so its
    /// [`SpanGuard::finish`] always measures (a run's `pipeline` span).
    pub fn timed_span(&self, name: &'static str) -> SpanGuard {
        let mut span = self.span(name);
        span.start.get_or_insert_with(Instant::now);
        span
    }

    fn declare(inner: &Inner, stage: &'static str, total: u64, skipped: bool) {
        let now = Self::now_us(inner);
        let mut p = Self::progress_state(inner);
        p.stage = Some(stage);
        p.done = 0;
        p.total = total;
        p.skipped = skipped;
        p.started_us = now;
        p.seq += 1;
        if skipped {
            p.skipped_log.push(stage);
        }
    }

    /// Declares that a stage was restored from a checkpoint instead of
    /// executed, so live renderers can show it as skipped.
    pub fn stage_skipped(&self, stage: &'static str) {
        let Some(inner) = &self.inner else { return };
        Self::declare(inner, stage, 0, true);
    }

    /// Every stage declared skipped so far, in order. Empty when the
    /// recorder is disabled. Bounded by the pipeline's stage count, so
    /// cloning is cheap.
    pub fn skipped_stages(&self) -> Vec<&'static str> {
        match &self.inner {
            Some(inner) => Self::progress_state(inner).skipped_log.clone(),
            None => Vec::new(),
        }
    }

    /// Adds `n` processed items to the current stage's gauge. Called per
    /// shard completion (a handful of times per stage), not per record.
    pub fn stage_add_items(&self, n: u64) {
        let Some(inner) = &self.inner else { return };
        if n == 0 {
            return;
        }
        Self::progress_state(inner).done += n;
    }

    /// Snapshot of the current stage's progress. `None` when the recorder
    /// is disabled or no stage has begun yet.
    pub fn progress(&self) -> Option<ProgressSnapshot> {
        let inner = self.inner.as_ref()?;
        let now_us = Self::now_us(inner);
        let p = Self::progress_state(inner);
        Some(ProgressSnapshot {
            stage: p.stage?,
            done: p.done,
            total: p.total,
            skipped: p.skipped,
            started_us: p.started_us,
            now_us,
            seq: p.seq,
        })
    }

    /// Records a diagnostic warning into the event stream.
    pub fn warning(&self, message: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let at_us = Self::now_us(inner);
        Self::state(inner).warnings.push(WarningRecord {
            at_us,
            message: message.into(),
        });
    }

    /// Snapshot of all completed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => Self::state(inner).spans.clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of the counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        match &self.inner {
            Some(inner) => Self::state(inner)
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            None => BTreeMap::new(),
        }
    }

    /// Snapshot of the histograms.
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        match &self.inner {
            Some(inner) => Self::state(inner)
                .histograms
                .iter()
                .map(|(&k, v)| (k.to_string(), v.clone()))
                .collect(),
            None => BTreeMap::new(),
        }
    }

    /// Snapshot of the warnings.
    pub fn warnings(&self) -> Vec<WarningRecord> {
        match &self.inner {
            Some(inner) => Self::state(inner).warnings.clone(),
            None => Vec::new(),
        }
    }

    /// Writes the full event stream as NDJSON: one `meta` line, one line
    /// per span (completion order), per warning, per counter, and per
    /// histogram. Every line is a complete JSON object (see the schema
    /// table in DESIGN.md).
    pub fn write_events(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        let meta = Json::obj(vec![
            ("type", Json::from("meta")),
            ("schema", Json::U64(1)),
            ("clock", Json::from("us_since_recorder_epoch")),
            ("enabled", Json::Bool(self.is_enabled())),
        ]);
        writeln!(w, "{}", meta.render())?;
        for s in self.spans() {
            let fields = Json::Obj(
                s.fields
                    .iter()
                    .map(|(k, v)| {
                        let jv = match v {
                            FieldValue::U64(n) => Json::U64(*n),
                            FieldValue::Str(t) => Json::Str(t.clone()),
                        };
                        (k.to_string(), jv)
                    })
                    .collect(),
            );
            let line = Json::obj(vec![
                ("type", Json::from("span")),
                ("id", Json::U64(s.id)),
                ("parent", s.parent.map(Json::U64).unwrap_or(Json::Null)),
                ("name", Json::from(s.name)),
                ("start_us", Json::U64(s.start_us)),
                ("dur_us", Json::U64(s.dur_us)),
                ("fields", fields),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        for warning in self.warnings() {
            let line = Json::obj(vec![
                ("type", Json::from("warning")),
                ("at_us", Json::U64(warning.at_us)),
                ("message", Json::Str(warning.message)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        for (name, value) in self.counters() {
            let line = Json::obj(vec![
                ("type", Json::from("counter")),
                ("name", Json::Str(name)),
                ("value", Json::U64(value)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        for (name, h) in self.histograms() {
            let mut pairs = vec![
                ("type".to_string(), Json::from("histogram")),
                ("name".to_string(), Json::Str(name)),
            ];
            if let Json::Obj(hp) = h.to_json() {
                pairs.extend(hp);
            }
            writeln!(w, "{}", Json::Obj(pairs).render())?;
        }
        Ok(())
    }
}

/// RAII guard of an open span; records the span when finished or dropped.
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    id: u64,
    parent: Option<u64>,
    prev: u64,
    name: &'static str,
    fields: Vec<(&'static str, FieldValue)>,
    /// Set when enabled, and for a [`Recorder::timed_span`] always.
    start: Option<Instant>,
}

impl SpanGuard {
    /// Attaches a field to the span.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.inner.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// Closes the span and returns its wall-clock, which is its `dur_us` in
    /// whole microseconds; zero for a plain span of a disabled recorder,
    /// which reads no clock.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(start) = self.start.take() else {
            return Duration::ZERO;
        };
        let elapsed = start.elapsed();
        if let Some(inner) = self.inner.take() {
            CURRENT.with(|c| c.set(self.prev));
            let record = SpanRecord {
                id: self.id,
                parent: self.parent,
                name: self.name,
                fields: std::mem::take(&mut self.fields),
                start_us: start.duration_since(inner.epoch).as_micros() as u64,
                dur_us: elapsed.as_micros() as u64,
            };
            Recorder::state(&inner).spans.push(record);
        }
        elapsed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// Opens a span on a recorder with optional `key = value` fields:
/// `span!(rec, "parse.shard", shard = i, items = n)`. Returns the
/// [`SpanGuard`]; bind it (`let _span = …`) so it lives for the region.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {{
        #[allow(unused_mut)]
        let mut guard = $rec.span($name);
        $( guard.field(stringify!($key), $value); )*
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_collects_nothing() {
        let rec = Recorder::disabled();
        {
            let mut g = span!(rec, "root", k = 1u64);
            g.field("more", "x");
            assert_eq!(rec.current(), None);
        }
        rec.counter("c", 5);
        rec.histogram("h", 1);
        rec.warning("w");
        assert!(rec.spans().is_empty());
        assert!(rec.counters().is_empty());
        assert!(rec.histograms().is_empty());
        assert!(rec.warnings().is_empty());
        assert_eq!(rec.current(), None);
    }

    #[test]
    fn same_thread_nesting() {
        let rec = Recorder::new();
        {
            let _root = span!(rec, "root");
            let root_id = rec.current().unwrap();
            {
                let _child = span!(rec, "child");
                assert_ne!(rec.current(), Some(root_id));
                let _grand = span!(rec, "grandchild");
            }
            assert_eq!(rec.current(), Some(root_id));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        // Completion order: innermost first.
        assert_eq!(spans[0].name, "grandchild");
        assert_eq!(spans[1].name, "child");
        assert_eq!(spans[2].name, "root");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].parent, Some(spans[2].id));
        assert_eq!(spans[2].parent, None);
    }

    #[test]
    fn cross_thread_parenting_via_span_in() {
        let rec = Recorder::new();
        let stage = rec.span("stage");
        let stage_id = rec.current();
        std::thread::scope(|s| {
            for i in 0..3u64 {
                let rec = rec.clone();
                s.spawn(move || {
                    let mut g = rec.span_in(stage_id, "stage.shard");
                    g.field("shard", i);
                });
            }
        });
        drop(stage);
        let spans = rec.spans();
        let stage_rec = spans.iter().find(|s| s.name == "stage").unwrap();
        let shards: Vec<_> = spans.iter().filter(|s| s.name == "stage.shard").collect();
        assert_eq!(shards.len(), 3);
        for s in shards {
            assert_eq!(s.parent, Some(stage_rec.id));
        }
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let rec = Recorder::new();
        rec.counter("parsed", 2);
        rec.counter("parsed", 3);
        rec.counter("zero", 0); // no-op: absent from the snapshot
        rec.histogram("lat", 3);
        rec.histogram("lat", 100);
        let counters = rec.counters();
        assert_eq!(counters.get("parsed"), Some(&5));
        assert!(!counters.contains_key("zero"));
        assert_eq!(rec.histograms()["lat"].count, 2);
    }

    #[test]
    fn events_are_valid_ndjson() {
        let rec = Recorder::new();
        {
            let mut g = span!(rec, "work", shard = 1u64);
            g.field("label", "q\"uote");
        }
        rec.counter("n", 7);
        rec.histogram("h", 42);
        rec.warning("something\nodd");
        let mut buf = Vec::new();
        rec.write_events(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 5, "{text}");
        for line in &lines {
            let v = Json::parse(line).expect(line);
            assert!(v.get("type").is_some(), "{line}");
        }
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("type").unwrap().as_str(),
            Some("meta")
        );
    }

    #[test]
    fn progress_gauge_tracks_the_current_stage() {
        let rec = Recorder::new();
        assert_eq!(rec.progress(), None, "no stage begun yet");

        let _parse = rec.stage("parse", 100);
        rec.stage_add_items(30);
        rec.stage_add_items(20);
        rec.stage_add_items(0); // no-op
        let p = rec.progress().unwrap();
        assert_eq!(p.stage, "parse");
        assert_eq!((p.done, p.total, p.skipped), (50, 100, false));
        assert_eq!(p.seq, 1);
        assert!(p.now_us >= p.started_us);

        // A new stage resets the gauge and bumps the sequence.
        let _sessions = rec.stage("sessions", 0);
        let p = rec.progress().unwrap();
        assert_eq!((p.stage, p.done, p.total, p.seq), ("sessions", 0, 0, 2));
        assert_eq!(p.eta_secs(), None, "unknown total has no ETA");

        // Checkpoint-restored stages render as skipped, and stay visible
        // in the skipped log even after later stages overwrite the gauge.
        rec.stage_skipped("mine");
        let p = rec.progress().unwrap();
        assert_eq!((p.stage, p.skipped, p.seq), ("mine", true, 3));
        rec.stage_skipped("detect");
        let _solve = rec.stage("solve", 5);
        assert_eq!(rec.skipped_stages(), vec!["mine", "detect"]);

        // Disabled recorders expose nothing and every call is a no-op.
        let off = Recorder::disabled();
        let _off = off.stage("parse", 10);
        off.stage_add_items(5);
        off.stage_skipped("sort");
        assert_eq!(off.progress(), None);
        assert!(off.skipped_stages().is_empty());
    }

    #[test]
    fn a_stage_span_is_the_stage_clock() {
        let rec = Recorder::new();
        let stage = rec.stage("parse", 3);
        let stage_id = rec.current();
        rec.span_in(stage_id, "parse.shard").field("shard", 0u64);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let elapsed = stage.finish();
        assert!(elapsed >= std::time::Duration::from_millis(2));
        assert_eq!(rec.current(), None, "finish closes the span");
        let spans = rec.spans();
        let parse = spans.iter().find(|s| s.name == "parse").unwrap();
        assert_eq!(Some(SpanId(parse.id)), stage_id);
        assert_eq!(parse.dur_us, elapsed.as_micros() as u64);
        let shard = spans.iter().find(|s| s.name == "parse.shard").unwrap();
        assert_eq!(shard.parent, Some(parse.id));
        assert!(shard.start_us + shard.dur_us <= parse.start_us + parse.dur_us);
        assert_eq!(
            rec.progress().map(|p| (p.stage, p.total)),
            Some(("parse", 3))
        );

        // A timed span declares no stage; a disabled recorder's clock still
        // runs and records nothing.
        let run = Recorder::new();
        drop(run.timed_span("pipeline"));
        assert_eq!(run.progress(), None);
        let off = Recorder::disabled();
        let stage = off.stage("parse", 3);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(stage.finish() >= std::time::Duration::from_millis(1));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn progress_derived_rates() {
        let snap = ProgressSnapshot {
            stage: "parse",
            done: 500,
            total: 1000,
            skipped: false,
            started_us: 0,
            now_us: 1_000_000, // 1 s elapsed
            seq: 1,
        };
        assert!((snap.throughput_per_sec() - 500.0).abs() < 1e-9);
        assert!((snap.eta_secs().unwrap() - 1.0).abs() < 1e-9);

        let stalled = ProgressSnapshot {
            done: 0,
            ..snap.clone()
        };
        assert_eq!(stalled.throughput_per_sec(), 0.0);
        assert_eq!(stalled.eta_secs(), None);
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.counter("shared", 1);
        assert_eq!(rec.counters().get("shared"), Some(&1));
        assert_eq!(rec, clone);
        assert_ne!(rec, Recorder::disabled());
        assert_eq!(format!("{:?}", Recorder::disabled()), "Recorder(disabled)");
    }
}
