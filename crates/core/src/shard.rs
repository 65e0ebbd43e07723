//! Shared helpers for the sharded pipeline stages, and their one failure
//! policy.
//!
//! Every parallel stage follows the same recipe: split its work items
//! (byte segments, records, users, sessions, instances) into **contiguous**
//! ranges of roughly equal total weight, process each range on its own
//! scoped thread, and merge the per-range results in range order.
//! Contiguity is what makes the merge deterministic — concatenating range
//! outputs reproduces the sequential processing order, so the merged result
//! is independent of the thread count.
//!
//! Each stage writes its shard body once, as a `Fn(Range<usize>,
//! &ShardCtx) -> T`, and hands it to `run_shards`. The first pass runs the
//! body plainly: no per-item `catch_unwind`. A shard whose body panics is
//! re-run once, on the calling thread, with the same body in isolating
//! mode, where every `ShardCtx::item` step and every `ShardCtx::each`
//! sub-range runs under a panic guard. The item that panics again is
//! dropped and counted as poison, and everything around it is kept. A
//! panic outside those steps during the re-run propagates, so a body with
//! nothing it can skip (the solve splice) fails instead of returning a
//! partial result.
//!
//! The runner keeps the panics it catches quiet: a process-wide panic
//! hook, installed once, stays silent while a first-pass attempt or an
//! isolating step runs, and defers to the hook it replaced otherwise. A
//! stage with degraded shards instead reports one summary line — stage,
//! degraded shards, poison items and the first panic's message — to stderr
//! and as a recorder warning. A panic that propagates from a re-run still
//! prints in full.
//!
//! Determinism note: a poison item panics wherever it lands, so *which
//! items end up skipped* is independent of the thread count; only the
//! degraded-shard count can vary with sharding (one poison item degrades
//! exactly the one shard that contains it).

use crate::fault;
use sqlog_obs::{Recorder, SpanId};
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

thread_local! {
    /// Set while a panic on this thread is caught and accounted by the
    /// runner, so the panic hook keeps quiet about it.
    static CAUGHT_HERE: Cell<bool> = const { Cell::new(false) };
}

/// Installs, once per process, the panic hook that is silent while
/// [`CAUGHT_HERE`] is set and calls the hook it replaced otherwise.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAUGHT_HERE.get() {
                loud(info);
            }
        }));
    });
}

/// Runs `f` with [`CAUGHT_HERE`] set, restoring it on return or unwind.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAUGHT_HERE.set(self.0);
        }
    }
    let _restore = Restore(CAUGHT_HERE.replace(true));
    f()
}

/// Runs `f` quietly, converting a panic into its payload.
///
/// `AssertUnwindSafe` is sound here by convention: a shard body either
/// discards the state a panicking step touched or mutates it only after
/// the step returns (see each stage's body).
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, Box<dyn Any + Send>> {
    catch_unwind(AssertUnwindSafe(|| quietly(f)))
}

/// The message a panic payload carries (`panic!` yields `&str` or
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// A shard body's view of its attempt: the stage's armed fault marker and
/// whether this is the isolating re-run of a panicked shard.
pub(crate) struct ShardCtx {
    fault: Option<String>,
    isolate: bool,
    poison: Cell<usize>,
}

impl ShardCtx {
    /// Runs one work item: a plain call on the first pass; on the re-run,
    /// a call under a panic guard, where a panic counts one poison item
    /// and yields `None`.
    pub(crate) fn item<T>(&self, f: impl FnOnce() -> T) -> Option<T> {
        if !self.isolate {
            return Some(f());
        }
        let out = guarded(f).ok();
        if out.is_none() {
            self.poison.set(self.poison.get() + 1);
        }
        out
    }

    /// Runs `f` over `range`: once on the whole range on the first pass;
    /// on the re-run, once per one-item sub-range, each as an
    /// [`item`](Self::item), so a poison item's partial work is dropped
    /// with it.
    pub(crate) fn each<U>(
        &self,
        range: Range<usize>,
        mut f: impl FnMut(Range<usize>) -> U,
    ) -> Vec<U> {
        if !self.isolate {
            return vec![f(range)];
        }
        range.filter_map(|i| self.item(|| f(i..i + 1))).collect()
    }

    /// Whether fault injection targets this stage.
    pub(crate) fn armed(&self) -> bool {
        self.fault.is_some()
    }

    /// The fault hook: trips when `text` contains the armed marker.
    pub(crate) fn trip(&self, text: &str) {
        fault::trip(&self.fault, text);
    }
}

/// The names a stage runs its shards under, and where their observations
/// go: the recorder, the stage span to parent shard spans under, and the
/// static names of the shard spans and latency histogram (convention:
/// `"<stage>.shard"` / `"<stage>.shard_us"` — [`sqlog_obs::ObsReport`]
/// groups on the suffix).
pub(crate) struct ShardTrace<'a> {
    /// The sink. Disabled → no span, histogram or item count is recorded.
    pub(crate) rec: &'a Recorder,
    /// The enclosing stage span (captured on the coordinating thread before
    /// workers spawn — worker threads cannot see its thread-local stack).
    pub(crate) parent: Option<SpanId>,
    /// The fault-injection stage armed once per shard attempt, e.g.
    /// `"parse"` (see [`ShardCtx::trip`]); the recovery summary names it.
    pub(crate) stage: &'static str,
    /// Shard span name, e.g. `"parse.shard"`.
    pub(crate) span_name: &'static str,
    /// Shard latency histogram name, e.g. `"parse.shard_us"`.
    pub(crate) hist_name: &'static str,
    /// Counter the degraded-shard count lands in, e.g.
    /// `"parse.degraded_shards"`; `None` for a pass whose re-run cannot
    /// return (the splice).
    pub(crate) degraded_counter: Option<&'static str>,
}

/// What [`run_shards`] returns.
pub(crate) struct Shards<T> {
    /// The per-range outputs, in range order.
    pub(crate) outputs: Vec<T>,
    /// Items the re-runs skipped: panicked [`ShardCtx::item`] steps and
    /// [`ShardCtx::each`] sub-ranges.
    pub(crate) poison: usize,
    /// Shards whose first pass panicked and that were re-run.
    pub(crate) degraded: usize,
}

/// Runs `work` once per range on scoped threads (on the calling thread
/// when there is one range), re-running a shard that panics and reporting
/// the recovery as the module doc describes.
///
/// With an enabled recorder each attempt runs inside a span named
/// [`ShardTrace::span_name`] carrying `shard` (index) and `items` (work
/// units, from `items_of`) fields; a first pass's wall-clock lands in the
/// [`ShardTrace::hist_name`] histogram, and a re-run's span carries
/// `degraded = 1`, so recovery time stays visible in the trace. Results
/// are identical with the recorder on or off — instrumentation only
/// observes.
pub(crate) fn run_shards<T, W, I>(
    ranges: Vec<Range<usize>>,
    trace: ShardTrace<'_>,
    items_of: I,
    work: W,
) -> Shards<T>
where
    T: Send,
    W: Fn(Range<usize>, &ShardCtx) -> T + Sync,
    I: Fn(&Range<usize>) -> u64 + Sync,
{
    install_quiet_hook();
    let rec = trace.rec;
    let attempt = |shard: usize, r: Range<usize>, isolate: bool| {
        let ctx = ShardCtx {
            fault: fault::armed(trace.stage),
            isolate,
            poison: Cell::new(0),
        };
        let out = if rec.is_enabled() {
            let items = items_of(&r);
            let mut span = rec.span_in(trace.parent, trace.span_name);
            span.field("shard", shard as u64);
            span.field("items", items);
            if isolate {
                span.field("degraded", 1u64);
            }
            let out = work(r, &ctx);
            let elapsed = span.finish();
            if !isolate {
                rec.histogram(trace.hist_name, elapsed.as_micros() as u64);
            }
            rec.stage_add_items(items);
            out
        } else {
            work(r, &ctx)
        };
        (out, ctx.poison.get())
    };
    let first: Vec<Result<(T, usize), _>> = if ranges.len() <= 1 {
        ranges
            .iter()
            .map(|r| guarded(|| attempt(0, r.clone(), false)))
            .collect()
    } else {
        let attempt = &attempt;
        std::thread::scope(|s| {
            let handles: Vec<_> = ranges
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, r)| s.spawn(move || quietly(|| attempt(i, r, false))))
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    };
    let mut run = Shards {
        outputs: Vec::with_capacity(ranges.len()),
        poison: 0,
        degraded: 0,
    };
    let mut first_panic = None;
    // Re-run each panicked shard on this thread, in range order, once every
    // first pass has finished.
    for ((i, r), done) in ranges.into_iter().enumerate().zip(first) {
        let (out, poison) = done.unwrap_or_else(|payload| {
            run.degraded += 1;
            first_panic.get_or_insert(payload);
            attempt(i, r, true)
        });
        run.outputs.push(out);
        run.poison += poison;
    }
    if let Some(name) = trace.degraded_counter {
        rec.counter(name, run.degraded as u64);
    }
    if let Some(payload) = first_panic {
        let summary = format!(
            "shard runner: {}: {} degraded shard(s) re-run, {} poison item(s) skipped; \
             first panic: {:?}",
            trace.stage,
            run.degraded,
            run.poison,
            panic_message(&*payload)
        );
        eprintln!("{summary}");
        rec.warning(summary);
    }
    run
}

/// A stage's shard plan over items weighing `weights`: one range covering
/// everything on one thread or for fewer than two items, otherwise
/// [`balance_chunks`] into at most `threads` ranges. The weights are read
/// only in the second case.
// One shard covering everything is the intent, not a misspelled
// `(0..n).collect()`.
#[allow(clippy::single_range_in_vec_init)]
pub(crate) fn plan_shards(
    threads: usize,
    weights: impl ExactSizeIterator<Item = u64>,
) -> Vec<Range<usize>> {
    let n = weights.len();
    if threads <= 1 || n < 2 {
        vec![0..n]
    } else {
        balance_chunks(&weights.collect::<Vec<_>>(), threads)
    }
}

/// Resolves a `parallelism` knob to a concrete thread count.
///
/// `0` means one thread per available core; the result is clamped to
/// `1..=64`.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        requested
    }
    .clamp(1, 64)
}

/// Splits `weights.len()` items into at most `parts` contiguous, non-empty
/// ranges of roughly equal total weight (prefix-greedy).
///
/// Returns an empty vector for an empty input; otherwise the ranges cover
/// `0..weights.len()` exactly, in order.
pub fn balance_chunks(weights: &[u64], parts: usize) -> Vec<Range<usize>> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, n);
    let total: u64 = weights.iter().sum();
    let mut out: Vec<Range<usize>> = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0u64;
    let mut used = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        let ranges_left = parts - out.len();
        if ranges_left > 1 {
            let target = (total - used) / ranges_left as u64;
            // Close the current range once it reaches its fair share — or
            // when the remaining items are exactly enough to give each
            // remaining range one item.
            let must_close = n - (i + 1) == ranges_left - 1;
            if must_close || acc >= target.max(1) {
                out.push(start..i + 1);
                used += acc;
                acc = 0;
                start = i + 1;
            }
        }
    }
    out.push(start..n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers(ranges: &[Range<usize>], n: usize) {
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next);
            assert!(r.end > r.start, "empty range");
            next = r.end;
        }
        assert_eq!(next, n);
    }

    #[test]
    fn single_part_is_whole() {
        assert_eq!(balance_chunks(&[1, 2, 3], 1), vec![0..3]);
    }

    #[test]
    fn empty_input_yields_no_ranges() {
        assert!(balance_chunks(&[], 4).is_empty());
    }

    #[test]
    fn more_parts_than_items_degrades_to_singletons() {
        let r = balance_chunks(&[5, 5], 8);
        covers(&r, 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn skewed_weights_balance() {
        // One heavy item up front should not starve later ranges.
        let weights = [100, 1, 1, 1, 1, 1, 1, 1];
        let r = balance_chunks(&weights, 4);
        covers(&r, weights.len());
        assert_eq!(r[0], 0..1);
    }

    #[test]
    fn uniform_weights_split_evenly() {
        let weights = vec![1u64; 100];
        let r = balance_chunks(&weights, 4);
        covers(&r, 100);
        assert_eq!(r.len(), 4);
        for chunk in &r {
            assert!(chunk.len() >= 20, "{chunk:?}");
        }
    }

    #[test]
    fn zero_weights_do_not_panic() {
        let r = balance_chunks(&[0, 0, 0, 0], 3);
        covers(&r, 4);
    }

    /// The item every runner test plants a panic on.
    const POISON: usize = 5;

    fn trace(rec: &Recorder) -> ShardTrace<'_> {
        ShardTrace {
            rec,
            parent: None,
            stage: "shard-test",
            span_name: "test.shard",
            hist_name: "test.shard_us",
            degraded_counter: Some("test.degraded_shards"),
        }
    }

    /// `parts` equal ranges over `0..n`.
    fn ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
        balance_chunks(&vec![1; n], parts)
    }

    /// A body whose items are its indices, with [`POISON`] panicking.
    fn items_body(r: Range<usize>, ctx: &ShardCtx) -> Vec<usize> {
        r.filter_map(|i| {
            ctx.item(|| {
                assert_ne!(i, POISON, "poison item");
                i
            })
        })
        .collect()
    }

    #[test]
    fn a_poison_item_costs_itself_at_one_and_at_four_ranges() {
        for parts in [1, 4] {
            let rec = Recorder::new();
            let run = run_shards(
                ranges(12, parts),
                trace(&rec),
                |r| r.len() as u64,
                items_body,
            );
            assert_eq!(run.outputs.len(), parts);
            let items: Vec<usize> = run.outputs.concat();
            let clean: Vec<usize> = (0..12).filter(|&i| i != POISON).collect();
            assert_eq!(items, clean, "parts={parts}");
            assert_eq!((run.poison, run.degraded), (1, 1), "parts={parts}");
            assert_eq!(rec.counters()["test.degraded_shards"], 1);
            let degraded: Vec<_> = rec
                .spans()
                .into_iter()
                .filter(|s| s.fields.iter().any(|(k, _)| *k == "degraded"))
                .collect();
            assert_eq!(degraded.len(), 1, "parts={parts}");
            let warnings = rec.warnings();
            assert_eq!(warnings.len(), 1, "parts={parts}");
            assert!(warnings[0]
                .message
                .starts_with("shard runner: shard-test: 1 degraded shard(s) re-run, 1 poison"));
        }
    }

    #[test]
    fn each_calls_once_per_range_then_once_per_item() {
        let run = run_shards(
            ranges(12, 4),
            trace(&Recorder::disabled()),
            |r| r.len() as u64,
            |r, ctx| {
                ctx.each(r, |sub| {
                    assert!(!sub.contains(&POISON), "poison item");
                    sub
                })
            },
        );
        // Ranges 0..3, 3..6, 6..9, 9..12: the second runs item by item.
        assert_eq!(
            run.outputs,
            vec![vec![0..3], vec![3..4, 4..5], vec![6..9], vec![9..12]]
        );
        assert_eq!((run.poison, run.degraded), (1, 1));
    }

    #[test]
    fn a_panic_outside_item_and_each_propagates_from_the_rerun() {
        for parts in [1, 4] {
            let result = catch_unwind(|| {
                run_shards(
                    ranges(12, parts),
                    trace(&Recorder::disabled()),
                    |r| r.len() as u64,
                    |r, _| {
                        assert!(!r.contains(&POISON), "whole-shard failure");
                        r.len()
                    },
                )
            });
            assert!(result.is_err(), "parts={parts}: a partial result came back");
        }
    }

    #[test]
    fn explicit_thread_counts_pass_through() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1000), 64);
        assert!(resolve_threads(0) >= 1);
    }
}
