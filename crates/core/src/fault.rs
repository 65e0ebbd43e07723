//! Fault injection for the resilience and chaos harnesses.
//!
//! The panic isolation of the shard runner ([`crate::shard::run_shards`])
//! only matters when something actually panics, and real poison records are
//! rare by construction. This module gives the integration tests a
//! deterministic way to plant one: when the environment variable
//! `SQLOG_FAULT_MARKER` is set, any record whose statement text contains
//! that marker trips inside the stage named by `SQLOG_FAULT_STAGE`
//! (`ingest`, `dedup`, `parse`, `sessions`, `mine`, `detect`, `solve` or
//! `checkpoint`; default `parse`).
//!
//! What a trip *does* is selected by `SQLOG_FAULT_ACTION`:
//!
//! * `panic` (default) — panic with a recognizable message; the shard
//!   isolation machinery recovers and the record is quarantined as poison.
//!   In `solve` every instance with a matching record is left unsolved
//!   instead, its queries kept verbatim. The runner keeps these panics
//!   quiet and reports each degraded stage in one stderr line that quotes
//!   the first message (see [`crate::shard`]).
//! * `abort` — `std::process::abort()`: the process dies instantly, with no
//!   unwinding and no destructors, exactly like an external SIGKILL. The
//!   chaos harness (`tests/chaos_resume.rs`) uses this to kill the CLI at a
//!   precise point inside a stage.
//! * `stall` — touch the file named by `SQLOG_FAULT_STALL_FILE` (when set)
//!   and sleep forever. The parent test watches for the file and delivers a
//!   real `SIGKILL`, covering the genuine kill-from-outside path.
//!
//! For the `checkpoint` stage the marker is matched against the *stage
//! name* of the checkpoint being written (e.g. `SQLOG_FAULT_MARKER=mine`
//! with `SQLOG_FAULT_STAGE=checkpoint` dies between serializing the mine
//! checkpoint and its atomic rename — simulating death mid-checkpoint).
//!
//! The hook is compiled in unconditionally — integration tests link the
//! non-test build — but costs one `env::var` lookup per *shard* and nothing
//! per record while disarmed. The shard runner arms it once per shard
//! attempt and hands the marker to the shard body through
//! [`crate::shard::ShardCtx::trip`]; only the two hooks that are not shards
//! (ingest's post-scan trip and the checkpoint write) call [`armed`]
//! themselves. The environment is re-read on every arm call
//! (never cached) so a single test process can exercise several stages in
//! sequence.
//!
//! Because the hook ships in production binaries, arming it is never
//! silent: the first time a run finds the marker armed it prints a loud
//! warning to stderr, so a marker variable leaking into a deployment
//! environment cannot quietly drop matching records as poison with only a
//! run-health counter as evidence.
//!
//! For the `mine` stage, which sees template ids rather than statement
//! text, the marker is matched against each record's `primary_table`
//! instead — plant it in a table name.

/// Returns the armed marker when fault injection targets `stage`.
///
/// Called once per shard attempt, outside the per-record loop.
pub(crate) fn armed(stage: &str) -> Option<String> {
    let marker = std::env::var("SQLOG_FAULT_MARKER").ok()?;
    if marker.is_empty() {
        return None;
    }
    let target = std::env::var("SQLOG_FAULT_STAGE").unwrap_or_else(|_| "parse".to_string());
    if target != stage {
        return None;
    }
    // Once per process, not per shard: the point is an unmissable trace in
    // a production run's stderr, not a log flood.
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "WARNING: fault injection is ARMED (SQLOG_FAULT_MARKER={marker:?}, stage {target:?}): \
             matching records will panic and be quarantined as poison. \
             Unset SQLOG_FAULT_MARKER unless this is a resilience test."
        );
    });
    Some(marker)
}

/// Describes the armed fault injection regardless of target stage, or
/// `None` while disarmed. The pipeline routes this through the obs event
/// sink (when one is configured) so the arming warning reaches machine
/// consumers of `--trace-events`, not just stderr.
pub(crate) fn armed_description() -> Option<String> {
    let marker = std::env::var("SQLOG_FAULT_MARKER").ok()?;
    if marker.is_empty() {
        return None;
    }
    let stage = std::env::var("SQLOG_FAULT_STAGE").unwrap_or_else(|_| "parse".to_string());
    Some(format!(
        "fault injection is ARMED: marker {marker:?}, stage {stage:?} — \
         matching records will panic and be quarantined as poison"
    ))
}

/// Trips when `text` contains the armed marker: panics, aborts, or stalls
/// according to `SQLOG_FAULT_ACTION`. No-op while disarmed.
pub(crate) fn trip(marker: &Option<String>, text: &str) {
    let Some(m) = marker else { return };
    if !text.contains(m.as_str()) {
        return;
    }
    match std::env::var("SQLOG_FAULT_ACTION").as_deref() {
        Ok("abort") => {
            // Flush nothing, unwind nothing: the closest in-process stand-in
            // for an external SIGKILL.
            eprintln!("injected fault: aborting on marker {m:?}");
            std::process::abort();
        }
        Ok("stall") => {
            eprintln!("injected fault: stalling on marker {m:?}");
            if let Ok(path) = std::env::var("SQLOG_FAULT_STALL_FILE") {
                // The touch tells the watching parent we reached the injection
                // point; it answers with a real SIGKILL.
                let _ = std::fs::write(&path, b"stalled\n");
            }
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        _ => panic!("injected fault: record matches marker {m:?}"),
    }
}
