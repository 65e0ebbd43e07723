//! Parallel segmented ingest — the paper-scale input path.
//!
//! The driver reads the whole input into memory, splits it into byte
//! segments aligned to line boundaries ([`segment_ranges`]), scans each
//! segment with [`scan_log_slice`] under [`run_shards_traced`], and merges
//! the per-segment entries, quarantine bytes and statistics back **in file
//! order** with [`merge_segments`] — so the output is byte-identical to
//! [`sqlog_log::read_log_with`] (one segment) at any thread count, under
//! both ingest policies.
//!
//! Ingest parallelism inherits [`crate::PipelineConfig::parallelism`]; the
//! segment count lands in the `ingest.segments` counter.

use crate::shard::{resolve_threads, run_shards_traced, ShardTrace};
use sqlog_log::{
    merge_segments, scan_log_slice, segment_ranges, IngestPolicy, IngestStats, IoFormatError,
    QueryLog,
};
use sqlog_obs::{Recorder, SpanId};
use std::io::Write;
use std::path::Path;

/// Scans in-memory log bytes with up to `threads` segments (0 = one per
/// core), merging the per-segment results in file order. Quarantined lines
/// are appended byte-verbatim to `quarantine` in file order. Output —
/// entries, statistics, quarantine bytes, and the error (line number
/// included) a strict scan aborts with — is byte-identical to
/// [`sqlog_log::read_log_with`] over the same bytes for every thread count.
pub fn ingest_slice_traced(
    data: &[u8],
    policy: IngestPolicy,
    threads: usize,
    quarantine: Option<&mut dyn Write>,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Result<(QueryLog, IngestStats), IoFormatError> {
    let threads = resolve_threads(threads);
    let ranges = segment_ranges(data, threads);
    rec.counter("ingest.segments", ranges.len() as u64);
    let want_quarantine = quarantine.is_some();
    let (segments, degraded) = run_shards_traced(
        ranges,
        ShardTrace {
            rec,
            parent,
            span_name: "ingest.shard",
            hist_name: "ingest.shard_us",
        },
        // Work units = bytes of the segment.
        |r| (r.end - r.start) as u64,
        |r| scan_log_slice(&data[r.clone()], policy, want_quarantine),
        |r| scan_log_slice(&data[r.clone()], policy, want_quarantine),
    );
    rec.counter("ingest.degraded_shards", degraded as u64);
    merge_segments(segments, quarantine)
}

/// [`ingest_slice_traced`] over a file path: the file is read whole and
/// scanned segmented. The buffer is freed before the pipeline runs, so peak
/// memory overlaps the entry vector only briefly.
pub fn ingest_file_traced(
    path: &Path,
    policy: IngestPolicy,
    threads: usize,
    quarantine: Option<&mut dyn Write>,
    rec: &Recorder,
    parent: Option<SpanId>,
) -> Result<(QueryLog, IngestStats), IoFormatError> {
    let data = std::fs::read(path)?;
    ingest_slice_traced(&data, policy, threads, quarantine, rec, parent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hostile_corpus() -> Vec<u8> {
        let mut data = Vec::new();
        for i in 0..200u64 {
            match i % 7 {
                3 => data.extend_from_slice(b"garbage without tabs\n"),
                5 => data.extend_from_slice(b"\n"),
                6 => data.extend_from_slice(
                    format!("{i}\t{}\té\t\t\t\tSELECT {i}\r\n", i * 13).as_bytes(),
                ),
                _ => data.extend_from_slice(
                    format!(
                        "{i}\t{}\tu{}\t\t\t\tSELECT a FROM t WHERE x = {i}\n",
                        i * 13,
                        i % 5
                    )
                    .as_bytes(),
                ),
            }
            if i == 77 {
                data.extend_from_slice(b"1\t5\t\xFFbad\t\t\t\tSELECT 2\n");
            }
        }
        data.extend_from_slice(b"999\t99999\t\t\t\t\tlast line no newline");
        data
    }

    #[test]
    fn segmented_lenient_matches_sequential_for_every_thread_count() {
        let data = hostile_corpus();
        let mut seq_q = Vec::new();
        let (seq_log, seq_stats) =
            sqlog_log::read_log_with(&data[..], IngestPolicy::Lenient, Some(&mut seq_q)).unwrap();
        for threads in [1usize, 2, 3, 8, 64] {
            let mut q = Vec::new();
            let (log, stats) = ingest_slice_traced(
                &data,
                IngestPolicy::Lenient,
                threads,
                Some(&mut q),
                &Recorder::disabled(),
                None,
            )
            .unwrap();
            assert_eq!(log, seq_log, "threads {threads}");
            assert_eq!(stats, seq_stats, "threads {threads}");
            assert_eq!(q, seq_q, "threads {threads}");
        }
    }

    #[test]
    fn segmented_strict_reports_the_sequential_error_line() {
        let data = hostile_corpus();
        let seq_err = sqlog_log::read_log_with(&data[..], IngestPolicy::Strict, None).unwrap_err();
        for threads in [1usize, 2, 8, 64] {
            let err = ingest_slice_traced(
                &data,
                IngestPolicy::Strict,
                threads,
                None,
                &Recorder::disabled(),
                None,
            )
            .unwrap_err();
            assert_eq!(err.to_string(), seq_err.to_string(), "threads {threads}");
        }
    }

    #[test]
    fn segment_counter_is_recorded() {
        let data = hostile_corpus();
        let rec = Recorder::new();
        ingest_slice_traced(&data, IngestPolicy::Lenient, 4, None, &rec, None).unwrap();
        assert!(rec.counters().get("ingest.segments").copied() >= Some(1));
    }
}
