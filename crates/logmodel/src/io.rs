//! On-disk log format: tab-separated values, one entry per line.
//!
//! Column order: `id`, `timestamp_ms`, `user`, `session`, `rows`, `truth`,
//! `statement`. Empty fields encode `None`. The statement comes last and is
//! escaped (`\t`, `\n`, `\r`, `\\`) so multi-line SQL survives. Writing is
//! buffered. Reading takes the whole input into one buffer and parses it with
//! one line parser, [`scan_log_slice`], over the whole buffer or over
//! line-aligned segments ([`segment_ranges`]) merged by [`merge_segments`].

use crate::entry::{GroundTruth, IntentKind, LogEntry};
use crate::log::QueryLog;
use crate::time::Timestamp;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Errors from log I/O.
#[derive(Debug)]
pub enum IoFormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (1-based line number and description).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A line that is not valid UTF-8 (1-based line number).
    ///
    /// Distinct from [`IoFormatError::Malformed`] so that lenient readers
    /// can count encoding damage separately from structural damage, and so
    /// strict callers get a precise diagnostic.
    InvalidUtf8 {
        /// 1-based line number.
        line: usize,
    },
}

impl IoFormatError {
    /// True for per-line data faults (malformed or mis-encoded lines) that a
    /// lenient reader can skip; false for real I/O failures, which abort
    /// reading under every policy.
    pub fn is_data_fault(&self) -> bool {
        matches!(
            self,
            IoFormatError::Malformed { .. } | IoFormatError::InvalidUtf8 { .. }
        )
    }
}

impl std::fmt::Display for IoFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoFormatError::Io(e) => write!(f, "I/O error: {e}"),
            IoFormatError::Malformed { line, message } => {
                write!(f, "malformed log line {line}: {message}")
            }
            IoFormatError::InvalidUtf8 { line } => {
                write!(f, "log line {line} is not valid UTF-8")
            }
        }
    }
}

impl std::error::Error for IoFormatError {}

impl From<io::Error> for IoFormatError {
    fn from(e: io::Error) -> Self {
        IoFormatError::Io(e)
    }
}

fn escape(statement: &str, out: &mut String) {
    // Most statements contain nothing to escape; copy those in one go.
    if !statement
        .bytes()
        .any(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
    {
        out.push_str(statement);
        return;
    }
    for c in statement.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

fn unescape(field: &str) -> String {
    // Most statements contain no escapes at all; skip the char-by-char
    // rebuild for them.
    if !field.as_bytes().contains(&b'\\') {
        return field.to_string();
    }
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn intent_to_str(kind: IntentKind) -> &'static str {
    match kind {
        IntentKind::Human => "human",
        IntentKind::WebUi => "webui",
        IntentKind::StifleDw => "stifle_dw",
        IntentKind::StifleDs => "stifle_ds",
        IntentKind::StifleDf => "stifle_df",
        IntentKind::CthSource => "cth_source",
        IntentKind::CthFollowUp => "cth_followup",
        IntentKind::CthCoincidental => "cth_coincidental",
        IntentKind::Sws => "sws",
        IntentKind::Duplicate => "duplicate",
        IntentKind::NonSelect => "non_select",
        IntentKind::Malformed => "malformed",
        IntentKind::Snc => "snc",
    }
}

fn intent_from_str(s: &str) -> Option<IntentKind> {
    Some(match s {
        "human" => IntentKind::Human,
        "webui" => IntentKind::WebUi,
        "stifle_dw" => IntentKind::StifleDw,
        "stifle_ds" => IntentKind::StifleDs,
        "stifle_df" => IntentKind::StifleDf,
        "cth_source" => IntentKind::CthSource,
        "cth_followup" => IntentKind::CthFollowUp,
        "cth_coincidental" => IntentKind::CthCoincidental,
        "sws" => IntentKind::Sws,
        "duplicate" => IntentKind::Duplicate,
        "non_select" => IntentKind::NonSelect,
        "malformed" => IntentKind::Malformed,
        "snc" => IntentKind::Snc,
        _ => return None,
    })
}

/// Writes a log to any writer in the TSV format.
pub fn write_log<W: Write>(log: &QueryLog, writer: W) -> Result<(), IoFormatError> {
    use std::fmt::Write as _;
    let mut w = BufWriter::new(writer);
    let mut buf = String::new();
    for e in &log.entries {
        buf.clear();
        // Formatting into a `String` cannot fail.
        let _ = write!(buf, "{}\t{}\t", e.id, e.timestamp.millis());
        if let Some(u) = &e.user {
            buf.push_str(u);
        }
        buf.push('\t');
        if let Some(s) = &e.session {
            buf.push_str(s);
        }
        buf.push('\t');
        if let Some(r) = e.rows {
            let _ = write!(buf, "{r}");
        }
        buf.push('\t');
        if let Some(t) = e.truth {
            let _ = write!(buf, "{}:{}", intent_to_str(t.kind), t.group);
        }
        buf.push('\t');
        escape(&e.statement, &mut buf);
        buf.push('\n');
        w.write_all(buf.as_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a log from any reader in the TSV format, aborting on the first
/// malformed line (strict policy).
pub fn read_log<R: Read>(reader: R) -> Result<QueryLog, IoFormatError> {
    read_log_with(reader, IngestPolicy::Strict, None).map(|(log, _)| log)
}

/// How ingestion treats per-line data faults (malformed fields, invalid
/// UTF-8).
///
/// Raw logs at SkyServer scale are hostile: truncated writes, encoding
/// damage and tool glitches are routine in tens of millions of lines, and a
/// cleaning framework that aborts on the first bad byte never finishes a
/// real run. The strict policy pins the historical fail-fast behavior; the
/// lenient policy trades it for run-to-completion with full accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestPolicy {
    /// Abort on the first bad line (the historical behavior).
    #[default]
    Strict,
    /// Skip bad lines, optionally copying them to a quarantine sidecar, and
    /// report counts.
    Lenient,
}

/// Accounting from one [`read_log_with`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Non-blank lines examined.
    pub lines: usize,
    /// Entries successfully parsed.
    pub entries: usize,
    /// Lines skipped as unreadable (lenient mode only; strict aborts
    /// instead). Always `malformed + invalid_utf8`.
    pub quarantined: usize,
    /// Quarantined lines with structural damage (bad field count/values).
    pub malformed: usize,
    /// Quarantined lines that were not valid UTF-8.
    pub invalid_utf8: usize,
}

/// Reads a log under an explicit [`IngestPolicy`]: the reader is read to
/// its end and the bytes are scanned by [`scan_log_slice`].
///
/// Under [`IngestPolicy::Lenient`], lines that fail to parse are skipped
/// and counted instead of aborting the read; when `quarantine` is given,
/// each skipped line's raw bytes are copied to it byte-verbatim, including
/// the original line terminator (`\n` or `\r\n`; a terminator-less final
/// line is copied as-is), so the damage can be inspected or repaired and
/// re-ingested later without the sidecar itself rewriting anything. Real
/// I/O errors abort under both policies.
pub fn read_log_with<R: Read>(
    mut reader: R,
    policy: IngestPolicy,
    quarantine: Option<&mut dyn Write>,
) -> Result<(QueryLog, IngestStats), IoFormatError> {
    let mut data = Vec::new();
    reader.read_to_end(&mut data)?;
    let scan = scan_log_slice(&data, policy, quarantine.is_some());
    merge_segments(vec![scan], quarantine)
}

/// Result of scanning one in-memory byte segment with [`scan_log_slice`].
///
/// Line numbers inside `error` (and the `lines` statistics) are **local to
/// the segment**: [`merge_segments`] rebases them by the physical line
/// count of the preceding segments.
#[derive(Debug, Default)]
pub struct SegmentOutcome {
    /// Entries parsed, in segment order.
    pub entries: Vec<LogEntry>,
    /// Per-segment ingest accounting.
    pub stats: IngestStats,
    /// Byte-verbatim copies of the quarantined lines, in segment order
    /// (empty unless requested).
    pub quarantine: Vec<u8>,
    /// The data fault that aborted a strict scan, with a segment-local line
    /// number. `None` for completed scans (lenient scans always complete).
    pub error: Option<IoFormatError>,
    /// Physical lines consumed, blank lines included — the rebase offset
    /// for the line numbers of every following segment.
    pub physical_lines: usize,
}

/// Estimated entry capacity for a byte slice: non-blank lines counted in the
/// first 64 KiB, extrapolated by length. Pre-sizing the entry vector this way
/// avoids the log-scale reallocation cascade (a 1 M-entry log otherwise
/// re-copies its entry vector ~20 times while growing). Blank lines produce
/// no entries, so they do not count; and since `0\t0\t\t\t\t\t` (8 bytes)
/// is the shortest valid entry, the estimate never exceeds
/// `data.len() / 8 + 1` whatever the probe saw.
fn estimate_entry_capacity(data: &[u8]) -> usize {
    let probe = &data[..data.len().min(64 * 1024)];
    let lines = probe
        .split(|&b| b == b'\n')
        .filter(|line| line.iter().any(|&b| b != b'\r'))
        .count();
    if lines == 0 {
        return usize::from(!data.is_empty());
    }
    (data.len() / (probe.len() / lines).max(1) + 1).min(data.len() / 8 + 1)
}

/// Scans one in-memory segment of TSV log bytes — the one line parser
/// behind every log reader. Blank lines are skipped silently, line numbers
/// count every physical line, quarantined lines are copied byte-verbatim
/// (terminator included) when `want_quarantine` is set, and a strict scan
/// stops at the first data fault (recorded in [`SegmentOutcome::error`]
/// rather than returned, so [`merge_segments`] can rebase its line number).
///
/// `segment_ranges` guarantees segments start on line boundaries, which is
/// the only precondition: the scans of a file's segments, merged, equal the
/// scan of the whole file.
pub fn scan_log_slice(data: &[u8], policy: IngestPolicy, want_quarantine: bool) -> SegmentOutcome {
    let mut out = SegmentOutcome {
        entries: Vec::with_capacity(estimate_entry_capacity(data)),
        ..SegmentOutcome::default()
    };
    let mut pos = 0usize;
    while pos < data.len() {
        let line_end = match data[pos..].iter().position(|&b| b == b'\n') {
            Some(k) => pos + k + 1,
            None => data.len(),
        };
        let with_term = &data[pos..line_end];
        pos = line_end;
        out.physical_lines += 1;
        let lineno = out.physical_lines;
        let mut end = with_term.len();
        while end > 0 && matches!(with_term[end - 1], b'\n' | b'\r') {
            end -= 1;
        }
        let raw = &with_term[..end];
        if raw.is_empty() {
            continue;
        }
        out.stats.lines += 1;
        let parsed = match std::str::from_utf8(raw) {
            Ok(text) => parse_line(text, lineno),
            Err(_) => Err(IoFormatError::InvalidUtf8 { line: lineno }),
        };
        match parsed {
            Ok(entry) => {
                out.stats.entries += 1;
                out.entries.push(entry);
            }
            Err(e) if policy == IngestPolicy::Lenient && e.is_data_fault() => {
                out.stats.quarantined += 1;
                match &e {
                    IoFormatError::InvalidUtf8 { .. } => out.stats.invalid_utf8 += 1,
                    _ => out.stats.malformed += 1,
                }
                if want_quarantine {
                    out.quarantine.extend_from_slice(with_term);
                }
            }
            Err(e) => {
                out.error = Some(e);
                return out;
            }
        }
    }
    out
}

/// Merges the scans of consecutive segments of one input, in input order,
/// into what one scan of the whole input gives: entries concatenated,
/// statistics summed, quarantined lines appended to `quarantine`. Under the
/// strict policy the earliest segment's fault wins; every segment before it
/// is fault-free, so their physical line count rebases its segment-local
/// line number to the input's.
pub fn merge_segments(
    segments: Vec<SegmentOutcome>,
    mut quarantine: Option<&mut dyn Write>,
) -> Result<(QueryLog, IngestStats), IoFormatError> {
    let mut entries = Vec::with_capacity(segments.iter().map(|s| s.entries.len()).sum());
    let mut stats = IngestStats::default();
    let mut lines_before = 0usize;
    for seg in segments {
        if let Some(e) = seg.error {
            return Err(match e {
                IoFormatError::Malformed { line, message } => IoFormatError::Malformed {
                    line: line + lines_before,
                    message,
                },
                IoFormatError::InvalidUtf8 { line } => IoFormatError::InvalidUtf8 {
                    line: line + lines_before,
                },
                other => other,
            });
        }
        stats.lines += seg.stats.lines;
        stats.entries += seg.stats.entries;
        stats.quarantined += seg.stats.quarantined;
        stats.malformed += seg.stats.malformed;
        stats.invalid_utf8 += seg.stats.invalid_utf8;
        entries.extend(seg.entries);
        if let Some(w) = quarantine.as_deref_mut() {
            w.write_all(&seg.quarantine)?;
        }
        lines_before += seg.physical_lines;
    }
    Ok((QueryLog::from_entries(entries), stats))
}

/// Splits `data` into at most `parts` contiguous byte ranges whose
/// boundaries fall just after a `\n`, so every segment starts at the start
/// of a physical line and [`scan_log_slice`] per segment reproduces the
/// sequential scan. Returns one range for empty input or `parts <= 1`;
/// ranges always cover `0..data.len()` exactly, in order.
pub fn segment_ranges(data: &[u8], parts: usize) -> Vec<std::ops::Range<usize>> {
    let n = data.len();
    if n == 0 || parts <= 1 {
        let whole = 0..n;
        return vec![whole];
    }
    let mut cuts: Vec<usize> = Vec::with_capacity(parts + 1);
    cuts.push(0);
    for k in 1..parts {
        let mut c = (n * k / parts).max(*cuts.last().unwrap()).max(1);
        // Advance to the next line boundary (just past a newline); a cut
        // that reaches the end merges into the final segment.
        while c < n && data[c - 1] != b'\n' {
            c += 1;
        }
        if c > *cuts.last().unwrap() && c < n {
            cuts.push(c);
        }
    }
    cuts.push(n);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Parses one TSV line into an entry.
fn parse_line(line: &str, lineno: usize) -> Result<LogEntry, IoFormatError> {
    let mut fields = line.splitn(7, '\t');
    let mut next = |name: &str| {
        fields.next().ok_or_else(|| IoFormatError::Malformed {
            line: lineno,
            message: format!("missing field {name}"),
        })
    };
    let id: u64 = next("id")?.parse().map_err(|e| IoFormatError::Malformed {
        line: lineno,
        message: format!("bad id: {e}"),
    })?;
    let ts: i64 = next("timestamp")?
        .parse()
        .map_err(|e| IoFormatError::Malformed {
            line: lineno,
            message: format!("bad timestamp: {e}"),
        })?;
    let user = next("user")?;
    let session = next("session")?;
    let rows = next("rows")?;
    let truth = next("truth")?;
    let statement = next("statement")?;
    let truth = if truth.is_empty() {
        None
    } else {
        let (kind, group) = truth
            .split_once(':')
            .ok_or_else(|| IoFormatError::Malformed {
                line: lineno,
                message: "truth field must be kind:group".into(),
            })?;
        let kind = intent_from_str(kind).ok_or_else(|| IoFormatError::Malformed {
            line: lineno,
            message: format!("unknown intent kind {kind:?}"),
        })?;
        let group = group.parse().map_err(|e| IoFormatError::Malformed {
            line: lineno,
            message: format!("bad truth group: {e}"),
        })?;
        Some(GroundTruth { kind, group })
    };
    Ok(LogEntry {
        id,
        statement: unescape(statement),
        timestamp: Timestamp::from_millis(ts),
        user: (!user.is_empty()).then(|| user.to_string()),
        session: (!session.is_empty()).then(|| session.to_string()),
        rows: if rows.is_empty() {
            None
        } else {
            Some(rows.parse().map_err(|e| IoFormatError::Malformed {
                line: lineno,
                message: format!("bad rows: {e}"),
            })?)
        },
        truth,
    })
}

/// Writes a log to a file path.
pub fn write_log_file(log: &QueryLog, path: impl AsRef<Path>) -> Result<(), IoFormatError> {
    write_log(log, std::fs::File::create(path)?)
}

/// Writes a log to a file path atomically (temp file + fsync + rename): a
/// crash mid-write leaves the destination untouched instead of truncated.
pub fn write_log_file_atomic(log: &QueryLog, path: impl AsRef<Path>) -> Result<(), IoFormatError> {
    let mut f = crate::atomic::AtomicFile::create(path)?;
    write_log(log, &mut f)?;
    f.commit()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::IntentKind;

    fn sample_log() -> QueryLog {
        QueryLog::from_entries(vec![
            LogEntry::minimal(0, "SELECT a\nFROM t\tWHERE x = 1", Timestamp::from_secs(10))
                .with_user("10.1.2.3")
                .with_rows(5)
                .with_truth(IntentKind::Human, 1),
            LogEntry::minimal(1, "SELECT 'tab\\here'", Timestamp::from_millis(10_500)),
        ])
    }

    #[test]
    fn round_trips_through_bytes() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(&buf[..]).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn statement_escaping_round_trips() {
        let nasty = "line1\nline2\ttab \\ backslash\rcr";
        let mut out = String::new();
        escape(nasty, &mut out);
        assert!(!out.contains('\n'));
        assert!(!out.contains('\t'));
        assert_eq!(unescape(&out), nasty);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            read_log("not-a-number\t0\t\t\t\t\tSELECT 1\n".as_bytes()),
            Err(IoFormatError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            read_log("0\t0\t\t\t\n".as_bytes()),
            Err(IoFormatError::Malformed { .. })
        ));
        assert!(matches!(
            read_log("0\t0\t\t\t\tbadtruth\tSELECT 1\n".as_bytes()),
            Err(IoFormatError::Malformed { .. })
        ));
    }

    #[test]
    fn entry_capacity_estimate_skips_blank_lines_and_is_bounded() {
        // The bound's premise: the shortest valid entry is 8 bytes.
        assert!(parse_line("0\t0\t\t\t\t\t", 1).is_ok());
        let entries = b"0\t0\tu\t\t\t\tSELECT 1\n".repeat(10_000);
        // A blank-line prefix filling the probe predicts no entries.
        let mut blank_prefixed = b"\n".repeat(64 * 1024);
        blank_prefixed.extend_from_slice(&entries);
        assert_eq!(estimate_entry_capacity(&blank_prefixed), 1);
        // Blank and CR-only lines inside the probe are not counted: the
        // estimate tracks the 10k entries (rounding inflates it a little),
        // not the 30k physical lines.
        let mut mixed = Vec::new();
        for _ in 0..10_000 {
            mixed.extend_from_slice(b"\n\r\n0\t0\tu\t\t\t\tSELECT 1\r\n");
        }
        let estimate = estimate_entry_capacity(&mixed);
        assert!((10_000..=11_000).contains(&estimate), "{estimate}");
        // Tiny non-entry lines cannot push the estimate past the bound.
        for data in [
            b"x\n".repeat(100_000),
            b"\r\n".repeat(5),
            entries,
            Vec::new(),
        ] {
            assert!(estimate_entry_capacity(&data) <= data.len() / 8 + 1);
        }
        assert_eq!(estimate_entry_capacity(&b"x\n".repeat(100_000)), 25_001);
    }

    #[test]
    fn skips_blank_lines() {
        let log = read_log("\n0\t0\t\t\t\t\tSELECT 1\n\n".as_bytes()).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn all_intents_round_trip() {
        for kind in [
            IntentKind::Human,
            IntentKind::WebUi,
            IntentKind::StifleDw,
            IntentKind::StifleDs,
            IntentKind::StifleDf,
            IntentKind::CthSource,
            IntentKind::CthFollowUp,
            IntentKind::CthCoincidental,
            IntentKind::Sws,
            IntentKind::Duplicate,
            IntentKind::NonSelect,
            IntentKind::Malformed,
            IntentKind::Snc,
        ] {
            assert_eq!(intent_from_str(intent_to_str(kind)), Some(kind));
        }
    }

    #[test]
    fn lenient_read_reports_bad_lines_and_continues() {
        let data = "0\t0\t\t\t\t\tSELECT 1\nbroken line\n1\t5\t\t\t\t\tSELECT 2\n";
        let (log, stats) = read_log_with(data.as_bytes(), IngestPolicy::Lenient, None).unwrap();
        let statements: Vec<&str> = log.entries.iter().map(|e| e.statement.as_str()).collect();
        assert_eq!(statements, ["SELECT 1", "SELECT 2"]);
        assert_eq!((stats.lines, stats.malformed), (3, 1));
    }

    #[test]
    fn invalid_utf8_yields_typed_error_and_reader_continues() {
        // A single 0xFF byte is one InvalidUtf8 fault for that line: strict
        // reads name the line, lenient reads skip it and go on with the next.
        let mut data = Vec::new();
        data.extend_from_slice(b"0\t0\t\t\t\t\tSELECT 1\n");
        data.extend_from_slice(b"1\t5\t\xFF\t\t\t\tSELECT 2\n");
        data.extend_from_slice(b"2\t9\t\t\t\t\tSELECT 3\n");
        assert!(matches!(
            read_log(&data[..]),
            Err(IoFormatError::InvalidUtf8 { line: 2 })
        ));
        let (log, stats) = read_log_with(&data[..], IngestPolicy::Lenient, None).unwrap();
        let statements: Vec<&str> = log.entries.iter().map(|e| e.statement.as_str()).collect();
        assert_eq!(statements, ["SELECT 1", "SELECT 3"]);
        assert_eq!((stats.quarantined, stats.invalid_utf8), (1, 1));
    }

    /// Yields its bytes, then fails: an input that breaks mid-stream.
    struct FailingReader<'a>(&'a [u8]);

    impl Read for FailingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.is_empty() {
                return Err(io::Error::other("device lost"));
            }
            let n = buf.len().min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn io_error_mid_stream_aborts_under_both_policies() {
        // The input is read to its end before any line is parsed, so the
        // I/O error wins over the malformed line before it, even strictly.
        let data = b"0\t0\t\t\t\t\tSELECT 1\ngarbage\n1\t5\t\t\t\t\tSELECT 2\n";
        for policy in [IngestPolicy::Strict, IngestPolicy::Lenient] {
            let mut sidecar = Vec::new();
            let err = read_log_with(FailingReader(data), policy, Some(&mut sidecar)).unwrap_err();
            assert!(matches!(err, IoFormatError::Io(_)), "{policy:?}: {err}");
            assert!(!err.is_data_fault());
        }
    }

    #[test]
    fn lenient_ingest_quarantines_bad_lines_with_exact_counts() {
        let mut data = Vec::new();
        data.extend_from_slice(b"0\t0\t\t\t\t\tSELECT 1\n");
        data.extend_from_slice(b"garbage without tabs\n");
        data.extend_from_slice(b"\n"); // blank: skipped silently, not counted
        data.extend_from_slice(b"1\t5\t\xFFbad\t\t\t\tSELECT 2\n");
        data.extend_from_slice(b"2\t9\t\t\t\t\tSELECT 3\n");
        data.extend_from_slice(b"not-a-number\t0\t\t\t\t\tSELECT 4\n");
        let mut sidecar = Vec::new();
        let (log, stats) =
            read_log_with(&data[..], IngestPolicy::Lenient, Some(&mut sidecar)).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(
            stats,
            IngestStats {
                lines: 5,
                entries: 2,
                quarantined: 3,
                malformed: 2,
                invalid_utf8: 1,
            }
        );
        // The sidecar holds the raw offending lines, byte for byte.
        let mut expected = Vec::new();
        expected.extend_from_slice(b"garbage without tabs\n");
        expected.extend_from_slice(b"1\t5\t\xFFbad\t\t\t\tSELECT 2\n");
        expected.extend_from_slice(b"not-a-number\t0\t\t\t\t\tSELECT 4\n");
        assert_eq!(sidecar, expected);
    }

    #[test]
    fn quarantine_preserves_crlf_and_missing_terminators_byte_verbatim() {
        // CRLF lines must keep their `\r\n` and a terminator-less final line
        // must not gain one: the sidecar is a byte-exact copy of the damage,
        // as the repair-and-re-ingest contract documents.
        let mut data = Vec::new();
        data.extend_from_slice(b"crlf garbage\r\n");
        data.extend_from_slice(b"0\t0\t\t\t\t\tSELECT 1\r\n"); // good CRLF line
        data.extend_from_slice(b"last line, no newline");
        let mut sidecar = Vec::new();
        let (log, stats) =
            read_log_with(&data[..], IngestPolicy::Lenient, Some(&mut sidecar)).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(stats.quarantined, 2);
        let mut expected = Vec::new();
        expected.extend_from_slice(b"crlf garbage\r\n");
        expected.extend_from_slice(b"last line, no newline");
        assert_eq!(sidecar, expected);
    }

    #[test]
    fn strict_ingest_aborts_on_first_bad_line() {
        let data = "0\t0\t\t\t\t\tSELECT 1\nbroken\n1\t5\t\t\t\t\tSELECT 2\n";
        let err = read_log_with(data.as_bytes(), IngestPolicy::Strict, None).unwrap_err();
        assert!(matches!(err, IoFormatError::Malformed { line: 2, .. }));
        // read_log is the strict wrapper.
        assert!(read_log(data.as_bytes()).is_err());
    }

    /// Each way a field can be malformed, with the exact message and line
    /// number both readers report for it (the bad line is line 2).
    #[test]
    fn malformed_fields_report_exact_text_and_line() {
        let cases: &[(&str, &str)] = &[
            ("7", "missing field timestamp"),
            ("7\t0", "missing field user"),
            ("7\t0\tu", "missing field session"),
            ("7\t0\tu\ts", "missing field rows"),
            ("7\t0\tu\ts\t", "missing field truth"),
            ("7\t0\tu\ts\t\t", "missing field statement"),
            (
                "x7\t0\t\t\t\t\tSELECT 1",
                "bad id: invalid digit found in string",
            ),
            (
                "7\t\t\t\t\t\tSELECT 1",
                "bad timestamp: cannot parse integer from empty string",
            ),
            (
                "7\t0\t\t\t\thuman\tSELECT 1",
                "truth field must be kind:group",
            ),
            (
                "7\t0\t\t\t\tbogus:1\tSELECT 1",
                "unknown intent kind \"bogus\"",
            ),
            (
                "7\t0\t\t\t\thuman:x\tSELECT 1",
                "bad truth group: invalid digit found in string",
            ),
            (
                "7\t0\t\t\t-1\t\tSELECT 1",
                "bad rows: invalid digit found in string",
            ),
        ];
        for (line, message) in cases {
            let data = format!("0\t0\t\t\t\t\tSELECT 0\n{line}\n");
            let expected = format!("malformed log line 2: {message}");
            let err = read_log(data.as_bytes()).unwrap_err();
            assert!(
                matches!(err, IoFormatError::Malformed { line: 2, .. }),
                "{line:?}"
            );
            assert_eq!(err.to_string(), expected, "{line:?}");
            let out = scan_log_slice(data.as_bytes(), IngestPolicy::Strict, false);
            let slice_err = out.error.expect("strict scan stops at the bad line");
            assert_eq!(slice_err.to_string(), expected, "{line:?}");
        }
    }

    #[test]
    fn lenient_ingest_of_clean_input_matches_strict() {
        let log = sample_log();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let (back, stats) = read_log_with(&buf[..], IngestPolicy::Lenient, None).unwrap();
        assert_eq!(back, log);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.entries, log.len());
    }

    /// A hostile corpus: good lines, CRLF, blanks, structural damage,
    /// encoding damage, a terminator-less tail.
    fn hostile_corpus() -> Vec<u8> {
        let mut data = Vec::new();
        data.extend_from_slice(b"0\t0\t\t\t\t\tSELECT 1\n");
        data.extend_from_slice(b"garbage without tabs\n");
        data.extend_from_slice(b"\n");
        data.extend_from_slice(b"1\t5\t\xFFbad\t\t\t\tSELECT 2\n");
        data.extend_from_slice(b"crlf garbage\r\n");
        data.extend_from_slice(b"2\t9\t\t\t\t\tSELECT 3\r\n");
        data.extend_from_slice(b"not-a-number\t0\t\t\t\t\tSELECT 4\n");
        data.extend_from_slice(b"3\t11\t\t\t\t\tSELECT a\\nFROM t\n");
        data.extend_from_slice(b"last line, no newline");
        data
    }

    #[test]
    fn segment_ranges_cover_and_start_on_line_boundaries() {
        let data = hostile_corpus();
        for parts in [1usize, 2, 3, 5, 8, 64] {
            let ranges = segment_ranges(&data, parts);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "parts {parts}");
                assert!(r.start == 0 || data[r.start - 1] == b'\n', "parts {parts}");
                next = r.end;
            }
            assert_eq!(next, data.len(), "parts {parts}");
        }
        assert_eq!(segment_ranges(b"", 4), vec![0..0]);
        assert_eq!(segment_ranges(b"no newline at all", 4), vec![0..17]);
    }

    #[test]
    fn merged_segments_equal_the_whole_scan() {
        let data = hostile_corpus();
        let scan = |policy: IngestPolicy, parts: usize| {
            let segments = segment_ranges(&data, parts)
                .into_iter()
                .map(|r| scan_log_slice(&data[r], policy, true))
                .collect();
            let mut quarantine = Vec::new();
            merge_segments(segments, Some(&mut quarantine))
                .map(|(log, stats)| (log, stats, quarantine))
        };
        let (log, stats, quarantine) = scan(IngestPolicy::Lenient, 1).unwrap();
        assert_eq!(stats.lines, 8);
        assert_eq!(log.len(), 3);
        let strict = scan(IngestPolicy::Strict, 1).unwrap_err().to_string();
        assert!(strict.starts_with("malformed log line 2:"), "{strict}");
        for parts in [2usize, 3, 4, 8] {
            let (l, s, q) = scan(IngestPolicy::Lenient, parts).unwrap();
            assert_eq!(l, log, "parts {parts}");
            assert_eq!(s, stats, "parts {parts}");
            assert_eq!(q, quarantine, "parts {parts}");
            let err = scan(IngestPolicy::Strict, parts).unwrap_err();
            assert_eq!(err.to_string(), strict, "parts {parts}");
        }
    }

    #[test]
    fn unescape_fast_path_agrees_with_escaped_path() {
        for s in [
            "plain statement",
            "",
            "with \\ one",
            "a\\tb\\nc\\rd\\\\e",
            "tail\\",
        ] {
            let slow = {
                // Reference: the historical char-by-char behavior.
                let mut out = String::new();
                let mut chars = s.chars();
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        match chars.next() {
                            Some('t') => out.push('\t'),
                            Some('n') => out.push('\n'),
                            Some('r') => out.push('\r'),
                            Some('\\') => out.push('\\'),
                            Some(other) => {
                                out.push('\\');
                                out.push(other);
                            }
                            None => out.push('\\'),
                        }
                    } else {
                        out.push(c);
                    }
                }
                out
            };
            assert_eq!(unescape(s), slow, "{s:?}");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("sqlog_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        let log = sample_log();
        write_log_file(&log, &path).unwrap();
        assert_eq!(read_log(std::fs::File::open(&path).unwrap()).unwrap(), log);
        std::fs::remove_file(&path).ok();
    }
}
