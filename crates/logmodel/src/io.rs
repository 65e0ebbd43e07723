//! On-disk log format: tab-separated values, one entry per line.
//!
//! Column order: `id`, `timestamp_ms`, `user`, `session`, `rows`, `truth`,
//! `statement`. Empty fields encode `None`. The statement comes last and is
//! escaped (`\t`, `\n`, `\r`, `\\`) so multi-line SQL survives. Writing
//! renders blocks of entries on every core and writes them in order
//! ([`write_log`]). Reading takes the whole input into one buffer and parses
//! it with one line parser, [`scan_log_slice`], over the whole buffer or over
//! line-aligned segments ([`segment_ranges`]) merged by [`merge_segments`].

use crate::entry::{GroundTruth, IntentKind, LogEntry};
use crate::log::QueryLog;
use crate::time::Timestamp;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::mpsc;
use std::thread;

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

/// One byte in every lane of a word: `LANES * b` repeats `b` eight times.
const LANES: u64 = u64::from_ne_bytes([0x01; 8]);
/// The low seven bits of every lane.
const LOW7: u64 = u64::from_ne_bytes([0x7F; 8]);

/// Index of the first `needle` in `hay`, eight bytes per step: a word XOR
/// the repeated needle has a zero lane exactly where the needle is, and the
/// carry-free zero-lane test sets the high bit of those lanes only. Word
/// lanes are read little-endian, so the lowest set bit is the first match.
fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    let pattern = LANES * u64::from(needle);
    let mut words = hay.chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ pattern;
        let zero_lanes = !(((x & LOW7) + LOW7) | x | LOW7);
        if zero_lanes != 0 {
            return Some(k * 8 + zero_lanes.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let base = hay.len() - tail.len();
    tail.iter().position(|&b| b == needle).map(|k| base + k)
}

/// Appends `statement` with `\`, tab, newline and CR escaped.
fn escape(statement: &str, out: &mut Vec<u8>) {
    let bytes = statement.as_bytes();
    // Most statements contain nothing to escape; copy those in one go.
    if !bytes
        .iter()
        .any(|&b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
    {
        out.extend_from_slice(bytes);
        return;
    }
    // The escaped bytes are ASCII, so they never occur inside a multi-byte
    // character and a byte-wise rewrite keeps the text valid UTF-8.
    for &b in bytes {
        match b {
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b => out.push(b),
        }
    }
}

/// Undoes [`escape`]. An unknown escape keeps its backslash, and so does a
/// trailing one. The text between backslashes is copied in runs, and a
/// statement without one is copied whole.
fn unescape(field: &str) -> String {
    let bytes = field.as_bytes();
    let Some(mut at) = find_byte(bytes, b'\\') else {
        return field.to_string();
    };
    let mut out = String::with_capacity(field.len());
    let mut run = 0;
    loop {
        // `bytes[at]` is a backslash, and `field[run..at]` has none.
        out.push_str(&field[run..at]);
        let unescaped = match bytes.get(at + 1) {
            Some(b't') => Some('\t'),
            Some(b'n') => Some('\n'),
            Some(b'r') => Some('\r'),
            Some(b'\\') => Some('\\'),
            _ => None,
        };
        out.push(unescaped.unwrap_or('\\'));
        run = at + if unescaped.is_some() { 2 } else { 1 };
        match find_byte(&bytes[run..], b'\\') {
            Some(k) => at = run + k,
            None => {
                out.push_str(&field[run..]);
                return out;
            }
        }
    }
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

/// Entries per render block: about 1 MiB of TSV for a generated
/// SkyServer-like log, whose entries average about 130 bytes.
const BLOCK_ENTRIES: usize = 8192;

/// Writes a log to any writer in the TSV format.
///
/// The entries are rendered in blocks of a fixed entry count on every core
/// the machine offers, and the blocks are written in log order, so the
/// bytes do not depend on the core count. A write error is returned once
/// every render worker has stopped.
pub fn write_log<W: Write>(log: &QueryLog, writer: W) -> Result<(), IoFormatError> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    write_blocks(&log.entries, writer, workers)
}

/// Appends the decimal digits of `v`.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `entry` as one TSV line, terminator included.
fn render_entry(entry: &LogEntry, out: &mut Vec<u8>) {
    push_u64(out, entry.id);
    out.push(b'\t');
    let ms = entry.timestamp.millis();
    if ms < 0 {
        out.push(b'-');
    }
    push_u64(out, ms.unsigned_abs());
    out.push(b'\t');
    if let Some(u) = &entry.user {
        out.extend_from_slice(u.as_bytes());
    }
    out.push(b'\t');
    if let Some(s) = &entry.session {
        out.extend_from_slice(s.as_bytes());
    }
    out.push(b'\t');
    if let Some(r) = entry.rows {
        push_u64(out, r);
    }
    out.push(b'\t');
    if let Some(t) = entry.truth {
        out.extend_from_slice(intent_to_str(t.kind).as_bytes());
        out.push(b':');
        push_u64(out, t.group);
    }
    out.push(b'\t');
    escape(&entry.statement, out);
    out.push(b'\n');
}

fn render_block(block: &[LogEntry], out: &mut Vec<u8>) {
    for entry in block {
        render_entry(entry, out);
    }
}

/// One render worker as the writer sees it: rendered blocks arrive on
/// `filled`, and written buffers go back on `empty` for reuse.
struct Lane {
    filled: mpsc::Receiver<Vec<u8>>,
    empty: mpsc::Sender<Vec<u8>>,
}

/// Spawns worker `k` of `workers`, which renders blocks `k`, `k + workers`,
/// `k + 2 * workers`, … in order. It holds at most one rendered block in its
/// channel and renders the next, so its memory is about two blocks. `None`
/// when the thread cannot be spawned.
fn spawn_lane<'scope>(
    scope: &'scope thread::Scope<'scope, '_>,
    entries: &'scope [LogEntry],
    k: usize,
    workers: usize,
) -> Option<Lane> {
    let (filled_tx, filled) = mpsc::sync_channel(1);
    let (empty, empty_rx) = mpsc::channel::<Vec<u8>>();
    thread::Builder::new()
        .spawn_scoped(scope, move || {
            for block in entries.chunks(BLOCK_ENTRIES).skip(k).step_by(workers) {
                let mut buf = empty_rx.try_recv().unwrap_or_default();
                buf.clear();
                render_block(block, &mut buf);
                if filled_tx.send(buf).is_err() {
                    // The writer failed and returned.
                    return;
                }
            }
        })
        .ok()?;
    Some(Lane { filled, empty })
}

/// Renders `entries` in blocks of [`BLOCK_ENTRIES`] and writes the blocks
/// in order. Block `i` goes to worker `i % workers`; the calling thread
/// receives the blocks in order and writes them. A log under two blocks,
/// or a single worker, renders inline, and so does every block of a
/// worker that could not be spawned. A write error returns at once: the
/// workers see their channel close, stop, and are joined before the
/// return.
fn write_blocks<W: Write>(
    entries: &[LogEntry],
    mut writer: W,
    workers: usize,
) -> Result<(), IoFormatError> {
    let workers = workers.min(entries.len().div_ceil(BLOCK_ENTRIES));
    let mut inline = Vec::new();
    let mut write_inline = |block: &[LogEntry], writer: &mut W| {
        inline.clear();
        render_block(block, &mut inline);
        writer.write_all(&inline)
    };
    if workers < 2 {
        for block in entries.chunks(BLOCK_ENTRIES) {
            write_inline(block, &mut writer)?;
        }
        writer.flush()?;
        return Ok(());
    }
    thread::scope(|scope| {
        let lanes: Vec<Option<Lane>> = (0..workers)
            .map(|k| spawn_lane(scope, entries, k, workers))
            .collect();
        for (i, block) in entries.chunks(BLOCK_ENTRIES).enumerate() {
            let lane = lanes[i % workers].as_ref();
            match lane.and_then(|l| l.filled.recv().ok().map(|buf| (l, buf))) {
                Some((lane, buf)) => {
                    writer.write_all(&buf)?;
                    // The worker may be done; then the buffer just drops.
                    let _ = lane.empty.send(buf);
                }
                // Not spawned, or gone: render its block here.
                None => write_inline(block, &mut writer)?,
            }
        }
        writer.flush()
    })?;
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
        let line_end = match find_byte(&data[pos..], b'\n') {
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

/// The value of a field of 1–18 plain ASCII digits, which fits both `u64`
/// and `i64`. `None` for anything else (a sign, 19 or more digits, other
/// bytes, an empty field): that goes to `str::parse`, so what is accepted,
/// the value and the error text are those of `str::parse` in every case.
fn short_digits(field: &str) -> Option<u64> {
    if field.is_empty() || field.len() > 18 {
        return None;
    }
    field.bytes().try_fold(0u64, |v, b| {
        let digit = b.wrapping_sub(b'0');
        (digit < 10).then(|| v * 10 + u64::from(digit))
    })
}

fn parse_u64(field: &str) -> Result<u64, std::num::ParseIntError> {
    short_digits(field).map_or_else(|| field.parse(), Ok)
}

fn parse_i64(field: &str) -> Result<i64, std::num::ParseIntError> {
    // Below 10^18, so the cast is exact.
    short_digits(field).map_or_else(|| field.parse(), |v| Ok(v as i64))
}

/// Names of the seven fields, in column order.
const FIELDS: [&str; 7] = [
    "id",
    "timestamp",
    "user",
    "session",
    "rows",
    "truth",
    "statement",
];

/// Parses one TSV line into an entry.
///
/// The line splits at its first six tabs, so the statement keeps any later
/// ones. The checks run in a fixed order, and the first to fail names the
/// error: id, the timestamp's presence, timestamp, the presence of the
/// other five fields, truth, rows.
fn parse_line(line: &str, lineno: usize) -> Result<LogEntry, IoFormatError> {
    let malformed = |message: String| IoFormatError::Malformed {
        line: lineno,
        message,
    };
    // Field `k` starts at `starts[k]`, for the `found` fields present.
    let mut starts = [0usize; 7];
    let mut found = 1;
    while found < 7 {
        let from = starts[found - 1];
        match find_byte(&line.as_bytes()[from..], b'\t') {
            Some(k) => starts[found] = from + k + 1,
            None => break,
        }
        found += 1;
    }
    let field = |k: usize| {
        let end = if k + 1 < found {
            starts[k + 1] - 1
        } else {
            line.len()
        };
        &line[starts[k]..end]
    };
    let missing = || malformed(format!("missing field {}", FIELDS[found]));
    let id = parse_u64(field(0)).map_err(|e| malformed(format!("bad id: {e}")))?;
    if found < 2 {
        return Err(missing());
    }
    let ts = parse_i64(field(1)).map_err(|e| malformed(format!("bad timestamp: {e}")))?;
    if found < 7 {
        return Err(missing());
    }
    let (user, session, rows, truth) = (field(2), field(3), field(4), field(5));
    let truth = if truth.is_empty() {
        None
    } else {
        let (kind, group) = truth
            .split_once(':')
            .ok_or_else(|| malformed("truth field must be kind:group".into()))?;
        let kind = intent_from_str(kind)
            .ok_or_else(|| malformed(format!("unknown intent kind {kind:?}")))?;
        let group = parse_u64(group).map_err(|e| malformed(format!("bad truth group: {e}")))?;
        Some(GroundTruth { kind, group })
    };
    let rows = if rows.is_empty() {
        None
    } else {
        Some(parse_u64(rows).map_err(|e| malformed(format!("bad rows: {e}")))?)
    };
    Ok(LogEntry {
        id,
        statement: unescape(field(6)),
        timestamp: Timestamp::from_millis(ts),
        user: (!user.is_empty()).then(|| user.to_string()),
        session: (!session.is_empty()).then(|| session.to_string()),
        rows,
        truth,
    })
}

/// Writes a log to a file path.
pub fn write_log_file(log: &QueryLog, path: impl AsRef<Path>) -> Result<(), IoFormatError> {
    write_log(log, std::fs::File::create(path)?)
}

/// Writes a log to a file path atomically (temp file + fsync + rename): a
/// crash mid-write leaves the destination untouched instead of truncated.
/// The [`crate::AtomicFile`]'s own buffer is the only one: render blocks are
/// larger than it, so they pass straight through to the file.
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
        let mut out = Vec::new();
        escape(nasty, &mut out);
        let out = String::from_utf8(out).unwrap();
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

#[cfg(test)]
mod oracle_tests;
