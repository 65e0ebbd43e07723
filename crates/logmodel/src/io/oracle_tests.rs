//! Differential tests of the line parser and the block renderer against the
//! straightforward reference implementations they replaced: `splitn` and
//! `str::parse` for reading, `write!` into a `String` for writing. Both must
//! agree byte for byte and error for error.

use super::*;
use proptest::prelude::*;

/// Reference parser: the `splitn(7, '\t')` reading of one line.
fn oracle_parse_line(line: &str, lineno: usize) -> Result<LogEntry, IoFormatError> {
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
        statement: oracle_unescape(statement),
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

/// Reference unescape: char by char.
fn oracle_unescape(field: &str) -> String {
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

/// Reference line loop: byte-at-a-time line search around
/// [`oracle_parse_line`], with the accounting of [`scan_log_slice`].
fn oracle_scan(data: &[u8], policy: IngestPolicy) -> SegmentOutcome {
    let mut out = SegmentOutcome::default();
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
            Ok(text) => oracle_parse_line(text, lineno),
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
                out.quarantine.extend_from_slice(with_term);
            }
            Err(e) => {
                out.error = Some(e);
                return out;
            }
        }
    }
    out
}

/// Reference renderer: `write!` into a `String`.
fn oracle_render(entries: &[LogEntry]) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut buf = String::new();
    for e in entries {
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
        for c in e.statement.chars() {
            match c {
                '\\' => buf.push_str("\\\\"),
                '\t' => buf.push_str("\\t"),
                '\n' => buf.push_str("\\n"),
                '\r' => buf.push_str("\\r"),
                c => buf.push(c),
            }
        }
        buf.push('\n');
    }
    buf.into_bytes()
}

/// Both results name the same entry, or the same error (its text carries
/// the kind, the line number and the message).
fn same_result(a: &Result<LogEntry, IoFormatError>, b: &Result<LogEntry, IoFormatError>) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => a.to_string() == b.to_string(),
        _ => false,
    }
}

fn same_outcome(a: &SegmentOutcome, b: &SegmentOutcome) -> bool {
    a.entries == b.entries
        && a.stats == b.stats
        && a.quarantine == b.quarantine
        && a.physical_lines == b.physical_lines
        && a.error.as_ref().map(ToString::to_string) == b.error.as_ref().map(ToString::to_string)
}

/// A numeric field: plain digits around the 18-digit fast-path limit and the
/// `u64`/`i64` overflow points, signs, leading zeros, junk and emptiness.
fn number_field() -> impl Strategy<Value = String> {
    prop_oneof![
        8 => "[0-9]{1,18}",
        2 => "[0-9]{19,20}",
        2 => "0{1,6}[0-9]{0,16}",
        2 => "[+-][0-9]{0,20}",
        1 => "[0-9]{0,5}[ a-z.:\\-]{1,2}[0-9]{0,4}",
        1 => Just(String::new()),
        1 => prop_oneof![
            Just(u64::MAX.to_string()),
            Just("18446744073709551616".to_string()),
            Just(i64::MAX.to_string()),
            Just(i64::MIN.to_string()),
            Just("9223372036854775808".to_string()),
            Just("-9223372036854775809".to_string()),
            Just("999999999999999999".to_string()),
            Just("1000000000000000000".to_string()),
        ],
    ]
}

/// A truth field: empty, well-formed, or broken in each way the parser
/// distinguishes.
fn truth_field() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => Just(String::new()),
        3 => ("(human|webui|stifle_dw|cth_followup|snc)", number_field())
            .prop_map(|(kind, group)| format!("{kind}:{group}")),
        1 => "(human|bogus|Human)",
        1 => "(bogus|human:|:)[0-9]{0,3}",
        1 => "[a-z_]{0,8}:[a-z0-9:]{0,4}",
    ]
}

/// A free-text field: tabs, CRs, backslash escapes and non-ASCII text.
fn text_field() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9.]{0,12}",
        ".{0,12}",
        "(\\\\[tnr\\\\xé]|[a-z ]|é|日|\t|\r){0,24}",
        Just(String::new()),
    ]
}

/// One line: seven fields, each followed by a separator that is usually one
/// tab but sometimes none (a missing field) or two (an extra tab). One line
/// in five is cut short anywhere, which drops trailing fields.
fn line_strategy() -> impl Strategy<Value = String> {
    (whole_line_strategy(), 0..5u8, any::<usize>()).prop_map(|(mut line, cut, at)| {
        if cut == 0 {
            let mut at = at % (line.len() + 1);
            while !line.is_char_boundary(at) {
                at -= 1;
            }
            line.truncate(at);
        }
        line
    })
}

fn whole_line_strategy() -> impl Strategy<Value = String> {
    let sep = prop_oneof![16 => Just("\t"), 1 => Just(""), 1 => Just("\t\t")];
    (
        number_field(),
        number_field(),
        text_field(),
        text_field(),
        prop_oneof![Just(String::new()), number_field()],
        truth_field(),
        text_field(),
        prop::collection::vec(sep, 6),
    )
        .prop_map(|(id, ts, user, session, rows, truth, statement, seps)| {
            let fields = [id, ts, user, session, rows, truth, statement];
            let mut line = String::new();
            for (k, field) in fields.iter().enumerate() {
                line.push_str(field);
                if let Some(sep) = seps.get(k) {
                    line.push_str(sep);
                }
            }
            line
        })
}

/// A document of lines with mixed terminators, blank lines, a missing final
/// terminator and the odd invalid UTF-8 byte.
fn document_strategy() -> impl Strategy<Value = Vec<u8>> {
    let term =
        prop_oneof![6 => Just("\n"), 1 => Just("\r\n"), 1 => Just("\r\r\n"), 1 => Just("\n\n")];
    let damage = prop_oneof![9 => Just(None), 1 => Just(Some(0xFFu8))];
    prop::collection::vec((line_strategy(), term, damage, any::<usize>()), 0..24).prop_map(
        |lines| {
            let mut doc = Vec::new();
            for (i, (line, term, damage, at)) in lines.iter().enumerate() {
                let mut bytes = line.clone().into_bytes();
                if let Some(b) = damage {
                    bytes.insert(at % (bytes.len() + 1), *b);
                }
                doc.extend_from_slice(&bytes);
                if i + 1 < lines.len() || at % 2 == 0 {
                    doc.extend_from_slice(term.as_bytes());
                }
            }
            doc
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn line_parser_matches_the_splitn_oracle(line in line_strategy(), lineno in 1usize..100) {
        let new = parse_line(&line, lineno);
        let old = oracle_parse_line(&line, lineno);
        prop_assert!(same_result(&new, &old), "{line:?}: {new:?} vs {old:?}");
    }

    #[test]
    fn line_scan_matches_the_oracle_scan(doc in document_strategy()) {
        for policy in [IngestPolicy::Strict, IngestPolicy::Lenient] {
            let new = scan_log_slice(&doc, policy, true);
            let old = oracle_scan(&doc, policy);
            prop_assert!(same_outcome(&new, &old), "{policy:?} {doc:?}");
        }
    }
}

#[test]
fn numeric_edges_match_the_oracle() {
    let numbers = [
        "0",
        "00",
        "007",
        "+7",
        "-7",
        "-0",
        "+",
        "-",
        "",
        " 7",
        "7 ",
        "999999999999999999",
        "000000000000000000",
        "1000000000000000000",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999",
        "0000000000000000000000000001",
        "1e3",
        "٣",
    ];
    for n in numbers {
        for line in [
            format!("{n}\t0\t\t\t\t\tSELECT 1"),
            format!("0\t{n}\t\t\t\t\tSELECT 1"),
            format!("0\t0\t\t\t{n}\t\tSELECT 1"),
            format!("0\t0\t\t\t\thuman:{n}\tSELECT 1"),
        ] {
            let (new, old) = (parse_line(&line, 3), oracle_parse_line(&line, 3));
            assert!(same_result(&new, &old), "{line:?}: {new:?} vs {old:?}");
        }
    }
}

#[test]
fn unescape_matches_the_oracle() {
    for s in [
        "",
        "plain",
        "\\",
        "\\\\",
        "\\\\\\",
        "a\\tb\\nc\\rd\\\\e",
        "tail\\",
        "\\x\\é\\日",
        "é\\t日\\",
        "\\\\t",
        "with \\ one",
    ] {
        assert_eq!(unescape(s), oracle_unescape(s), "{s:?}");
    }
}

#[test]
fn find_byte_finds_the_first_match_at_every_offset() {
    for len in 0..40usize {
        for at in 0..=len {
            // Neighbours of the needle's value (`\t` ^ 1, `\t` + 1,
            // 0x80 | `\t`), and a second needle right after the first.
            let mut hay: Vec<u8> = (0..len)
                .map(|i| [b'\x08', b'\n', b'\x89', b'a'][i % 4])
                .collect();
            if at < len {
                hay[at] = b'\t';
                if at + 1 < len {
                    hay[at + 1] = b'\t';
                }
            }
            let expected = hay.iter().position(|&b| b == b'\t');
            assert_eq!(find_byte(&hay, b'\t'), expected, "len {len} at {at}");
            assert_eq!(find_byte(&hay, 0), hay.iter().position(|&b| b == 0));
        }
    }
    assert_eq!(find_byte(&[0xFF; 17], 0xFF), Some(0));
    assert_eq!(find_byte(&[0; 17], 0), Some(0));
}

/// Entries covering every rendering branch: the `u64`/`i64` extremes,
/// negative timestamps, absent and present optional fields, and statements
/// that need escaping.
fn render_corpus(n: usize) -> Vec<LogEntry> {
    let kinds = [IntentKind::Human, IntentKind::CthFollowUp, IntentKind::Snc];
    let statements = [
        "SELECT 1",
        "SELECT a\nFROM t\tWHERE x = '\\'\r",
        "",
        "SELECT 'é' -- 日",
    ];
    (0..n)
        .map(|i| {
            let signed = i as i64;
            LogEntry {
                id: if i % 5 == 0 {
                    u64::MAX - i as u64
                } else {
                    i as u64
                },
                statement: statements[i % statements.len()].to_string(),
                timestamp: Timestamp::from_millis(match i % 4 {
                    0 => i64::MIN + signed,
                    1 => -signed,
                    2 => i64::MAX - signed,
                    _ => signed * 1_000,
                }),
                user: (i % 3 != 0).then(|| format!("10.0.{}.{}", i % 256, i % 7)),
                session: (i % 4 == 1).then(|| format!("s{i}")),
                rows: (i % 2 == 0).then_some(if i % 6 == 0 { u64::MAX } else { i as u64 }),
                truth: (i % 3 == 1).then(|| GroundTruth {
                    kind: kinds[i % kinds.len()],
                    group: if i % 9 == 1 { u64::MAX } else { i as u64 },
                }),
            }
        })
        .collect()
}

const B: usize = BLOCK_ENTRIES;

#[test]
fn block_renderer_matches_the_oracle_at_every_worker_count() {
    let corpus = render_corpus(3 * B + 7);
    for n in [0, 1, B - 1, B, B + 1, 3 * B + 7] {
        let entries = &corpus[..n];
        let expected = oracle_render(entries);
        for workers in [1, 2, 8] {
            let mut out = Vec::new();
            write_blocks(entries, &mut out, workers).unwrap();
            assert!(out == expected, "{n} entries, {workers} workers");
        }
    }
}

/// Accepts `budget` bytes, then fails every write.
struct FailingWriter {
    budget: usize,
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return Err(io::Error::other("disk full"));
        }
        let n = buf.len().min(self.budget);
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failing_writer_returns_io_error_with_every_worker_joined() {
    let corpus = render_corpus(3 * B + 7);
    let full = oracle_render(&corpus).len();
    // (entries, workers): inline runs, then sharded ones.
    let runs = [
        (B - 1, 1),
        (3 * B + 7, 1),
        (B - 1, 8),
        (3 * B + 7, 2),
        (3 * B + 7, 8),
    ];
    for (n, workers) in runs {
        for budget in [0, 100, full / 2, full - 1] {
            let (done_tx, done_rx) = mpsc::channel();
            let entries = corpus[..n].to_vec();
            // A hang would show as a timeout here, not as a stuck test.
            thread::spawn(move || {
                let result = write_blocks(&entries, FailingWriter { budget }, workers);
                let _ = done_tx.send(result);
            });
            let result = done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{n} entries, {workers} workers: no return"));
            if budget < oracle_render(&corpus[..n]).len() {
                let err = result.expect_err("the writer fails");
                assert!(matches!(err, IoFormatError::Io(_)), "{err}");
            } else {
                result.expect("the whole log fits the budget");
            }
        }
    }
}
