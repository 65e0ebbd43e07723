//! Text-level normalization used by duplicate detection.
//!
//! The paper defines duplicates as *identical statements* from the same user
//! within a small time window (§5.2). "Identical" is judged on a lightly
//! normalized form — collapsed whitespace, comments removed, case-folded
//! outside string literals — so that a web form that re-submits the same
//! query with different line breaks still counts as a duplicate, while any
//! change to a constant does not.
//!
//! The normalization pass is written once, as a streaming scanner
//! (`normalize_scan`) that feeds a `NormSink`; it is the *definition* of
//! the duplicate identity and nothing else scans statements this way:
//!
//! * [`normalize_sql_text`] collects the stream into a `String` — the
//!   reference semantics, which the property tests hold the fingerprint
//!   to;
//! * [`text_fingerprint`] hashes the stream directly, with no intermediate
//!   `String`; its caller is the §5.2 dedup scan in `sqlog-core`, which
//!   fingerprints every entry.
//!
//! The lexer's scan (`sqlog_sql::lexer::scan`) is the other way statements
//! are read; [`crate::rawkey::raw_shape_scan`] hashes it for the parse
//! cache and solver batching. It is deliberately *not* used for dedup: the
//! lexer keeps trailing semicolons, treats comments as token separators and
//! block comments as nested — all places where the lexer and the duplicate
//! definition disagree.

use crate::fingerprint::{Fingerprint, Fnv1a};

/// Receives the normalized byte stream from [`normalize_scan`].
///
/// `byte` is called once per normalized output byte, in order, with the
/// trailing `;`/space run already trimmed. `str_lit` is called once per
/// single-quoted literal with its verbatim text (including quotes; an
/// unterminated literal arrives without its trailing trimmed run).
trait NormSink {
    fn byte(&mut self, b: u8);

    fn str_lit(&mut self, raw: &str);
}

/// Deferred run of trailing-trimmable bytes (only ever `' '` and `';'`).
///
/// `normalize_sql_text` historically trimmed the trailing `;`/space run by
/// popping the built `String`; a streaming consumer has no string to pop, so
/// the scanner defers any run of poppable bytes and drops whatever is still
/// pending at end of input. The run is inline up to 24 bytes and spills to a
/// heap vector beyond that, so ordinary statements never allocate here.
#[derive(Default)]
struct Tail {
    buf: [u8; 24],
    len: usize,
    spill: Vec<u8>,
}

impl Tail {
    fn push(&mut self, b: u8) {
        if self.len < self.buf.len() {
            self.buf[self.len] = b;
            self.len += 1;
        } else {
            self.spill.push(b);
        }
    }

    fn flush(&mut self, sink: &mut impl NormSink) {
        for i in 0..self.len {
            sink.byte(self.buf[i]);
        }
        for &b in &self.spill {
            sink.byte(b);
        }
        self.len = 0;
        self.spill.clear();
    }
}

/// Runs the normalization scan over `sql`, feeding `sink`.
///
/// Semantics are pinned to the historical `normalize_sql_text`:
///
/// * runs of whitespace collapse to a single space,
/// * `--` and `/* */` comments are dropped (non-nested; an unterminated
///   block comment swallows the rest of the input),
/// * characters outside single-quoted strings are lower-cased,
/// * string literals are preserved byte-for-byte (honoring `''` escapes; an
///   unterminated literal runs to end of input),
/// * leading/trailing whitespace and trailing semicolons are trimmed.
fn normalize_scan(sql: &str, sink: &mut impl NormSink) {
    let bytes = sql.as_bytes();
    let mut i = 0;
    let mut pending_space = false;
    let mut any = false;
    let mut tail = Tail::default();

    // Emits one normalized byte, routing poppable bytes through the tail.
    macro_rules! emit {
        ($b:expr) => {{
            let b: u8 = $b;
            if b == b' ' || b == b';' {
                tail.push(b);
            } else {
                tail.flush(sink);
                sink.byte(b);
            }
        }};
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c => {
                pending_space = any;
                i += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment (the terminating newline, if any, is left for
                // the whitespace arm so it still separates tokens).
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comment (non-nested here: normalization must not
                // fail on malformed input, so an unterminated comment simply
                // swallows the rest).
                i += 2;
                while i < bytes.len() {
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            b'\'' => {
                if pending_space {
                    emit!(b' ');
                    pending_space = false;
                }
                // The string literal is passed through verbatim (as a byte
                // slice, so multi-byte characters survive), honoring ''
                // escapes.
                let start = i;
                i += 1;
                let mut terminated = false;
                while i < bytes.len() {
                    let c = bytes[i];
                    i += 1;
                    if c == b'\'' {
                        if bytes.get(i) == Some(&b'\'') {
                            i += 1;
                        } else {
                            terminated = true;
                            break;
                        }
                    }
                }
                let mut lit = &sql[start..i];
                if !terminated {
                    // An unterminated literal is the final emission, and its
                    // own trailing `;`/space run is subject to the trim (the
                    // string-building path popped through it); split the run
                    // off into the tail so end-of-input drops it.
                    let kept = lit.trim_end_matches([' ', ';']);
                    let (kept, run) = lit.split_at(kept.len());
                    lit = kept;
                    tail.flush(sink);
                    if !lit.is_empty() {
                        sink.str_lit(lit);
                    }
                    for rb in run.bytes() {
                        tail.push(rb);
                    }
                    any = true;
                    continue;
                }
                tail.flush(sink);
                sink.str_lit(lit);
                any = true;
            }
            _ => {
                if pending_space {
                    emit!(b' ');
                    pending_space = false;
                }
                if b < 0x80 {
                    emit!(b.to_ascii_lowercase());
                    any = true;
                    i += 1;
                } else {
                    // A whole multi-byte UTF-8 character passes through
                    // verbatim (case folding beyond ASCII is not needed for
                    // SQL); continuation bytes are ≥ 0x80 so none of them can
                    // be mistaken for a poppable ' ' or ';'.
                    let mut end = i + 1;
                    while end < bytes.len() && (bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    tail.flush(sink);
                    for &cb in &bytes[i..end] {
                        sink.byte(cb);
                    }
                    any = true;
                    i = end;
                }
            }
        }
    }
    // Whatever is still deferred in `tail` is the trailing `;`/space run:
    // dropped.
}

struct StringSink {
    out: Vec<u8>,
}

impl NormSink for StringSink {
    fn byte(&mut self, b: u8) {
        self.out.push(b);
    }

    fn str_lit(&mut self, raw: &str) {
        self.out.extend_from_slice(raw.as_bytes());
    }
}

/// Normalizes raw SQL text for duplicate comparison.
///
/// * runs of whitespace collapse to a single space,
/// * `--` and `/* */` comments are dropped,
/// * characters outside single-quoted strings are lower-cased,
/// * string literals are preserved byte-for-byte,
/// * leading/trailing whitespace and trailing semicolons are trimmed.
pub fn normalize_sql_text(sql: &str) -> String {
    let mut sink = StringSink {
        out: Vec::with_capacity(sql.len()),
    };
    normalize_scan(sql, &mut sink);
    // The scan copies whole UTF-8 characters and only folds ASCII case, so
    // the collected bytes are valid UTF-8 whenever the input was.
    String::from_utf8(sink.out).expect("normalized text is valid UTF-8")
}

struct FnvSink {
    h: Fnv1a,
}

impl NormSink for FnvSink {
    fn byte(&mut self, b: u8) {
        self.h.update(&[b]);
    }

    fn str_lit(&mut self, raw: &str) {
        self.h.update(raw.as_bytes());
    }
}

/// Fingerprint of the normalized text — the duplicate-detection identity.
///
/// Streams the normalization scan straight into the hasher: no intermediate
/// `String` is built, so fingerprinting an entry is a single allocation-free
/// pass. Equal to `Fingerprint::of_str(&normalize_sql_text(sql))` by
/// construction (both consume the same sink stream).
pub fn text_fingerprint(sql: &str) -> Fingerprint {
    let mut sink = FnvSink { h: Fnv1a::new() };
    normalize_scan(sql, &mut sink);
    sink.h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collapses_whitespace_and_case() {
        assert_eq!(
            normalize_sql_text("SELECT  a\n FROM\tT  WHERE x=1 ;"),
            "select a from t where x=1"
        );
    }

    #[test]
    fn preserves_string_literals() {
        assert_eq!(
            normalize_sql_text("SELECT 'It''s  HERE' FROM t"),
            "select 'It''s  HERE' from t"
        );
    }

    #[test]
    fn strips_comments() {
        assert_eq!(
            normalize_sql_text("SELECT a -- comment\nFROM t /* block */ WHERE x = 1"),
            "select a from t where x = 1"
        );
    }

    #[test]
    fn reload_variants_share_a_fingerprint() {
        // A web-form reload often differs only in whitespace/casing.
        assert_eq!(
            text_fingerprint("SELECT objid FROM photoprimary WHERE objid = 5"),
            text_fingerprint("select OBJID\n  from PhotoPrimary where objid = 5")
        );
    }

    #[test]
    fn different_constants_differ() {
        assert_ne!(
            text_fingerprint("SELECT a FROM t WHERE x = 1"),
            text_fingerprint("SELECT a FROM t WHERE x = 2")
        );
    }

    #[test]
    fn preserves_multibyte_characters() {
        assert_eq!(
            normalize_sql_text("SELECT Größe FROM Tabelle -- ¡hola!"),
            "select gröSSe from tabelle".replace("SS", "ß")
        );
        // Idempotence on non-ASCII input.
        let once = normalize_sql_text("¡SELECT α FROM t!");
        assert_eq!(normalize_sql_text(&once), once);
    }

    #[test]
    fn survives_malformed_input() {
        // Normalization is used *before* parsing; it must accept anything.
        assert_eq!(normalize_sql_text("/* unterminated"), "");
        assert_eq!(normalize_sql_text("'unterminated"), "'unterminated");
        assert_eq!(normalize_sql_text(""), "");
        assert_eq!(normalize_sql_text("   "), "");
    }

    /// The streaming fingerprint must equal hashing the built string — the
    /// contract that lets dedup skip the allocation.
    #[test]
    fn streaming_fingerprint_matches_string_path() {
        let cases = [
            "SELECT  a\n FROM\tT  WHERE x=1 ;",
            "SELECT 'It''s  HERE' FROM t",
            "SELECT a -- comment\nFROM t /* block */ WHERE x = 1",
            "SELECT Größe FROM Tabelle -- ¡hola!",
            "/* unterminated",
            "'unterminated",
            "'unterminated trailing ; ; ",
            "",
            "   ",
            ";",
            " ; ; ;",
            "x ; ; ;",
            ";;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;;x",
            "SELECT 1;--comment",
            "SELECT 1 /* x /* y */ z */",
            "a/*c*/b",
            "a--c\nb",
            "[A  B] = 'q;' ; ",
        ];
        for sql in cases {
            assert_eq!(
                text_fingerprint(sql),
                Fingerprint::of_str(&normalize_sql_text(sql)),
                "fingerprint mismatch for {sql:?}"
            );
        }
    }
}
