//! Raw shape keys: the one lexer-mirroring literal scanner.
//!
//! [`raw_shape_scan`] has two callers in `sqlog-core`, and both trust its
//! literal spans:
//!
//! * the parse cache (`parse_cache::ShapeCache`) uses the [`RawKey`] as its
//!   Level-1 key and re-extracts literal-dependent facts from the spans;
//! * solver batching (`solve::batch::QueryCache`) hashes the raw bytes
//!   *between* the spans into a case- and whitespace-sensitive key and
//!   substitutes the span texts into a certified template.
//!
//! The conformance harness's metamorphic checks use it to find literals to
//! perturb. Dedup does not: duplicate identity is defined by
//! [`crate::normalize`], whose scan differs from the lexer on purpose.
//!
//! [`raw_shape_scan`] makes one allocation-free pass over a statement's raw
//! bytes and produces a [`RawKey`]: an FNV-1a hash of the *normalized byte
//! stream* (whitespace and comments collapsed, words lower-cased, literals
//! replaced by placeholder bytes) plus the stream length and the literal
//! count. Two statements with equal keys lex to the same token sequence
//! modulo literal text, so they parse to the same AST shape and therefore
//! the same [`crate::QueryTemplate`] — that is the soundness property the
//! parse cache in `sqlog-core` relies on (and property tests pin down).
//!
//! The scan mirrors the `sqlog-sql` lexer's token boundaries exactly:
//!
//! * whitespace and comments become at most one separator byte, emitted
//!   only where the neighboring bytes could otherwise fuse into a
//!   different token (`a b` vs `ab`, `< =` vs `<=`);
//! * numbers (including hex, decimal and exponent forms) collapse to
//!   [`RAW_NUM`], strings to [`RAW_STR`] — their source spans are recorded
//!   in `literals` so the cache can re-extract literal-dependent facts
//!   without re-parsing;
//! * `[x]`- and `"x"`-quoted identifiers normalize to one delimiter pair
//!   ([`RAW_QUOTE_OPEN`] / [`RAW_QUOTE_CLOSE`]) so they never collide with
//!   unquoted words (a quoted keyword is not a keyword);
//! * lexer-level foldings are reproduced: `==` emits `=`, both `<>` and
//!   `!=` emit `<>`, keywords and identifiers are ASCII-lowercased.
//!
//! The placeholder and delimiter bytes live in `0xF8..=0xFB`, a range that
//! cannot occur in valid UTF-8 input, so no raw input byte can forge them.
//!
//! Inputs the lexer would reject in a *position-dependent* way (unterminated
//! strings, block comments or quoted identifiers, a bare `@`) return `None`:
//! the caller falls back to a full parse. Other lexer errors (stray `!`, an
//! unexpected character) are fine to key — the offending byte is emitted
//! verbatim, so equal streams fail identically.

use crate::fingerprint::Fnv1a;

/// Placeholder byte for a numeric literal.
pub const RAW_NUM: u8 = 0xF8;
/// Placeholder byte for a string literal.
pub const RAW_STR: u8 = 0xF9;
/// Delimiter byte opening a quoted identifier.
pub const RAW_QUOTE_OPEN: u8 = 0xFA;
/// Delimiter byte closing a quoted identifier.
pub const RAW_QUOTE_CLOSE: u8 = 0xFB;

/// The literal-normalized shape key of one statement.
///
/// Collision safety by construction: the key carries the full normalized
/// stream hash *and* the stream length *and* the literal count, so two
/// statements only share a key if their normalized streams collide at
/// equal length — a 64-bit FNV-1a collision, negligible at the ~10^5
/// distinct shapes a real log produces, and additionally cross-checked by
/// sampled full parses in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RawKey {
    /// FNV-1a over the normalized byte stream.
    pub hash: u64,
    /// Length of the normalized byte stream.
    pub len: u32,
    /// Number of literals (numbers + strings) collapsed into placeholders.
    pub literals: u32,
}

/// What kind of literal a recorded span is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawLiteralKind {
    /// A number token; the span covers the token text verbatim.
    Number,
    /// A string token; the span covers the *inner* text between the quotes,
    /// with `''` escapes still doubled. `has_escape` says whether unescaping
    /// is needed to recover the value.
    String {
        /// True when the span contains at least one `''` escape.
        has_escape: bool,
    },
}

/// Source span of one literal, in statement order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawLiteral {
    /// Byte offset of the span start.
    pub start: u32,
    /// Byte offset one past the span end.
    pub end: u32,
    /// Literal kind.
    pub kind: RawLiteralKind,
}

impl RawLiteral {
    /// The span's text within `sql` (the statement the scan ran over).
    pub fn text<'a>(&self, sql: &'a str) -> Option<&'a str> {
        sql.get(self.start as usize..self.end as usize)
    }
}

/// True for bytes that continue a word token in the lexer (and therefore
/// need a separator when whitespace keeps two of them apart). The emitted
/// placeholder range `0xF8..` is excluded: a placeholder never fuses.
fn word_byte(b: u8) -> bool {
    b == b'_' || b == b'#' || b == b'$' || b.is_ascii_alphanumeric() || (0x80..0xF8).contains(&b)
}

/// True when dropping the whitespace between `prev` and `next` would change
/// how the lexer tokenizes: two word bytes would merge into one word, and
/// the listed operator pairs would merge into a different operator (or a
/// comment opener).
fn fusable(prev: u8, next: u8) -> bool {
    (word_byte(prev) && word_byte(next))
        || matches!(
            (prev, next),
            (b'<', b'=')
                | (b'<', b'>')
                | (b'>', b'=')
                | (b'=', b'=')
                | (b'!', b'=')
                | (b'-', b'-')
                | (b'/', b'*')
        )
}

struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
    hash: Fnv1a,
    len: u32,
    /// Last emitted byte (0 before the first emission).
    prev: u8,
    /// Whitespace or a comment was skipped since the last emission.
    pending_sep: bool,
}

impl Scan<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.bytes.get(self.pos + 1).copied()
    }

    fn emit(&mut self, b: u8) {
        if self.pending_sep && fusable(self.prev, b) {
            self.hash.update(b" ");
            self.len += 1;
        }
        self.pending_sep = false;
        self.hash.update(&[b]);
        self.prev = b;
        self.len += 1;
    }

    fn skip_line_comment(&mut self) {
        while let Some(b) = self.peek() {
            self.pos += 1;
            if b == b'\n' {
                break;
            }
        }
    }

    /// Mirrors the lexer's nested block comments; `false` = unterminated.
    fn skip_block_comment(&mut self) -> bool {
        self.pos += 2;
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek() {
                Some(b'*') if self.peek2() == Some(b'/') => {
                    self.pos += 2;
                    depth -= 1;
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.pos += 2;
                    depth += 1;
                }
                Some(_) => self.pos += 1,
                None => return false,
            }
        }
        true
    }

    /// Mirrors `lex_string`; `false` = unterminated.
    fn scan_string(&mut self, literals: &mut Vec<RawLiteral>) -> bool {
        self.pos += 1; // opening quote
        let content_start = self.pos;
        let mut has_escape = false;
        loop {
            match self.peek() {
                Some(b'\'') => {
                    if self.peek2() == Some(b'\'') {
                        has_escape = true;
                        self.pos += 2;
                    } else {
                        literals.push(RawLiteral {
                            start: content_start as u32,
                            end: self.pos as u32,
                            kind: RawLiteralKind::String { has_escape },
                        });
                        self.pos += 1;
                        self.emit(RAW_STR);
                        return true;
                    }
                }
                Some(_) => self.pos += 1,
                None => return false,
            }
        }
    }

    /// Mirrors `lex_quoted_ident` for either quoting style; both styles emit
    /// the same delimiter pair (their tokens are identical). `false` =
    /// unterminated.
    fn scan_quoted_ident(&mut self, close: u8) -> bool {
        self.pos += 1; // opening quote
        self.emit(RAW_QUOTE_OPEN);
        loop {
            match self.peek() {
                Some(b) if b == close => {
                    self.pos += 1;
                    self.emit(RAW_QUOTE_CLOSE);
                    return true;
                }
                Some(b) => {
                    self.pos += 1;
                    self.emit(b.to_ascii_lowercase());
                }
                None => return false,
            }
        }
    }

    /// Mirrors `lex_variable` (`@name` / `@@global`); `false` = a bare `@`,
    /// which the lexer rejects with a position-dependent error.
    fn scan_variable(&mut self) -> bool {
        self.emit(b'@');
        self.pos += 1;
        if self.peek() == Some(b'@') {
            self.emit(b'@');
            self.pos += 1;
        }
        let name_start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'_' || b.is_ascii_alphanumeric() {
                self.emit(b.to_ascii_lowercase());
                self.pos += 1;
            } else {
                break;
            }
        }
        self.pos != name_start
    }

    /// Mirrors `lex_number` (hex, decimal, trailing-dot, exponent forms).
    fn scan_number(&mut self, literals: &mut Vec<RawLiteral>) {
        let start = self.pos;
        if self.peek() == Some(b'0')
            && matches!(self.peek2(), Some(b'x') | Some(b'X'))
            && self
                .bytes
                .get(self.pos + 2)
                .is_some_and(|b| b.is_ascii_hexdigit())
        {
            self.pos += 2;
            while self.peek().is_some_and(|b| b.is_ascii_hexdigit()) {
                self.pos += 1;
            }
        } else {
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.peek() == Some(b'.') && self.peek2().is_none_or(|b| b.is_ascii_digit()) {
                self.pos += 1;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                let mut look = self.pos + 1;
                if matches!(self.bytes.get(look), Some(b'+') | Some(b'-')) {
                    look += 1;
                }
                if self.bytes.get(look).is_some_and(|b| b.is_ascii_digit()) {
                    self.pos = look;
                    while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                        self.pos += 1;
                    }
                }
            }
        }
        literals.push(RawLiteral {
            start: start as u32,
            end: self.pos as u32,
            kind: RawLiteralKind::Number,
        });
        self.emit(RAW_NUM);
    }

    /// Mirrors `lex_word`. Multi-byte (≥ 0x80) bytes pass through verbatim;
    /// ASCII is lower-cased to match keyword folding and skeleton rendering.
    fn scan_word(&mut self) {
        while let Some(b) = self.peek() {
            if b == b'_' || b == b'#' || b == b'$' || b.is_ascii_alphanumeric() || b >= 0x80 {
                self.emit(if b >= 0x80 { b } else { b.to_ascii_lowercase() });
                self.pos += 1;
            } else {
                break;
            }
        }
    }
}

/// Scans `sql` into a [`RawKey`], recording literal spans into `literals`
/// (cleared first, filled in statement order).
///
/// Returns `None` when the statement cannot be keyed soundly — unterminated
/// strings / block comments / quoted identifiers and bare `@` produce lexer
/// errors whose position the normalized stream does not determine, so such
/// statements must take the full-parse path.
pub fn raw_shape_scan(sql: &str, literals: &mut Vec<RawLiteral>) -> Option<RawKey> {
    literals.clear();
    let mut s = Scan {
        bytes: sql.as_bytes(),
        pos: 0,
        hash: Fnv1a::new(),
        len: 0,
        prev: 0,
        pending_sep: false,
    };
    while let Some(b) = s.peek() {
        match b {
            b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c => {
                s.pos += 1;
                s.pending_sep = true;
            }
            b'-' if s.peek2() == Some(b'-') => {
                s.skip_line_comment();
                s.pending_sep = true;
            }
            b'/' if s.peek2() == Some(b'*') => {
                if !s.skip_block_comment() {
                    return None;
                }
                s.pending_sep = true;
            }
            b'\'' => {
                if !s.scan_string(literals) {
                    return None;
                }
            }
            b'"' => {
                if !s.scan_quoted_ident(b'"') {
                    return None;
                }
            }
            b'[' => {
                if !s.scan_quoted_ident(b']') {
                    return None;
                }
            }
            b'@' => {
                if !s.scan_variable() {
                    return None;
                }
            }
            b'0'..=b'9' => s.scan_number(literals),
            b'.' if s.peek2().is_some_and(|c| c.is_ascii_digit()) => s.scan_number(literals),
            b'=' => {
                // The lexer folds `==` to `=`.
                s.pos += 1;
                if s.peek() == Some(b'=') {
                    s.pos += 1;
                }
                s.emit(b'=');
            }
            b'<' => {
                s.pos += 1;
                match s.peek() {
                    Some(b'=') => {
                        s.pos += 1;
                        s.emit(b'<');
                        s.emit(b'=');
                    }
                    Some(b'>') => {
                        s.pos += 1;
                        s.emit(b'<');
                        s.emit(b'>');
                    }
                    _ => s.emit(b'<'),
                }
            }
            b'>' => {
                s.pos += 1;
                if s.peek() == Some(b'=') {
                    s.pos += 1;
                    s.emit(b'>');
                    s.emit(b'=');
                } else {
                    s.emit(b'>');
                }
            }
            b'!' => {
                // `!=` folds to the same token as `<>`; a stray `!` is a
                // lexer error either way, so emitting it verbatim keeps
                // equal streams failing equally.
                s.pos += 1;
                if s.peek() == Some(b'=') {
                    s.pos += 1;
                    s.emit(b'<');
                    s.emit(b'>');
                } else {
                    s.emit(b'!');
                }
            }
            b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'#' => s.scan_word(),
            _ if b >= 0x80 => s.scan_word(),
            // Single-char tokens and lexer-error characters alike: emit the
            // byte verbatim. Equal streams tokenize (or fail) identically.
            other => {
                s.pos += 1;
                s.emit(other);
            }
        }
    }
    Some(RawKey {
        hash: s.hash.finish().0,
        len: s.len,
        literals: literals.len() as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(sql: &str) -> RawKey {
        raw_shape_scan(sql, &mut Vec::new()).unwrap()
    }

    fn lits(sql: &str) -> Vec<RawLiteral> {
        let mut v = Vec::new();
        raw_shape_scan(sql, &mut v).unwrap();
        v
    }

    #[test]
    fn whitespace_case_and_comments_are_invisible() {
        let a = key("SELECT a FROM t WHERE x = 1");
        assert_eq!(a, key("select   A \n FROM\tt  WHERE x=1"));
        assert_eq!(a, key("SELECT a /* hint */ FROM t -- c\n WHERE x = 2"));
    }

    #[test]
    fn literal_values_do_not_change_the_key() {
        assert_eq!(key("WHERE x = 1"), key("WHERE x = 99999"));
        assert_eq!(key("WHERE x = 1.5e-3"), key("WHERE x = 0x1AF"));
        assert_eq!(key("WHERE s = 'a'"), key("WHERE s = 'it''s longer'"));
    }

    #[test]
    fn literal_kinds_do_change_the_key() {
        assert_ne!(key("WHERE x = 1"), key("WHERE x = 'a'"));
    }

    #[test]
    fn word_fusion_is_separated() {
        assert_ne!(key("a b"), key("ab"));
        assert_ne!(key("SELECT a"), key("SELECTa"));
        assert_ne!(key("a #t"), key("a#t"));
        assert_ne!(key("@x y"), key("@xy"));
    }

    #[test]
    fn operator_fusion_is_separated() {
        assert_ne!(key("a < = b"), key("a <= b"));
        assert_ne!(key("a < > b"), key("a <> b"));
        assert_ne!(key("a > = b"), key("a >= b"));
        assert_ne!(key("a = = b"), key("a == b"));
        assert_ne!(key("a - - b"), key("a -- b"));
        assert_ne!(key("a / * b"), key("a /*b*/ c"));
    }

    #[test]
    fn lexer_foldings_are_mirrored() {
        assert_eq!(key("a == b"), key("a = b"));
        assert_eq!(key("a != b"), key("a <> b"));
    }

    #[test]
    fn quoted_identifiers_are_distinct_from_words() {
        assert_ne!(key("[select] x"), key("select x"));
        assert_eq!(key("[My Col]"), key("\"My Col\""));
        assert_ne!(key("[a b]"), key("[a] [b]"));
    }

    #[test]
    fn number_token_boundaries_are_mirrored() {
        // `a1` is one word; `a 1` is a word and a number.
        assert_ne!(key("a1"), key("a 1"));
        // `1a` and `1 a` both lex Number("1") Word("a") — equal is correct.
        assert_eq!(key("1a"), key("1 a"));
        // `1e5` is one number; `1 e5` is a number and a word.
        assert_ne!(key("1e5"), key("1 e5"));
        // Trailing-dot and leading-dot decimals.
        assert_eq!(lits("12.")[0].kind, RawLiteralKind::Number);
        assert_eq!(lits(".5")[0].kind, RawLiteralKind::Number);
        assert_ne!(key("1 . 2"), key("1.2"));
    }

    #[test]
    fn literal_spans_cover_token_text() {
        let sql = "WHERE x = -1.5e3 AND s = 'it''s'";
        let v = lits(sql);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].text(sql), Some("1.5e3"));
        assert_eq!(v[0].kind, RawLiteralKind::Number);
        assert_eq!(v[1].text(sql), Some("it''s"));
        assert_eq!(v[1].kind, RawLiteralKind::String { has_escape: true });
    }

    #[test]
    fn unkeyable_inputs_bail_out() {
        let mut v = Vec::new();
        assert!(raw_shape_scan("SELECT 'oops", &mut v).is_none());
        assert!(raw_shape_scan("SELECT [oops", &mut v).is_none());
        assert!(raw_shape_scan("SELECT /* oops", &mut v).is_none());
        assert!(raw_shape_scan("SELECT @ x", &mut v).is_none());
    }

    #[test]
    fn variables_fold_case_like_the_profile() {
        assert_eq!(key("WHERE x = @RA"), key("WHERE x = @ra"));
        assert_eq!(key("n = @@ROWCOUNT"), key("n = @@rowcount"));
        assert_ne!(key("@x"), key("@@x"));
    }

    #[test]
    fn empty_and_blank_statements_share_a_key() {
        assert_eq!(key(""), key("   \t\n"));
        assert_ne!(key(""), key(";"));
    }
}
