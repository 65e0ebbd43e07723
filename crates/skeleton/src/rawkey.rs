//! Raw shape keys: the parse cache's key, hashed from the lexer's own scan.
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
//! There is one SQL scanner, `sqlog_sql::lexer::scan`; the key is one of
//! its two sinks (the parser's tokens are the other). The key sink hashes
//! each lexeme into an FNV-1a stream, with no allocation:
//!
//! * an operator or punctuation token becomes one tag byte of its own, so
//!   `!=` and `<>` hash alike, as do `==` and `=`;
//! * a word becomes its ASCII-lower-cased bytes and an end byte, and a
//!   variable the same after an `@`; a quoted word (`[x]` or `"x"`) is
//!   wrapped in [`RAW_QUOTE_OPEN`] / [`RAW_QUOTE_CLOSE`] instead, so it
//!   never collides with an unquoted one (a quoted keyword is no keyword);
//! * a number becomes [`RAW_NUM`] and a string [`RAW_STR`], and their
//!   source spans are recorded in `literals` so the cache can re-extract
//!   literal-dependent facts without re-parsing;
//! * a byte the lexer rejects (a stray `!`, `$`, `?`) becomes a marker byte
//!   and itself, and the scan goes on.
//!
//! Whitespace and comments never reach the stream: the scanner has already
//! decided where each lexeme starts and ends, and every lexeme's encoding
//! ends where its own bytes say, so no separator is needed. The
//! placeholder, delimiter, end and marker bytes lie in `0xF8..`, which
//! valid UTF-8 never holds, so no input can forge them; the two-byte
//! operators take control bytes, which no unquoted word holds and no
//! one-byte operator is.
//!
//! **The merge rule.** Barring a 64-bit hash collision, two statements
//! share a key exactly when they scan to the same lexemes up to literal
//! text and ASCII case. Such statements tokenize to the same token kinds,
//! so they fail alike or parse to trees that differ only in their
//! literals, which is all the parse cache relies on. So the key merges
//! spellings that lex to the same tokens (`= ==6` and `===6`, `<>=` and
//! `<> =`), and texts that hold a rejected byte at the same place in the
//! lexeme stream (`7$ AND` and `7 $AND`), which both fail to tokenize.
//!
//! When the scan itself fails (an unterminated string, block comment or
//! quoted identifier, or a bare `@`) the key is `None` and the caller
//! falls back to a full parse.

use crate::fingerprint::Fnv1a;
use sqlog_sql::lexer::{scan, Lexeme, Sink};
use sqlog_sql::Token;
use std::ops::Range;

/// Placeholder byte for a numeric literal.
pub const RAW_NUM: u8 = 0xF8;
/// Placeholder byte for a string literal.
pub const RAW_STR: u8 = 0xF9;
/// Delimiter byte opening a quoted identifier.
pub const RAW_QUOTE_OPEN: u8 = 0xFA;
/// Delimiter byte closing a quoted identifier.
pub const RAW_QUOTE_CLOSE: u8 = 0xFB;
/// Ends a word or a variable.
const RAW_END: u8 = 0xFC;
/// Precedes a byte the lexer rejects.
const RAW_STRAY: u8 = 0xFD;

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

/// The tag byte of an operator or punctuation token: the token's own byte
/// when it is one byte long, a control byte for the two-byte ones.
fn punct_tag(token: &Token<'_>) -> u8 {
    match token {
        Token::Comma => b',',
        Token::Dot => b'.',
        Token::LParen => b'(',
        Token::RParen => b')',
        Token::Semicolon => b';',
        Token::Star => b'*',
        Token::Plus => b'+',
        Token::Minus => b'-',
        Token::Slash => b'/',
        Token::Percent => b'%',
        Token::Ampersand => b'&',
        Token::Pipe => b'|',
        Token::Caret => b'^',
        Token::Eq => b'=',
        Token::Lt => b'<',
        Token::Gt => b'>',
        Token::Neq => 0x01,
        Token::LtEq => 0x02,
        Token::GtEq => 0x03,
        // The scanner reports these as their own lexemes, never as
        // punctuation.
        Token::Word { .. } | Token::Number(_) | Token::String(_) | Token::Variable(_) => 0,
    }
}

/// The sink that hashes the key and records the literal spans.
struct KeySink<'a> {
    sql: &'a [u8],
    hash: Fnv1a,
    len: u32,
    literals: &'a mut Vec<RawLiteral>,
}

impl KeySink<'_> {
    fn put(&mut self, b: u8) {
        self.hash.update(&[b]);
        self.len += 1;
    }

    /// Hashes `text` with ASCII letters lower-cased, as keywords fold and
    /// skeletons render.
    fn folded(&mut self, text: Range<usize>) {
        for i in text {
            self.put(self.sql[i].to_ascii_lowercase());
        }
    }

    fn literal(&mut self, placeholder: u8, text: Range<usize>, kind: RawLiteralKind) {
        self.literals.push(RawLiteral {
            start: text.start as u32,
            end: text.end as u32,
            kind,
        });
        self.put(placeholder);
    }
}

impl Sink for KeySink<'_> {
    // Inlined at each of the scan's call sites, like the token sink.
    #[inline(always)]
    fn lexeme(
        &mut self,
        lexeme: Lexeme,
        _token: Range<usize>,
        text: Range<usize>,
    ) -> sqlog_sql::Result<()> {
        match lexeme {
            Lexeme::Word { quoted: false } => {
                self.folded(text);
                self.put(RAW_END);
            }
            Lexeme::Word { quoted: true } => {
                self.put(RAW_QUOTE_OPEN);
                self.folded(text);
                self.put(RAW_QUOTE_CLOSE);
            }
            Lexeme::Variable => {
                self.put(b'@');
                self.folded(text);
                self.put(RAW_END);
            }
            Lexeme::Number => self.literal(RAW_NUM, text, RawLiteralKind::Number),
            Lexeme::String { has_escape } => {
                self.literal(RAW_STR, text, RawLiteralKind::String { has_escape })
            }
            Lexeme::Punct(token) => self.put(punct_tag(&token)),
        }
        Ok(())
    }

    fn stray(&mut self, byte: u8, _at: usize) -> sqlog_sql::Result<()> {
        self.put(RAW_STRAY);
        self.put(byte);
        Ok(())
    }
}

/// Scans `sql` into a [`RawKey`], recording literal spans into `literals`
/// (cleared first, filled in statement order).
///
/// Returns `None` when the scan fails — an unterminated string, block
/// comment or quoted identifier, or a bare `@`. The lexer's error for such
/// a statement depends on where the construct starts, which the key does
/// not record, so it must take the full-parse path.
pub fn raw_shape_scan(sql: &str, literals: &mut Vec<RawLiteral>) -> Option<RawKey> {
    literals.clear();
    let mut sink = KeySink {
        sql: sql.as_bytes(),
        hash: Fnv1a::new(),
        len: 0,
        literals,
    };
    scan(sql, &mut sink).ok()?;
    Some(RawKey {
        hash: sink.hash.finish().0,
        len: sink.len,
        literals: sink.literals.len() as u32,
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
