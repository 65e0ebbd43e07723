//! The SQL scanner, and the lexer built on it.
//!
//! [`scan`] is the one piece of code that decides where an SQL token starts
//! and ends. It walks a statement's bytes once and reports each lexeme to a
//! [`Sink`] as byte ranges of the input. Two sinks read it:
//! [`tokenize_with`] builds the parser's tokens, and
//! `sqlog_skeleton::raw_shape_scan` hashes the parse cache's raw shape key.
//! Both see the same lexemes, so the key cannot drift from the tokens.
//!
//! Supports the lexical quirks seen in real query logs:
//!
//! * `--` line comments and `/* ... */` block comments (nested blocks too,
//!   which some SkyServer tools emit),
//! * single-quoted strings with `''` escaping,
//! * `[bracket]`- and `"double"`-quoted identifiers (SQL Server style),
//! * `@variables`,
//! * integer / decimal / scientific-notation / hex numbers,
//! * the two spellings of "not equal", `<>` and `!=`, and `==` for `=`.

use crate::error::{ParseError, ParseLimit, Result};
use crate::limits::ParseLimits;
use crate::token::{Keyword, SpannedToken, Token};
use std::borrow::Cow;
use std::ops::Range;

/// What [`scan`] found. Its text is a byte range of the input, handed to
/// [`Sink::lexeme`] beside it.
#[derive(Debug, Clone, PartialEq)]
pub enum Lexeme {
    /// An identifier or keyword. A quoted word (`[x]` or `"x"`) is never a
    /// keyword, and its text excludes the quotes.
    Word {
        /// Written as `[x]` or `"x"`.
        quoted: bool,
    },
    /// A number (integer, decimal, exponent or hex form), text verbatim.
    Number,
    /// A single-quoted string. Its text is the bytes between the quotes,
    /// with `''` escapes still doubled.
    String {
        /// The text holds at least one `''` escape.
        has_escape: bool,
    },
    /// A host variable. Its text follows the `@`, so `@@rowcount` reads
    /// `@rowcount`.
    Variable,
    /// An operator or punctuation token. `!=` arrives as [`Token::Neq`] and
    /// `==` as [`Token::Eq`].
    Punct(Token<'static>),
}

/// Receives what [`scan`] finds, in input order. An error from either
/// method ends the scan with that error.
pub trait Sink {
    /// One lexeme. `token` covers all of its bytes and `text` its text;
    /// they differ only for quoted words, strings and variables.
    fn lexeme(&mut self, lexeme: Lexeme, token: Range<usize>, text: Range<usize>) -> Result<()>;

    /// A byte no token starts with (a stray `!`, `$`, `?`) at offset `at`.
    /// The scan goes on after it when this returns `Ok`.
    fn stray(&mut self, byte: u8, at: usize) -> Result<()>;
}

/// Scans `input` once, reporting every lexeme and stray byte to `sink`.
/// Whitespace and comments are skipped.
///
/// An unterminated string, block comment or quoted identifier, or an `@`
/// with no name after it, ends the scan with an error at the offset where
/// that construct starts.
pub fn scan(input: &str, sink: &mut impl Sink) -> Result<()> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    while let Some(&b) = bytes.get(pos) {
        let start = pos;
        let next = || bytes.get(start + 1).copied();
        // Each arm reports its own lexeme: a sink inlined there sees which
        // kind it got, so the token sink does not branch on it again.
        match b {
            b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c => pos += 1,
            b'-' if next() == Some(b'-') => {
                // Past the newline, or past the end of input.
                pos = run_end(bytes, start, |b| b != b'\n') + 1;
            }
            b'/' if next() == Some(b'*') => pos = block_comment_end(bytes, start)?,
            b'\'' => {
                let (close, has_escape) = string_close(bytes, start)?;
                pos = close + 1;
                sink.lexeme(Lexeme::String { has_escape }, start..pos, start + 1..close)?;
            }
            b'"' | b'[' => {
                let quote = if b == b'[' { b']' } else { b'"' };
                let close = run_end(bytes, start + 1, |b| b != quote);
                if close == bytes.len() {
                    return Err(ParseError::new("unterminated quoted identifier", start));
                }
                pos = close + 1;
                sink.lexeme(Lexeme::Word { quoted: true }, start..pos, start + 1..close)?;
            }
            b'@' => {
                // SQL Server also has `@@rowcount`-style globals.
                let name = start + 1 + usize::from(next() == Some(b'@'));
                pos = run_end(bytes, name, |b| b == b'_' || b.is_ascii_alphanumeric());
                if pos == name {
                    return Err(ParseError::new("expected variable name after '@'", start));
                }
                sink.lexeme(Lexeme::Variable, start..pos, start + 1..pos)?;
            }
            b'0'..=b'9' => {
                pos = number_end(bytes, start);
                sink.lexeme(Lexeme::Number, start..pos, start..pos)?;
            }
            b'.' if next().is_some_and(|c| c.is_ascii_digit()) => {
                pos = number_end(bytes, start);
                sink.lexeme(Lexeme::Number, start..pos, start..pos)?;
            }
            // Non-ASCII letters are word bytes. A word ends at an ASCII byte
            // or at the end of input, so always on a char boundary.
            b'_' | b'a'..=b'z' | b'A'..=b'Z' | b'#' | 0x80.. => {
                pos = run_end(bytes, start, |b| {
                    b == b'_' || b == b'#' || b == b'$' || b.is_ascii_alphanumeric() || b >= 0x80
                });
                sink.lexeme(Lexeme::Word { quoted: false }, start..pos, start..pos)?;
            }
            _ => match punct(b, next()) {
                Some((token, len)) => {
                    pos += len;
                    sink.lexeme(Lexeme::Punct(token), start..pos, start..pos)?;
                }
                None => {
                    sink.stray(b, start)?;
                    pos += 1;
                }
            },
        }
    }
    Ok(())
}

// `scan` is generic, so it is compiled in each sink's crate; the helpers it
// calls on every token are `#[inline]` so that they inline there too.

/// The operator or punctuation token that starts with `b` (followed by
/// `next`) and its length in bytes; `None` when no token starts with `b`.
#[inline]
fn punct(b: u8, next: Option<u8>) -> Option<(Token<'static>, usize)> {
    let token = match (b, next) {
        // `==` is accepted leniently as `=` (seen in hand-typed logs).
        (b'=', Some(b'=')) => return Some((Token::Eq, 2)),
        (b'<', Some(b'=')) => return Some((Token::LtEq, 2)),
        (b'<', Some(b'>')) | (b'!', Some(b'=')) => return Some((Token::Neq, 2)),
        (b'>', Some(b'=')) => return Some((Token::GtEq, 2)),
        (b',', _) => Token::Comma,
        (b'.', _) => Token::Dot,
        (b'(', _) => Token::LParen,
        (b')', _) => Token::RParen,
        (b';', _) => Token::Semicolon,
        (b'*', _) => Token::Star,
        (b'+', _) => Token::Plus,
        (b'-', _) => Token::Minus,
        (b'/', _) => Token::Slash,
        (b'%', _) => Token::Percent,
        (b'&', _) => Token::Ampersand,
        (b'|', _) => Token::Pipe,
        (b'^', _) => Token::Caret,
        (b'=', _) => Token::Eq,
        (b'<', _) => Token::Lt,
        (b'>', _) => Token::Gt,
        _ => return None,
    };
    Some((token, 1))
}

/// The offset just past the run of bytes from `from` that match `keep`.
fn run_end(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| !keep(b))
        .map_or(bytes.len(), |n| from + n)
}

/// The offset just past the (possibly nested) block comment opening at
/// `start`.
fn block_comment_end(bytes: &[u8], start: usize) -> Result<usize> {
    let mut pos = start + 2;
    let mut depth = 1usize;
    while depth > 0 {
        match (bytes.get(pos), bytes.get(pos + 1)) {
            (Some(b'*'), Some(b'/')) => {
                pos += 2;
                depth -= 1;
            }
            (Some(b'/'), Some(b'*')) => {
                pos += 2;
                depth += 1;
            }
            (Some(_), _) => pos += 1,
            (None, _) => return Err(ParseError::new("unterminated block comment", start)),
        }
    }
    Ok(pos)
}

/// The offset of the quote closing the string that opens at `start`, and
/// whether a `''` escape came before it. Byte-wise search is UTF-8 safe:
/// `'` cannot occur inside a multi-byte sequence.
#[inline]
fn string_close(bytes: &[u8], start: usize) -> Result<(usize, bool)> {
    let mut pos = start + 1;
    let mut has_escape = false;
    loop {
        let Some(quote) = bytes[pos..].iter().position(|&b| b == b'\'') else {
            return Err(ParseError::new("unterminated string literal", start));
        };
        pos += quote;
        if bytes.get(pos + 1) != Some(&b'\'') {
            return Ok((pos, has_escape));
        }
        has_escape = true;
        pos += 2;
    }
}

/// The offset just past the number starting at `start`: hex (`0x1AF`, as
/// SkyServer object ids sometimes appear), or digits with an optional
/// fraction (`12.`, `.5`, `3.25`) and exponent (`1e10`, `2.5E-3`).
#[inline]
fn number_end(bytes: &[u8], start: usize) -> usize {
    let digit = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
    if bytes[start] == b'0'
        && matches!(bytes.get(start + 1), Some(b'x' | b'X'))
        && bytes.get(start + 2).is_some_and(u8::is_ascii_hexdigit)
    {
        return run_end(bytes, start + 2, |b| b.is_ascii_hexdigit());
    }
    let mut pos = run_end(bytes, start, |b| b.is_ascii_digit());
    if bytes.get(pos) == Some(&b'.') && (pos + 1 == bytes.len() || digit(pos + 1)) {
        pos = run_end(bytes, pos + 1, |b| b.is_ascii_digit());
    }
    if matches!(bytes.get(pos), Some(b'e' | b'E')) {
        // Only an exponent when digits follow (after an optional sign);
        // otherwise `1e` would swallow a following identifier.
        let mut look = pos + 1;
        if matches!(bytes.get(look), Some(b'+' | b'-')) {
            look += 1;
        }
        if digit(look) {
            pos = run_end(bytes, look, |b| b.is_ascii_digit());
        }
    }
    pos
}

/// Tokenizes `input` into a vector of spanned tokens with default limits.
///
/// Tokens borrow from `input` (see [`Token`]); the lexer allocates only for
/// string literals containing `''` escapes. Whitespace and comments are
/// skipped. Errors are reported with the byte offset of the offending
/// character.
pub fn tokenize(input: &str) -> Result<Vec<SpannedToken<'_>>> {
    tokenize_with(input, &ParseLimits::default())
}

/// Tokenizes `input`, enforcing the statement-length and token-budget
/// guards of `limits` (a violation is [`ParseError::LimitExceeded`]).
pub fn tokenize_with<'a>(input: &'a str, limits: &ParseLimits) -> Result<Vec<SpannedToken<'a>>> {
    if input.len() > limits.max_statement_bytes {
        return Err(ParseError::limit(ParseLimit::StatementBytes, 0));
    }
    let mut tokens = Tokens {
        input,
        max_tokens: limits.max_tokens,
        // A token every ~5 bytes is a good estimate for SQL text.
        out: Vec::with_capacity((input.len() / 5 + 4).min(1 << 20)),
    };
    scan(input, &mut tokens)?;
    Ok(tokens.out)
}

/// The sink that builds the parser's tokens.
struct Tokens<'a> {
    input: &'a str,
    max_tokens: usize,
    out: Vec<SpannedToken<'a>>,
}

impl<'a> Sink for Tokens<'a> {
    // Inlined at each of `scan`'s call sites, where the lexeme kind is a
    // constant; as a call, this sink made `tokenize` about 40 % slower.
    #[inline(always)]
    fn lexeme(&mut self, lexeme: Lexeme, token: Range<usize>, text: Range<usize>) -> Result<()> {
        let input = self.input;
        let value = || &input[text];
        let kind = match lexeme {
            Lexeme::Word { quoted } => {
                let value = value();
                // Quoted identifiers never become keywords.
                let keyword = if quoted { None } else { Keyword::lookup(value) };
                Token::Word { value, keyword }
            }
            Lexeme::Number => Token::Number(value()),
            Lexeme::String { has_escape: false } => Token::String(Cow::Borrowed(value())),
            Lexeme::String { has_escape: true } => {
                Token::String(Cow::Owned(value().replace("''", "'")))
            }
            Lexeme::Variable => Token::Variable(value()),
            Lexeme::Punct(punct) => punct,
        };
        self.out.push(SpannedToken {
            token: kind,
            offset: token.start,
        });
        if self.out.len() > self.max_tokens {
            return Err(ParseError::limit(ParseLimit::Tokens, token.end));
        }
        Ok(())
    }

    fn stray(&mut self, byte: u8, at: usize) -> Result<()> {
        Err(ParseError::new(
            format!("unexpected character {:?}", byte as char),
            at,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(sql: &str) -> Vec<Token<'_>> {
        tokenize(sql)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn lexes_simple_select() {
        let t = toks("SELECT a, b FROM t WHERE a = 1");
        assert_eq!(t.len(), 10);
        assert!(t[0].is_keyword(Keyword::Select));
        assert_eq!(
            t[1],
            Token::Word {
                value: "a",
                keyword: None
            }
        );
        assert_eq!(t[8], Token::Eq);
        assert_eq!(t[9], Token::Number("1"));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let t = toks("SELECT 'it''s'");
        assert_eq!(t[1], Token::String("it's".into()));
    }

    #[test]
    fn lexes_unicode_string_contents() {
        let t = toks("SELECT 'αβγ🌌'");
        assert_eq!(t[1], Token::String("αβγ🌌".into()));
    }

    #[test]
    fn lexes_bracket_and_double_quoted_identifiers() {
        let t = toks("SELECT [My Col], \"Other\" FROM [photo primary]");
        assert_eq!(
            t[1],
            Token::Word {
                value: "My Col",
                keyword: None
            }
        );
        assert_eq!(
            t[3],
            Token::Word {
                value: "Other",
                keyword: None
            }
        );
        assert_eq!(
            t[5],
            Token::Word {
                value: "photo primary",
                keyword: None
            }
        );
    }

    #[test]
    fn quoted_keyword_is_not_a_keyword() {
        let t = toks("[select]");
        assert_eq!(t[0].keyword(), None);
    }

    #[test]
    fn lexes_variables() {
        let t = toks("WHERE ra = @ra AND n = @@rowcount");
        assert_eq!(t[3], Token::Variable("ra"));
        assert_eq!(t[7], Token::Variable("@rowcount"));
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(toks("1")[0], Token::Number("1"));
        assert_eq!(toks("3.25")[0], Token::Number("3.25"));
        assert_eq!(toks(".5")[0], Token::Number(".5"));
        assert_eq!(toks("1e10")[0], Token::Number("1e10"));
        assert_eq!(toks("2.5E-3")[0], Token::Number("2.5E-3"));
        assert_eq!(toks("0x1AF")[0], Token::Number("0x1AF"));
        // `12.` style trailing-dot decimals.
        assert_eq!(toks("12.")[0], Token::Number("12."));
    }

    #[test]
    fn exponent_requires_digits() {
        // `1e` is a number `1` followed by identifier `e`.
        let t = toks("1e");
        assert_eq!(t[0], Token::Number("1"));
        assert_eq!(
            t[1],
            Token::Word {
                value: "e",
                keyword: None
            }
        );
    }

    #[test]
    fn lexes_comparison_operators() {
        let t = toks("a <> b != c <= d >= e < f > g = h");
        let ops: Vec<_> = t
            .iter()
            .filter(|t| {
                matches!(
                    t,
                    Token::Neq | Token::LtEq | Token::GtEq | Token::Lt | Token::Gt | Token::Eq
                )
            })
            .cloned()
            .collect();
        assert_eq!(
            ops,
            vec![
                Token::Neq,
                Token::Neq,
                Token::LtEq,
                Token::GtEq,
                Token::Lt,
                Token::Gt,
                Token::Eq
            ]
        );
    }

    #[test]
    fn skips_comments() {
        let t = toks("SELECT a -- trailing comment\nFROM /* block /* nested */ */ t");
        assert_eq!(t.len(), 4);
        assert!(t[2].is_keyword(Keyword::From));
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(tokenize("SELECT 'oops").is_err());
        assert!(tokenize("SELECT [oops").is_err());
        assert!(tokenize("SELECT /* oops").is_err());
    }

    #[test]
    fn rejects_stray_bang() {
        let err = tokenize("SELECT a ! b").unwrap_err();
        assert_eq!(err.offset(), 9);
    }

    /// Records what [`scan`] reports, as text.
    #[derive(Default)]
    struct Record(Vec<String>);

    impl Sink for Record {
        fn lexeme(
            &mut self,
            lexeme: Lexeme,
            token: Range<usize>,
            text: Range<usize>,
        ) -> Result<()> {
            self.0.push(format!("{lexeme:?} {token:?} {text:?}"));
            Ok(())
        }

        fn stray(&mut self, byte: u8, at: usize) -> Result<()> {
            self.0.push(format!("stray {:?} {at}", byte as char));
            Ok(())
        }
    }

    #[test]
    fn scan_reports_ranges_and_goes_on_past_strays() {
        let mut rec = Record::default();
        scan("[a] 'x''y' @@v $ != 1", &mut rec).unwrap();
        assert_eq!(
            rec.0,
            [
                "Word { quoted: true } 0..3 1..2",
                "String { has_escape: true } 4..10 5..9",
                "Variable 11..14 12..14",
                "stray '$' 15",
                "Punct(Neq) 17..19 17..19",
                "Number 20..21 20..21",
            ]
        );
        for bad in ["'open", "[open", "\"open", "/* open", "a @ b"] {
            assert!(scan(bad, &mut Record::default()).is_err(), "{bad}");
        }
    }

    #[test]
    fn offsets_point_at_token_starts() {
        let spanned = tokenize("SELECT  a").unwrap();
        assert_eq!(spanned[0].offset, 0);
        assert_eq!(spanned[1].offset, 8);
    }

    #[test]
    fn lexes_unicode_identifiers() {
        let t = toks("SELECT größe FROM tabelle");
        assert_eq!(
            t[1],
            Token::Word {
                value: "größe",
                keyword: None
            }
        );
    }
}
