//! Property tests for the raw-shape-key soundness contract.
//!
//! The parse cache in `sqlog-core` relies on one invariant: **equal raw
//! keys imply equal query templates** (equal (SFC, SWC, SSC) triples and
//! fingerprints) — literals, whitespace, case and comments must never
//! reach the key, and nothing *else* may be erased by it. These tests
//! generate statement pairs that differ only in literals (same key
//! required) and pairs with perturbed spacing/casing/comments (same key
//! required), then assert the templates agree whenever the keys do.

use proptest::prelude::*;
use sqlog_skeleton::{raw_shape_scan, QueryTemplate, RawKey, RawLiteral};
use sqlog_sql::{parse_query, tokenize, Token};

#[derive(Debug, Clone)]
enum Shape {
    PointLookup,
    Window,
    StringFilter,
    InListLookup,
    LikeAndBetween,
    NegatedNumber,
    EscapedString,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::PointLookup),
        Just(Shape::Window),
        Just(Shape::StringFilter),
        Just(Shape::InListLookup),
        Just(Shape::LikeAndBetween),
        Just(Shape::NegatedNumber),
        Just(Shape::EscapedString),
    ]
}

fn render(shape: &Shape, a: u64, b: u64, s: &str) -> String {
    match shape {
        Shape::PointLookup => format!("SELECT x FROM t WHERE id = {a}"),
        Shape::Window => format!("SELECT x FROM t WHERE h >= {a} AND h <= {}", a + b),
        Shape::StringFilter => format!("SELECT x FROM t WHERE name = '{s}'"),
        Shape::InListLookup => format!("SELECT x FROM t WHERE id IN ({a}, {b})"),
        Shape::LikeAndBetween => {
            format!("SELECT x FROM t WHERE s LIKE '{s}%' AND r BETWEEN {a} AND {b}")
        }
        Shape::NegatedNumber => format!("SELECT x FROM t WHERE z = -{a}"),
        Shape::EscapedString => format!("SELECT x FROM t WHERE name = '{s}''{s}'"),
    }
}

fn key_of(sql: &str) -> (RawKey, Vec<RawLiteral>) {
    let mut lits = Vec::new();
    let key = raw_shape_scan(sql, &mut lits).expect("generated SQL must be keyable");
    (key, lits)
}

/// Whitespace/comment/case perturbations that must not change the key.
/// Index selects the variant, so shrinking stays meaningful.
fn perturb(sql: &str, variant: u8) -> String {
    match variant % 4 {
        0 => sql.replace(' ', "  \t "),
        1 => format!(
            "  /* c */ {} -- trail",
            sql.replace(" WHERE ", " /*x*/ wHeRe ")
        ),
        2 => sql.to_string(),
        _ => sql.replace(" = ", "="),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Statements of one shape differing only in literal values share a
    /// raw key, and — the cache's soundness direction — produce identical
    /// query-template triples and literal spans covering exactly the
    /// varying text.
    #[test]
    fn equal_keys_imply_equal_templates(
        shape in shape_strategy(),
        a1 in 0u64..1_000_000, b1 in 0u64..1_000,
        a2 in 0u64..1_000_000, b2 in 0u64..1_000,
        s1 in "[a-z]{1,8}", s2 in "[a-z]{1,8}",
    ) {
        let sql1 = render(&shape, a1, b1, &s1);
        let sql2 = render(&shape, a2, b2, &s2);
        let (k1, lits1) = key_of(&sql1);
        let (k2, lits2) = key_of(&sql2);
        prop_assert_eq!(k1, k2, "literals leaked into the key");
        prop_assert_eq!(lits1.len(), lits2.len());

        let t1 = QueryTemplate::of_query(&parse_query(&sql1).unwrap());
        let t2 = QueryTemplate::of_query(&parse_query(&sql2).unwrap());
        prop_assert!(t1.similar(&t2));
        prop_assert_eq!(t1.fingerprint, t2.fingerprint);
        prop_assert_eq!(&t1.full, &t2.full);

        // Recorded spans must slice cleanly out of their statement.
        for (lit, sql) in lits1.iter().map(|l| (l, &sql1)).chain(lits2.iter().map(|l| (l, &sql2))) {
            prop_assert!(lit.text(sql).is_some());
        }
    }

    /// Whitespace, comments and keyword/identifier case never reach the key.
    #[test]
    fn key_ignores_whitespace_comments_and_case(
        shape in shape_strategy(),
        a in 0u64..1_000_000, b in 0u64..1_000, s in "[a-z]{1,8}",
        variant in 0u8..4,
    ) {
        let sql = render(&shape, a, b, &s);
        let noisy = perturb(&sql, variant);
        let (k1, _) = key_of(&sql);
        let (k2, _) = key_of(&noisy);
        prop_assert_eq!(k1, k2, "perturbation changed the key: {}", noisy);
    }

    /// Different shapes never share a key (the key may be finer than
    /// template equality, but for these shapes it must separate them).
    #[test]
    fn different_shapes_get_different_keys(
        a in 0u64..1_000_000, b in 0u64..1_000, s in "[a-z]{1,8}",
    ) {
        // EscapedString is omitted: it is *supposed* to share a key with
        // StringFilter (both are `name = <str>`; the escape only affects
        // the recorded span, not the shape).
        let shapes = [
            Shape::PointLookup,
            Shape::Window,
            Shape::StringFilter,
            Shape::InListLookup,
            Shape::LikeAndBetween,
            Shape::NegatedNumber,
        ];
        let keys: Vec<RawKey> = shapes
            .iter()
            .map(|sh| key_of(&render(sh, a, b, &s)).0)
            .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                prop_assert_ne!(keys[i], keys[j], "shapes {} and {} collide", i, j);
            }
        }
    }
}

/// Fragments of hostile statements. The spellings of one fragment scan to
/// the same lexemes up to literal text and ASCII case.
const FRAGMENTS: &[&[&str]] = &[
    &["SELECT", "select", "SeLeCt"],
    &["FROM", "from"],
    &["objid", "ObjID"],
    &["a", "A"],
    &["_x#1", "_X#1"],
    &["größe", "GRößE"],
    &["[select]", "\"SELECT\""],
    &["[My Col]", "\"my col\""],
    &["'a b'", "'it''s'", "''"],
    &["7", "0x1F", "1e5", ".5", "2.5E-3", "12."],
    &["42", "0"],
    &["@ra", "@RA"],
    &["@@rowcount", "@@ROWCOUNT"],
    &["!=", "<>"],
    &["==", "="],
    &["<="],
    &["<"],
    &[">"],
    &["!"],
    &["$"],
    &["-- note\n", "--\n"],
    &["/* c */", "/*/* nested */*/"],
    &["("],
    &[")"],
    &[","],
    &["."],
    &["*"],
    &["-"],
];

/// Unterminated constructs; a statement holds at most one, at its end.
const HAZARDS: &[&str] = &["'open", "[open", "\"open", "/* open"];

/// Joins between fragments: separators, and the empty join, which lets
/// neighbours fuse (`7` `$` → `7$`, `=` `==` → `===`).
const JOINS: &[&str] = &[" ", "", "\n\t", "/**/", "-- c\n"];

/// One fragment: its index, its spelling in the first and in the second
/// statement, and the join before it in the second statement (the first
/// always joins with a space).
type Piece = (usize, usize, usize, usize);

fn spelling(frag: usize, choice: usize) -> &'static str {
    FRAGMENTS[frag][choice % FRAGMENTS[frag].len()]
}

/// Renders `pieces`, each as the join and text `piece_of` gives it, with a
/// bare `@` before piece `bare_at` and `hazard` at the end.
fn hostile(
    pieces: &[Piece],
    bare_at: Option<usize>,
    hazard: Option<usize>,
    piece_of: impl Fn(usize, &Piece) -> (&'static str, &'static str),
) -> String {
    let mut sql = String::new();
    for (i, piece) in pieces.iter().enumerate() {
        if bare_at == Some(i) {
            sql.push_str(" @ ");
        }
        let (join, text) = piece_of(i, piece);
        sql.push_str(join);
        sql.push_str(text);
    }
    if bare_at.is_some_and(|i| i >= pieces.len()) {
        sql.push_str(" @");
    }
    if let Some(h) = hazard {
        sql.push(' ');
        sql.push_str(HAZARDS[h]);
    }
    sql
}

/// A token with literal text dropped and word and variable text
/// lower-cased: what equal raw keys promise to keep equal.
fn token_shape(token: &Token<'_>) -> String {
    match token {
        Token::Word { value, keyword } => format!("word {} {keyword:?}", value.to_lowercase()),
        Token::Variable(name) => format!("variable {}", name.to_lowercase()),
        Token::Number(_) => "number".to_string(),
        Token::String(_) => "string".to_string(),
        punct => format!("{punct:?}"),
    }
}

fn token_shapes(sql: &str) -> Option<Vec<String>> {
    let tokens = tokenize(sql).ok()?;
    Some(tokens.iter().map(|t| token_shape(&t.token)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The key is refused exactly for an unterminated construct or a bare
    /// `@`, and equal keys mean equal lexer outcomes: both statements fail
    /// to tokenize, or both tokenize to the same token kinds, lower-cased
    /// word and variable texts, and literal kinds.
    #[test]
    fn equal_keys_imply_equal_lexer_outcomes(
        pieces in prop::collection::vec((0..FRAGMENTS.len(), 0usize..6, 0usize..6, 0..JOINS.len()), 0..12),
        bare_at in prop_oneof![3 => Just(None), 1 => (0usize..13).prop_map(Some)],
        hazard in prop_oneof![3 => Just(None), 1 => (0..HAZARDS.len()).prop_map(Some)],
    ) {
        let first = hostile(&pieces, bare_at, hazard, |_, &(f, a, _, _)| (" ", spelling(f, a)));
        let mut lits = Vec::new();
        let key = raw_shape_scan(&first, &mut lits);
        prop_assert_eq!(
            key.is_none(),
            bare_at.is_some() || hazard.is_some(),
            "keyability of {:?}", first
        );
        // The first statement respelled and rejoined, and the first
        // statement with one fragment swapped for any other spelling of any
        // fragment.
        let mut others =
            vec![hostile(&pieces, bare_at, hazard, |_, &(f, _, b, j)| (JOINS[j], spelling(f, b)))];
        for at in 0..pieces.len() {
            for &swap in FRAGMENTS.iter().flat_map(|spellings| spellings.iter()) {
                others.push(hostile(&pieces, bare_at, hazard, |i, &(f, a, _, _)| {
                    (" ", if i == at { swap } else { spelling(f, a) })
                }));
            }
        }
        let shapes = token_shapes(&first);
        for other in &others {
            if key.is_some() && key == raw_shape_scan(other, &mut lits) {
                prop_assert_eq!(
                    &shapes,
                    &token_shapes(other),
                    "{:?} and {:?} share a key", first, other
                );
            }
        }
    }
}
