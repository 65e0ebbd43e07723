//! Property tests for solver batching: a statement answered through the
//! [`QueryCache`] is the statement a direct parse would produce.
//!
//! The cache keys each statement on its raw bytes with the literal spans of
//! `raw_shape_scan` masked, then serves later statements of a certified
//! shape by substituting their span texts into a cloned template. These
//! tests feed one cache a stream of statements of the `proptest_rawkey.rs`
//! shapes with random literals (integer, decimal, exponent and hex numbers;
//! strings with and without `''` escapes) under whitespace, comment and case
//! perturbations — so most statements are cache hits on a template
//! certified from *another* statement — and require every answer to render
//! and compare equal to [`parse_select`]. Rendering is the strong check:
//! identifier equality is case-insensitive, so only the rendered text
//! catches a template that leaked another statement's spelling.

use proptest::prelude::*;
use sqlog_core::solve::batch::{parse_select, QueryCache};
use sqlog_obs::Recorder;

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

/// A number literal in one of the lexer's forms; `form` picks the form.
fn number(v: u64, form: u8) -> String {
    match form % 4 {
        0 => v.to_string(),
        1 => format!("{}.{}", v / 100, v % 100),
        2 => format!("{v}e-3"),
        _ => format!("0x{v:X}"),
    }
}

fn render(shape: &Shape, a: &str, b: &str, s: &str) -> String {
    match shape {
        Shape::PointLookup => format!("SELECT x FROM t WHERE id = {a}"),
        Shape::Window => format!("SELECT x FROM t WHERE h >= {a} AND h <= {b}"),
        Shape::StringFilter => format!("SELECT x FROM t WHERE name = '{s}'"),
        Shape::InListLookup => format!("SELECT x FROM t WHERE id IN ({a}, {b})"),
        Shape::LikeAndBetween => {
            format!("SELECT x FROM t WHERE s LIKE '{s}%' AND r BETWEEN {a} AND {b}")
        }
        Shape::NegatedNumber => format!("SELECT x FROM t WHERE z = -{a}"),
        Shape::EscapedString => format!("SELECT x FROM t WHERE name = '{s}''{s}'"),
    }
}

/// Whitespace, comment and case perturbations. Case flips touch keywords
/// and identifiers (and, harmlessly, string literal text): the masked key
/// is case-sensitive, so each spelling must get its own template.
fn perturb(sql: &str, variant: u8) -> String {
    match variant % 6 {
        0 => sql.to_string(),
        1 => sql.replace(' ', "  \t "),
        2 => format!(
            "  /* c */ {} -- trail",
            sql.replace(" WHERE ", " /*x*/ WHERE ")
        ),
        3 => sql.replace(" = ", "="),
        4 => sql.replace("SELECT x FROM t", "select X from T"),
        _ => sql.to_uppercase(),
    }
}

/// One generated statement: shape, two number values with their forms, a
/// string literal, and a perturbation.
type Case = (Shape, (u64, u8), (u64, u8), String, u8);

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        shape_strategy(),
        (0u64..1_000_000, 0u8..4),
        (0u64..1_000, 0u8..4),
        "[a-z]{1,8}",
        0u8..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every statement of a stream answered by one shared cache renders and
    /// compares equal to its direct parse.
    #[test]
    fn cached_queries_equal_direct_parses(
        cases in prop::collection::vec(case_strategy(), 1..48),
    ) {
        let cache = QueryCache::default();
        let rec = Recorder::disabled();
        for (shape, (a, af), (b, bf), s, variant) in &cases {
            let sql = perturb(&render(shape, &number(*a, *af), &number(*b, *bf), s), *variant);
            let batched = cache.query(&sql, &rec);
            let direct = parse_select(&sql);
            prop_assert!(direct.is_some(), "generated SQL must parse: {}", sql);
            prop_assert_eq!(
                batched.as_ref().map(|q| q.to_string()),
                direct.as_ref().map(|q| q.to_string()),
                "render mismatch for {}", sql
            );
            prop_assert_eq!(&batched, &direct, "AST mismatch for {}", sql);
        }
    }
}
