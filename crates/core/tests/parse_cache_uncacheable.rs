//! Regression pins for the parse cache's *uncacheable* shapes.
//!
//! The raw shape key collapses every number and string literal, so two
//! statements can share a [`RawKey`] while meaning different templates
//! (`CAST(x AS DECIMAL(10,2))` vs `DECIMAL(12,4)` — the type size is part
//! of the skeleton) or while carrying literal text the substitution recipe
//! cannot splice back verbatim (`''`-escaped strings). The sentinel probe
//! must mark those shapes uncacheable and every statement of the shape must
//! take the full-parse path — same records, same pipeline bytes, cache on
//! or off.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::{Pipeline, PipelineConfig, TemplateStore};
use sqlog_log::{write_log, LogEntry, LogView, QueryLog, Timestamp};
use sqlog_skeleton::{raw_shape_scan, QueryTemplate};
use sqlog_sql::parse_query;

fn log_of(statements: &[&str]) -> QueryLog {
    QueryLog::from_entries(
        statements
            .iter()
            .enumerate()
            .map(|(i, s)| {
                LogEntry::minimal(i as u64, *s, Timestamp::from_secs(10 * i as i64)).with_user("u")
            })
            .collect(),
    )
}

fn parse_with_cache(
    log: &QueryLog,
    cache: bool,
    threads: usize,
) -> (String, sqlog_core::ParseCacheStats) {
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog).with_config(PipelineConfig {
        parse_cache: cache,
        parallelism: threads,
        ..PipelineConfig::default()
    });
    let parsed = pipeline.op_parse(&LogView::identity(log), &TemplateStore::new());
    (format!("{:?}", parsed.records), parsed.cache)
}

#[test]
fn cast_type_sizes_share_a_raw_key_but_not_a_template() {
    let a = "SELECT CAST(ra AS DECIMAL(10,2)) FROM photoprimary WHERE objid = 1";
    let b = "SELECT CAST(ra AS DECIMAL(12,4)) FROM photoprimary WHERE objid = 1";
    let (mut va, mut vb) = (Vec::new(), Vec::new());
    assert_eq!(
        raw_shape_scan(a, &mut va),
        raw_shape_scan(b, &mut vb),
        "the raw key cannot see type sizes — that is the hazard"
    );
    let ta = QueryTemplate::of_query(&parse_query(a).unwrap());
    let tb = QueryTemplate::of_query(&parse_query(b).unwrap());
    assert_ne!(
        ta.fingerprint, tb.fingerprint,
        "the skeleton renders the type size, so the templates differ"
    );
}

#[test]
fn cast_shapes_never_hit_the_cache() {
    // Ten control statements of one cacheable shape, then interleaved CAST
    // variants whose raw keys collide across different templates.
    let mut statements: Vec<String> = (0..10)
        .map(|i| format!("SELECT ra FROM photoprimary WHERE objid = {i}"))
        .collect();
    for i in 0..6 {
        let (p, s) = if i % 2 == 0 { (10, 2) } else { (12, 4) };
        statements.push(format!(
            "SELECT CAST(ra AS DECIMAL({p},{s})) FROM photoprimary WHERE objid = {i}"
        ));
    }
    let refs: Vec<&str> = statements.iter().map(|s| s.as_str()).collect();
    let log = log_of(&refs);

    let (with_cache, stats) = parse_with_cache(&log, true, 1);
    let (without_cache, off_stats) = parse_with_cache(&log, false, 1);
    assert_eq!(with_cache, without_cache, "records must be byte-identical");
    assert!(stats.enabled);
    assert!(!off_stats.enabled);
    // Only the control shape may serve hits: 10 statements = 1 miss + 9
    // hits. Every CAST statement must fall back to a full parse.
    assert_eq!(stats.hits, 9, "{stats:?}");
    assert!(stats.fallbacks >= 5, "{stats:?}");
}

#[test]
fn escaped_strings_never_serve_stale_literals() {
    // Same raw key (both literals collapse to one string placeholder), but
    // the `''` escape means the recorded span is not the literal's value —
    // splicing it into a cached profile verbatim would corrupt the second
    // statement's predicate.
    let log = log_of(&[
        "SELECT access FROM dbobjects WHERE name = 'O''Hara'",
        "SELECT access FROM dbobjects WHERE name = 'D''Arcy'",
    ]);
    let (with_cache, _) = parse_with_cache(&log, true, 1);
    let (without_cache, _) = parse_with_cache(&log, false, 1);
    assert_eq!(with_cache, without_cache);
    // The two records must differ from each other — the second statement's
    // profile carries its own literal, not a stale cached one.
    assert!(with_cache.contains("Arcy"), "{with_cache}");
}

#[test]
fn pipeline_bytes_identical_across_cache_setting_on_hazard_shapes() {
    let catalog = skyserver_catalog();
    let log = log_of(&[
        "SELECT CAST(ra AS DECIMAL(10,2)) FROM photoprimary WHERE objid = 11",
        "SELECT CAST(ra AS DECIMAL(12,4)) FROM photoprimary WHERE objid = 12",
        "SELECT access FROM dbobjects WHERE name = 'O''Hara'",
        "SELECT ra, rowc_g FROM photoprimary WHERE objid = 587722982000000000",
        "SELECT ra, rowc_g FROM photoprimary WHERE objid = 587722982000001000",
    ]);
    let run = |cache: bool| {
        let result = Pipeline::new(&catalog)
            .with_config(PipelineConfig {
                parse_cache: cache,
                ..PipelineConfig::default()
            })
            .run(&log);
        let mut clean = Vec::new();
        let mut removal = Vec::new();
        write_log(&result.clean_log, &mut clean).unwrap();
        write_log(&result.removal_log, &mut removal).unwrap();
        (clean, removal, format!("{:?}", result.stats.per_class))
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn lexer_hostile_statements_parse_alike_with_the_cache_on_or_off() {
    // Pairs that scan to the same lexemes, and so share a raw key: a byte
    // the lexer rejects at the same place in the stream, and two spellings
    // of the same operator run.
    let merged = [
        (
            "SELECT objid FROM photoprimary WHERE type = 7$ AND run = 1",
            "SELECT objid FROM photoprimary WHERE type = 7 $AND run = 1",
        ),
        (
            "SELECT objid FROM photoprimary WHERE type = ==6",
            "SELECT objid FROM photoprimary WHERE type ===6",
        ),
    ];
    for (a, b) in merged {
        let (mut va, mut vb) = (Vec::new(), Vec::new());
        let key = raw_shape_scan(a, &mut va);
        assert!(key.is_some(), "{a}");
        assert_eq!(key, raw_shape_scan(b, &mut vb), "{a} / {b}");
    }
    // A quoted keyword is a plain identifier, so it keeps a key of its own.
    assert_ne!(
        raw_shape_scan("[select] x", &mut Vec::new()),
        raw_shape_scan("select x", &mut Vec::new())
    );
    let mut statements = vec![
        "SELECT [select] FROM photoprimary WHERE objid = 1",
        "SELECT select FROM photoprimary WHERE objid = 1",
        // Unkeyable: unterminated string, quoted identifier and block
        // comment, and a bare `@`.
        "SELECT objid FROM photoprimary WHERE name = 'oops",
        "SELECT [objid FROM photoprimary",
        "SELECT objid FROM photoprimary /* oops",
        "SELECT objid FROM photoprimary WHERE ra = @ AND dec = 1",
    ];
    statements.extend(merged.iter().flat_map(|&(a, b)| [a, b]));
    let repeated: Vec<&str> = statements.iter().flat_map(|&s| [s, s, s]).collect();
    let log = log_of(&repeated);

    let (reference, _) = parse_with_cache(&log, false, 1);
    for threads in [1, 2] {
        for cache in [false, true] {
            let (records, stats) = parse_with_cache(&log, cache, threads);
            assert_eq!(records, reference, "cache {cache}, {threads} threads");
            if cache {
                // Each unkeyable statement falls back to a full parse.
                assert!(stats.fallbacks >= 12, "{stats:?}");
            }
        }
    }
}
