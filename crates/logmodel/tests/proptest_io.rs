//! Property tests: the TSV log format round-trips arbitrary content.

use proptest::prelude::*;
use sqlog_log::{read_log, write_log, GroundTruth, IntentKind, LogEntry, QueryLog, Timestamp};

fn intent_strategy() -> impl Strategy<Value = IntentKind> {
    prop_oneof![
        Just(IntentKind::Human),
        Just(IntentKind::WebUi),
        Just(IntentKind::StifleDw),
        Just(IntentKind::StifleDs),
        Just(IntentKind::StifleDf),
        Just(IntentKind::CthSource),
        Just(IntentKind::CthFollowUp),
        Just(IntentKind::CthCoincidental),
        Just(IntentKind::Sws),
        Just(IntentKind::Duplicate),
        Just(IntentKind::NonSelect),
        Just(IntentKind::Malformed),
        Just(IntentKind::Snc),
    ]
}

fn entry_strategy() -> impl Strategy<Value = LogEntry> {
    (
        any::<u64>(),
        // Statements with every escaping hazard: tabs, newlines, CRs,
        // backslashes, unicode.
        ".{0,80}",
        any::<i64>().prop_map(|ms| ms % 10_000_000_000_000),
        prop::option::of("[0-9.]{1,15}"),
        prop::option::of("[a-z0-9-]{1,10}"),
        prop::option::of(any::<u64>()),
        prop::option::of((intent_strategy(), any::<u64>())),
    )
        .prop_map(|(id, statement, ms, user, session, rows, truth)| LogEntry {
            id,
            statement,
            timestamp: Timestamp::from_millis(ms),
            user,
            session,
            rows,
            truth: truth.map(|(kind, group)| GroundTruth { kind, group }),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tsv_round_trip(entries in prop::collection::vec(entry_strategy(), 0..400)) {
        let log = QueryLog::from_entries(entries);
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(&buf[..]).unwrap();
        prop_assert_eq!(log, back);
    }

    #[test]
    fn sort_is_idempotent_and_total(entries in prop::collection::vec(entry_strategy(), 0..40)) {
        let mut log = QueryLog::from_entries(entries);
        log.sort_by_time();
        prop_assert!(log.is_time_sorted());
        let snapshot = log.clone();
        log.sort_by_time();
        prop_assert_eq!(log, snapshot);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Logs of several 8192-entry render blocks, so the writer shards them
    /// over its workers whenever the machine has more than one core.
    #[test]
    fn tsv_round_trip_across_render_blocks(
        entries in prop::collection::vec(entry_strategy(), 16_000..26_000)
    ) {
        let log = QueryLog::from_entries(entries);
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(&buf[..]).unwrap();
        prop_assert_eq!(log, back);
    }
}
