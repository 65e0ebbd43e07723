//! The `adhoc_tail` input: a default-mix log whose human statements are
//! replaced by structurally distinct ones.
//!
//! Real logs carry a long tail of statements that share no shape with
//! anything else. The generator's human profile quantizes its shapes, so
//! almost every statement of its log hits the parse cache. Here each human
//! statement becomes a random projection with one to four predicates over a
//! catalog table's columns, which the parse cache cannot serve. A reload
//! (the generator's `Duplicate` intent) of a rewritten statement gets the
//! same replacement text, so duplicate elimination still sees it as a
//! duplicate. Everything is drawn from one RNG seeded by the workload seed
//! and walked in log order, so the output is a pure function of the seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sqlog_catalog::{skyserver_catalog, ColumnType};
use sqlog_log::{IntentKind, LogEntry, QueryLog};
use std::collections::HashMap;

/// Tables the replacement statements query: the photometric and spectral
/// tables, whose columns are numeric.
const TABLES: &[&str] = &["photoprimary", "photoobjall", "galaxy", "star", "specobj"];

const OPS: &[&str] = &["=", "<", ">", "<=", ">=", "<>"];

/// Rewrites the human statements of `log` in place, and their reloads.
pub fn rewrite_human_tail(log: &mut QueryLog, seed: u64) {
    let catalog = skyserver_catalog();
    let tables: Vec<(&str, Vec<(&str, ColumnType)>)> = TABLES
        .iter()
        .map(|&name| {
            let t = catalog.table(name).expect("catalog table");
            let cols = t.columns.iter().map(|c| (c.name.as_str(), c.ty)).collect();
            (name, cols)
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xad0c_7a11);
    // "user<TAB>original text" -> replacement, for the reloads that follow.
    let mut replaced: HashMap<String, String> = HashMap::new();
    let key = |e: &LogEntry| format!("{}\t{}", e.user_key(), e.statement);
    for e in &mut log.entries {
        match e.truth.map(|t| t.kind) {
            Some(IntentKind::Human) => {
                let (table, cols) = &tables[rng.random_range(0..tables.len())];
                let text = random_select(&mut rng, table, cols);
                replaced.insert(key(e), text.clone());
                e.statement = text;
            }
            Some(IntentKind::Duplicate) => {
                if let Some(text) = replaced.get(&key(e)) {
                    e.statement = text.clone();
                }
            }
            _ => {}
        }
    }
}

fn random_select(rng: &mut SmallRng, table: &str, cols: &[(&str, ColumnType)]) -> String {
    let mut sql = String::from("SELECT ");
    let projected = rng.random_range(1..=5usize);
    for i in 0..projected {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str(cols[rng.random_range(0..cols.len())].0);
    }
    sql.push_str(" FROM ");
    sql.push_str(table);
    let predicates = rng.random_range(1..=4usize);
    for i in 0..predicates {
        sql.push_str(if i == 0 { " WHERE " } else { " AND " });
        let (col, ty) = cols[rng.random_range(0..cols.len())];
        let literal = match ty {
            ColumnType::Float => format!("{:.3}", rng.random_range(0.0..360.0f64)),
            _ => rng.random_range(0..100_000i64).to_string(),
        };
        if rng.random_range(0..4u32) == 0 {
            sql.push_str(&format!("{col} BETWEEN {literal} AND {literal}9"));
        } else {
            let op = OPS[rng.random_range(0..OPS.len())];
            sql.push_str(&format!("{col} {op} {literal}"));
        }
    }
    sql
}
