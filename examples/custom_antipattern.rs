//! Extending the framework with a custom antipattern (§5.4 of the paper).
//!
//! The paper walks through adding "Searching Nullable Columns"; that one is
//! built in, so this example adds another classic from Karwin's *SQL
//! Antipatterns*: **Implicit Columns** (`SELECT *`). Detection flags every
//! wildcard projection; the solving rule expands `*` into the table's
//! explicit column list using the schema catalog.
//!
//! Run with `cargo run --example custom_antipattern`.

use sqlog::catalog::{skyserver_catalog, Catalog};
use sqlog::core::{
    AntipatternClass, AntipatternInstance, DetectCtx, Detector, ExtensionRegistry, Pipeline, Solver,
};
use sqlog::logmodel::{LogEntry, QueryLog, Timestamp};
use sqlog::sql::ast::{ObjectName, SelectItem, Statement};
use sqlog::sql::parse_statement;

/// Detects `SELECT *` on a known single table.
struct ImplicitColumnsDetector;

impl Detector for ImplicitColumnsDetector {
    fn name(&self) -> &str {
        "implicit-columns"
    }

    fn detect(&self, ctx: &DetectCtx<'_>) -> Vec<AntipatternInstance> {
        let mut out = Vec::new();
        // Session-local scan, as the `DetectCtx` contract requires: the
        // pipeline shards detection by session range, so iterating
        // `ctx.records` directly would double-count across shards.
        for session in ctx.sessions {
            for &ri in &session.records {
                let rec = &ctx.records[ri];
                // Only solvable when the table (and thus the column list)
                // is known to the catalog.
                let solvable = rec
                    .shape
                    .primary_table
                    .as_deref()
                    .is_some_and(|t| ctx.catalog.table(t).is_some());
                if rec.shape.output.wildcard && rec.shape.output.names.is_empty() {
                    out.push(AntipatternInstance {
                        class: AntipatternClass::Custom("ImplicitColumns".into()),
                        records: vec![ri],
                        identity: vec![rec.template],
                        marker_keys: vec![vec![rec.template]],
                        solvable,
                    });
                }
            }
        }
        out
    }
}

/// Expands `*` into the catalog's column list.
struct ImplicitColumnsSolver;

impl Solver for ImplicitColumnsSolver {
    fn name(&self) -> &str {
        "implicit-columns"
    }

    fn solve(&self, inst: &AntipatternInstance, ctx: &DetectCtx<'_>) -> Option<Vec<String>> {
        let ri = *inst.records.first()?;
        let rec = &ctx.records[ri];
        let table = ctx.catalog.table(rec.shape.primary_table.as_deref()?)?;
        let entry = ctx.log.entry(rec.entry_idx as usize);
        let Statement::Select(mut q) = parse_statement(&entry.statement).ok()? else {
            return None;
        };
        let explicit: Vec<SelectItem> = table
            .columns
            .iter()
            .map(|c| SelectItem::column(ObjectName::simple(c.name.clone())))
            .collect();
        q.body.projection = q
            .body
            .projection
            .into_iter()
            .flat_map(|item| match item {
                SelectItem::Wildcard => explicit.clone(),
                other => vec![other],
            })
            .collect();
        Some(vec![q.to_string()])
    }
}

fn run(catalog: &Catalog, log: &QueryLog) {
    let detector = ImplicitColumnsDetector;
    let solver = ImplicitColumnsSolver;
    let extensions = ExtensionRegistry::new()
        .with_detector(&detector)
        .with_solver("ImplicitColumns", &solver);
    let result = Pipeline::new(catalog).with_extensions(extensions).run(log);

    println!("clean log:");
    for e in &result.clean_log.entries {
        println!("  {}", e.statement);
    }
    println!("\ninstances:");
    for inst in &result.instances {
        println!(
            "  {:<16} solvable: {}",
            inst.class.to_string(),
            inst.solvable
        );
    }
}

fn main() {
    let catalog = skyserver_catalog();
    let log = QueryLog::from_entries(vec![
        LogEntry::minimal(
            0,
            "SELECT * FROM dbobjects WHERE rank > 3",
            Timestamp::from_secs(0),
        )
        .with_user("u"),
        LogEntry::minimal(
            1,
            "SELECT name FROM dbobjects WHERE rank > 3",
            Timestamp::from_secs(60),
        )
        .with_user("u"),
        // A wildcard on an unknown table: detected but unsolvable.
        LogEntry::minimal(
            2,
            "SELECT * FROM mystery_table WHERE x = 1",
            Timestamp::from_secs(120),
        )
        .with_user("u"),
    ]);
    run(&catalog, &log);
}
