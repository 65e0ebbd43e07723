//! `minidb_replay`: the SELECTs of a generated log slice and of its clean
//! log, replayed in log order by one client (a closed loop) against the
//! SkyServer-like minidb database.

use crate::procfs::Clock;
use crate::quantile;
use crate::tracer::Tracer;
use crate::workload::{pipeline_config, Iteration, Workload};
use sqlog_catalog::skyserver_catalog;
use sqlog_core::Pipeline;
use sqlog_gen::{generate, GenConfig};
use sqlog_minidb::datagen::skyserver_db;
use sqlog_minidb::{ExecResult, MiniDb, PlannedExec};
use sqlog_obs::Recorder;
use sqlog_skeleton::Fnv1a;
use sqlog_sql::ast::{Query, Statement};
use sqlog_sql::parse_statement;
use std::time::Instant;

pub struct Replay {
    db: MiniDb,
    /// Parsed statements the planner accepts, in replay order.
    queries: Vec<Query>,
    /// SELECTs the planner rejects (table-valued functions and the like):
    /// left out of the replay, not failed.
    excluded: usize,
    /// Per-statement result digests of the first iteration.
    first: Option<Vec<u64>>,
}

impl Replay {
    /// Generates a `log_entries` slice from `seed`, cleans it, builds a
    /// database with `db_rows` rows per photometric table, and parses and
    /// plans every SELECT of both logs.
    pub fn new(seed: u64, log_entries: usize, db_rows: usize) -> Replay {
        let log = generate(&GenConfig::with_scale(log_entries, seed));
        let catalog = skyserver_catalog();
        let clean = Pipeline::new(&catalog)
            .with_config(pipeline_config(Recorder::disabled()))
            .run(&log)
            .clean_log;
        let db = skyserver_db(db_rows, seed);
        let mut queries = Vec::new();
        let mut excluded = 0;
        for entry in log.entries.iter().chain(&clean.entries) {
            if let Ok(Statement::Select(q)) = parse_statement(&entry.statement) {
                if db.plan(&q).is_ok() {
                    queries.push(*q);
                } else {
                    excluded += 1;
                }
            }
        }
        Replay {
            db,
            queries,
            excluded,
            first: None,
        }
    }
}

impl Workload for Replay {
    fn entries(&self) -> u64 {
        self.queries.len() as u64
    }

    fn iterate(&mut self, tracer: &mut Tracer) -> Result<Iteration, String> {
        let n = self.queries.len();
        let mut latency_us = Vec::with_capacity(n);
        let mut plan_us = Vec::with_capacity(if tracer.is_on() { n } else { 0 });
        let mut seeks = 0usize;
        let mut scans = 0usize;
        let mut outputs: Vec<Option<PlannedExec>> = Vec::with_capacity(n);
        let clock = Clock::start();
        for q in &self.queries {
            if tracer.is_on() {
                // Traced only: the planner on its own, so its share shows.
                let t = Instant::now();
                let plan = self.db.plan(q);
                plan_us.push(t.elapsed().as_secs_f64() * 1e6);
                if let Ok(plan) = plan {
                    let all = plan.scans();
                    scans += all.len();
                    seeks += all.iter().filter(|s| s.access.is_seek()).count();
                }
            }
            let t = Instant::now();
            let out = self.db.execute_query_planned(q);
            latency_us.push(t.elapsed().as_secs_f64() * 1e6);
            outputs.push(out.ok());
        }
        let (wall_s, cpu_s) = clock.read();

        let digests: Vec<u64> = outputs
            .iter()
            .map(|o| o.as_ref().map_or(0, |p| rows_digest(&p.result)))
            .collect();
        let first = self.first.get_or_insert_with(|| digests.clone());
        let failed = outputs
            .iter()
            .zip(digests.iter().zip(first.iter()))
            .filter(|(out, (d, f))| out.is_none() || d != f)
            .count();

        let p50 = quantile(&mut latency_us, 0.5);
        let p99 = quantile(&mut latency_us, 0.99);
        if tracer.is_on() {
            let (scanned, produced) = outputs.iter().flatten().fold((0u64, 0u64), |(s, p), o| {
                (s + o.ops.storage_scanned(), p + o.result.rows.len() as u64)
            });
            tracer.add("minidb.plan_us", quantile(&mut plan_us, 0.5));
            tracer.add("minidb.exec_us", p50);
            tracer.add("minidb.exec_p99_us", p99);
            tracer.add(
                "minidb.rows_scanned_per_row",
                scanned as f64 / produced.max(1) as f64,
            );
            tracer.add("minidb.seek_frac", seeks as f64 / scans.max(1) as f64);
        }
        Ok(Iteration {
            wall_s,
            cpu_s,
            attempted: n as u64,
            failed: failed as u64,
            extra: vec![
                ("stmt_per_s", "1/s", n as f64 / wall_s),
                ("stmt_p50_us", "us", p50),
                ("stmt_p99_us", "us", p99),
            ],
        })
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} statements replayed, {} SELECTs rejected by the planner and excluded",
            self.queries.len(),
            self.excluded
        )]
    }
}

/// FNV-1a over the rendered result rows.
fn rows_digest(result: &ExecResult) -> u64 {
    let mut h = Fnv1a::new();
    for row in &result.rows {
        for v in row {
            h.update(v.to_string().as_bytes());
            h.update(b"\t");
        }
        h.update(b"\n");
    }
    h.finish().0
}
