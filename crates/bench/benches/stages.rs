//! Microbenchmarks of the pipeline stages: parse, skeletonize, dedup, mine,
//! detect, solve — the components every experiment driver composes.
//!
//! Note on the `*_parallel` benches: the parallel implementations are
//! equivalence-tested against their sequential twins and scale with cores;
//! on a single-core runner they only measure the coordination overhead.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use sqlog_catalog::skyserver_catalog;
use sqlog_core::{
    build_sessions, dedup, mine_patterns, parse_log, Pipeline, PipelineConfig, TemplateStore,
};
use sqlog_gen::{generate, GenConfig};
use sqlog_skeleton::QueryTemplate;
use sqlog_sql::parse_statement;
use std::hint::black_box;
use std::time::Duration;

const SCALE: usize = 8_000;
const SEED: u64 = 77;

fn bench_parse(c: &mut Criterion) {
    let log = generate(&GenConfig::with_scale(SCALE, SEED));
    let mut group = c.benchmark_group("stage_parse");
    group.throughput(Throughput::Elements(log.len() as u64));
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));

    group.bench_function("parse_statement_each", |b| {
        b.iter(|| {
            let mut ok = 0usize;
            for e in &log.entries {
                if parse_statement(black_box(&e.statement)).is_ok() {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    group.bench_function("parse_log_parallel", |b| {
        b.iter(|| {
            let store = TemplateStore::new();
            black_box(parse_log(&log, &store, 0).stats.selects)
        })
    });
    group.finish();
}

fn bench_skeleton(c: &mut Criterion) {
    let log = generate(&GenConfig::with_scale(SCALE, SEED));
    let queries: Vec<_> = log
        .entries
        .iter()
        .filter_map(|e| match parse_statement(&e.statement) {
            Ok(sqlog_sql::Statement::Select(q)) => Some(*q),
            _ => None,
        })
        .collect();
    let mut group = c.benchmark_group("stage_skeleton");
    group.throughput(Throughput::Elements(queries.len() as u64));
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("template_of_query", |b| {
        b.iter(|| {
            for q in &queries {
                black_box(QueryTemplate::of_query(black_box(q)));
            }
        })
    });
    group.finish();
}

fn bench_dedup(c: &mut Criterion) {
    let log = generate(&GenConfig::with_scale(SCALE, SEED));
    let mut group = c.benchmark_group("stage_dedup");
    group.throughput(Throughput::Elements(log.len() as u64));
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for (label, t) in [("1s", Some(1_000u64)), ("unrestricted", None)] {
        group.bench_function(label, |b| b.iter(|| black_box(dedup(&log, t).1.removed)));
    }
    group.finish();
}

fn bench_mine_and_detect(c: &mut Criterion) {
    let log = generate(&GenConfig::with_scale(SCALE, SEED));
    let (pre, _) = dedup(&log, Some(1_000));
    let store = TemplateStore::new();
    let parsed = parse_log(&pre, &store, 0);
    let cfg = PipelineConfig::default();
    let sessions = build_sessions(&pre, &parsed.records, cfg.session_gap_ms);

    let mut group = c.benchmark_group("stage_mine_detect");
    group.throughput(Throughput::Elements(parsed.records.len() as u64));
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("build_sessions", |b| {
        b.iter(|| {
            black_box(
                build_sessions(&pre, &parsed.records, cfg.session_gap_ms)
                    .sessions
                    .len(),
            )
        })
    });
    group.bench_function("mine_patterns", |b| {
        b.iter(|| {
            black_box(
                mine_patterns(&sessions, &parsed.records, &cfg)
                    .patterns
                    .len(),
            )
        })
    });
    let catalog = skyserver_catalog();
    let view = sqlog_log::LogView::identity(&pre);
    group.bench_function("detect_builtin", |b| {
        b.iter(|| {
            let ctx = sqlog_core::DetectCtx {
                log: &view,
                records: &parsed.records,
                sessions: &sessions.sessions,
                store: &store,
                catalog: &catalog,
                config: &cfg,
            };
            black_box(sqlog_core::detect::detect_builtin(&ctx).len())
        })
    });
    group.finish();
}

/// The parse stage alone, template-aware parse cache on vs off, on the
/// same ~100k-entry log as `pipeline_sharded`. The cache-on row is the
/// acceptance number: repeated query shapes skip lexing/parsing entirely,
/// so parse-stage throughput must be a multiple of the cache-off row.
fn bench_parse_cache(c: &mut Criterion) {
    use sqlog_core::{parse_view_traced, ParseOptions};
    use sqlog_obs::Recorder;

    let log = generate(&GenConfig::with_scale(100_000, SEED));
    let view = sqlog_log::LogView::identity(&log);
    let rec = Recorder::disabled();
    let mut group = c.benchmark_group("parse_cache");
    group.throughput(Throughput::Elements(log.len() as u64));
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    for (label, cache) in [("cache_off", false), ("cache_on", true)] {
        let options = ParseOptions {
            cache,
            ..ParseOptions::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let store = TemplateStore::new();
                let parsed = parse_view_traced(&view, &store, &options, 1, &rec, None);
                black_box((parsed.stats.selects, parsed.cache.hits))
            })
        });
    }
    group.finish();
}

/// The tentpole benchmark: the full pipeline under increasing
/// `parallelism`, on a log large enough for sharding to matter. Thread
/// counts cover sequential (1), minimal sharding (2), and one worker per
/// available core. The `threads_1_nocache` row isolates what the parse
/// cache contributes end-to-end.
fn bench_pipeline_sharded(c: &mut Criterion) {
    let catalog = skyserver_catalog();
    let log = generate(&GenConfig::with_scale(100_000, SEED));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize, 2, cores];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    let mut group = c.benchmark_group("pipeline_sharded");
    group.throughput(Throughput::Elements(log.len() as u64));
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    let mut rows: Vec<(String, usize, bool)> = thread_counts
        .iter()
        .map(|&t| (format!("threads_{t}"), t, true))
        .collect();
    rows.push(("threads_1_nocache".to_string(), 1, false));
    for (label, threads, parse_cache) in rows {
        let cfg = PipelineConfig {
            parallelism: threads,
            parse_cache,
            ..PipelineConfig::default()
        };
        group.bench_function(&label, |b| {
            b.iter(|| {
                black_box(
                    Pipeline::new(&catalog)
                        .with_config(cfg.clone())
                        .run(&log)
                        .stats
                        .final_size,
                )
            })
        });
    }
    group.finish();
}

/// The paper-scale axis: full pipeline throughput at 100k and 1M entries
/// (threads=1, cache on — the configuration the stage_breakdown and
/// peak-RSS rows in BENCH_pipeline.json are recorded under). SkyServer's
/// cleaned log is tens of millions of statements; this axis pins that
/// throughput does not degrade nonlinearly between the two scales.
fn bench_pipeline_scale(c: &mut Criterion) {
    let catalog = skyserver_catalog();
    let mut group = c.benchmark_group("pipeline_scale");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    for (scale, name) in [
        (100_000usize, "entries_100000"),
        (1_000_000, "entries_1000000"),
    ] {
        let log = generate(&GenConfig::with_scale(scale, SEED));
        group.throughput(Throughput::Elements(log.len() as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    Pipeline::new(&catalog)
                        .with_config(PipelineConfig {
                            parallelism: 1,
                            ..PipelineConfig::default()
                        })
                        .run(&log)
                        .stats
                        .final_size,
                )
            })
        });
    }
    group.finish();
}

fn bench_full_pipeline(c: &mut Criterion) {
    let catalog = skyserver_catalog();
    let log = generate(&GenConfig::with_scale(SCALE, SEED));
    let mut group = c.benchmark_group("stage_full_pipeline");
    group.throughput(Throughput::Elements(log.len() as u64));
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("run", |b| {
        b.iter_batched(
            || log.clone(),
            |l| black_box(Pipeline::new(&catalog).run(&l).stats.final_size),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_cluster(c: &mut Criterion) {
    use sqlog_cluster::{cluster_regions, cluster_regions_traced, region_of_query, Region};
    let log = generate(&GenConfig::with_scale(SCALE, SEED));
    // Distinct regions of the log's SELECTs.
    let mut by_key = std::collections::HashMap::new();
    let mut regions: Vec<Region> = Vec::new();
    let mut weights: Vec<u64> = Vec::new();
    for e in &log.entries {
        let Ok(stmt) = parse_statement(&e.statement) else {
            continue;
        };
        let Some(q) = stmt.as_select() else { continue };
        let r = region_of_query(q);
        let key = r.key();
        match by_key.get(&key) {
            Some(&i) => weights[i] += 1,
            None => {
                by_key.insert(key, regions.len());
                regions.push(r);
                weights.push(1);
            }
        }
    }
    let mut group = c.benchmark_group("stage_cluster");
    group.throughput(Throughput::Elements(regions.len() as u64));
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("sequential", |b| {
        b.iter(|| black_box(cluster_regions(&regions, &weights, 0.9).count()))
    });
    group.bench_function("parallel", |b| {
        let none = sqlog_obs::Recorder::disabled();
        b.iter(|| black_box(cluster_regions_traced(&regions, &weights, 0.9, 0, &none).count()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_skeleton,
    bench_dedup,
    bench_mine_and_detect,
    bench_full_pipeline,
    bench_parse_cache,
    bench_pipeline_sharded,
    bench_pipeline_scale,
    bench_cluster
);
criterion_main!(benches);
