//! Guard for the observability overhead contract (DESIGN.md): with the
//! recorder disabled, instrumentation must cost **< 1 %** of the wall time
//! of a threads-1 pipeline run.
//!
//! There is no uninstrumented build to A/B against, so the guard bounds the
//! disabled path from first principles: it measures the wall time of a
//! threads-1 pipeline run, measures the per-call cost of the disabled
//! recorder primitives directly, multiplies by a deliberately generous
//! estimate of how many primitive calls one run makes, and asserts the
//! product stays under the contract. Comparing two wall-clock runs of the
//! same binary would only measure scheduler noise.
//!
//! Exit code 0 = contract holds, 1 = violated. `--scale N` changes the
//! workload size (default 20 000 queries; CI uses the default),
//! `--max-pct P` the threshold (default 1.0), and `--json PATH` writes the
//! measurements as a JSON object for CI to keep as an artifact. The
//! benchmark of record, `perfbench/`, reports the enabled recorder's cost
//! as `trace.overhead_pct`.

use sqlog_catalog::skyserver_catalog;
use sqlog_core::{Pipeline, PipelineConfig};
use sqlog_gen::{generate, GenConfig};
use sqlog_obs::{Json, Recorder};
use std::hint::black_box;
use std::time::Instant;

const USAGE: &str = "usage: obs_guard [--scale N] [--max-pct P] [--json PATH]";

fn main() {
    let mut scale = 20_000usize;
    let mut max_pct = 1.0f64;
    let mut json_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --scale needs a number");
                    std::process::exit(2);
                })
            }
            "--max-pct" => {
                max_pct = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --max-pct needs a number");
                    std::process::exit(2);
                });
                if !max_pct.is_finite() || max_pct <= 0.0 {
                    eprintln!("error: --max-pct must be positive");
                    std::process::exit(2);
                }
            }
            "--json" => {
                json_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("error: --json needs a path");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!("error: unknown option {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let catalog = skyserver_catalog();
    let log = generate(&GenConfig::with_scale(scale, 77));

    // Pipeline wall time: threads 1, recorder disabled (the default
    // config). Best of three shaves scheduler noise.
    let mut wall = f64::INFINITY;
    for _ in 0..3 {
        let cfg = PipelineConfig {
            parallelism: 1,
            ..PipelineConfig::default()
        };
        let t = Instant::now();
        black_box(
            Pipeline::new(&catalog)
                .with_config(cfg)
                .run(&log)
                .stats
                .final_size,
        );
        wall = wall.min(t.elapsed().as_secs_f64());
    }

    // Per-call cost of the disabled primitives. `black_box` keeps the
    // compiler from proving the recorder disabled and folding the loops
    // away — in the pipeline the recorder arrives through runtime config,
    // so that optimization is not available there either.
    let rec = black_box(Recorder::disabled());
    const ITERS: u64 = 2_000_000;
    // Counters and histograms: the only primitives called per record (the
    // template store's intern counters); everything else is per stage or
    // per shard.
    let t = Instant::now();
    for i in 0..ITERS {
        rec.counter("guard", black_box(i) & 1);
        rec.histogram("guard", black_box(i));
    }
    let counter_cost = t.elapsed().as_secs_f64() / ITERS as f64;
    // Stage spans (progress declaration, a span whose clock always runs,
    // finish) with a field and a gauge update: a costlier superset of a
    // shard's span and progress update, so this times both.
    let t = Instant::now();
    for i in 0..ITERS {
        let mut g = rec.stage("guard", black_box(i));
        g.field("k", black_box(i));
        rec.stage_add_items(black_box(i));
        black_box(g.finish());
    }
    let stage_cost = t.elapsed().as_secs_f64() / ITERS as f64;

    // Bound the per-run call counts generously: four per-record counter
    // calls (the worst stage makes at most two), and a thousand stage
    // spans, each standing for a span and a progress update (a run opens a
    // dozen stage spans and a few dozen shard spans).
    let bound = counter_cost * (4 * log.len()) as f64 + stage_cost * 1_000.0;
    let pct = 100.0 * bound / wall;
    println!("pipeline threads_1 wall time: {wall:.3} s ({scale} queries)");
    println!(
        "disabled primitive costs: {:.2} ns per counter+histogram pair, {:.2} ns per stage span",
        counter_cost * 1e9,
        stage_cost * 1e9
    );
    println!(
        "bounded overhead: {:.1} us per run -> {pct:.4}% (contract < {max_pct}%)",
        bound * 1e6
    );
    let pass = pct < max_pct;

    if let Some(path) = &json_path {
        // Fixed-point µ-units keep the exact-integer JSON model exact:
        // *_pct fields carry 1/10000ths of a percent, costs nanoseconds.
        let j = Json::obj(vec![
            ("scale", Json::U64(scale as u64)),
            ("wall_us", Json::U64((wall * 1e6) as u64)),
            ("counter_pair_ns", Json::U64((counter_cost * 1e9) as u64)),
            ("stage_ns", Json::U64((stage_cost * 1e9) as u64)),
            ("bound_us", Json::U64((bound * 1e6) as u64)),
            ("overhead_pct_e4", Json::U64((pct * 1e4) as u64)),
            ("max_pct_e4", Json::U64((max_pct * 1e4) as u64)),
            ("pass", Json::Bool(pass)),
        ]);
        if let Err(e) = std::fs::write(path, j.render() + "\n") {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote measurements to {path}");
    }

    if !pass {
        eprintln!("FAIL: disabled-recorder overhead bound {pct:.4}% >= {max_pct}%");
        std::process::exit(1);
    }
    println!("OK: disabled-recorder overhead contract holds");
}
