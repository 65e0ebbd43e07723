//! The sqlog benchmark of record.
//!
//! ```text
//! sqlog-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times from the seed (the median is
//! `setup_s`), runs one warm-up iteration, then iterates for `--seconds`,
//! checking every iteration's output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced iterations and
//! reports the per-layer metrics. A readable summary goes to stderr; the
//! last line of stdout is one JSON object. See `README.md` beside this
//! crate for the workloads and what each metric should move.

mod adhoc;
mod clean;
mod procfs;
mod replay;
mod tracer;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tracer::Tracer;
use workload::Iteration;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest measured (untraced) iterations per run, however long they take.
const MIN_ITERATIONS: usize = 5;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("entries_per_s", "1/s"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A layer a workload does
/// not call reads 0 on it. `trace.overhead_pct` is the traced iterations'
/// median wall time over the untraced ones', less one, in percent.
const PER_LAYER: [(&str, &str); 43] = [
    ("ingest.ms", "ms"),
    ("ingest.cpu_ms", "ms"),
    ("ingest.rss_delta_mb", "MB"),
    ("sort.ms", "ms"),
    ("dedup.ms", "ms"),
    ("dedup.cpu_ms", "ms"),
    ("dedup.removed", "count"),
    ("dedup.prefilter_hit_ratio", "ratio"),
    ("parse.ms", "ms"),
    ("parse.cpu_ms", "ms"),
    ("parse.cache_hit_ratio", "ratio"),
    ("parse.templates", "count"),
    ("parse.rss_delta_mb", "MB"),
    ("sessions.ms", "ms"),
    ("mine.ms", "ms"),
    ("mine.patterns", "count"),
    ("detect.ms", "ms"),
    ("detect.instances", "count"),
    ("solve.ms", "ms"),
    ("solve.cpu_ms", "ms"),
    ("solve.rewrites", "count"),
    ("solve.batched_templates", "count"),
    ("assemble.ms", "ms"),
    ("write.ms", "ms"),
    ("write.bytes", "bytes"),
    ("checkpoint.cold_ms", "ms"),
    ("checkpoint.resume_ms", "ms"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.load_ms", "ms"),
    ("checkpoint.bytes.ingest", "bytes"),
    ("checkpoint.bytes.dedup", "bytes"),
    ("checkpoint.bytes.parse", "bytes"),
    ("checkpoint.bytes.sessions", "bytes"),
    ("checkpoint.bytes.mine", "bytes"),
    ("checkpoint.bytes.detect", "bytes"),
    ("checkpoint.bytes.solve", "bytes"),
    ("checkpoint.stored_bytes_ratio", "ratio"),
    ("minidb.plan_us", "us"),
    ("minidb.exec_us", "us"),
    ("minidb.exec_p99_us", "us"),
    ("minidb.rows_scanned_per_row", "ratio"),
    ("minidb.seek_frac", "ratio"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str =
    "usage: sqlog-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            map.insert(flag, value);
        }
        let mut take = |flag: &str| map.remove(flag).ok_or(format!("missing {flag}"));
        let number = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        let workload = take("--workload")?;
        if !workload::NAMES.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload:?}; choose one of {:?}",
                workload::NAMES
            ));
        }
        let seed = number("--seed", take("--seed")?)?;
        let seconds = number("--seconds", take("--seconds")?)?;
        let trace = match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other}")),
        };
        if let Some(flag) = map.keys().next() {
            return Err(format!("unknown option {flag}"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// A scratch directory for one run's files, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let path = Path::new("perfbench")
            .join("work")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The `q`-quantile by nearest rank (`values` is reordered); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&mut values.into_iter().collect::<Vec<_>>(), 0.5)
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sqlog-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sqlog-perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs the benchmark and returns its JSON result line.
fn run(args: &Args) -> Result<String, String> {
    let work = WorkDir::create(&args.workload)?;
    let mut setup_s = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take());
        let t = Instant::now();
        workload = Some(workload::setup(&args.workload, args.seed, &work.0)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    workload.prepare()?;
    // Warm-up: fills the page cache and the allocator's pools, and fixes
    // the output every later iteration must reproduce.
    let warm = workload.iterate(&mut Tracer::new(false))?;
    let mut attempted = warm.attempted;
    let mut failed = warm.failed;

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut untraced: Vec<Iteration> = Vec::new();
    let mut peak_rss_mb: Vec<f64> = Vec::new();
    let mut traced: Vec<(Iteration, BTreeMap<String, f64>)> = Vec::new();
    while untraced.len() < MIN_ITERATIONS || Instant::now() < deadline {
        // The reset keeps set-up and earlier iterations out of this peak.
        procfs::reset_peak_rss();
        untraced.push(workload.iterate(&mut Tracer::new(false))?);
        peak_rss_mb.push(procfs::peak_rss_mb());
        if args.trace {
            let mut tracer = Tracer::new(true);
            let it = workload.iterate(&mut tracer)?;
            traced.push((it, tracer.into_values()));
        }
    }
    for it in untraced.iter().chain(traced.iter().map(|(it, _)| it)) {
        attempted += it.attempted;
        failed += it.failed;
    }

    let wall_s = median(untraced.iter().map(|it| it.wall_s));
    let mut summary = format!(
        "{} seed {}: {} iterations + {} traced; fail_frac {} ({failed} of {attempted} operations)\n",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        failed as f64 / attempted as f64,
    );
    for note in workload.notes() {
        let _ = writeln!(summary, "  {note}");
    }
    let mut walls: Vec<f64> = untraced.iter().map(|it| it.wall_s).collect();
    let _ = write!(summary, "  iteration wall s:");
    for (label, q) in [
        ("min", 0.0),
        ("q1", 0.25),
        ("median", 0.5),
        ("q3", 0.75),
        ("max", 1.0),
    ] {
        let _ = write!(summary, " {label} {:.4}", quantile(&mut walls, q));
    }
    summary.push('\n');

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let traced_wall = median(traced.iter().map(|(it, _)| it.wall_s));
        let layer = |name: &str| {
            median(
                traced
                    .iter()
                    .map(|(_, v)| v.get(name).copied().unwrap_or(0.0)),
            )
        };
        let _ = write!(summary, "  traced iteration {traced_wall:.4} s");
        if !workload.top_layers().is_empty() {
            let covered: f64 = workload.top_layers().iter().map(|name| layer(name)).sum();
            let _ = write!(
                summary,
                "; its top-level layers cover {:.1} % of it",
                covered / 1e3 / traced_wall * 100.0
            );
        }
        summary.push('\n');
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.overhead_pct" => (traced_wall / wall_s - 1.0) * 100.0,
                    _ => layer(name),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        // Workload-specific end-to-end figures, for the summary only:
        // they are not defined on every workload.
        let mut extra: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for it in &untraced {
            for &(name, unit, v) in &it.extra {
                extra.entry((name, unit)).or_default().push(v);
            }
        }
        for ((name, unit), values) in extra {
            let _ = writeln!(summary, "  {name} {:.6} {unit}", median(values));
        }
        let values = [
            wall_s,
            median(untraced.iter().map(|it| it.cpu_s)),
            median(peak_rss_mb),
            median(setup_s),
            workload.entries() as f64 / wall_s,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, unit, value))
            .collect()
    };

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let _ = writeln!(summary, "  {name} {value} {unit}");
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    eprint!("{summary}");
    Ok(json)
}
