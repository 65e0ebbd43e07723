//! Table 4: duplicate-threshold sweep.
//!
//! Paper (5.7 M-query sample): log size 100 % → 95.95 % at 1 s, 95.95 % at
//! 2 s, 95.89 % at 5 s, 95.80 % at 10 s, 95.41 % unrestricted. The shape to
//! reproduce: almost all duplicates are caught at 1 s, and going to ∞ buys
//! well under one additional percent.

use sqlog_catalog::Catalog;
use sqlog_core::{Pipeline, PipelineConfig};
use sqlog_gen::{generate, GenConfig};
use sqlog_log::LogView;

/// One row of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Threshold label (`"1 sec"`, …, `"unrestricted"`).
    pub threshold: String,
    /// Log size after deduplication.
    pub size: usize,
    /// Percentage of the original size.
    pub pct_of_original: f64,
}

/// Sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// Original log size.
    pub original: usize,
    /// One row per threshold.
    pub rows: Vec<Row>,
}

/// Runs the sweep at the paper's thresholds.
pub fn run(scale: usize, seed: u64) -> Table4 {
    let log = generate(&GenConfig::with_scale(scale, seed));
    let original = log.len();
    let thresholds: [(&str, Option<u64>); 5] = [
        ("1 sec", Some(1_000)),
        ("2 sec", Some(2_000)),
        ("5 sec", Some(5_000)),
        ("10 sec", Some(10_000)),
        ("unrestricted", None),
    ];
    let catalog = Catalog::new();
    let view = LogView::identity(&log);
    let rows = thresholds
        .iter()
        .map(|(label, t)| {
            let config = PipelineConfig {
                duplicate_threshold_ms: *t,
                ..PipelineConfig::default()
            };
            let (clean, _) = Pipeline::new(&catalog).with_config(config).op_dedup(&view);
            Row {
                threshold: (*label).to_string(),
                size: clean.len(),
                pct_of_original: 100.0 * clean.len() as f64 / original as f64,
            }
        })
        .collect();
    Table4 { original, rows }
}

/// Renders the table.
pub fn render(t: &Table4) -> String {
    let mut out = String::new();
    out.push_str("Table 4 — duplicate-threshold sweep\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>10}\n",
        "threshold", "log size", "% of orig"
    ));
    out.push_str(&format!(
        "{:<14} {:>12} {:>10.2}\n",
        "original", t.original, 100.0
    ));
    for r in &t.rows {
        out.push_str(&format!(
            "{:<14} {:>12} {:>10.2}\n",
            r.threshold, r.size, r.pct_of_original
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let t = run(20_000, 4001);
        // Sizes decrease monotonically with the threshold.
        for w in t.rows.windows(2) {
            assert!(w[0].size >= w[1].size);
        }
        // 1 s already removes the true duplicates (reload bursts)…
        let one_sec = t.rows[0].pct_of_original;
        assert!((90.0..99.5).contains(&one_sec), "1s → {one_sec}%");
        // …while the unrestricted threshold additionally eats *intentional*
        // repeats (robot rescans of the same window, users revisiting the
        // same famous target) — the paper's very argument for choosing a
        // small threshold ("two identical queries with a big time
        // difference might not be a duplicate after all, but reflect user
        // intention"). The gap stays bounded.
        let unrestricted = t.rows.last().unwrap().pct_of_original;
        let gap = one_sec - unrestricted;
        assert!((0.0..5.0).contains(&gap), "gap = {gap}");
    }
}
