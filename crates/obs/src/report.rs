//! The machine-readable run report: per-stage/per-shard timings, counters,
//! histograms and warnings, aggregated from a [`Recorder`]'s raw spans.
//!
//! Span-name convention (established by the pipeline instrumentation):
//! a stage opens a span named after itself (`"dedup"`, `"parse"`, …) and
//! each of its shard workers opens a child span named `"<stage>.shard"`
//! carrying `shard` (index) and `items` (work units) fields. The report
//! groups shard spans under their stage and derives an **imbalance** factor
//! — max shard duration over mean shard duration — the number a perf PR
//! looks at first when a thread count stops scaling.

use crate::histogram::Histogram;
use crate::json::Json;
use crate::recorder::{FieldValue, Recorder};
use std::collections::BTreeMap;

/// Timing of one shard of a stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTiming {
    /// Shard index within the stage.
    pub shard: u64,
    /// Work items the shard processed (stage-specific unit).
    pub items: u64,
    /// Wall-clock microseconds.
    pub dur_us: u64,
}

/// Aggregated observability of one stage.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageSummary {
    /// Total stage wall-clock (sum over same-named stage spans), µs.
    pub total_us: u64,
    /// Per-shard timings, ordered by shard index.
    pub shards: Vec<ShardTiming>,
    /// Max shard duration / mean shard duration (`0.0` without shards;
    /// `1.0` = perfectly balanced).
    pub imbalance: f64,
}

/// The observability section of a run report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Per-stage summaries, keyed by stage name.
    pub stages: BTreeMap<String, StageSummary>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// Warnings routed through the recorder, in order.
    pub warnings: Vec<String>,
    /// Total spans recorded (shard spans included).
    pub spans_recorded: usize,
}

fn field_u64(fields: &[(&'static str, FieldValue)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| {
        if *k == key {
            match v {
                FieldValue::U64(n) => Some(*n),
                FieldValue::Str(_) => None,
            }
        } else {
            None
        }
    })
}

impl ObsReport {
    /// Builds the report from everything a recorder has collected so far.
    /// A disabled recorder yields the empty report.
    pub fn from_recorder(recorder: &Recorder) -> ObsReport {
        let spans = recorder.spans();
        let mut stages: BTreeMap<String, StageSummary> = BTreeMap::new();
        for span in &spans {
            match span.name.strip_suffix(".shard") {
                Some(stage) => {
                    let entry = stages.entry(stage.to_string()).or_default();
                    entry.shards.push(ShardTiming {
                        shard: field_u64(&span.fields, "shard").unwrap_or(0),
                        items: field_u64(&span.fields, "items").unwrap_or(0),
                        dur_us: span.dur_us,
                    });
                }
                None => {
                    stages.entry(span.name.to_string()).or_default().total_us += span.dur_us;
                }
            }
        }
        for summary in stages.values_mut() {
            summary.shards.sort_by_key(|s| s.shard);
            if !summary.shards.is_empty() {
                let max = summary.shards.iter().map(|s| s.dur_us).max().unwrap_or(0);
                let mean = summary.shards.iter().map(|s| s.dur_us).sum::<u64>() as f64
                    / summary.shards.len() as f64;
                summary.imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };
            }
        }
        ObsReport {
            stages,
            counters: recorder.counters(),
            histograms: recorder.histograms(),
            warnings: recorder.warnings().into_iter().map(|w| w.message).collect(),
            spans_recorded: spans.len(),
        }
    }

    /// The report as a JSON object.
    pub fn to_json(&self) -> Json {
        let stages = Json::Obj(
            self.stages
                .iter()
                .map(|(name, s)| {
                    let shards = Json::Arr(
                        s.shards
                            .iter()
                            .map(|sh| {
                                Json::obj(vec![
                                    ("shard", Json::U64(sh.shard)),
                                    ("items", Json::U64(sh.items)),
                                    ("dur_us", Json::U64(sh.dur_us)),
                                ])
                            })
                            .collect(),
                    );
                    let v = Json::obj(vec![
                        ("total_us", Json::U64(s.total_us)),
                        ("shards", shards),
                        ("imbalance", Json::F64(s.imbalance)),
                    ]);
                    (name.clone(), v)
                })
                .collect(),
        );
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::U64(v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Json::obj(vec![
            ("stages", stages),
            ("counters", counters),
            ("histograms", histograms),
            (
                "warnings",
                Json::Arr(self.warnings.iter().map(|w| Json::Str(w.clone())).collect()),
            ),
            ("spans_recorded", Json::U64(self.spans_recorded as u64)),
        ])
    }

    /// Rebuilds a report from its [`ObsReport::to_json`] form.
    pub fn from_json(v: &Json) -> Result<ObsReport, String> {
        let mut report = ObsReport::default();
        for (name, sv) in v
            .get("stages")
            .and_then(Json::as_obj)
            .ok_or("obs: missing stages")?
        {
            let mut summary = StageSummary {
                total_us: sv
                    .get("total_us")
                    .and_then(Json::as_u64)
                    .ok_or("obs: stage total_us")?,
                imbalance: sv
                    .get("imbalance")
                    .and_then(Json::as_f64)
                    .ok_or("obs: stage imbalance")?,
                shards: Vec::new(),
            };
            for sh in sv
                .get("shards")
                .and_then(Json::as_arr)
                .ok_or("obs: stage shards")?
            {
                summary.shards.push(ShardTiming {
                    shard: sh.get("shard").and_then(Json::as_u64).ok_or("obs: shard")?,
                    items: sh.get("items").and_then(Json::as_u64).ok_or("obs: items")?,
                    dur_us: sh
                        .get("dur_us")
                        .and_then(Json::as_u64)
                        .ok_or("obs: dur_us")?,
                });
            }
            report.stages.insert(name.clone(), summary);
        }
        for (k, cv) in v
            .get("counters")
            .and_then(Json::as_obj)
            .ok_or("obs: missing counters")?
        {
            report
                .counters
                .insert(k.clone(), cv.as_u64().ok_or("obs: counter value")?);
        }
        for (k, hv) in v
            .get("histograms")
            .and_then(Json::as_obj)
            .ok_or("obs: missing histograms")?
        {
            report
                .histograms
                .insert(k.clone(), Histogram::from_json(hv)?);
        }
        for w in v
            .get("warnings")
            .and_then(Json::as_arr)
            .ok_or("obs: missing warnings")?
        {
            report
                .warnings
                .push(w.as_str().ok_or("obs: warning text")?.to_string());
        }
        report.spans_recorded = v
            .get("spans_recorded")
            .and_then(Json::as_usize)
            .ok_or("obs: spans_recorded")?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn aggregates_shards_under_stages() {
        let rec = Recorder::new();
        {
            let _stage = rec.span("dedup");
            let id = rec.current();
            for i in 0..4u64 {
                let mut g = rec.span_in(id, "dedup.shard");
                g.field("shard", i);
                g.field("items", 10 * (i + 1));
            }
        }
        {
            let _solve = span!(rec, "solve");
        }
        rec.counter("dedup.removed", 3);
        rec.warning("armed");

        let report = ObsReport::from_recorder(&rec);
        let dedup = &report.stages["dedup"];
        assert_eq!(dedup.shards.len(), 4);
        assert_eq!(dedup.shards[2].items, 30);
        assert!(dedup.imbalance >= 1.0 || dedup.imbalance == 0.0);
        assert!(report.stages.contains_key("solve"));
        assert_eq!(report.counters["dedup.removed"], 3);
        assert_eq!(report.warnings, vec!["armed".to_string()]);
        assert_eq!(report.spans_recorded, 6);
    }

    #[test]
    fn json_round_trip() {
        let rec = Recorder::new();
        {
            let _stage = rec.span("parse");
            let id = rec.current();
            let mut g = rec.span_in(id, "parse.shard");
            g.field("shard", 0u64);
            g.field("items", 123u64);
        }
        rec.counter("parse.selects", 99);
        rec.histogram("parse.shard_us", 17);
        rec.histogram("parse.shard_us", u64::MAX);
        rec.warning("w1");
        let report = ObsReport::from_recorder(&rec);
        let text = report.to_json().render();
        let parsed = ObsReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn disabled_recorder_yields_empty_report() {
        let report = ObsReport::from_recorder(&Recorder::disabled());
        assert_eq!(report, ObsReport::default());
        // …and the empty report still round-trips.
        let parsed = ObsReport::from_json(&Json::parse(&report.to_json().render()).unwrap());
        assert_eq!(parsed.unwrap(), report);
    }
}
