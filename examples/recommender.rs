//! The paper's §7 future-work scenario as an API walkthrough: train a
//! next-query recommender on the raw log and on the cleaned log, and watch
//! the antipattern suggestions disappear.
//!
//! Run with `cargo run --release --example recommender -- 30000`.

use sqlog::catalog::skyserver_catalog;
use sqlog::core::{top_patterns, Pipeline, Recommender, TemplateStore};
use sqlog::gen::{generate, GenConfig};
use sqlog::logmodel::{LogView, QueryLog};

fn show_suggestions(
    title: &str,
    pipeline: &Pipeline<'_>,
    log: &QueryLog,
    anti_skeletons: &[String],
) {
    let store = TemplateStore::new();
    let view = LogView::identity(log);
    let parsed = pipeline.op_parse(&view, &store);
    let sessions = pipeline.op_sessions(&view, &parsed.records);
    let recommender = Recommender::train(&sessions, &parsed.records);

    // Take the most common source templates and show their top suggestion.
    let mut sources: Vec<_> = recommender.sources().collect();
    sources.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    println!("{title}");
    for (current, weight) in sources.into_iter().take(5) {
        let current_text = store.with(current, |t| t.full.clone());
        let suggestion = recommender.recommend(current, 1).first().map(|&t| {
            let text = store.with(t, |t| t.full.clone());
            let is_anti = anti_skeletons.contains(&text);
            (text, is_anti)
        });
        let short = |s: &str| s.chars().take(58).collect::<String>();
        match suggestion {
            Some((text, is_anti)) => println!(
                "  after [{}×] {}…\n    suggest {} {}…",
                weight,
                short(&current_text),
                if is_anti {
                    "⚠ ANTIPATTERN"
                } else {
                    "        "
                },
                short(&text),
            ),
            None => println!(
                "  after [{}×] {}… (no suggestion)",
                weight,
                short(&current_text)
            ),
        }
    }
    println!();
}

fn main() {
    let scale: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(30_000);
    eprintln!("generating log and running the pipeline (scale {scale})…");
    let log = generate(&GenConfig::with_scale(scale, 11));
    let catalog = skyserver_catalog();
    let pipeline = Pipeline::new(&catalog);
    let result = pipeline.run(&log);

    // Skeletons of the antipattern-marked unigram patterns.
    let anti_skeletons: Vec<String> =
        top_patterns(&result.mined, &result.marks, &result.store, 500, 1)
            .into_iter()
            .filter(|r| r.key.len() == 1 && r.class.is_some())
            .map(|r| r.skeletons[0].clone())
            .collect();

    show_suggestions("trained on the RAW log:", &pipeline, &log, &anti_skeletons);
    show_suggestions(
        "trained on the CLEAN log:",
        &pipeline,
        &result.clean_log,
        &anti_skeletons,
    );
}
