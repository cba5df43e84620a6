//! Replays the paper's §4 roll-out at small scale and prints the headline
//! before/after numbers: mapping distance, RTT, TTFB, content download
//! time, and the DNS query-rate step — the results of Figures 13–20/23.
//!
//! Run with: `cargo run --release --example public_resolver_rollout`
//! (add `-- --tiny` for a sub-minute demonstration run)

use end_user_mapping::sim::scenario::{Scenario, ScenarioConfig};
use end_user_mapping::sim::Metric;
use end_user_mapping::stats::Table;
use end_user_mapping::telemetry::Registry;

fn main() {
    let cfg = if std::env::args().any(|a| a == "--tiny") {
        ScenarioConfig::tiny(0x5EED)
    } else {
        ScenarioConfig::small(0x5EED)
    };
    eprintln!("building the world and replaying Jan 1 – Jun 30, 2014 (ECS ramp Mar 28 – Apr 15)…");
    let report = Scenario::build(cfg).run_rollout();

    println!("{}", report.summary());

    let mut t = Table::new(["metric", "group", "before", "after", "improvement"]);
    for metric in [
        Metric::MappingDistance,
        Metric::Rtt,
        Metric::Ttfb,
        Metric::Download,
    ] {
        for (label, high) in [("high expectation", true), ("low expectation", false)] {
            let (pre, post) = report.before_after(metric, high);
            t.row([
                metric.label().to_string(),
                label.to_string(),
                format!("{pre:.0}"),
                format!("{post:.0}"),
                format!("{:.2}x", pre / post.max(1e-9)),
            ]);
        }
    }
    println!("{t}");

    // The measured-vs-analytic amplification table: after the timeline
    // completes the scenario replays one demand-weighted query plan
    // through a live eum-ldns resolver fleet against a real eum-authd
    // (ECS off everywhere, then the post-roll-out policy). The upstream
    // counts are measured; the analytic column is the cache-key
    // set-counting estimate the simulator reasons with.
    let fleet = &report.fleet;
    let mut amp = Table::new(["fleet amplification", "measured", "analytic"]);
    amp.row([
        "ECS off".to_string(),
        format!("{:.3}", fleet.measured_amplification_off()),
        format!("{:.3}", fleet.analytic_amplification_off()),
    ]);
    amp.row([
        "ECS on (post-roll-out)".to_string(),
        format!("{:.3}", fleet.measured_amplification_on()),
        format!("{:.3}", fleet.analytic_amplification_on()),
    ]);
    amp.row([
        "scaling (on/off)".to_string(),
        format!("{:.2}x", fleet.measured_scaling()),
        format!("{:.2}x", fleet.analytic_scaling()),
    ]);
    println!(
        "LDNS fleet replay: {} resolvers, {} downstream queries per run",
        fleet.resolvers, fleet.downstream_queries,
    );
    println!("{amp}");

    // Figure-grade flip timeline: the fleet replay's per-window hit-rate
    // curve around the ECS flip (warm plateau -> dip when the flipped
    // resolvers flush -> recovery), written as one JSON object per
    // window so a plotting script can consume it directly.
    let tl = &report.timeline;
    if let Some(flip) = tl.flip_window {
        let mut curve = Table::new(["window", "queries", "hit rate", "amplification"]);
        for w in &tl.windows {
            let mark = if w.window == flip { " <- ECS flip" } else { "" };
            curve.row([
                format!("{}{mark}", w.window),
                w.queries.to_string(),
                format!("{:.3}", w.hit_ratio()),
                format!("{:.3}", w.amplification()),
            ]);
        }
        println!("{curve}");
        let path = "results/rollout_timeline.jsonl";
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write(path, tl.to_jsonl()).expect("write timeline jsonl");
        println!(
            "wrote {path}: {} windows, hit rate {:.3} -> {:.3} (dip at window {flip}) -> {:.3}\n",
            tl.windows.len(),
            tl.pre_flip_hit_ratio(),
            tl.flip_hit_ratio(),
            tl.final_hit_ratio(),
        );
    }

    let ((pre_total, pre_public), (post_total, post_public)) = report.query_rate_change();
    println!(
        "authoritative DNS queries/day: total {pre_total:.0} -> {post_total:.0} ({:.2}x), \
         public resolvers {pre_public:.0} -> {post_public:.0} ({:.2}x)",
        post_total / pre_total.max(1e-9),
        post_public / pre_public.max(1e-9),
    );
    // The report also exports its headline numbers through the shared
    // telemetry layer — the same registry/scrape format the authd serving
    // path uses (see examples/authd_serve.rs).
    let registry = Registry::new();
    report.record_metrics(&registry);
    println!("\ntelemetry scrape of the roll-out:");
    for line in registry.render_text().lines() {
        if !line.starts_with('#') {
            println!("  {line}");
        }
    }

    println!(
        "\npaper shape: distance ~8x better, RTT and download ~2x, TTFB ~30%, public queries ~8x more"
    );
}
