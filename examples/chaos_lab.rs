//! Runs the full adversarial scenario suite live — NXDOMAIN flood,
//! flash crowd, site outage, ECS flip, cache pressure — each twice at
//! identical offered load (defenses off, then on: authd admission
//! control with REFUSED shedding plus health-filtered map
//! republication), prints the A/B outcome per scenario, and lands the
//! per-window ground truth as JSONL under `results/`.
//!
//! Run with: `cargo run --release --example chaos_lab` (`--smoke` for
//! the abbreviated CI variant; exits non-zero unless the flood
//! defenses hold the 2x legit-goodput floor with a lower legit p99 and
//! the shed counters fire).
//!
//! Full runs also emit one machine-readable `RESULT mode=pr10
//! scenario=...` line per scenario.

use end_user_mapping::chaos::{run_ab, AbReport, ChaosScenario, ChaosWorld};
use std::fs;
use std::io::Write;

const SEED: u64 = 0x000C_4A05;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut world = ChaosWorld::build(SEED);

    // Smoke mode runs the two floor-checked scenarios at full size —
    // the flood must outlast the admission burst to mean anything.
    let scenarios = if smoke {
        vec![
            ChaosScenario::nxdomain_flood(SEED),
            ChaosScenario::flash_crowd(SEED),
        ]
    } else {
        ChaosScenario::all(SEED)
    };

    let mut failures = Vec::new();
    let mut jsonl = Vec::new();
    for scenario in &scenarios {
        let ab = run_ab(&mut world, scenario);
        print_scenario(&ab, smoke);
        check(&ab, &mut failures);
        jsonl.extend(ab.jsonl_lines());
    }

    if !smoke {
        fs::create_dir_all("results").expect("create results/");
        let path = "results/chaos_lab.jsonl";
        let mut f = fs::File::create(path).expect("create chaos JSONL");
        for line in &jsonl {
            writeln!(f, "{line}").expect("write chaos JSONL");
        }
        println!("wrote {} lines to {path}", jsonl.len());
    }

    if failures.is_empty() {
        println!("CHAOS PASS");
    } else {
        for f in &failures {
            eprintln!("CHAOS FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn print_scenario(ab: &AbReport, smoke: bool) {
    println!(
        "\n== {} == interval {} ns, deadline {} us (calibrated cost off {} ns / on {} ns)",
        ab.scenario,
        ab.interval_ns,
        ab.deadline_ns / 1_000,
        ab.cost_off_ns,
        ab.cost_on_ns,
    );
    for (arm, r) in [("off", &ab.off), ("on", &ab.on)] {
        println!(
            "  defenses {arm:>3}: goodput {:>8.1} qps  quality {:>5.3}  p50 {:>8.1} us  \
             p99 {:>9.1} us  shed {:>6}  admitted {:>6}",
            r.goodput_qps, r.legit_quality, r.legit_p50_us, r.legit_p99_us, r.shed, r.admitted,
        );
    }
    println!("  goodput ratio (on/off): {:.2}x", ab.goodput_ratio());
    if !smoke {
        println!(
            "RESULT mode=pr10 scenario={} goodput_off={:.1} goodput_on={:.1} \
             goodput_ratio={:.3} p99_off_us={:.1} p99_on_us={:.1} quality_off={:.4} \
             quality_on={:.4} shed_on={} admitted_on={} cost_off_ns={} cost_on_ns={} \
             interval_ns={}",
            ab.scenario,
            ab.off.goodput_qps,
            ab.on.goodput_qps,
            ab.goodput_ratio(),
            ab.off.legit_p99_us,
            ab.on.legit_p99_us,
            ab.off.legit_quality,
            ab.on.legit_quality,
            ab.on.shed,
            ab.on.admitted,
            ab.cost_off_ns,
            ab.cost_on_ns,
            ab.interval_ns,
        );
    }
}

/// The pinned floors: the flood defenses must double legit goodput and
/// cut the tail; a cacheable flash crowd must ride through undented.
fn check(ab: &AbReport, failures: &mut Vec<String>) {
    match ab.scenario.as_str() {
        "nxdomain_flood" => {
            if ab.on.shed == 0 {
                failures.push("nxdomain_flood: defended arm shed nothing".into());
            }
            if ab.goodput_ratio() < 2.0 {
                failures.push(format!(
                    "nxdomain_flood: goodput ratio {:.2} below the 2.0 floor",
                    ab.goodput_ratio()
                ));
            }
            if ab.on.legit_p99_us >= ab.off.legit_p99_us {
                failures.push(format!(
                    "nxdomain_flood: defended p99 {:.1} us not below undefended {:.1} us",
                    ab.on.legit_p99_us, ab.off.legit_p99_us
                ));
            }
        }
        "flash_crowd" if ab.goodput_ratio() < 0.8 => {
            failures.push(format!(
                "flash_crowd: defenses dented goodput, ratio {:.2}",
                ab.goodput_ratio()
            ));
        }
        _ => {}
    }
}
