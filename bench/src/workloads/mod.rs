//! The four workloads and what their traced runs share.

pub mod auth;
pub mod churn;
pub mod fleet;

use crate::harness::{self, Outcome, RunConfig};
use crate::report::{Metrics, RunResult};
use crate::spans::{self, names, Span};
use crate::spec;
use crate::stats::median;
use std::fs;
use std::io::BufWriter;

/// Runs the workload `cfg` names. `Err` for a name that is not one of
/// [`spec::WORKLOADS`].
///
/// A run whose generator missed its schedule is invalid, not slow: it
/// says nothing about the program, only that the host kept the generator
/// off its CPU (about one run in a hundred on the reference VM). Such a
/// run is measured once more, from set-up on, and the second result
/// stands whatever it is — a program that makes the generator late does
/// so both times.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    let first = run_once(cfg)?;
    let late = first
        .problems
        .iter()
        .find(|p| p.starts_with(harness::GENERATOR_LATE));
    match late {
        None => Ok(first),
        Some(p) => {
            println!("# {p}; measuring once more");
            run_once(cfg)
        }
    }
}

fn run_once(cfg: &RunConfig) -> Result<RunResult, String> {
    match cfg.workload.as_str() {
        "auth_hot" => Ok(auth::run(cfg, auth::Kind::Hot)),
        "auth_miss" => Ok(auth::run(cfg, auth::Kind::Miss)),
        "fleet_e2e" => Ok(fleet::run(cfg)),
        "map_churn" => Ok(churn::run(cfg)),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            spec::WORKLOADS.join(", ")
        )),
    }
}

/// Writes the assembled span tree to `<out_dir>/<workload>.spans.jsonl`.
/// A trace that cannot be written is reported, not fatal: the metrics
/// were computed from memory.
pub fn write_spans(cfg: &RunConfig, tree: &[Span]) {
    let Some(dir) = &cfg.out_dir else { return };
    let path = dir.join(format!("{}.spans.jsonl", cfg.workload));
    let written = fs::create_dir_all(dir)
        .and_then(|()| fs::File::create(&path))
        .and_then(|f| spans::write_jsonl(tree, BufWriter::new(f)));
    match written {
        Ok(()) => println!("# wrote {} spans to {}", tree.len(), path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
}

/// Finishes a traced run: the failure breakdown every workload reports,
/// then every per-layer metric the workload does not cross set to 0 with
/// no samples, then the verdict.
pub fn finish_traced(
    cfg: &RunConfig,
    mut out: Outcome,
    (timeouts, wrong_answers, over_limit): (u64, u64, u64),
) -> RunResult {
    let attempted = out.attempted.max(1);
    out.metrics.set("fail_share", out.fail_share, attempted);
    out.metrics.set("gen.timeouts", timeouts as f64, attempted);
    out.metrics
        .set("gen.wrong_answers", wrong_answers as f64, attempted);
    out.metrics
        .set("gen.over_limit", over_limit as f64, attempted);
    for spec in spec::PER_LAYER {
        if out.metrics.get(spec.name).is_none() {
            out.metrics.set(spec.name, 0.0, 0);
        }
    }
    harness::verdict(cfg, out)
}

/// Median duration of the spans called `name`, in `unit_ns` units, with
/// the sample count.
pub fn span_median(spans: &[Span], name: &str, unit_ns: f64) -> (f64, u64) {
    let d = spans::durations_of(spans, name);
    (median(&d) / unit_ns, d.len() as u64)
}

/// Sets the metrics every socket-server trace yields.
pub fn set_server_span_metrics(m: &mut Metrics, spans: &[Span]) {
    for (metric, span, unit) in [
        ("net.recv_wait_us", names::RECV_WAIT, 1e3),
        ("net.batch_wait_us", names::BATCH_WAIT, 1e3),
        ("authd.serve_insitu_ns", names::SERVE, 1.0),
        ("net.flush_us", names::FLUSH, 1e3),
        ("net.reply_wait_us", names::REPLY_WAIT, 1e3),
    ] {
        let (v, n) = span_median(spans, span, unit);
        m.set(metric, v, n);
    }
}
