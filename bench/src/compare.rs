//! `eum-e2e-bench compare <a.json> <b.json>`: judges run set `b` against
//! run set `a` with each end-to-end metric's direction and bound from
//! `BENCHMARK.json`, one row per (workload, metric). Per-layer metrics
//! have no bound and are listed for information.

use crate::json::{self, Value};
use crate::report::RunResult;
use crate::spec::{self, Better};
use crate::stats::{median, quartile_spread};
use std::fs;

/// Direction and bound of one end-to-end metric, as `BENCHMARK.json`
/// states them.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

/// Reads the `end_to_end` list of a `BENCHMARK.json`.
pub fn load_bounds(path: &str) -> Result<Vec<Bound>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `end_to_end` list"))?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) if bound >= 0.0 => Ok(Bound {
                    name: name.to_string(),
                    better,
                    bound,
                }),
                _ => Err(format!("{path}: malformed end_to_end entry {}", m.render())),
            }
        })
        .collect()
}

/// Reads a run-set file: `{"runs": [ … ]}`.
pub fn load_runs(path: &str) -> Result<Vec<RunResult>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("runs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: no `runs` list"))?
        .iter()
        .map(|r| RunResult::from_json(r).map_err(|e| format!("{path}: {e}")))
        .collect()
}

/// Renders a run set in the form [`load_runs`] reads.
pub fn render_runs(runs: &[RunResult]) -> String {
    Value::Obj(vec![(
        "runs".to_string(),
        Value::Arr(runs.iter().map(RunResult::to_json).collect()),
    )])
    .render()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// Spread wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative: better).
pub fn worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let base = ma.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => (mb - ma) / base,
        Better::Higher => (ma - mb) / base,
    }
}

/// `worse` beyond the bound is worse whatever the spread; otherwise a
/// spread wider than the bound leaves the pair unresolved; otherwise a
/// gain beyond the bound is better and the rest is within bound.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let w = worsening(a, b, better);
    let spread = quartile_spread(a).max(quartile_spread(b));
    if w > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn values(runs: &[RunResult], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metrics.get(metric))
        .filter(|m| m.samples > 0)
        .map(|m| m.value)
        .collect()
}

/// Prints the comparison and returns how many pairs came out worse.
pub fn compare(a: &[RunResult], b: &[RunResult], bounds: &[Bound]) -> usize {
    let mut worse = 0;
    println!(
        "{:<10} {:<28} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "a median", "b median", "change", "spread", "bound"
    );
    for workload in spec::WORKLOADS {
        for bd in bounds {
            let (va, vb) = (
                values(a, workload, false, &bd.name),
                values(b, workload, false, &bd.name),
            );
            let v = match (va.is_empty(), vb.is_empty()) {
                // Neither set ran this workload.
                (true, true) => continue,
                // A metric `a` reports may not pass by vanishing from `b`.
                (false, true) => Verdict::Worse,
                // Nothing to judge `b` against.
                (true, false) => Verdict::Unresolved,
                (false, false) => judge(&va, &vb, bd.better, bd.bound),
            };
            worse += usize::from(v == Verdict::Worse);
            if va.is_empty() || vb.is_empty() {
                let side = |v: &[f64]| match v {
                    [] => "missing".to_string(),
                    _ => format!("{:.4}", median(v)),
                };
                println!(
                    "{:<10} {:<28} {:>14} {:>14} {:>8} {:>8} {:>6.1}%  {} (n={}/{})",
                    workload,
                    bd.name,
                    side(&va),
                    side(&vb),
                    "-",
                    "-",
                    100.0 * bd.bound,
                    v.label(),
                    va.len(),
                    vb.len(),
                );
                continue;
            }
            println!(
                "{:<10} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>6.1}%  {} (n={}/{})",
                workload,
                bd.name,
                median(&va),
                median(&vb),
                100.0 * worsening(&va, &vb, bd.better),
                100.0 * quartile_spread(&va).max(quartile_spread(&vb)),
                100.0 * bd.bound,
                v.label(),
                va.len(),
                vb.len(),
            );
        }
        for m in spec::PER_LAYER {
            let (va, vb) = (
                values(a, workload, true, m.name),
                values(b, workload, true, m.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            println!(
                "{:<10} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>7.1}% {:>7}  info (n={}/{})",
                workload,
                m.name,
                median(&va),
                median(&vb),
                100.0 * worsening(&va, &vb, m.better),
                100.0 * quartile_spread(&va).max(quartile_spread(&vb)),
                "-",
                va.len(),
                vb.len(),
            );
        }
    }
    worse
}
