//! What the four workloads share: the run configuration, the set-up
//! median, generator pinning, and the verdict that turns tallies into
//! `correct`.

use crate::report::{Metrics, RunResult};
use crate::spec::{FAIL_SHARE_BOUND, LATE_SHARE_BOUND};
use crate::stats::median;
use crate::world::Scale;
use std::path::PathBuf;
use std::time::Instant;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    /// Seeds the query stream (never the world).
    pub seed: u64,
    /// Seconds of measurement, split between the workload's phases.
    pub seconds: f64,
    /// Per-layer run (wrappers, authd telemetry, layer replay) instead of
    /// the end-to-end run.
    pub traced: bool,
    pub scale: Scale,
    /// Where the traced run writes `<workload>.spans.jsonl` (`None`:
    /// spans are assembled and measured but not written).
    pub out_dir: Option<PathBuf>,
}

impl RunConfig {
    /// How many times set-up runs so `setup_s` can be a median. The
    /// traced run does not report `setup_s` and sets up once.
    pub fn setup_reps(&self) -> usize {
        if self.traced {
            1
        } else {
            3
        }
    }

    pub fn paper(&self) -> bool {
        self.scale == Scale::Paper
    }
}

/// Runs `setup` [`RunConfig::setup_reps`] times, tearing down all but the
/// last with `teardown`, and returns the last set-up with the median of
/// the times. `setup` covers the world, `MappingSystem::build` and the
/// server spawn; the warm-up runs once, on the set-up that is kept, and
/// the workload adds its time to the median: `setup_s` is everything a
/// user waits for before the first measured operation.
pub fn median_setup<S>(
    cfg: &RunConfig,
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    let reps = cfg.setup_reps();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Where a thread pins itself relative to the server shard, which sits
/// on CPU 0 (`BatchConfig::pin_cpus` puts it there; `map_churn` spawns its
/// channel shard from a thread pinned there, and the shard inherits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The last CPU: the thread and the server run at the same time
    /// (`auth_hot` and `auth_miss` keep a window in flight; `map_churn`'s
    /// control thread rebuilds while the shard serves, and the rebuild's
    /// workers inherit its CPU).
    Apart,
    /// CPU 0, with the server: a strict ping-pong (`fleet_e2e`,
    /// `map_churn`'s query thread) never has two runnable threads, and on
    /// this class of VM waking the other vCPU costs ~22 µs each way — host
    /// noise three times the size of the exchange being measured.
    Together,
}

/// Pins the calling thread; best effort, and a no-op on a single-CPU
/// host, where there is nothing to choose.
pub fn pin_thread(placement: Placement) {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < 2 {
        return;
    }
    let cpu = match placement {
        Placement::Apart => cpus - 1,
        Placement::Together => 0,
    };
    #[cfg(target_os = "linux")]
    let _ = eum_net::sys::pin_current_thread(cpu);
    #[cfg(not(target_os = "linux"))]
    let _ = cpu;
}

/// What a workload hands back before the verdict.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    /// Operations that produced no correct answer (timeouts, failed wire
    /// checks, oracle mismatches).
    pub failed: u64,
    /// Of those, replies that were *wrong* (failed a wire check or
    /// disagreed with the oracle). One is enough to fail the run.
    pub wrong: u64,
    /// `fail_share`: operations that failed, over operations attempted,
    /// plus (open loop) the share answered later than the latency limit in
    /// the phase's median window — taken phase by phase and the largest
    /// reported, so a phase without a limit cannot dilute the one with.
    pub fail_share: f64,
    /// Share of the generator's sends that ran late.
    pub late_share: f64,
    /// Workload-specific violations (cache contrast broken, …).
    pub problems: Vec<String>,
}

/// How the problem of a run whose generator missed its schedule begins.
pub const GENERATOR_LATE: &str = "generator late";

/// Applies the run-level checks and packages the result.
pub fn verdict(cfg: &RunConfig, mut out: Outcome) -> RunResult {
    let fail_share = out.fail_share;
    if out.attempted == 0 {
        out.problems.push("no operation was attempted".to_string());
    }
    if out.wrong > 0 {
        out.problems
            .push(format!("{} replies failed verification", out.wrong));
    }
    if fail_share > FAIL_SHARE_BOUND {
        out.problems.push(format!(
            "fail_share {fail_share:.5} exceeds {FAIL_SHARE_BOUND}"
        ));
    }
    if out.late_share > LATE_SHARE_BOUND {
        out.problems.push(format!(
            "{GENERATOR_LATE} on {:.4} of its sends (limit {LATE_SHARE_BOUND}): run invalid",
            out.late_share
        ));
    }
    for (name, m) in out.metrics.iter() {
        if !m.value.is_finite() {
            out.problems.push(format!("metric {name} is not finite"));
        }
    }
    RunResult {
        workload: cfg.workload.clone(),
        seed: cfg.seed,
        traced: cfg.traced,
        correct: out.problems.is_empty(),
        attempted: out.attempted.max(1),
        failed: out.failed,
        metrics: out.metrics,
        problems: out.problems,
    }
}
