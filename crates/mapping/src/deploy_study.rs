//! The role of server deployments (§6, Figure 25).
//!
//! Reproduces the paper's simulation methodology exactly:
//!
//! 1. a universe `U` of candidate deployment locations (paper: 2642);
//! 2. ping targets clustering the top client blocks (paper: 20K → 8K);
//! 3. ping measurements from every location in `U` to every target;
//! 4. three mapping schemes — NS (least latency to the LDNS), EU (least
//!    latency to the client's block), CANS (least traffic-weighted
//!    latency to the LDNS's client cluster);
//! 5. 100 random orderings of `U`; for each deployment count `N`, the
//!    first `N` locations are "built" and the traffic-weighted mean, 95th
//!    and 99th percentile ping latencies are computed, then averaged over
//!    the runs.
//!
//! Runs execute on scoped threads (one per simulation run) since each run
//! is independent given the shared ping matrices.

use crate::measure::{PingMatrix, PingTargets, TargetId};
use eum_cdn::deployment_universe;
use eum_netmodel::{Endpoint, Internet, ResolverId};
use eum_stats::WeightedSample;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// The three schemes of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// NS-based mapping.
    Ns,
    /// End-user mapping.
    Eu,
    /// Client-aware NS-based mapping.
    Cans,
}

impl Scheme {
    /// All schemes in the paper's legend order.
    pub const ALL: [Scheme; 3] = [Scheme::Cans, Scheme::Eu, Scheme::Ns];

    /// Label as used in Figure 25.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Ns => "NS",
            Scheme::Eu => "EU",
            Scheme::Cans => "CANS",
        }
    }
}

/// Study configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Seed for universe generation and run orderings.
    pub seed: u64,
    /// Size of the deployment universe (paper: 2642).
    pub universe_size: usize,
    /// Maximum ping targets (paper: 8000).
    pub ping_targets: usize,
    /// Target covering radius, miles.
    pub target_cover_miles: f64,
    /// Deployment counts to evaluate (paper: 40…2560 doubling).
    pub deployment_counts: Vec<usize>,
    /// Number of random orderings to average (paper: 100).
    pub runs: usize,
}

impl StudyConfig {
    /// The paper's parameters (slow; the repro binary scales targets/runs
    /// down by default and documents the deltas).
    pub fn paper(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            universe_size: 2642,
            ping_targets: 8000,
            target_cover_miles: 40.0,
            deployment_counts: vec![40, 80, 160, 320, 640, 1280, 2560],
            runs: 100,
        }
    }

    /// A quick configuration for tests.
    pub fn quick(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            universe_size: 60,
            ping_targets: 60,
            target_cover_miles: 150.0,
            deployment_counts: vec![5, 10, 20, 40],
            runs: 3,
        }
    }
}

/// One output row: a scheme at a deployment count, averaged over runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyRow {
    /// The scheme.
    pub scheme: Scheme,
    /// Number of deployment locations.
    pub deployments: usize,
    /// Traffic-weighted mean ping latency, ms.
    pub mean_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

/// One per-run result row: (scheme, deployment count, mean, p95, p99).
type RunRow = (Scheme, usize, f64, f64, f64);

/// One (client-block, LDNS) observation.
struct Observation {
    target: TargetId,
    ldns_idx: u32,
    weight: f64,
}

/// Runs the §6 study. Deterministic in `cfg.seed`.
pub fn run_study(net: &Internet, cfg: &StudyConfig) -> Vec<StudyRow> {
    assert!(cfg.runs > 0 && !cfg.deployment_counts.is_empty());
    let mut counts = cfg.deployment_counts.clone();
    counts.sort_unstable();
    counts.dedup();

    // 1. Universe of candidate deployments (hypothetical endpoints — they
    //    are not built into the Internet; only their pings matter).
    let sites = deployment_universe(cfg.seed, cfg.universe_size);
    let universe: Vec<Endpoint> = sites
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let ip = Ipv4Addr::from(0xF000_0000u32 | ((i as u32) << 8) | 1);
            Endpoint::infra(ip, s.loc, s.country, eum_cdn::CDN_ASN)
        })
        .collect();

    // 2–3. Targets and the deployments × targets ping matrix.
    let targets = PingTargets::select(net, cfg.ping_targets, cfg.target_cover_miles);
    let matrix = PingMatrix::measure(net, &universe, &targets);

    // LDNS indexing and per-LDNS member target histograms (for CANS).
    let mut ldns_ids: Vec<ResolverId> = net
        .blocks
        .iter()
        .flat_map(|b| b.ldns.iter().map(|(r, _)| *r))
        .collect();
    ldns_ids.sort_unstable();
    ldns_ids.dedup();
    let ldns_index: HashMap<ResolverId, u32> = ldns_ids
        .iter()
        .enumerate()
        .map(|(i, r)| (*r, i as u32))
        .collect();
    let n_ldns = ldns_ids.len();

    // Observations: one per (block, ldns, weight).
    let mut observations: Vec<Observation> = Vec::new();
    let mut ldns_obs: Vec<Vec<(TargetId, f64)>> = vec![Vec::new(); n_ldns];
    for b in &net.blocks {
        let t = targets.target_of_block(b.id);
        for (r, w) in &b.ldns {
            let weight = b.demand * w;
            if weight <= 0.0 {
                continue;
            }
            let li = ldns_index[r];
            observations.push(Observation {
                target: t,
                ldns_idx: li,
                weight,
            });
            ldns_obs[li as usize].push((t, weight));
        }
    }
    // Normalized per-LDNS target histograms, sorted by target so that
    // every sum over one (here and in the CANS matrix below) runs in one
    // order in every process; the stable sort keeps block order per target.
    let ldns_hist: Vec<Vec<(TargetId, f64)>> = ldns_obs
        .into_iter()
        .map(|mut obs| {
            obs.sort_by_key(|(t, _)| *t);
            let h: Vec<(TargetId, f64)> = obs
                .chunk_by(|a, b| a.0 == b.0)
                .map(|run| (run[0].0, run.iter().map(|(_, w)| w).sum()))
                .collect();
            let total: f64 = h.iter().map(|(_, w)| w).sum();
            h.into_iter()
                .map(|(t, w)| (t, w / total.max(1e-12)))
                .collect()
        })
        .collect();

    // Deployment × LDNS latency matrices for NS (direct RTT to the LDNS)
    // and CANS (weighted ping over the LDNS's client targets).
    let ldns_eps: Vec<Endpoint> = ldns_ids
        .iter()
        .map(|r| net.resolver(*r).endpoint())
        .collect();
    let n_universe = universe.len();
    let mut ns_matrix = vec![0f32; n_universe * n_ldns];
    let mut cans_matrix = vec![0f32; n_universe * n_ldns];
    for (d, dep) in universe.iter().enumerate() {
        for (l, lep) in ldns_eps.iter().enumerate() {
            ns_matrix[d * n_ldns + l] = net.latency.rtt_ms(dep, lep) as f32;
        }
        for (l, hist) in ldns_hist.iter().enumerate() {
            let mut acc = 0.0f64;
            for (t, w) in hist {
                acc += matrix.ping(d, *t) * w;
            }
            cans_matrix[d * n_ldns + l] = acc as f32;
        }
    }

    // 5. Random orderings, evaluated in parallel.
    let mut accum: HashMap<(Scheme, usize), (f64, f64, f64)> = HashMap::new();
    let run_results: Vec<Vec<RunRow>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.runs)
            .map(|run| {
                let counts = &counts;
                let observations = &observations;
                let matrix = &matrix;
                let ns_matrix = &ns_matrix;
                let cans_matrix = &cans_matrix;
                let seed = cfg.seed;
                scope.spawn(move || {
                    run_one(
                        seed ^ (run as u64).wrapping_mul(0x9E37_79B9),
                        n_universe,
                        n_ldns,
                        counts,
                        observations,
                        matrix,
                        ns_matrix,
                        cans_matrix,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("study thread"))
            .collect()
    });
    for rows in run_results {
        for (scheme, n, mean, p95, p99) in rows {
            let e = accum.entry((scheme, n)).or_insert((0.0, 0.0, 0.0));
            e.0 += mean;
            e.1 += p95;
            e.2 += p99;
        }
    }

    let mut out = Vec::new();
    for n in &counts {
        for scheme in Scheme::ALL {
            let (m, p95, p99) = accum[&(scheme, *n)];
            let r = cfg.runs as f64;
            out.push(StudyRow {
                scheme,
                deployments: *n,
                mean_ms: m / r,
                p95_ms: p95 / r,
                p99_ms: p99 / r,
            });
        }
    }
    out
}

/// One random ordering: incremental minima as deployments are added.
#[allow(clippy::too_many_arguments)]
fn run_one(
    seed: u64,
    n_universe: usize,
    n_ldns: usize,
    counts: &[usize],
    observations: &[Observation],
    matrix: &PingMatrix,
    ns_matrix: &[f32],
    cans_matrix: &[f32],
) -> Vec<RunRow> {
    let mut order: Vec<usize> = (0..n_universe).collect();
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let n_targets = matrix.targets();
    // EU: best ping per target so far.
    let mut eu_best = vec![f32::INFINITY; n_targets];
    // NS / CANS: best deployment per LDNS so far.
    let mut ns_best: Vec<(f32, u32)> = vec![(f32::INFINITY, 0); n_ldns];
    let mut cans_best: Vec<(f32, u32)> = vec![(f32::INFINITY, 0); n_ldns];

    let mut out = Vec::new();
    let mut added = 0usize;
    for &n in counts {
        let n = n.min(n_universe);
        while added < n {
            let d = order[added];
            for (t, best) in eu_best.iter_mut().enumerate() {
                let p = matrix.ping(d, TargetId(t as u32)) as f32;
                if p < *best {
                    *best = p;
                }
            }
            for l in 0..n_ldns {
                let v = ns_matrix[d * n_ldns + l];
                if v < ns_best[l].0 {
                    ns_best[l] = (v, d as u32);
                }
                let v = cans_matrix[d * n_ldns + l];
                if v < cans_best[l].0 {
                    cans_best[l] = (v, d as u32);
                }
            }
            added += 1;
        }
        // Evaluate each scheme over the observations.
        let mut samples: HashMap<Scheme, WeightedSample> = HashMap::new();
        for obs in observations {
            let l = obs.ldns_idx as usize;
            let eu = eu_best[obs.target.index()] as f64;
            let ns = matrix.ping(ns_best[l].1 as usize, obs.target);
            let cans = matrix.ping(cans_best[l].1 as usize, obs.target);
            samples
                .entry(Scheme::Eu)
                .or_default()
                .push_weighted(eu, obs.weight);
            samples
                .entry(Scheme::Ns)
                .or_default()
                .push_weighted(ns, obs.weight);
            samples
                .entry(Scheme::Cans)
                .or_default()
                .push_weighted(cans, obs.weight);
        }
        for (scheme, mut s) in samples {
            out.push((
                scheme,
                n,
                s.mean().expect("non-empty"),
                s.quantile(0.95).expect("non-empty"),
                s.quantile(0.99).expect("non-empty"),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eum_netmodel::InternetConfig;

    fn study() -> Vec<StudyRow> {
        let net = Internet::generate(InternetConfig::tiny(0xF16));
        run_study(&net, &StudyConfig::quick(0xF16))
    }

    #[test]
    fn produces_all_rows() {
        let rows = study();
        assert_eq!(rows.len(), 4 * 3);
        for r in &rows {
            assert!(r.mean_ms.is_finite() && r.mean_ms > 0.0);
            assert!(r.p95_ms >= r.mean_ms * 0.3);
            assert!(r.p99_ms >= r.p95_ms - 1e-9);
        }
    }

    #[test]
    fn latency_decreases_with_more_deployments() {
        let rows = study();
        for scheme in Scheme::ALL {
            let series: Vec<&StudyRow> = rows.iter().filter(|r| r.scheme == scheme).collect();
            let first = series.first().unwrap();
            let last = series.last().unwrap();
            assert!(
                last.mean_ms <= first.mean_ms + 1e-9,
                "{}: mean rose from {} to {}",
                scheme.label(),
                first.mean_ms,
                last.mean_ms
            );
        }
    }

    #[test]
    fn eu_is_best_at_the_tail() {
        let rows = study();
        let max_n = rows.iter().map(|r| r.deployments).max().unwrap();
        let row = |s: Scheme| {
            rows.iter()
                .find(|r| r.scheme == s && r.deployments == max_n)
                .unwrap()
        };
        let eu = row(Scheme::Eu);
        let ns = row(Scheme::Ns);
        let cans = row(Scheme::Cans);
        assert!(
            eu.p99_ms <= ns.p99_ms + 1e-9,
            "EU p99 {} > NS p99 {}",
            eu.p99_ms,
            ns.p99_ms
        );
        assert!(eu.p99_ms <= cans.p99_ms + 1e-9);
        assert!(eu.mean_ms <= ns.mean_ms + 1e-9);
    }

    #[test]
    fn study_is_deterministic() {
        // Two calls in one process draw different `HashMap` hash keys, so
        // any sum that ran in map order could differ in its last bits.
        let net = Internet::generate(InternetConfig::tiny(0xF17));
        let bits = |rows: &[StudyRow]| -> Vec<(Scheme, usize, [u64; 3])> {
            rows.iter()
                .map(|r| {
                    let m = [r.mean_ms, r.p95_ms, r.p99_ms].map(f64::to_bits);
                    (r.scheme, r.deployments, m)
                })
                .collect()
        };
        let a = run_study(&net, &StudyConfig::quick(1));
        let b = run_study(&net, &StudyConfig::quick(1));
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn schemes_coincide_with_one_deployment() {
        // With a single deployment location there is no choice to make:
        // all schemes must produce identical latencies.
        let net = Internet::generate(InternetConfig::tiny(0xF18));
        let cfg = StudyConfig {
            deployment_counts: vec![1],
            runs: 2,
            ..StudyConfig::quick(3)
        };
        let rows = run_study(&net, &cfg);
        let by: HashMap<Scheme, &StudyRow> = rows.iter().map(|r| (r.scheme, r)).collect();
        assert!((by[&Scheme::Eu].mean_ms - by[&Scheme::Ns].mean_ms).abs() < 1e-6);
        assert!((by[&Scheme::Eu].p99_ms - by[&Scheme::Cans].p99_ms).abs() < 1e-6);
    }
}
