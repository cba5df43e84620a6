//! Equivalence proof for the incremental rebuild path.
//!
//! The whole delta-publication design rests on one claim: an incremental
//! rebuild produces *exactly* the map a from-scratch rebuild would — not
//! an approximately-as-good stable allocation, the identical one — while
//! the published delta covers every unit whose answer moved. This suite
//! attacks the claim at both layers:
//!
//! * solver level — random capacity/liveness perturbations over a fixed
//!   world: [`assign`] (fresh preference sorts) versus
//!   [`assign_with_prefs`] (the cached table the incremental path
//!   reuses) must agree bit for bit, and the result must admit no
//!   blocking pair;
//! * system level — seeded churn sequences (liveness flips, capacity
//!   edits, hinted measurement drift) replayed through
//!   [`MappingSystem::rebuild_incremental`], each step compared against
//!   a from-scratch rebuild of an identical clone, with every changed
//!   answer checked for delta coverage.

use eum_cdn::{
    deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig, TrafficClass,
};
use eum_mapping::{
    assign, assign_with_prefs, find_blocking_pair, LbAlgorithm, MapUnits, MappingConfig,
    MappingPolicy, MappingSystem, PingMatrix, PingTargets, PreferenceTable, RescoreHints,
    ScoreBasis, ScoreTable, ScoringWeights,
};
use eum_netmodel::{Endpoint, Internet, InternetConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

// ---------------------------------------------------------------- solver

/// The fixed scoring world the solver proptests perturb: LDNS units
/// scored against 8 synthetic cluster endpoints, preferences cached once
/// exactly as the incremental rebuild caches them across generations.
struct SolverFixture {
    units: MapUnits,
    /// The same partition with every demand forced to 1.0: classic
    /// stability (no blocking pair at all) is only guaranteed for equal
    /// demands; heterogeneous demands are stable up to one fractional
    /// unit per cluster (see `stable_allocation`'s doc).
    unit_demand_units: MapUnits,
    scores: ScoreTable,
    prefs: PreferenceTable,
    n_clusters: usize,
    total_demand: f64,
}

fn solver_fixture() -> &'static SolverFixture {
    static FIXTURE: OnceLock<SolverFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let net = Internet::generate(InternetConfig::tiny(0x1E0));
        let units = MapUnits::ldns_units(&net);
        let clusters: Vec<Endpoint> = net.resolvers.iter().take(8).map(|r| r.endpoint()).collect();
        let targets = PingTargets::select(&net, 30, 150.0);
        let matrix = PingMatrix::measure(&net, &clusters, &targets);
        let vantages: Vec<Endpoint> = units
            .units
            .iter()
            .map(|u| match u.key {
                eum_mapping::UnitKey::Ldns(r) => net.resolver(r).endpoint(),
                eum_mapping::UnitKey::Block(_) => unreachable!("ldns_units yields Ldns keys"),
            })
            .collect();
        let scores = ScoreTable::build(
            &net,
            &units,
            &vantages,
            &clusters,
            &targets,
            &matrix,
            ScoringWeights::default(),
            ScoreBasis::UnitVantage,
            50,
        );
        let prefs = PreferenceTable::build(&scores);
        let total_demand = units.total_demand();
        let n_clusters = clusters.len();
        let mut unit_demand_units = units.clone();
        for u in &mut unit_demand_units.units {
            u.demand = 1.0;
        }
        SolverFixture {
            units,
            unit_demand_units,
            scores,
            prefs,
            n_clusters,
            total_demand,
        }
    })
}

proptest! {
    /// Random capacity scales and liveness masks: the solver run over the
    /// cached preference table (the incremental path) must produce the
    /// bit-identical assignment a fresh [`assign`] (which re-sorts every
    /// preference row) produces.
    #[test]
    fn cached_preferences_match_fresh_assignment(
        cap_factors in proptest::collection::vec(0.02f64..1.5, 8),
        dead_mask in 0u8..=0b0111_1111,
    ) {
        let f = solver_fixture();
        let capacity: Vec<f64> = cap_factors
            .iter()
            .map(|x| f.total_demand * x)
            .collect();
        // At least one cluster always stays usable (the mask spares #7).
        let usable: Vec<bool> = (0..f.n_clusters)
            .map(|c| c >= 8 || dead_mask & (1 << c) == 0)
            .collect();

        let fresh = assign(LbAlgorithm::Stable, &f.units, &f.scores, &capacity, &usable);
        let cached = assign_with_prefs(
            LbAlgorithm::Stable,
            &f.units,
            &f.scores,
            &f.prefs,
            &capacity,
            &usable,
        );
        prop_assert_eq!(&fresh.cluster_of, &cached.cluster_of);
        prop_assert_eq!(&fresh.load, &cached.load);
    }

    /// Whatever the perturbation, the converged allocation admits no
    /// blocking pair: no unit strictly prefers a cluster that would take
    /// it. Two deliberate restrictions pin the regime where *exact*
    /// stability is the theorem: demands are forced equal (classic
    /// hospital/residents; heterogeneous demands relax stability by one
    /// fractional unit per cluster) and usable slots always cover the
    /// unit count (otherwise the never-refuse-service overflow pass
    /// seats units over capacity, which is a deliberate stability
    /// violation).
    #[test]
    fn converged_allocation_has_no_blocking_pair(
        slot_factors in proptest::collection::vec(1.0f64..2.5, 8),
        dead_mask in 0u8..=0b0011_1111,
    ) {
        let f = solver_fixture();
        let usable: Vec<bool> = (0..f.n_clusters)
            .map(|c| c >= 6 || dead_mask & (1 << c) == 0)
            .collect();
        let n_usable = usable.iter().filter(|u| **u).count();
        let per_cluster = f.unit_demand_units.len() as f64 / n_usable as f64;
        let capacity: Vec<f64> = slot_factors
            .iter()
            .map(|x| (per_cluster * x).ceil())
            .collect();
        let got = assign_with_prefs(
            LbAlgorithm::Stable,
            &f.unit_demand_units,
            &f.scores,
            &f.prefs,
            &capacity,
            &usable,
        );
        let pair = find_blocking_pair(&f.unit_demand_units, &f.scores, &capacity, &usable, &got);
        prop_assert!(pair.is_none(), "blocking pair after convergence: {:?}", pair);
    }
}

// ---------------------------------------------------------------- system

fn churn_world(seed: u64) -> (Internet, CdnPlatform, MappingSystem) {
    let mut net = Internet::generate(InternetConfig::tiny(seed));
    let sites = deployment_universe(seed, 12);
    let cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(seed));
    let map = MappingSystem::build(
        &mut net,
        &cdn,
        &catalog,
        "cdn.example".parse().unwrap(),
        MappingConfig {
            policy: MappingPolicy::end_user_default(),
            max_ping_targets: 40,
            ..MappingConfig::default()
        },
    );
    (net, cdn, map)
}

/// Every externally observable routing decision: all classes for every
/// client block and every resolver.
fn all_assignments(net: &Internet, map: &MappingSystem) -> Vec<Option<eum_cdn::ClusterId>> {
    let mut out = Vec::new();
    for class in TrafficClass::ALL {
        for b in &net.blocks {
            out.push(map.assigned_cluster_for_block_class(b.prefix, class));
        }
        for r in &net.resolvers {
            out.push(map.assigned_cluster_for_ldns_class(r.ip, class));
        }
    }
    out
}

/// xorshift64* — deterministic churn without pulling in a rand dependency
/// for the test.
fn next(rng: &mut u64) -> u64 {
    let mut x = *rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[test]
fn seeded_churn_sequences_match_full_rebuild_and_deltas_cover_changes() {
    for seed in [0xC0FFEE_u64, 0xBEEF, 0x5EED5] {
        let (mut net, mut cdn, mut map) = churn_world(seed);
        let mut rng = seed | 1;
        let mut keyed_steps = 0;

        for step in 0..8 {
            // One churn event per step, seeded: liveness flips, capacity
            // edits, or measurement drift on a hinted unit.
            let mut hints = RescoreHints::default();
            match next(&mut rng) % 3 {
                0 => {
                    let i = (next(&mut rng) as usize) % cdn.clusters.len();
                    let id = cdn.clusters[i].id;
                    let alive = cdn.clusters[i].alive;
                    cdn.set_cluster_alive(id, !alive);
                }
                1 => {
                    let i = (next(&mut rng) as usize) % cdn.clusters.len();
                    let factor = 0.25 + (next(&mut rng) % 100) as f64 / 50.0;
                    cdn.clusters[i].capacity = net.total_demand() * factor;
                }
                _ => {
                    let i = (next(&mut rng) as usize) % net.blocks.len();
                    net.blocks[i].access_ms *= 1.5;
                    let client = net.blocks[i].client_ip();
                    if let Some(u) = map
                        .eu_units()
                        .and_then(|units| units.unit_for_client(client))
                    {
                        hints.eu.push(u);
                    }
                    if let Some(u) = map.ns_units().unit_for_block24(net.blocks[i].prefix) {
                        hints.ns.push(u);
                    }
                }
            }

            let before = all_assignments(&net, &map);
            let delta = map.rebuild_incremental(&net, &cdn, &hints);
            if !delta.is_full() {
                keyed_steps += 1;
            }

            // The reference: an identical publish clone rebuilt from
            // scratch against the same churned world.
            let mut reference = map.clone_for_publish();
            reference.rebuild(&net, &cdn);
            let incremental = all_assignments(&net, &map);
            let full = all_assignments(&net, &reference);
            assert_eq!(
                incremental, full,
                "seed {seed:#x} step {step}: incremental diverged from full rebuild"
            );

            // Delta soundness: every moved answer is covered.
            for (i, b) in net.blocks.iter().enumerate() {
                if before[i] != incremental[i] {
                    assert!(
                        delta.affects_scoped(b.prefix.truncate(24)),
                        "seed {seed:#x} step {step}: moved block {} not in delta",
                        b.prefix
                    );
                }
            }
            let r0 = net.blocks.len();
            for (j, r) in net.resolvers.iter().enumerate() {
                if before[r0 + j] != incremental[r0 + j] {
                    assert!(
                        delta.affects_resolver(r.ip),
                        "seed {seed:#x} step {step}: moved resolver {} not in delta",
                        r.ip
                    );
                }
            }
        }
        // The sequences must actually exercise the incremental path, not
        // just fall back to full rebuilds.
        assert!(
            keyed_steps >= 4,
            "seed {seed:#x}: only {keyed_steps}/8 steps stayed keyed"
        );
    }
}

// ---------------------------------------------------------- full rebuild

/// A from-scratch map of the same world, built on a copy of `net` (a build
/// allocates the top-level name server's block), with `churn_world`'s
/// catalog and configuration.
fn fresh_build(seed: u64, net: &Internet, cdn: &CdnPlatform) -> MappingSystem {
    let mut net = net.clone();
    MappingSystem::build(
        &mut net,
        cdn,
        &ContentCatalog::generate(&CatalogConfig::tiny(seed)),
        "cdn.example".parse().unwrap(),
        MappingConfig {
            policy: MappingPolicy::end_user_default(),
            max_ping_targets: 40,
            ..MappingConfig::default()
        },
    )
}

/// Every published candidate row, per class, for every block and
/// resolver.
fn candidate_rows(net: &Internet, map: &MappingSystem) -> Vec<Option<Vec<eum_cdn::ClusterId>>> {
    let mut out = Vec::new();
    for class in TrafficClass::ALL {
        for b in &net.blocks {
            out.push(map.candidate_clusters_for_block(b.prefix, class));
        }
        for r in &net.resolvers {
            out.push(map.candidate_clusters_for_ldns(r.ip, class));
        }
    }
    out
}

/// A full rebuild writes into the ranking tables and buffers the previous
/// generation owns. After seeded incremental churn it must still give
/// exactly the rows a fresh build gives, and a second rebuild straight
/// after must give them again.
#[test]
fn full_rebuild_after_churn_matches_a_fresh_build() {
    for seed in [0xC0FFEE_u64, 0x5EED5] {
        let (mut net, mut cdn, mut map) = churn_world(seed);
        let mut rng = seed | 1;
        for _ in 0..6 {
            let mut hints = RescoreHints::default();
            let i = (next(&mut rng) as usize) % cdn.clusters.len();
            match next(&mut rng) % 3 {
                0 => {
                    let alive = cdn.clusters[i].alive;
                    cdn.set_cluster_alive(cdn.clusters[i].id, !alive);
                }
                1 => cdn.clusters[i].capacity = net.total_demand() * 0.3,
                _ => {
                    let b = (next(&mut rng) as usize) % net.blocks.len();
                    net.blocks[b].access_ms *= 1.5;
                    let client = net.blocks[b].client_ip();
                    hints
                        .eu
                        .extend(map.eu_units().and_then(|u| u.unit_for_client(client)));
                    hints
                        .ns
                        .extend(map.ns_units().unit_for_block24(net.blocks[b].prefix));
                }
            }
            map.rebuild_incremental(&net, &cdn, &hints);
        }
        map.rebuild(&net, &cdn);
        let fresh = candidate_rows(&net, &fresh_build(seed, &net, &cdn));
        assert_eq!(
            candidate_rows(&net, &map),
            fresh,
            "seed {seed:#x}: rebuild after churn"
        );
        map.rebuild(&net, &cdn);
        assert_eq!(
            candidate_rows(&net, &map),
            fresh,
            "seed {seed:#x}: second rebuild"
        );
    }
}

/// Against a deployment with another cluster count the previous tables
/// cannot be reused (12 clusters rank 12 deep, 20 rank 16 deep, 9 rank 9
/// deep): the rebuild allocates fresh ones and still matches a fresh
/// build.
#[test]
fn rebuild_onto_another_cluster_count_matches_a_fresh_build() {
    let seed = 0xBEEF;
    let (mut net, _, mut map) = churn_world(seed);
    for sites in [20, 9] {
        let cdn = CdnPlatform::deploy(
            &mut net,
            &deployment_universe(seed ^ sites as u64, sites),
            &DeployConfig::default(),
        );
        assert_eq!(cdn.clusters.len(), sites);
        map.rebuild(&net, &cdn);
        assert_eq!(
            candidate_rows(&net, &map),
            candidate_rows(&net, &fresh_build(seed, &net, &cdn)),
            "{sites} clusters"
        );
    }
}
