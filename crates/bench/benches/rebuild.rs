//! Full versus incremental map rebuild — the PR 8 speedup artifact.
//!
//! `rebuild_full` re-runs the whole pipeline (ping-target selection, the
//! ping matrix, every score row, every preference sort, the solver);
//! `rebuild_incremental_*` replays the same world through
//! [`MappingSystem::rebuild_incremental`] with measurement-drift hints
//! covering ~1% and ~10% of the NS unit population — the rescore pass
//! touches only the hinted rows, the cached preference table skips the
//! sorts, and the solver re-runs over cached tables. The equivalence
//! suite (`crates/mapping/tests/incremental_equiv.rs`) proves the two
//! paths produce identical maps; this bench records what the identity
//! costs. (`bench/`'s `map_churn` re-measures both at paper scale as
//! `mapping.rebuild_full_ms` / `mapping.rebuild_incr_ms`.)

use criterion::{criterion_group, criterion_main, Criterion};
use eum_bench::BENCH_SEED;
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_mapping::{MappingConfig, MappingPolicy, MappingSystem, RescoreHints, UnitId};
use eum_netmodel::{Internet, InternetConfig};
use std::hint::black_box;

fn world() -> (Internet, CdnPlatform, MappingSystem) {
    let mut net = Internet::generate(InternetConfig::small(BENCH_SEED));
    let sites = deployment_universe(BENCH_SEED, 24);
    let cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(BENCH_SEED));
    let map = MappingSystem::build(
        &mut net,
        &cdn,
        &catalog,
        "cdn.example".parse().unwrap(),
        MappingConfig {
            policy: MappingPolicy::end_user_default(),
            ..MappingConfig::default()
        },
    );
    (net, cdn, map)
}

/// A rotating window of `k` NS-unit hints starting at `at` — NS units
/// never trip the ping-target staleness fallback, so every iteration
/// stays on the incremental path (asserted below).
fn ns_hints(n_units: usize, k: usize, at: usize) -> RescoreHints {
    let mut hints = RescoreHints::default();
    for j in 0..k {
        hints.ns.push(UnitId(((at + j) % n_units) as u32));
    }
    hints
}

fn bench_rebuild(c: &mut Criterion) {
    let (net, cdn, mut map) = world();
    let n_ns = map.ns_units().len();
    let total = map.total_units();

    c.bench_function("rebuild_full", |b| {
        b.iter(|| {
            map.rebuild(black_box(&net), black_box(&cdn));
        })
    });

    for (label, pct) in [
        ("rebuild_incremental_1pct", 1),
        ("rebuild_incremental_10pct", 10),
    ] {
        // Churn fraction is measured against the *total* unit population
        // the delta is keyed over, floored at one unit.
        let k = (total * pct / 100).clamp(1, n_ns);
        let mut at = 0usize;
        c.bench_function(label, |b| {
            b.iter(|| {
                let hints = ns_hints(n_ns, k, at);
                at += k;
                let delta = map.rebuild_incremental(black_box(&net), &cdn, &hints);
                assert!(!delta.is_full(), "hinted churn must stay incremental");
                delta
            })
        });
    }
}

criterion_group!(benches, bench_rebuild);
criterion_main!(benches);
