//! Same `--seed` ⇒ identical query stream and identical exact-count
//! metrics; another seed ⇒ another stream. The exact-count metrics come
//! from fixed-count segments (a warm-up tail, a single-threaded replay),
//! so they may not depend on how fast the host happens to be.
//!
//! One test function on purpose: the runs pin threads and count
//! process-wide allocations, so they must not overlap.

use eum_e2e_bench::alloc::CountingAlloc;
use eum_e2e_bench::harness::RunConfig;
use eum_e2e_bench::stream::{FixedSetStream, FleetStream, MissStream, ShapeStream};
use eum_e2e_bench::workloads;
use eum_e2e_bench::world::{Scale, World};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn traced(workload: &str, seed: u64) -> eum_e2e_bench::report::RunResult {
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        traced: true,
        scale: Scale::Tiny,
        out_dir: None,
    };
    let r = workloads::run(&cfg).expect("known workload");
    // Not `r.correct`: a one-second run on a busy test host may run late;
    // what must hold here is that every answer was right.
    assert_eq!(r.failed, 0, "{workload}: {:?}", r.problems);
    r
}

#[test]
fn streams_and_exact_counts_repeat_for_a_seed_and_differ_across_seeds() {
    let world = World::build(Scale::Tiny);
    let names = world.catalog.domains.len();

    let hot = |seed| {
        let mut s = FixedSetStream::new(&world.net, names, 256, Some(10), seed);
        (0..5_000).map(|_| s.next_shape()).collect::<Vec<_>>()
    };
    let miss = |seed| {
        let mut s = MissStream::new(&world.net, &world.map, names, seed);
        (0..5_000).map(|_| s.next_shape()).collect::<Vec<_>>()
    };
    let fleet = |seed| {
        let mut s = FleetStream::new(&world.net, &world.catalog, seed);
        (0..5_000).map(|_| s.next_op()).collect::<Vec<_>>()
    };
    assert_eq!(hot(7), hot(7));
    assert_eq!(miss(7), miss(7));
    assert_eq!(fleet(7), fleet(7));
    assert_ne!(hot(7), hot(8));
    assert_ne!(miss(7), miss(8));
    assert_ne!(fleet(7), fleet(8));
    // Every tenth hot shape carries no ECS (as far as the world has
    // names to tell such shapes apart); every miss shape carries it.
    let set = FixedSetStream::new(&world.net, names, 256, Some(10), 7);
    let plain = set.shapes().iter().filter(|s| s.block.is_none()).count();
    assert_eq!(set.shapes().len(), 256);
    assert_eq!(plain, names.min(26));
    assert!(miss(7).iter().all(|s| s.block.is_some()));
    // The miss walk does not revisit a (name, unit) pair within its period.
    let mut seen = std::collections::HashSet::new();
    let mut walk = MissStream::new(&world.net, &world.map, names, 7);
    let period = walk.period().min(20_000);
    assert!((0..period).all(|_| seen.insert(walk.next_shape())));

    let exact: [(&str, &[&str]); 3] = [
        (
            "fleet_e2e",
            &["ldns.hit_ratio", "ldns.amplification", "ldns.expired_churn"],
        ),
        (
            "map_churn",
            &["mapping.delta_units", "authd.keyed_evictions_per_update"],
        ),
        ("auth_hot", &["allocs_per_op"]),
    ];
    for (workload, metrics) in exact {
        let (a, b) = (traced(workload, 7), traced(workload, 7));
        for m in metrics {
            let (x, y) = (a.metrics.get(m).unwrap(), b.metrics.get(m).unwrap());
            assert!(x.samples > 0, "{workload}: {m} not measured");
            assert_eq!(
                x.value, y.value,
                "{workload}: {m} differs between same-seed runs"
            );
        }
    }
    // And a seed is not decoration: the fleet's counts move with it.
    let (a, c) = (traced("fleet_e2e", 7), traced("fleet_e2e", 8));
    assert_ne!(
        a.metrics.get("ldns.amplification").unwrap().value,
        c.metrics.get("ldns.amplification").unwrap().value
    );
}
