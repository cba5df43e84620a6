//! Demonstrates the §5 scaling story in isolation: what happens to an
//! LDNS's cache and its upstream query count when ECS turns on, and how
//! the choice of /x mapping units trades unit count against cluster
//! radius (Figures 21–24 in miniature).
//!
//! Run with: `cargo run --release --example ecs_cache_scaling`

use end_user_mapping::ldns::EcsPolicy;
use end_user_mapping::mapping::MapUnits;
use end_user_mapping::sim::scenario::{Scenario, ScenarioConfig};
use end_user_mapping::sim::QueryCounters;
use end_user_mapping::stats::Table;

fn main() {
    let mut world = Scenario::build(ScenarioConfig::tiny(0x5EED));

    // Part 1: mapping units (§5.1). How many units at each granularity?
    println!("mapping units per granularity (§5.1):");
    let mut t = Table::new(["unit type", "count", "demand-weighted mean radius (miles)"]);
    let ldns = MapUnits::ldns_units(&world.net);
    let radius = |u: &MapUnits| {
        let total = u.total_demand();
        u.units.iter().map(|x| x.radius * x.demand).sum::<f64>() / total
    };
    t.row([
        "LDNS (NS-based)".to_string(),
        ldns.len().to_string(),
        format!("{:.0}", radius(&ldns)),
    ]);
    for len in [24u8, 20, 16] {
        let plain = MapUnits::block_units(&world.net, len, false);
        let agg = MapUnits::block_units(&world.net, len, true);
        t.row([
            format!("/{len} blocks"),
            plain.len().to_string(),
            format!("{:.0}", radius(&plain)),
        ]);
        t.row([
            format!("/{len} + BGP aggregation"),
            agg.len().to_string(),
            format!("{:.0}", radius(&agg)),
        ]);
    }
    println!("{t}");

    // Part 2: cache amplification (§5.2). One public LDNS, one popular
    // domain, many client blocks: count upstream queries with ECS off/on.
    let ldns_id = world
        .net
        .resolvers
        .iter()
        .find(|r| r.kind.is_public())
        .expect("world has public resolvers")
        .id;
    let domain = world.catalog.domains[0].clone();
    let clients: Vec<_> = world
        .net
        .blocks
        .iter()
        .map(|b| b.client_ip())
        .take(200)
        .collect();

    let mut run = |ecs: EcsPolicy, epoch_ms: u64| -> (u64, usize) {
        world.resolvers[ldns_id.index()].set_policy(ecs);
        let mut counters = QueryCounters::new();
        let before = world.resolvers[ldns_id.index()].stats().upstream_queries;
        for (i, client) in clients.iter().enumerate() {
            // All clients ask within one TTL window.
            let now = epoch_ms + i as u64;
            let (res, _) = world.resolve(ldns_id, &domain.www_name, *client, now, &mut counters);
            assert!(!res.ips.is_empty());
        }
        let upstream = world.resolvers[ldns_id.index()].stats().upstream_queries - before;
        let entries = world.resolvers[ldns_id.index()]
            .cache()
            .entries_for(&domain.cdn_name, end_user_mapping::dns::RrType::A);
        (upstream, entries)
    };

    println!(
        "\ncache behaviour for {} clients of one public LDNS, one domain (§5.2):",
        clients.len()
    );
    let (q_off, e_off) = run(EcsPolicy::Off, 0);
    println!("  ECS off: {q_off:>4} upstream queries, {e_off:>4} cache entries for the domain");
    let (q_on, e_on) = run(EcsPolicy::Always, 400_000_000);
    println!("  ECS on:  {q_on:>4} upstream queries, {e_on:>4} cache entries for the domain");
    println!(
        "  amplification: {:.1}x queries — the paper measured 8x across all public resolvers",
        q_on as f64 / q_off.max(1) as f64
    );
}
