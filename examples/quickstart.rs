//! Quickstart: build a small world and watch one DNS resolution flow
//! through the whole system — client → LDNS → top-level name server →
//! low-level name server → A records — with and without EDNS0 Client
//! Subnet, exactly the interaction of the paper's Figure 4.
//!
//! Run with: `cargo run --release --example quickstart`

use end_user_mapping::ldns::EcsPolicy;
use end_user_mapping::sim::scenario::{Scenario, ScenarioConfig};
use end_user_mapping::sim::QueryCounters;

fn main() {
    // One call builds the synthetic Internet, the CDN, the mapping
    // system, per-LDNS recursive resolvers, and the DNS glue.
    let mut world = Scenario::build(ScenarioConfig::tiny(0x5EED));
    println!(
        "world: {} client /24 blocks, {} LDNSes, {} CDN clusters, {} hosted domains",
        world.net.blocks.len(),
        world.resolvers.len(),
        world.cdn.cluster_count(),
        world.catalog.len()
    );

    // Pick a client that uses a public resolver far from home — the kind
    // of client end-user mapping was built for.
    let (block, ldns) = world
        .net
        .blocks
        .iter()
        .flat_map(|b| b.ldns.iter().map(move |(r, _)| (b.clone(), *r)))
        .filter(|(b, r)| {
            world.net.is_public_resolver(*r) && {
                let d = b.loc.distance_miles(&world.net.resolver(*r).loc);
                d > 1500.0
            }
        })
        .max_by(|a, b| a.0.demand.partial_cmp(&b.0.demand).unwrap())
        .expect("the world contains a distant public-resolver client");
    let resolver_info = world.net.resolver(ldns).clone();
    println!(
        "\nclient block {} in {} uses public LDNS {} in {} — {:.0} miles away",
        block.prefix,
        block.country.name(),
        resolver_info.ip,
        resolver_info.country.name(),
        block.loc.distance_miles(&resolver_info.loc),
    );

    let domain = world.catalog.domains[0].clone();
    println!(
        "resolving {} (CNAME -> {})",
        domain.www_name, domain.cdn_name
    );

    let mut counters = QueryCounters::new();

    // Resolve once with ECS off (traditional NS-based mapping)…
    let mut run = |ecs: EcsPolicy, now_ms: u64| {
        world.resolvers[ldns.index()].set_policy(ecs.clone());
        let (res, elapsed_ms) = world.resolve(
            ldns,
            &domain.www_name,
            block.client_ip(),
            now_ms,
            &mut counters,
        );
        let server_ip = res.ips[0];
        let cluster = world
            .cdn
            .server(world.cdn.server_by_ip(server_ip).unwrap())
            .cluster;
        let loc = world.cdn.cluster(cluster).loc;
        println!(
            "  {:?}: {} upstream queries, {:.0} ms DNS; answer {:?} -> cluster {} ({:.0} miles from client)",
            ecs,
            res.upstream_queries,
            elapsed_ms,
            res.ips,
            world.cdn.cluster(cluster).name,
            block.loc.distance_miles(&loc),
        );
    };

    println!("\nNS-based mapping (no client subnet):");
    run(EcsPolicy::Off, 0);
    // …then with ECS on, using a fresh cache epoch so the scoped answer
    // is actually fetched (a day later, long past every TTL).
    println!("end-user mapping (ECS /24):");
    run(EcsPolicy::Always, 200_000_000);

    println!("\nThe ECS answer maps the client near itself rather than near its LDNS.");
}
