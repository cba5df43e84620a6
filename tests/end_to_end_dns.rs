//! Integration: the full DNS resolution path across all crates — client →
//! LDNS (eum-ldns) → root/static authorities (eum-sim glue) → mapping
//! system's two-level hierarchy (eum-mapping) → CDN servers (eum-cdn) on
//! the synthetic Internet (eum-netmodel).

use end_user_mapping::dns::Rcode;
use end_user_mapping::ldns::{EcsPolicy, Resolved};
use end_user_mapping::sim::scenario::{Scenario, ScenarioConfig};
use end_user_mapping::sim::QueryCounters;

fn world() -> Scenario {
    Scenario::build(ScenarioConfig::tiny(0xE2E))
}

/// Resolves `domain_idx`'s www name for `block_idx`'s representative
/// client via its primary LDNS, returning (resolution, modelled upstream
/// time in ms, counters).
fn resolve(
    world: &mut Scenario,
    block_idx: usize,
    domain_idx: usize,
    now_ms: u64,
) -> (Resolved, f64, QueryCounters) {
    let block = &world.net.blocks[block_idx];
    let (ldns, client) = (block.primary_ldns(), block.client_ip());
    let www = world.catalog.domains[domain_idx].www_name.clone();
    let mut counters = QueryCounters::new();
    let (res, elapsed_ms) = world.resolve(ldns, &www, client, now_ms, &mut counters);
    (res, elapsed_ms, counters)
}

#[test]
fn cold_resolution_traverses_the_whole_hierarchy() {
    let mut w = world();
    let (res, elapsed_ms, counters) = resolve(&mut w, 0, 0, 0);
    assert_eq!(res.rcode, Rcode::NoError);
    assert_eq!(res.ips.len(), 2, "the CDN returns two server IPs");
    assert!(!res.from_cache);
    // Cold path: root (provider referral) + provider CNAME + root (cdn
    // referral) + top-level (delegation) + low-level (A) = 5 queries.
    assert_eq!(res.upstream_queries, 5);
    assert!(elapsed_ms > 0.0);
    // Two of those queries hit the mapping system.
    let (_, total, _, _) = counters.rows()[0];
    assert_eq!(total, 2);
}

#[test]
fn answered_servers_are_live_cdn_servers_in_one_cluster() {
    let mut w = world();
    let (res, _, _) = resolve(&mut w, 0, 0, 0);
    let clusters: Vec<_> = res
        .ips
        .iter()
        .map(|ip| {
            let sid = w
                .cdn
                .server_by_ip(*ip)
                .expect("answered IP is a CDN server");
            assert!(w.cdn.server(sid).alive);
            w.cdn.server(sid).cluster
        })
        .collect();
    assert_eq!(
        clusters[0], clusters[1],
        "both answers come from the assigned cluster"
    );
}

#[test]
fn warm_resolution_is_free_and_identical() {
    let mut w = world();
    let (cold, _, _) = resolve(&mut w, 0, 0, 0);
    let (warm, _, counters) = resolve(&mut w, 0, 0, 60_000);
    assert!(warm.from_cache);
    assert_eq!(warm.upstream_queries, 0);
    assert_eq!(warm.ips, cold.ips, "cached answer must match");
    assert!(counters.rows().is_empty() || counters.rows()[0].1 == 0);
}

#[test]
fn different_clients_of_one_ecs_ldns_get_scoped_answers() {
    let mut w = world();
    // Use the public LDNS serving the most client blocks.
    let ldns = w
        .net
        .resolvers
        .iter()
        .filter(|r| r.kind.is_public())
        .max_by_key(|r| {
            w.net
                .blocks
                .iter()
                .filter(|b| b.ldns.iter().any(|(rid, _)| *rid == r.id))
                .count()
        })
        .expect("public resolver exists")
        .id;
    w.resolvers[ldns.index()].set_policy(EcsPolicy::Always);
    let clients: Vec<usize> = w
        .net
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| b.ldns.iter().any(|(r, _)| *r == ldns))
        .map(|(i, _)| i)
        .take(8)
        .collect();
    assert!(
        clients.len() >= 2,
        "need at least two client blocks on this LDNS"
    );

    let domain = w.catalog.domains[0].clone();
    let mut upstream_total = 0;
    for (k, bi) in clients.iter().enumerate() {
        let client = w.net.blocks[*bi].client_ip();
        let mut counters = QueryCounters::new();
        let (res, _) = w.resolve(ldns, &domain.www_name, client, k as u64, &mut counters);
        assert_eq!(res.rcode, Rcode::NoError);
        upstream_total += res.upstream_queries;
    }
    // With ECS on, blocks in different scopes cannot share the terminal
    // answer: strictly more upstream queries than the one cold chain.
    assert!(
        upstream_total > 5,
        "expected per-scope upstream queries, got {upstream_total}"
    );
    // And the cache holds several scoped entries for the CDN name.
    let entries = w.resolvers[ldns.index()]
        .cache()
        .entries_for(&domain.cdn_name, end_user_mapping::dns::RrType::A);
    assert!(entries >= 2, "only {entries} scoped entries");
}

#[test]
fn unknown_domain_resolves_to_nxdomain_through_the_chain() {
    let mut w = world();
    let block = &w.net.blocks[0];
    let (ldns, client) = (block.primary_ldns(), block.client_ip());
    let mut counters = QueryCounters::new();
    let (res, _) = w.resolve(
        ldns,
        &"www.never-hosted.example".parse().unwrap(),
        client,
        0,
        &mut counters,
    );
    assert_eq!(res.rcode, Rcode::NxDomain);
    assert!(res.ips.is_empty());
}
