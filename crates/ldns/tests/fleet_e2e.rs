//! The closed loop, end to end: a [`ResolverFleet`] of real caching LDNS
//! instances driving a live `eum-authd` over the in-process channel
//! transport, with the full mapping system behind it.
//!
//! These tests measure the quantities the paper reasons about
//! analytically and check they move the right way:
//!
//! * ECS **amplification** — turning ECS on fragments resolver caches by
//!   client prefix, so the same downstream workload costs strictly more
//!   upstream queries (§6.3's scaling concern, RFC 7871 §7.1).
//! * **Hit ratio vs scope length** — the finer the authoritative's
//!   announced scope, the fewer clients share a cache entry, so the
//!   fleet's hit ratio falls monotonically as the scope floor deepens.

use eum_authd::{channel_transports, AuthServer, ChannelClient, ServerConfig, SnapshotHandle};
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_dns::{DnsName, Rcode};
use eum_ldns::{EcsPolicy, Ldns, LdnsConfig, QueryPlan, ResolverFleet, RunConfig};
use eum_mapping::{MappingConfig, MappingSystem};
use eum_netmodel::{Internet, InternetConfig};
use std::net::Ipv4Addr;
use std::time::Instant;

const SEED: u64 = 0x1D25;

struct World {
    net: Internet,
    catalog: ContentCatalog,
    map: MappingSystem,
}

fn build_world(scope_floor: u8) -> World {
    let mut net = Internet::generate(InternetConfig::tiny(SEED));
    let sites = deployment_universe(SEED, 16);
    let cdn = CdnPlatform::deploy(
        &mut net,
        &sites,
        &DeployConfig {
            servers_per_cluster: 4,
            cache_objects_per_server: 256,
            cluster_capacity: f64::INFINITY,
        },
    );
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(SEED));
    let map = MappingSystem::build(
        &mut net,
        &cdn,
        &catalog,
        "cdn.example".parse().unwrap(),
        MappingConfig {
            max_ping_targets: 50,
            scope_floor,
            ..MappingConfig::default()
        },
    );
    World { net, catalog, map }
}

fn domains(catalog: &ContentCatalog) -> Vec<(DnsName, f64)> {
    catalog
        .domains
        .iter()
        .map(|d| (d.cdn_name.clone(), d.popularity))
        .collect()
}

/// Spawns an auth server over `shards` channel shards and returns the
/// top-level IP plus per-worker clients.
fn spawn_server(map: MappingSystem, shards: usize) -> (AuthServer, Ipv4Addr, Vec<ChannelClient>) {
    let top = map.top_level_ip();
    let (transports, connector) = channel_transports(shards);
    let server = AuthServer::spawn(transports, SnapshotHandle::new(map), ServerConfig::new(top));
    let clients = (0..shards)
        .map(|_| ChannelClient::new(connector.clone()))
        .collect();
    (server, top, clients)
}

#[test]
fn single_resolver_walks_the_hierarchy_and_caches() {
    let w = build_world(24);
    let qname = w.catalog.domains[0].cdn_name.clone();
    let client = w.net.blocks[0].client_ip();
    let resolver_ip = w.net.resolvers[0].ip;
    let (server, top, mut clients) = spawn_server(w.map, 1);
    let mut transport = clients.remove(0);

    let t0 = Instant::now();
    let mut ldns = Ldns::new(LdnsConfig::new(resolver_ip, EcsPolicy::Always), t0);

    // Cold: top-level delegation + low-level answer = 2 upstream queries.
    let first = ldns.resolve(&mut transport, 0, top, &qname, client, t0);
    assert_eq!(first.rcode, Rcode::NoError);
    assert!(!first.ips.is_empty(), "mapping must return edge servers");
    assert!(!first.from_cache);
    assert_eq!(first.upstream_queries, 2);
    assert!(first.ttl_s > 0);

    // Warm: same client asks again — answered without any upstream.
    let again = ldns.resolve(&mut transport, 0, top, &qname, client, t0);
    assert_eq!(again.ips, first.ips);
    assert!(again.from_cache);
    assert_eq!(again.upstream_queries, 0);

    // A second name reuses the *delegation* path only when it shares the
    // qname — distinct qname means a fresh delegation, so 2 more.
    let other = w.catalog.domains[1].cdn_name.clone();
    let second = ldns.resolve(&mut transport, 0, top, &other, client, t0);
    assert_eq!(second.rcode, Rcode::NoError);
    assert_eq!(second.upstream_queries, 2);

    // Unknown name: negative answer, and the negative entry is reused.
    let bogus: DnsName = "nope.cdn.example".parse().unwrap();
    let neg = ldns.resolve(&mut transport, 0, top, &bogus, client, t0);
    assert_eq!(neg.rcode, Rcode::NxDomain);
    let neg2 = ldns.resolve(&mut transport, 0, top, &bogus, client, t0);
    assert_eq!(neg2.rcode, Rcode::NxDomain);
    assert!(neg2.from_cache, "NXDOMAIN must be negatively cached");
    assert_eq!(neg2.upstream_queries, 0);

    let stats = ldns.stats();
    assert_eq!(stats.downstream_queries, 5);
    assert_eq!(stats.failures, 0);
    drop(transport);
    server.stop_join();
}

#[test]
fn truncated_upstream_answers_retry_over_tcp() {
    let w = build_world(24);
    let qname = w.catalog.domains[0].cdn_name.clone();
    let client = w.net.blocks[0].client_ip();
    let resolver_ip = w.net.resolvers[0].ip;
    let top = w.map.top_level_ip();

    // A UDP reply cap below any referral or answer: every upstream
    // exchange comes back TC=1 and must complete over the stream leg
    // (the channel transport models it as an uncapped stream query).
    let (transports, connector) = channel_transports(1);
    let server = AuthServer::spawn(
        transports,
        SnapshotHandle::new(w.map),
        ServerConfig::new(top).with_max_udp_reply(40),
    );
    let mut transport = ChannelClient::new(connector);

    let t0 = Instant::now();
    let mut ldns = Ldns::new(LdnsConfig::new(resolver_ip, EcsPolicy::Always), t0);
    let first = ldns.resolve(&mut transport, 0, top, &qname, client, t0);
    assert_eq!(first.rcode, Rcode::NoError);
    assert!(!first.ips.is_empty(), "the TCP leg must carry the answer");
    // Both walk steps (delegation + answer) truncated: each cost one UDP
    // query plus one TCP retry.
    assert_eq!(first.upstream_queries, 4);
    let stats = ldns.stats();
    assert_eq!(stats.upstream_tcp_retries, 2);
    assert_eq!(stats.failures, 0);

    // Cached: no upstream at all, so no further retries.
    let again = ldns.resolve(&mut transport, 0, top, &qname, client, t0);
    assert!(again.from_cache);
    assert_eq!(again.ips, first.ips);
    assert_eq!(ldns.stats().upstream_tcp_retries, 2);
    drop(transport);
    server.stop_join();
}

#[test]
fn fleet_reports_and_exports_tcp_retries() {
    use eum_ldns::FleetMetrics;
    use eum_telemetry::Registry;

    const QUERIES: usize = 400;
    const WORKERS: usize = 2;

    let w = build_world(24);
    let plan = QueryPlan::generate(&w.net, &domains(&w.catalog), SEED, QUERIES);
    let t0 = Instant::now();
    let mut fleet = ResolverFleet::new(&w.net, t0, |r| LdnsConfig::new(r.ip, EcsPolicy::Always));
    let top = w.map.top_level_ip();
    let (transports, connector) = channel_transports(WORKERS);
    let server = AuthServer::spawn(
        transports,
        SnapshotHandle::new(w.map),
        ServerConfig::new(top).with_max_udp_reply(40),
    );
    let clients = (0..WORKERS)
        .map(|_| ChannelClient::new(connector.clone()))
        .collect();
    let report = fleet.run(clients, &plan, &RunConfig::new(top));
    let server_reports = server.stop_join();

    assert_eq!(report.failures, 0, "every truncation must recover via TCP");
    assert!(
        report.upstream_tcp_retries > 0,
        "a 40-byte cap must force TC retries"
    );
    // Every UDP reply the server truncated shows up as a resolver-side
    // TCP retry, and retries are counted inside upstream_queries.
    let truncated: u64 = server_reports.iter().map(|r| r.truncated).sum();
    assert_eq!(report.upstream_tcp_retries, truncated);
    assert!(report.upstream_queries >= 2 * report.upstream_tcp_retries);

    let reg = Registry::new();
    let mut metrics = FleetMetrics::register(&reg);
    metrics.publish(&report);
    let text = reg.render_text();
    assert!(
        text.contains(&format!(
            "eum_ldns_upstream_tcp_retries_total {}",
            report.upstream_tcp_retries
        )),
        "exported counter must match the fleet report"
    );

    // The footprint gauge is the report's number, and it pays per live
    // entry: past each resolver's fixed wheel tables (320 slot vectors),
    // an entry costs its 128-byte slab slot, its index bucket and its
    // wheel handle, with the tables' growth slack on top.
    assert!(
        text.contains(&format!("eum_ldns_cache_bytes {}", report.cache_bytes)),
        "exported gauge must match the fleet report"
    );
    let wheel_tables = report.resolvers * 320 * std::mem::size_of::<Vec<u64>>();
    let per_entry = (report.cache_bytes - wheel_tables) / report.cache_entries.max(1);
    assert!(report.cache_entries > 0);
    assert!(
        per_entry <= 320,
        "{per_entry} bytes per live resolver-cache entry ({} bytes, {} entries)",
        report.cache_bytes,
        report.cache_entries
    );
}

#[test]
fn ecs_raises_measured_amplification_over_baseline() {
    const QUERIES: usize = 4_000;
    const WORKERS: usize = 4;

    let mut amps = Vec::new();
    let mut reports = Vec::new();
    for ecs in [false, true] {
        let w = build_world(24);
        let plan = QueryPlan::generate(&w.net, &domains(&w.catalog), SEED, QUERIES);
        let t0 = Instant::now();
        let mut fleet = ResolverFleet::new(&w.net, t0, |r| {
            let policy = if ecs {
                EcsPolicy::Always
            } else {
                EcsPolicy::Off
            };
            LdnsConfig::new(r.ip, policy)
        });
        assert!(fleet.len() >= 8, "acceptance: at least 8 resolver sites");
        let (server, top, clients) = spawn_server(w.map, WORKERS);
        let report = fleet.run(clients, &plan, &RunConfig::new(top));
        server.stop_join();

        assert_eq!(report.downstream_queries, QUERIES as u64);
        assert_eq!(report.failures, 0, "clean channel transport, no failures");
        assert!(report.upstream_queries > 0);
        amps.push(report.amplification());
        reports.push(report);
    }

    let (off, on) = (amps[0], amps[1]);
    assert!(
        on > 1.5 * off,
        "ECS must fragment resolver caches: measured amplification \
         ecs-on {on:.3} vs ecs-off {off:.3} (ratio {:.2})",
        on / off
    );
    // With ECS off every hit is on a global (scope-0) entry; with ECS on
    // the positive-answer hits move to scoped entries.
    assert_eq!(
        reports[0].hits_by_scope[1..].iter().sum::<u64>(),
        0,
        "ECS-off fleet must only ever hit global entries"
    );
    assert!(
        reports[1].hits_by_scope[1..].iter().sum::<u64>() > 0,
        "ECS-on fleet must hit scoped entries"
    );
}

#[test]
fn hit_ratio_falls_as_announced_scope_deepens() {
    const QUERIES: usize = 4_000;
    const WORKERS: usize = 4;

    let mut ratios = Vec::new();
    for scope_floor in [8u8, 16, 24] {
        let w = build_world(scope_floor);
        let plan = QueryPlan::generate(&w.net, &domains(&w.catalog), SEED, QUERIES);
        let t0 = Instant::now();
        let mut fleet =
            ResolverFleet::new(&w.net, t0, |r| LdnsConfig::new(r.ip, EcsPolicy::Always));
        let (server, top, clients) = spawn_server(w.map, WORKERS);
        let report = fleet.run(clients, &plan, &RunConfig::new(top));
        server.stop_join();

        assert_eq!(report.downstream_queries, QUERIES as u64);
        ratios.push((scope_floor, report.hit_ratio()));
    }

    for pair in ratios.windows(2) {
        let ((f0, r0), (f1, r1)) = (pair[0], pair[1]);
        assert!(
            r0 >= r1,
            "hit ratio must not rise with scope: /{f0} -> {r0:.3}, /{f1} -> {r1:.3}"
        );
    }
    let (first, last) = (ratios[0].1, ratios[2].1);
    assert!(
        first > last,
        "a /8 floor must cache strictly better than a /24 floor: {first:.3} vs {last:.3}"
    );
}
