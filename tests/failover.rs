//! Integration: liveness — the mapping system routes around dead clusters
//! and dead servers, and recovers when they return (the paper's "the
//! chosen server is live" requirement, §1).

use end_user_mapping::sim::scenario::{Scenario, ScenarioConfig};
use end_user_mapping::sim::{fetch_page, QueryCounters};

fn resolve_ips(w: &mut Scenario, block_idx: usize, now_ms: u64) -> Vec<std::net::Ipv4Addr> {
    let block = &w.net.blocks[block_idx];
    let (ldns, client) = (block.primary_ldns(), block.client_ip());
    let www = w.catalog.domains[0].www_name.clone();
    let mut counters = QueryCounters::new();
    w.resolve(ldns, &www, client, now_ms, &mut counters).0.ips
}

#[test]
fn dead_cluster_triggers_remap_and_recovery() {
    let mut w = Scenario::build(ScenarioConfig::tiny(0xFA11));
    let ips = resolve_ips(&mut w, 0, 0);
    assert_eq!(ips.len(), 2);
    let cluster = w.cdn.server(w.cdn.server_by_ip(ips[0]).unwrap()).cluster;

    // Kill the serving cluster; the mapping system learns via its
    // liveness feed.
    w.cdn.set_cluster_alive(cluster, false);
    w.mapping.refresh_liveness(&w.cdn);

    // A fresh resolution (past TTL) must route elsewhere.
    let ips2 = resolve_ips(&mut w, 0, 200_000_000);
    assert!(!ips2.is_empty());
    for ip in &ips2 {
        let c = w.cdn.server(w.cdn.server_by_ip(*ip).unwrap()).cluster;
        assert_ne!(c, cluster, "answer still points at the dead cluster");
        assert!(w.cdn.cluster(c).alive);
    }

    // And the page still loads from the failover cluster.
    let block = w.net.blocks[0].clone();
    let latency = w.net.latency;
    let outcome = fetch_page(&mut w.cdn, &w.catalog, &latency, &block, 0, &ips2);
    assert!(outcome.is_some(), "failover fetch failed");

    // Recovery: revive, refresh, resolve again after TTL — the original
    // (better) cluster returns.
    w.cdn.set_cluster_alive(cluster, true);
    w.mapping.refresh_liveness(&w.cdn);
    let ips3 = resolve_ips(&mut w, 0, 400_000_000);
    let c3 = w.cdn.server(w.cdn.server_by_ip(ips3[0]).unwrap()).cluster;
    assert_eq!(c3, cluster, "mapping did not fail back after recovery");
}

#[test]
fn stale_cached_answer_with_dead_server_falls_to_second_ip() {
    // The paper's reason for returning two IPs: if the primary dies while
    // a cached answer is still live, the client uses the second.
    let mut w = Scenario::build(ScenarioConfig::tiny(0xFA12));
    let ips = resolve_ips(&mut w, 0, 0);
    let primary = w.cdn.server_by_ip(ips[0]).unwrap();
    w.cdn.servers[primary.index()].alive = false;

    let block = w.net.blocks[0].clone();
    let latency = w.net.latency;
    let outcome = fetch_page(&mut w.cdn, &w.catalog, &latency, &block, 0, &ips)
        .expect("second IP must carry the load");
    assert_eq!(outcome.server, w.cdn.server_by_ip(ips[1]).unwrap());
}

#[test]
fn all_answered_servers_dead_fails_the_fetch_only() {
    let mut w = Scenario::build(ScenarioConfig::tiny(0xFA13));
    let ips = resolve_ips(&mut w, 0, 0);
    for ip in &ips {
        let sid = w.cdn.server_by_ip(*ip).unwrap();
        w.cdn.servers[sid.index()].alive = false;
    }
    let block = w.net.blocks[0].clone();
    let latency = w.net.latency;
    assert!(fetch_page(&mut w.cdn, &w.catalog, &latency, &block, 0, &ips).is_none());
    // After the mapping refresh and TTL expiry, service resumes on other
    // servers of the same cluster.
    w.mapping.refresh_liveness(&w.cdn);
    let ips2 = resolve_ips(&mut w, 0, 200_000_000);
    let outcome = fetch_page(&mut w.cdn, &w.catalog, &latency, &block, 0, &ips2);
    assert!(outcome.is_some());
}
