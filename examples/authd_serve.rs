//! Runs the eum-authd serving subsystem end to end, fully observed: a
//! sharded authoritative server answering wire-format queries from the
//! closed-loop load generator, with the eum-telemetry layer wired through
//! both sides.
//!
//!     cargo run --release --example authd_serve
//!
//! While the load generator runs, a background reporter prints periodic
//! telemetry read straight from the shared registry — per-shard cache hit
//! ratio, p50/p99 serve latency from the stage histograms, the published
//! snapshot generation, and the end-user answer amplification. After each
//! run the load generator's own histogram-backed percentiles are printed
//! next to the registry's (they read the same buckets, so they agree
//! exactly), and the final section dumps sampled per-query traces and a
//! render_text excerpt. Shard counts above the machine's core count
//! time-slice rather than parallelize; absolute q/s is whatever the
//! hardware gives.

use eum_authd::loadgen::{self, LoadGenConfig};
use eum_authd::{
    channel_transports, AuthServer, ChannelClient, ServerConfig, SnapshotHandle, TelemetryConfig,
};
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_mapping::{MappingConfig, MappingSystem};
use eum_net::{BatchConfig, ReuseportUdpTransport, SocketClient};
use eum_netmodel::{Internet, InternetConfig};
use eum_telemetry::{Registry, Reporter, TraceRing};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x5E87;
const SHARDS: usize = 4;

fn world() -> (Internet, ContentCatalog, MappingSystem) {
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
            ..MappingConfig::default()
        },
    );
    (net, catalog, map)
}

fn loadgen_cfg(registry: &Arc<Registry>) -> LoadGenConfig {
    LoadGenConfig {
        clients: 4,
        queries_per_client: 5_000,
        no_ecs_fraction: 0.1,
        timeout: Duration::from_secs(5),
        seed: SEED,
        telemetry: Some(registry.clone()),
    }
}

/// One periodic line read entirely from the shared registry — exactly what
/// a scraper polling `render_text` would compute.
fn live_line(reg: &Registry) -> String {
    let mut hit_parts = Vec::new();
    for shard in 0..SHARDS {
        let s = shard.to_string();
        let l: &[(&str, &str)] = &[("shard", &s)];
        let hits = reg.counter("eum_authd_cache_hits_total", "", l).get();
        let q = reg.counter("eum_authd_queries_total", "", l).get();
        let ratio = if q == 0 { 0.0 } else { hits as f64 / q as f64 };
        hit_parts.push(format!("s{shard} {:>4.1}%", 100.0 * ratio));
    }
    let serve = reg
        .histogram_striped("eum_authd_serve_ns", "", &[], SHARDS)
        .snapshot();
    let generation = reg.gauge("eum_authd_snapshot_generation", "", &[]).get();
    format!(
        "  [live] gen {generation:<2.0} serve p50 {:>7.1} µs p99 {:>7.1} µs  amplification {:>4.2}  cache hit {}",
        serve.quantile(0.5) / 1_000.0,
        serve.quantile(0.99) / 1_000.0,
        amplification(reg),
        hit_parts.join("  "),
    )
}

/// End-user answer amplification: how many distinct scoped (per ECS
/// block) answer units the shards materialized per resolver-keyed answer
/// — the serving-side face of the paper's query amplification (§7.3).
fn amplification(reg: &Registry) -> f64 {
    let mut scoped = 0u64;
    let mut total = 0u64;
    for shard in 0..SHARDS {
        let s = shard.to_string();
        let l: &[(&str, &str)] = &[("shard", &s)];
        scoped += reg
            .counter("eum_authd_cache_scoped_insertions_total", "", l)
            .get();
        total += reg.counter("eum_authd_cache_insertions_total", "", l).get();
    }
    let resolver_keyed = total - scoped;
    if resolver_keyed == 0 {
        0.0
    } else {
        scoped as f64 / resolver_keyed as f64
    }
}

fn summary_line(label: &str, reg: &Registry, report: &loadgen::LoadReport) {
    // These are *upstream* rates: the resolver→authoritative leg the
    // load generator plays (a fleet's downstream/client-facing rate is
    // the eum_ldns_downstream_* series).
    println!(
        "{label:<30} {:>9.0} upstream q/s   p50 {:>7.1} µs   p99 {:>7.1} µs   ok {} err {} bad {}",
        report.qps(),
        report.p50_us(),
        report.p99_us(),
        report.ok,
        report.transport_errors,
        report.bad_responses,
    );
    // The report's percentiles and the registry's come from the same
    // histogram buckets; print both to make the agreement visible.
    let scraped = reg
        .histogram_striped("eum_loadgen_upstream_exchange_ns", "", &[], 1)
        .snapshot();
    println!(
        "{:<30} registry eum_loadgen_upstream_exchange_ns: p50 {:>7.1} µs   p99 {:>7.1} µs   count {}",
        "",
        scraped.quantile(0.5) / 1_000.0,
        scraped.quantile(0.99) / 1_000.0,
        scraped.count(),
    );
}

fn run_channel(
    label: &str,
    snapshots: &SnapshotHandle,
    net: &Internet,
    catalog: &ContentCatalog,
    low: Ipv4Addr,
    tel: &TelemetryConfig,
) {
    let (transports, connector) = channel_transports(SHARDS);
    let server = AuthServer::spawn(
        transports,
        snapshots.clone(),
        ServerConfig::new(low).with_telemetry(tel.clone()),
    );
    let reg = tel.registry.clone();
    let reporter = Reporter::spawn(Duration::from_millis(150), move || {
        println!("{}", live_line(&reg));
    });
    let report = loadgen::run(net, catalog, low, &loadgen_cfg(&tel.registry), |_| {
        ChannelClient::new(connector.clone())
    });
    reporter.stop();
    server.stop_join();
    summary_line(label, &tel.registry, &report);
}

fn run_udp_with_swap(
    label: &str,
    snapshots: &SnapshotHandle,
    net: &Internet,
    catalog: &ContentCatalog,
    low: Ipv4Addr,
    tel: &TelemetryConfig,
    map2: MappingSystem,
) {
    let (transports, addrs) = ReuseportUdpTransport::bind_shards(SHARDS, &BatchConfig::default())
        .expect("bind loopback shards");
    let server = AuthServer::spawn_batched(
        transports,
        snapshots.clone(),
        ServerConfig::new(low).with_telemetry(tel.clone()),
    );
    let reg = tel.registry.clone();
    let reporter = Reporter::spawn(Duration::from_millis(150), move || {
        println!("{}", live_line(&reg));
    });
    // Publish a new map generation while the load generator is mid-flight:
    // the serving plane never pauses, the generation gauge moves, and the
    // per-shard generation_clears counters tick.
    let publisher = {
        let snapshots = snapshots.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            snapshots.publish(map2)
        })
    };
    let report = loadgen::run(net, catalog, low, &loadgen_cfg(&tel.registry), |_| {
        SocketClient::connect(addrs.clone(), Vec::new()).expect("bind client socket")
    });
    let generation = publisher.join().expect("publisher thread");
    reporter.stop();
    let shard_reports = server.stop_join();
    println!("  (published map generation {generation} mid-run)");
    summary_line(label, &tel.registry, &report);
    let clears: u64 = shard_reports
        .iter()
        .map(|r| r.cache.generation_clears)
        .sum();
    println!("  generation swaps cleared {clears} shard caches; zero errors during the swap");
}

fn main() {
    let (net, catalog, map) = world();
    let low = map.ns_ips()[1];
    println!(
        "world: {} client blocks, {} resolvers, {} domains; serving NS {low}, {SHARDS} shards\n",
        net.blocks.len(),
        net.resolvers.len(),
        catalog.domains.len(),
    );
    let snapshots = SnapshotHandle::new(map);
    let registry = Arc::new(Registry::new());
    let ring = Arc::new(TraceRing::new(512));
    let tel = TelemetryConfig::metrics(registry.clone()).with_trace(ring.clone(), 64);

    println!("in-process channel transport (telemetry + 1/64 query tracing):");
    run_channel("  channel, cache on", &snapshots, &net, &catalog, low, &tel);

    let (_, _, map2) = world();
    println!("\nloopback UDP with a mid-run snapshot swap:");
    run_udp_with_swap(
        "  udp, cache on, swap",
        &snapshots,
        &net,
        &catalog,
        low,
        &tel,
        map2,
    );

    let traces = ring.dump();
    println!(
        "\nsampled query traces: {} in ring ({} sampled total); last 8:",
        traces.len(),
        ring.pushed()
    );
    for t in traces.iter().rev().take(8).rev() {
        println!("  {}", t.render());
    }

    println!("\nregistry families ({}):", registry.family_names().len());
    for name in registry.family_names() {
        println!("  {name}");
    }
    println!("\nrender_text excerpt (counters and gauges):");
    for line in registry
        .render_text()
        .lines()
        .filter(|l| !l.contains("_bucket{") && !l.contains("_ns_sum") && !l.contains("_ns_count"))
    {
        println!("  {line}");
    }
}
