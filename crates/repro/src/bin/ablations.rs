//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. ECS-aware cache vs qname-only cache (protocol-violating);
//! 2. authoritative scope narrowing: /20 floor vs always-/24;
//! 3. mapping-unit granularity and BGP aggregation (also Figure 22);
//! 4. global LB: stable allocation vs greedy;
//! 5. local LB: consistent hashing vs round-robin (cache-hit impact);
//! 6. anycast catchment fidelity: misroute probability sweep.
//!
//! Run with: `cargo run --release -p eum-repro --bin ablations`

use eum_authd::ClientTransport;
use eum_cdn::{
    deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, ContentId, DeployConfig,
};
use eum_dns::{decode_message, encode_message, OptData, QueryContext};
use eum_ldns::{EcsPolicy, Ldns, LdnsConfig};
use eum_mapping::{
    assign, LbAlgorithm, LocalLbPolicy, MapUnits, MappingConfig, MappingSystem, PingMatrix,
    PingTargets, ScoreBasis, ScoreTable, ScoringWeights, UnitId,
};
use eum_netmodel::{Endpoint, Internet, InternetConfig};
use eum_repro::SEED;
use eum_sim::{AuthNet, QueryCounters};
use eum_stats::Table;
use std::collections::HashMap;
use std::io;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

fn main() {
    println!("=== Ablations (seed {SEED:#x}) ===\n");
    ablation_cache_scope();
    ablation_scope_floor();
    ablation_global_lb();
    ablation_local_lb();
    ablation_anycast();
}

/// Builds a standard small world with a chosen mapping config.
fn world(cfg_mapping: MappingConfig) -> (Internet, CdnPlatform, ContentCatalog, MappingSystem) {
    let mut net = Internet::generate(InternetConfig::small(SEED));
    let sites = deployment_universe(SEED, 40);
    let cdn = CdnPlatform::deploy(
        &mut net,
        &sites,
        &DeployConfig {
            servers_per_cluster: 4,
            // Deliberately tight caches: a server holds ~3 domains' working
            // sets, so local-LB stability visibly moves the hit rate.
            cache_objects_per_server: 16,
            cluster_capacity: f64::INFINITY,
        },
    );
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(SEED));
    let mapping = MappingSystem::build(
        &mut net,
        &cdn,
        &catalog,
        "cdn.example".parse().unwrap(),
        cfg_mapping,
    );
    (net, cdn, catalog, mapping)
}

/// The protocol-violating half of ablation 1: a transport that zeroes
/// the ECS scope every reply announces, so the resolver behind it caches
/// each answer per qname only, as if for all clients (RFC 7871 §7.3.1
/// says otherwise).
struct DropScopes<T>(T);

impl<T: ClientTransport> ClientTransport for DropScopes<T> {
    fn exchange(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let reply = self
            .0
            .exchange(shard, server_ip, resolver_ip, payload, timeout)?;
        let mut msg = decode_message(&reply).expect("AuthNet encodes what it answers");
        if let Some(mut ecs) = msg.ecs().copied() {
            ecs.scope_prefix = 0;
            msg.set_opt(OptData::with_ecs(ecs));
        }
        Ok(encode_message(&msg))
    }

    fn num_shards(&self) -> usize {
        self.0.num_shards()
    }
}

/// How many upstream queries one public LDNS sends, and how often the
/// answer matches the client's own EU assignment, for `n` client blocks
/// querying one domain within a TTL window. `honor_scopes: false` puts
/// the resolver behind [`DropScopes`].
fn ldns_experiment(honor_scopes: bool, mapping_cfg: MappingConfig, n: usize) -> (u64, f64) {
    let (net, cdn, catalog, mut mapping) = world(mapping_cfg);
    let latency = net.latency;
    let site = net
        .resolvers
        .iter()
        .find(|r| r.kind.is_public())
        .expect("public site exists")
        .clone();
    let epoch = Instant::now();
    let mut resolver = Ldns::new(LdnsConfig::new(site.ip, EcsPolicy::Always), epoch);
    let mut counters = QueryCounters::new();
    let domain = &catalog.domains[0];
    // Static authorities are irrelevant: ask a low-level name server for
    // the CDN name directly (any of them answers for every unit).
    let low_ip = mapping.ns_ips()[1];
    let static_auths = HashMap::new();
    let mut endpoints = HashMap::new();
    endpoints.insert(
        mapping.top_level_ip(),
        Endpoint::infra(
            mapping.top_level_ip(),
            site.loc,
            site.country,
            eum_cdn::CDN_ASN,
        ),
    );
    for ip in mapping.ns_ips() {
        endpoints.insert(
            ip,
            Endpoint::infra(ip, site.loc, site.country, eum_cdn::CDN_ASN),
        );
    }
    let mut correct = 0usize;
    let mut total = 0usize;
    for (i, b) in net.blocks.iter().take(n).enumerate() {
        let mut authnet = AuthNet {
            mapping: &mut mapping,
            static_auths: &static_auths,
            endpoints: &endpoints,
            latency: &latency,
            resolver_ep: site.endpoint(),
            resolver_is_public: true,
            counters: &mut counters,
            day: 0,
            now_ms: i as u64,
            elapsed_ms: 0.0,
        };
        let now = epoch + Duration::from_millis(i as u64);
        let (qname, client) = (&domain.cdn_name, b.client_ip());
        let res = if honor_scopes {
            resolver.resolve(&mut authnet, 0, low_ip, qname, client, now)
        } else {
            resolver.resolve(&mut DropScopes(authnet), 0, low_ip, qname, client, now)
        };
        if res.ips.is_empty() {
            continue;
        }
        total += 1;
        let got = cdn
            .server(cdn.server_by_ip(res.ips[0]).expect("cdn ip"))
            .cluster;
        if let Some(want) = mapping.assigned_cluster_for_block_class(b.prefix, domain.class) {
            if got == want {
                correct += 1;
            }
        }
    }
    let upstream = resolver.stats().upstream_queries;
    (upstream, 100.0 * correct as f64 / total.max(1) as f64)
}

fn ablation_cache_scope() {
    println!(
        "--- 1. ECS-aware cache vs qname-only cache (400 blocks, one public LDNS, one domain) ---"
    );
    let mut t = Table::new(["cache", "upstream queries", "% correctly mapped answers"]);
    for (label, honor) in [
        ("RFC 7871 scoped (production)", true),
        ("qname-only (ablation)", false),
    ] {
        let (q, pct) = ldns_experiment(
            honor,
            MappingConfig {
                max_ping_targets: 200,
                ..MappingConfig::default()
            },
            400,
        );
        t.row([label.to_string(), q.to_string(), format!("{pct:.1}")]);
    }
    println!("{t}");
    println!("the amplification is the price of correctness: dropping scopes removes the\nextra queries but serves most clients another block's answer\n");
}

fn ablation_scope_floor() {
    println!("--- 2. authoritative scope floor: /20 (paper Fig 4) vs always /24 ---");
    let mut t = Table::new(["scope policy", "upstream queries (400 blocks)"]);
    for (label, floor) in [("floor /20", 20u8), ("always /24", 24)] {
        let (q, _) = ldns_experiment(
            true,
            MappingConfig {
                scope_floor: floor,
                max_ping_targets: 200,
                ..MappingConfig::default()
            },
            400,
        );
        t.row([label.to_string(), q.to_string()]);
    }
    println!("{t}");
    println!("coarser scopes let sibling /24s share cache entries, trimming query load\nwithout giving up block-level mapping units\n");
}

fn ablation_global_lb() {
    println!("--- 3. global LB: stable allocation vs greedy under capacity pressure ---");
    let mut net = Internet::generate(InternetConfig::small(SEED));
    let sites = deployment_universe(SEED, 40);
    let cdn = CdnPlatform::deploy(
        &mut net,
        &sites,
        &DeployConfig {
            servers_per_cluster: 4,
            cache_objects_per_server: 64,
            cluster_capacity: f64::INFINITY,
        },
    );
    let units = MapUnits::block_units(&net, 24, true);
    let cluster_eps: Vec<Endpoint> = cdn
        .clusters
        .iter()
        .map(|c| cdn.cluster_endpoint(c.id))
        .collect();
    let targets = PingTargets::select(&net, 300, 100.0);
    let matrix = PingMatrix::measure(&net, &cluster_eps, &targets);
    let vantages: Vec<Endpoint> = units
        .units
        .iter()
        .map(|u| net.block(u.members[0]).endpoint())
        .collect();
    let table = ScoreTable::build(
        &net,
        &units,
        &vantages,
        &cluster_eps,
        &targets,
        &matrix,
        ScoringWeights::default(),
        ScoreBasis::UnitVantage,
        50,
    );
    let mut t = Table::new([
        "headroom",
        "algorithm",
        "demand-weighted mean score",
        "max cluster load / cap",
    ]);
    for headroom in [2.0, 1.3, 1.1] {
        let cap: Vec<f64> =
            vec![units.total_demand() * headroom / cdn.cluster_count() as f64; cdn.cluster_count()];
        let usable = vec![true; cdn.cluster_count()];
        for algo in [LbAlgorithm::Stable, LbAlgorithm::Greedy] {
            let a = assign(algo, &units, &table, &cap, &usable);
            let mut acc = 0.0;
            let mut w = 0.0;
            for u in 0..units.len() {
                if let Some(c) = a.cluster_of[u] {
                    let d = units.unit(UnitId(u as u32)).demand;
                    acc += table.score(UnitId(u as u32), c) * d;
                    w += d;
                }
            }
            let overload = a
                .load
                .iter()
                .zip(&cap)
                .map(|(l, c)| l / c)
                .fold(0.0f64, f64::max);
            t.row([
                format!("{headroom:.1}x"),
                format!("{algo:?}"),
                format!("{:.1}", acc / w),
                format!("{overload:.2}"),
            ]);
        }
    }
    println!("{t}");
    println!("stable allocation trades some mean score for no-blocking-pair stability.\nmax load/cap exceeds 1 because BGP-aggregated mega-units (a national ISP's\nCIDR) can individually exceed a cluster's capacity — service is never\nrefused (§ load balancing overflow rule), the overload is the mega-unit\n");
}

fn ablation_local_lb() {
    println!("--- 4. local LB: consistent hashing vs round-robin (cache-hit impact) ---");
    let mut t = Table::new([
        "local LB",
        "edge cache hit rate",
        "answers spread (distinct primaries)",
    ]);
    for (label, policy) in [
        (
            "consistent hashing (production)",
            LocalLbPolicy::ConsistentHash,
        ),
        ("round-robin (ablation)", LocalLbPolicy::RoundRobin),
    ] {
        let (net, mut cdn, catalog, mut mapping) = world(MappingConfig {
            local_lb: policy,
            max_ping_targets: 200,
            ..MappingConfig::default()
        });
        // Replay a request stream: blocks weighted by demand querying
        // Zipf-popular domains through the low-level NS of their cluster.
        let mut primaries = std::collections::BTreeSet::new();
        let ldns = net.resolvers[0].ip;
        let ctx = QueryContext {
            resolver_ip: ldns,
            now_ms: 0,
        };
        let mut i = 0u64;
        for _ in 0..4 {
            for b in net.blocks.iter().take(600) {
                i += 1;
                let domain_idx = (i % 12) as u32;
                let domain = &catalog.domains[domain_idx as usize];
                let ecs = eum_dns::EcsOption::query(b.client_ip(), 24);
                let q = eum_dns::Message::query(
                    i as u16,
                    eum_dns::Question::a(domain.cdn_name.clone()),
                    Some(eum_dns::OptData::with_ecs(ecs)),
                );
                let low = mapping.ns_ips()[1];
                let resp = mapping.handle(low, &q, &ctx);
                let ips = resp.answer_ips();
                if ips.is_empty() {
                    continue;
                }
                primaries.insert(ips[0]);
                let sid = cdn.server_by_ip(ips[0]).expect("cdn ip");
                // Serve the base page + a few objects.
                cdn.server_mut(sid).serve(
                    ContentId {
                        domain: domain_idx,
                        object: 0,
                    },
                    true,
                );
                for o in 1..=4u32 {
                    cdn.server_mut(sid).serve(
                        ContentId {
                            domain: domain_idx,
                            object: o,
                        },
                        true,
                    );
                }
            }
        }
        t.row([
            label.to_string(),
            format!("{:.1}%", 100.0 * cdn.overall_hit_rate()),
            primaries.len().to_string(),
        ]);
    }
    println!("{t}");
    println!("consistent hashing concentrates a domain's working set on few servers,\nraising hit rate — the paper's 'likely to contain the requested content'\n");
}

fn ablation_anycast() {
    println!("--- 5. anycast fidelity: misroute probability vs client-LDNS distance ---");
    let mut t = Table::new(["misroute prob", "overall median (mi)", "public median (mi)"]);
    for p in [0.0, 0.06, 0.2, 0.5] {
        let cfg = InternetConfig {
            misroute_prob: p,
            ..InternetConfig::small(SEED)
        };
        let net = Internet::generate(cfg);
        let ds = eum_sim::PairDataset::collect(&net);
        let mut all = ds.distance_sample(&net, |_, _| true);
        let mut public = ds.distance_sample(&net, |n, r| n.is_public_resolver(r.ldns));
        t.row([
            format!("{p:.2}"),
            format!("{:.0}", all.median().unwrap()),
            format!("{:.0}", public.median().unwrap()),
        ]);
    }
    println!("{t}");
    println!("anycast misrouting (the paper's [23]) lengthens client-LDNS distances even\nfor well-deployed resolver infrastructures\n");
}
