//! Scenario assembly: one call builds the entire world of the paper.
//!
//! [`Scenario::build`] generates the synthetic Internet, the content
//! catalog, the CDN deployment, the mapping system, one recursive resolver
//! ([`eum_ldns::Ldns`]) per LDNS, the content providers' own DNS (which
//! CNAMEs their `www` names into the CDN domain, §2.2), and a root name
//! server that glues the zones together. [`Scenario::run_rollout`] then replays the
//! §4 timeline and returns the [`RolloutReport`].

use crate::client::fetch_page;
use crate::engine::{EventQueue, SimTime};
use crate::netsession::PairDataset;
use crate::network::{AuthNet, QueryCounters};
use crate::rollout::{
    FleetMeasurement, FleetTimeline, FleetWindowStats, RolloutConfig, RolloutReport,
};
use crate::rum::{RumCollector, RumSample};
use crate::workload::{Workload, WorkloadConfig};
use eum_authd::{
    channel_transports, AuthServer, ChannelClient, ServerConfig, SnapshotHandle, TelemetryConfig,
};
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_dns::name::name;
use eum_dns::{
    DnsName, EcsOption, Message, OptData, QueryContext, Question, RData, Rcode, Record,
    StaticAuthority,
};
use eum_geo::{GeoInfo, Prefix};
use eum_ldns::{EcsPolicy, Ldns, LdnsConfig, QueryPlan, Resolved, ResolverFleet, RunConfig};
use eum_mapping::{MappingConfig, MappingSystem};
use eum_netmodel::{Endpoint, Internet, InternetConfig, ResolverId};
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Everything needed to build a scenario.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Master seed.
    pub seed: u64,
    /// Synthetic-Internet parameters.
    pub internet: InternetConfig,
    /// Content-catalog parameters.
    pub catalog: CatalogConfig,
    /// Number of CDN deployment locations.
    pub n_clusters: usize,
    /// Servers per cluster.
    pub servers_per_cluster: usize,
    /// Cache objects per server.
    pub cache_objects: usize,
    /// Capacity headroom: total cluster capacity = headroom × demand.
    pub capacity_headroom: f64,
    /// Mapping-system parameters.
    pub mapping: MappingConfig,
    /// Roll-out timeline.
    pub rollout: RolloutConfig,
}

impl ScenarioConfig {
    /// Minimal scenario for unit tests (runs in under a second).
    pub fn tiny(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            internet: InternetConfig::tiny(seed),
            catalog: CatalogConfig {
                seed,
                n_domains: 6,
                zipf_s: 0.9,
            },
            n_clusters: 10,
            servers_per_cluster: 3,
            cache_objects: 512,
            capacity_headroom: 1.5,
            mapping: MappingConfig {
                max_ping_targets: 60,
                ..MappingConfig::default()
            },
            rollout: RolloutConfig::quick(),
        }
    }

    /// Mid-size scenario for examples and integration tests.
    pub fn small(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            internet: InternetConfig::small(seed),
            catalog: CatalogConfig {
                seed,
                n_domains: 40,
                zipf_s: 0.9,
            },
            n_clusters: 40,
            servers_per_cluster: 4,
            cache_objects: 2048,
            capacity_headroom: 1.5,
            mapping: MappingConfig {
                max_ping_targets: 400,
                ..MappingConfig::default()
            },
            rollout: RolloutConfig {
                workload: WorkloadConfig {
                    views_per_day: 4_000.0,
                    ..WorkloadConfig::default()
                },
                ..RolloutConfig::paper()
            },
        }
    }

    /// The scale used by the reproduction binaries.
    pub fn paper(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            internet: InternetConfig::paper(seed),
            catalog: CatalogConfig::paper(seed),
            n_clusters: 160,
            servers_per_cluster: 6,
            cache_objects: 4096,
            capacity_headroom: 1.5,
            mapping: MappingConfig {
                max_ping_targets: 2000,
                ..MappingConfig::default()
            },
            rollout: RolloutConfig {
                workload: WorkloadConfig {
                    views_per_day: 15_000.0,
                    ..WorkloadConfig::default()
                },
                ..RolloutConfig::paper()
            },
        }
    }
}

/// A fully built world.
pub struct Scenario {
    /// The configuration.
    pub cfg: ScenarioConfig,
    /// The synthetic Internet.
    pub net: Internet,
    /// The hosted-content catalog.
    pub catalog: ContentCatalog,
    /// The CDN platform.
    pub cdn: CdnPlatform,
    /// The mapping system.
    pub mapping: MappingSystem,
    /// One recursive resolver per LDNS (indexed by `ResolverId`).
    pub resolvers: Vec<Ldns>,
    /// The instant virtual millisecond 0 maps to on the resolvers' clocks.
    epoch: Instant,
    /// Static authorities by server IP (root + provider DNS).
    pub static_auths: HashMap<Ipv4Addr, StaticAuthority>,
    /// Endpoints of all authoritative server IPs.
    pub endpoints: HashMap<Ipv4Addr, Endpoint>,
    /// The root name server's IP.
    pub root_ip: Ipv4Addr,
    /// Public resolver sites eligible for the ECS roll-out (providers
    /// that support ECS), in deterministic flip order.
    pub ecs_eligible: Vec<ResolverId>,
}

impl Scenario {
    /// Builds the world. Deterministic in `cfg.seed`.
    pub fn build(cfg: ScenarioConfig) -> Scenario {
        let mut net = Internet::generate(cfg.internet.clone());
        let catalog = ContentCatalog::generate(&cfg.catalog);

        // CDN deployment. Capacity is provisioned where demand is: each
        // block contributes to its nearest cluster, and a cluster's
        // capacity is `headroom ×` the demand in its catchment (plus a
        // floor so cold-region clusters can still absorb failover). A
        // uniform split would starve hot metros and force the load
        // balancer to scatter their mapping units across the globe.
        let sites = deployment_universe(cfg.seed, cfg.n_clusters);
        let mut cdn = CdnPlatform::deploy(
            &mut net,
            &sites,
            &DeployConfig {
                servers_per_cluster: cfg.servers_per_cluster,
                cache_objects_per_server: cfg.cache_objects,
                cluster_capacity: 0.0, // set per cluster below
            },
        );
        {
            let mut catchment = vec![0.0f64; cdn.cluster_count()];
            for b in &net.blocks {
                let nearest = cdn
                    .clusters
                    .iter()
                    .enumerate()
                    .min_by(|(_, x), (_, y)| {
                        x.loc
                            .distance_miles(&b.loc)
                            .partial_cmp(&y.loc.distance_miles(&b.loc))
                            .expect("finite distances")
                    })
                    .expect("clusters exist")
                    .0;
                catchment[nearest] += b.demand;
            }
            let floor = net.total_demand() * 0.2 / cdn.cluster_count() as f64;
            for (i, c) in cdn.clusters.iter_mut().enumerate() {
                c.capacity = cfg.capacity_headroom * catchment[i] + floor;
            }
        }

        // Mapping system over the CDN.
        let mapping = MappingSystem::build(
            &mut net,
            &cdn,
            &catalog,
            name("cdn.example"),
            cfg.mapping.clone(),
        );

        let mut endpoints: HashMap<Ipv4Addr, Endpoint> = HashMap::new();
        // Mapping NS endpoints: top-level at the first cluster, low-level
        // NS inside each cluster.
        let top_ip = mapping.top_level_ip();
        endpoints.insert(
            top_ip,
            Endpoint::infra(
                top_ip,
                cdn.cluster(eum_cdn::ClusterId(0)).loc,
                cdn.cluster(eum_cdn::ClusterId(0)).country,
                eum_cdn::CDN_ASN,
            ),
        );
        for c in &cdn.clusters {
            let ns_ip = Ipv4Addr::from(c.prefix.addr() | 2);
            endpoints.insert(ns_ip, Endpoint::infra(ns_ip, c.loc, c.country, c.asn));
        }

        // Content providers' DNS: one authority per distinct origin city
        // hosting the CNAMEs of every domain originating there.
        let mut static_auths: HashMap<Ipv4Addr, StaticAuthority> = HashMap::new();
        let mut origin_ns: HashMap<(u64, u64), Ipv4Addr> = HashMap::new();
        let mut root = StaticAuthority::new();
        // Root name server placed at a US east-coast interconnect.
        let root_prefix = net.alloc_infra_block(GeoInfo {
            point: eum_geo::GeoPoint::new(38.9, -77.0),
            country: eum_geo::Country::UnitedStates,
            asn: eum_geo::Asn(42),
        });
        let root_ip = Ipv4Addr::from(root_prefix.addr() | 1);
        endpoints.insert(
            root_ip,
            Endpoint::infra(
                root_ip,
                eum_geo::GeoPoint::new(38.9, -77.0),
                eum_geo::Country::UnitedStates,
                eum_geo::Asn(42),
            ),
        );

        for d in &catalog.domains {
            // Locate (or create) the origin city's provider-DNS server.
            let key = (d.origin_loc.lat().to_bits(), d.origin_loc.lon().to_bits());
            let ns_ip = match origin_ns.get(&key) {
                Some(ip) => *ip,
                None => {
                    let p = net.alloc_infra_block(GeoInfo {
                        point: d.origin_loc,
                        country: d.origin_country,
                        asn: eum_geo::Asn(43),
                    });
                    let ip = Ipv4Addr::from(p.addr() | 53);
                    origin_ns.insert(key, ip);
                    endpoints.insert(
                        ip,
                        Endpoint::infra(ip, d.origin_loc, d.origin_country, eum_geo::Asn(43)),
                    );
                    static_auths.insert(ip, StaticAuthority::new());
                    ip
                }
            };
            let auth = static_auths
                .get_mut(&ns_ip)
                .expect("authority just ensured");
            auth.add(Record::cname(
                d.www_name.clone(),
                86_400,
                d.cdn_name.clone(),
            ));
            // Root delegates the provider zone (siteN.example) to it.
            let zone = d.www_name.parent().expect("www names have parents");
            root.delegate(
                zone.clone(),
                zone.child("ns").expect("valid label"),
                ns_ip,
                86_400,
            );
        }
        // Root delegates the CDN zone to the mapping top-level.
        root.delegate(name("cdn.example"), name("top.cdn.example"), top_ip, 86_400);
        static_auths.insert(root_ip, root);

        // One recursive resolver per LDNS, ECS off initially. The modelled
        // network loses nothing, so an exchange is tried once.
        let epoch = Instant::now();
        let resolvers: Vec<Ldns> = net
            .resolvers
            .iter()
            .map(|r| {
                let mut ldns = LdnsConfig::new(r.ip, EcsPolicy::Off);
                ldns.source_prefix = cfg.rollout.ecs_source_prefix;
                ldns.attempts = 1;
                Ldns::new(ldns, epoch)
            })
            .collect();

        // ECS-eligible public sites, in provider/site order.
        let ecs_eligible: Vec<ResolverId> = net
            .providers
            .iter()
            .filter(|p| p.supports_ecs)
            .flat_map(|p| p.sites.iter().copied())
            .collect();

        Scenario {
            cfg,
            net,
            catalog,
            cdn,
            mapping,
            resolvers,
            epoch,
            static_auths,
            endpoints,
            root_ip,
            ecs_eligible,
        }
    }

    /// Resolves `qname` for `client` through LDNS `ldns` at virtual time
    /// `now_ms`, outside the roll-out timeline (queries reaching the
    /// mapping system are metered into `counters` under day 0). Returns
    /// the resolution and the modelled time its upstream exchanges took,
    /// milliseconds.
    pub fn resolve(
        &mut self,
        ldns: ResolverId,
        qname: &DnsName,
        client: Ipv4Addr,
        now_ms: u64,
        counters: &mut QueryCounters,
    ) -> (Resolved, f64) {
        let info = self.net.resolver(ldns);
        let mut authnet = AuthNet {
            mapping: &mut self.mapping,
            static_auths: &self.static_auths,
            endpoints: &self.endpoints,
            latency: &self.net.latency,
            resolver_ep: info.endpoint(),
            resolver_is_public: info.kind.is_public(),
            counters,
            day: 0,
            now_ms,
            elapsed_ms: 0.0,
        };
        let resolved = self.resolvers[ldns.index()].resolve(
            &mut authnet,
            0,
            self.root_ip,
            qname,
            client,
            self.epoch + Duration::from_millis(now_ms),
        );
        (resolved, authnet.elapsed_ms)
    }

    /// Collects the NetSession client–LDNS dataset *through the protocol*
    /// (§3.1): every client block probes `whoami.cdn.example` via each of
    /// its LDNSes; the mapping system's name servers answer with the
    /// unicast IP of the querying resolver, which the client reports.
    ///
    /// This is the end-to-end counterpart of [`PairDataset::collect`]
    /// (which reads the generator's ground truth); the two must agree —
    /// asserted by the `whoami_collection` integration test.
    pub fn collect_netsession_via_whoami(&mut self) -> PairDataset {
        let by_ip: HashMap<Ipv4Addr, eum_netmodel::ResolverId> =
            self.net.resolvers.iter().map(|r| (r.ip, r.id)).collect();
        let mut counters = QueryCounters::new();
        let mut records = Vec::new();
        let mut now_ms = 0u64;
        let whoami = self.mapping.whoami_name();
        for bi in 0..self.net.blocks.len() {
            let block = self.net.blocks[bi].clone();
            for (rid, w) in &block.ldns {
                let weight = block.demand * w;
                if weight <= 0.0 {
                    continue;
                }
                // whoami answers are TTL-0; space probes past the 1s
                // minimum cache lifetime so each probe reaches the
                // authority.
                now_ms += 2_000;
                let (res, _) =
                    self.resolve(*rid, &whoami, block.client_ip(), now_ms, &mut counters);
                let Some(learned_ip) = res.ips.first() else {
                    continue;
                };
                let Some(learned) = by_ip.get(learned_ip) else {
                    continue;
                };
                let ldns_loc = self.net.resolver(*learned).loc;
                records.push(crate::netsession::PairRecord {
                    block: block.id,
                    ldns: *learned,
                    weight,
                    distance_miles: block.loc.distance_miles(&ldns_loc),
                });
            }
        }
        PairDataset { records }
    }

    /// Replays the §4 roll-out timeline and returns the report.
    pub fn run_rollout(mut self) -> RolloutReport {
        let rollout = self.cfg.rollout.clone();
        let netsession = PairDataset::collect(&self.net);
        let high_expectation = netsession.high_expectation_countries(&self.net, 1000.0);
        let latency = self.net.latency;
        // The generated stream carries full client demand (measured views
        // plus unmeasured background lookups); each lookup is RUM-measured
        // with probability 1/(1+multiplier).
        let multiplier = rollout.workload.dns_background_multiplier.max(0.0);
        let measured_prob = 1.0 / (1.0 + multiplier);
        let full_rate = WorkloadConfig {
            views_per_day: rollout.workload.views_per_day * (1.0 + multiplier),
            ..rollout.workload.clone()
        };
        let mut workload = Workload::new(&self.net, &self.catalog, full_rate, self.cfg.seed);
        let mut measure_rng = rand_chacha::ChaCha12Rng::seed_from_u64(self.cfg.seed ^ 0x4D_EA_5E);

        let mut counters = QueryCounters::new();
        let mut rum = RumCollector::new();
        let mut failed_views = 0u64;
        let mut queue: EventQueue<crate::workload::PageView> = EventQueue::new();

        // Snapshot days for the Figure-24 windows.
        let (pre_from, pre_to) = rollout.pre_window();
        let (post_from, post_to) = rollout.post_window();
        let mut snapshots: HashMap<u32, HashMap<(u32, Ipv4Addr), u64>> = HashMap::new();
        let snapshot_days: BTreeSet<u32> =
            [pre_from, pre_to, post_from, post_to].into_iter().collect();

        self.mapping.refresh_liveness(&self.cdn);

        let Scenario {
            ref net,
            ref catalog,
            ref mut cdn,
            ref mut mapping,
            ref mut resolvers,
            ref static_auths,
            ref endpoints,
            root_ip,
            epoch,
            ref ecs_eligible,
            ..
        } = self;

        for day in 0..rollout.days {
            if day % 30 == 0 && day > 0 {
                eprintln!(
                    "[rollout] day {day}/{}: {} RUM samples, {} mapping queries so far",
                    rollout.days,
                    rum.len(),
                    mapping.stats.queries
                );
            }
            if snapshot_days.contains(&day) {
                snapshots.insert(day, mapping.stats.per_domain_ldns.clone());
            }
            // ECS ramp: flip the first `k` eligible public sites on.
            let k = (rollout.ramp_fraction(day) * ecs_eligible.len() as f64).round() as usize;
            for (i, rid) in ecs_eligible.iter().enumerate() {
                let policy = if i < k {
                    EcsPolicy::Always
                } else {
                    EcsPolicy::Off
                };
                resolvers[rid.index()].set_policy(policy);
            }
            // §8 extension: broad ISP/enterprise adoption from a given day.
            if rollout.isp_ecs_day.is_some_and(|d| day >= d) {
                for (i, r) in resolvers.iter_mut().enumerate() {
                    if !ecs_eligible.contains(&eum_netmodel::ResolverId(i as u32)) {
                        r.set_policy(EcsPolicy::Always);
                    }
                }
            }

            for view in workload.generate_day(net, day) {
                queue.schedule(SimTime::from_days(day).plus_ms(view.offset_ms), view);
            }
            while let Some((t, view)) = queue.pop() {
                counters.add_view(day);
                let block = net.block(view.block);
                let resolver_info = net.resolver(view.ldns);
                let resolver_ep = resolver_info.endpoint();
                let is_public = resolver_info.kind.is_public();
                let is_ecs_capable = match resolver_info.kind {
                    eum_netmodel::ResolverKind::PublicSite { provider, .. } => {
                        net.provider(provider).supports_ecs
                    }
                    _ => false,
                };
                let domain = &catalog.domains[view.domain as usize];

                // DNS resolution through the LDNS.
                let mut authnet = AuthNet {
                    mapping,
                    static_auths,
                    endpoints,
                    latency: &latency,
                    resolver_ep,
                    resolver_is_public: is_public,
                    counters: &mut counters,
                    day,
                    now_ms: t.ms(),
                    elapsed_ms: 0.0,
                };
                let resolution = resolvers[view.ldns.index()].resolve(
                    &mut authnet,
                    0,
                    root_ip,
                    &domain.www_name,
                    block.client_ip(),
                    epoch + Duration::from_millis(t.ms()),
                );
                let upstream_ms = authnet.elapsed_ms;
                if resolution.rcode != Rcode::NoError || resolution.ips.is_empty() {
                    failed_views += 1;
                    continue;
                }
                // Unmeasured background load stops at DNS: it keeps the
                // LDNS caches at realistic occupancy but is not a RUM
                // page view.
                if !measure_rng.random_bool(measured_prob) {
                    continue;
                }
                let stub_rtt = latency.rtt_ms(&block.endpoint(), &resolver_ep);
                let dns_ms = stub_rtt + upstream_ms;

                // HTTP fetch.
                match fetch_page(cdn, catalog, &latency, block, view.domain, &resolution.ips) {
                    Some(outcome) => rum.push(RumSample {
                        day,
                        country: block.country,
                        high_expectation: high_expectation.contains(&block.country),
                        public_resolver: is_public,
                        ecs_capable_resolver: is_ecs_capable,
                        mapping_distance_miles: outcome.mapping_distance_miles,
                        rtt_ms: outcome.rtt_ms,
                        ttfb_ms: outcome.ttfb_ms,
                        download_ms: outcome.download_ms,
                        dns_ms,
                        domain: view.domain,
                        client_ldns_miles: block.loc.distance_miles(&resolver_info.loc),
                    }),
                    None => failed_views += 1,
                }
            }
        }
        // Final snapshot in case a window ends at `days`.
        snapshots
            .entry(rollout.days)
            .or_insert_with(|| mapping.stats.per_domain_ldns.clone());

        let window_counts = |from: u32, to: u32| -> HashMap<(u32, Ipv4Addr), u64> {
            let start = snapshots.get(&from).cloned().unwrap_or_default();
            let end = snapshots
                .get(&to)
                .cloned()
                .unwrap_or_else(|| mapping.stats.per_domain_ldns.clone());
            end.into_iter()
                .filter_map(|(k, v)| {
                    let before = start.get(&k).copied().unwrap_or(0);
                    let delta = v.saturating_sub(before);
                    (delta > 0).then_some((k, delta))
                })
                .collect()
        };
        let pair_pre = window_counts(pre_from, pre_to);
        let pair_post = window_counts(post_from, post_to);

        let public_ldns_ips: BTreeSet<Ipv4Addr> = self
            .net
            .resolvers
            .iter()
            .filter(|r| r.kind.is_public())
            .map(|r| r.ip)
            .collect();
        let domain_ttls: Vec<u32> = self.catalog.domains.iter().map(|d| d.ttl_s).collect();
        let ns_unit_count = self.mapping.ns_units().len();
        let eu_unit_count = self.mapping.eu_units().map(|u| u.len()).unwrap_or(0);

        // Close the loop on the final map: hand it to a live `eum-authd`
        // and replay a query plan through a real `eum-ldns` fleet, so the
        // report carries *measured* amplification next to the analytic
        // estimate above.
        let (fleet, timeline) = measure_fleet(
            &self.net,
            &self.catalog,
            self.mapping,
            &self.ecs_eligible,
            &rollout,
            self.cfg.seed,
        );

        RolloutReport {
            cfg: rollout,
            rum,
            counters,
            netsession,
            high_expectation,
            pair_pre,
            pair_post,
            public_ldns_ips,
            domain_ttls,
            failed_views,
            ns_unit_count,
            eu_unit_count,
            fleet,
            timeline,
        }
    }
}

/// Queries replayed through the live fleet per run.
const FLEET_QUERIES: usize = 4_000;
/// Worker threads (and channel shards) for the fleet replay.
const FLEET_WORKERS: usize = 4;

/// The ECS scope the mapping system announces for `qname` asked on
/// behalf of `client` at `source_prefix`: the top-level delegation's
/// glue picks the low-level server, whose A answer carries the scope.
fn announced_scope(
    mapping: &MappingSystem,
    top: Ipv4Addr,
    qname: &DnsName,
    client: Ipv4Addr,
    source_prefix: u8,
    resolver_ip: Ipv4Addr,
) -> u8 {
    let ctx = QueryContext {
        resolver_ip,
        now_ms: 0,
    };
    let ecs = || Some(OptData::with_ecs(EcsOption::query(client, source_prefix)));
    let referral = mapping.answer(
        top,
        &Message::query(1, Question::a(qname.clone()), ecs()),
        &ctx,
    );
    let glue = referral
        .additionals
        .iter()
        .find_map(|rec| match rec.rdata {
            RData::A(ip) => Some(ip),
            _ => None,
        })
        .unwrap_or(top);
    let answer = mapping.answer(
        glue,
        &Message::query(2, Question::a(qname.clone()), ecs()),
        &ctx,
    );
    answer
        .ecs()
        .map(|e| e.scope_prefix.min(e.source_prefix))
        .unwrap_or(0)
}

/// Closes the loop the analytic day-loop only estimates: replays one
/// seeded demand-weighted [`QueryPlan`] through a real `eum-ldns`
/// [`ResolverFleet`] against a live `eum-authd` serving the final map —
/// once with ECS off everywhere, once with the post-roll-out policy —
/// and pairs the measured upstream query counts with the analytic
/// cache-key estimate: one delegation fetch per distinct
/// (resolver, qname) plus one answer fetch per distinct answer-cache
/// key under RFC 7871 §7.3.1 (global per (resolver, qname) with ECS
/// off; fragmented by the announced scope block with ECS on).
fn measure_fleet(
    net: &Internet,
    catalog: &ContentCatalog,
    mapping: MappingSystem,
    ecs_eligible: &[ResolverId],
    rollout: &RolloutConfig,
    seed: u64,
) -> (FleetMeasurement, FleetTimeline) {
    let domains: Vec<(DnsName, f64)> = catalog
        .domains
        .iter()
        .map(|d| (d.cdn_name.clone(), d.popularity))
        .collect();
    let plan = QueryPlan::generate(net, &domains, seed ^ 0xF1EE7, FLEET_QUERIES);
    let source_prefix = rollout.ecs_source_prefix;

    // Post-roll-out ECS policy per site: every eligible public site is
    // on once the ramp completes; the §8 extension turns everyone on.
    let all_on = rollout.isp_ecs_day.is_some_and(|d| d < rollout.days);
    let mut sends_ecs = vec![all_on; net.resolvers.len()];
    for rid in ecs_eligible {
        sends_ecs[rid.index()] = true;
    }

    // Analytic estimate: walk the plan counting the cache keys an ideal
    // RFC 7871 resolver cache has to fill, probing the announced scope
    // from the mapping system directly.
    let top = mapping.top_level_ip();
    let mut scope_cache: HashMap<(DnsName, Prefix), u8> = HashMap::new();
    let mut delegations: HashSet<(u32, DnsName)> = HashSet::new();
    let mut keys_off: HashSet<(u32, DnsName)> = HashSet::new();
    let mut keys_on: HashSet<(u32, DnsName, Option<Prefix>)> = HashSet::new();
    for q in &plan.queries {
        let r = q.resolver.0;
        delegations.insert((r, q.qname.clone()));
        keys_off.insert((r, q.qname.clone()));
        if !sends_ecs[q.resolver.index()] {
            keys_on.insert((r, q.qname.clone(), None));
            continue;
        }
        let block = Prefix::of(q.client, source_prefix);
        let resolver_ip = net.resolver(q.resolver).ip;
        let scope = *scope_cache
            .entry((q.qname.clone(), block))
            .or_insert_with(|| {
                announced_scope(
                    &mapping,
                    top,
                    &q.qname,
                    q.client,
                    source_prefix,
                    resolver_ip,
                )
            });
        let key_block = (scope > 0).then(|| Prefix::of(q.client, scope));
        keys_on.insert((r, q.qname.clone(), key_block));
    }
    let analytic_ecs_off = (delegations.len() + keys_off.len()) as u64;
    let analytic_ecs_on = (delegations.len() + keys_on.len()) as u64;

    // Measured: the same plan through live resolvers against a live
    // authoritative. Query interval is zero (no TTL expiry), so the
    // upstream count is purely cache-key driven and directly comparable
    // to the analytic estimate.
    let registry = std::sync::Arc::new(eum_telemetry::Registry::new());
    let (transports, connector) = channel_transports(FLEET_WORKERS);
    let server = AuthServer::spawn(
        transports,
        SnapshotHandle::new(mapping),
        ServerConfig::new(top).with_telemetry(TelemetryConfig::metrics(registry.clone())),
    );
    let epoch = Instant::now();
    let mut measured = [0u64; 2];
    let mut resolvers = 0usize;
    for (i, with_ecs) in [false, true].into_iter().enumerate() {
        let mut fleet = ResolverFleet::new(net, epoch, |r| {
            let policy = if with_ecs && sends_ecs[r.id.index()] {
                EcsPolicy::Always
            } else {
                EcsPolicy::Off
            };
            let mut cfg = LdnsConfig::new(r.ip, policy);
            cfg.source_prefix = source_prefix;
            cfg
        });
        resolvers = fleet.len();
        let clients: Vec<ChannelClient> = (0..FLEET_WORKERS)
            .map(|_| ChannelClient::new(connector.clone()))
            .collect();
        let report = fleet.run(clients, &plan, &RunConfig::new(top));
        measured[i] = report.upstream_queries;
    }

    let timeline = run_flip_timeline(
        net,
        &domains,
        &sends_ecs,
        source_prefix,
        top,
        &registry,
        &connector,
        seed,
    );
    drop(connector);
    server.stop_join();

    (
        FleetMeasurement {
            resolvers,
            downstream_queries: plan.len() as u64,
            upstream_ecs_off: measured[0],
            upstream_ecs_on: measured[1],
            analytic_ecs_off,
            analytic_ecs_on,
        },
        timeline,
    )
}

/// Windows in the flip timeline replay.
const TIMELINE_WINDOWS: u32 = 12;
/// Downstream queries per timeline window, floor. The actual per-window
/// count scales with the catalog ([`timeline_window_queries`]) so the
/// fleet reaches its warm plateau before the flip at every scale.
const TIMELINE_WINDOW_QUERIES: usize = 400;
/// First window run with the flipped ECS policy.
const TIMELINE_FLIP_WINDOW: u32 = 4;

/// Per-window query count for a catalog of `n_domains` names: larger
/// catalogs need proportionally more queries per window to warm the
/// fleet's caches within the pre-flip windows (tiny's 6-domain catalog
/// stays at the 400 floor the tests pin).
fn timeline_window_queries(n_domains: usize) -> usize {
    TIMELINE_WINDOW_QUERIES.max(40 * n_domains)
}

/// The per-window flip replay behind [`FleetTimeline`]: the fleet warms
/// an ECS-off steady state over the first windows, then — modeling the
/// roll-out's config deploy, which restarts the resolver and loses its
/// cache — every eligible public resolver flips to `EcsPolicy::Always`
/// **and flushes its cache** at [`TIMELINE_FLIP_WINDOW`]. The window
/// series shows warm-up, the sharp cache-hit dip at the flip, and the
/// recovery toward the (slightly lower, fragmentation-taxed) ECS-on
/// plateau. Virtual time stands still inside each window
/// (`query_interval` zero), so the curve is pure cache behavior, not TTL
/// churn.
#[allow(clippy::too_many_arguments)]
fn run_flip_timeline(
    net: &Internet,
    domains: &[(DnsName, f64)],
    sends_ecs: &[bool],
    source_prefix: u8,
    top: Ipv4Addr,
    registry: &eum_telemetry::Registry,
    connector: &eum_authd::ChannelConnector,
    seed: u64,
) -> FleetTimeline {
    let per_window = timeline_window_queries(domains.len());
    let plan = QueryPlan::generate(
        net,
        domains,
        seed ^ 0xD1B5,
        TIMELINE_WINDOWS as usize * per_window,
    );
    // Live authd truncation counter, summed over shards (the registry is
    // idempotent: these are the same handles the server increments).
    let truncated_total = || -> u64 {
        (0..FLEET_WORKERS)
            .map(|i| {
                let s = i.to_string();
                registry
                    .counter("eum_authd_truncated_total", "", &[("shard", &s)])
                    .get()
            })
            .sum()
    };

    let mut fleet = ResolverFleet::new(net, Instant::now(), |r| {
        let mut cfg = LdnsConfig::new(r.ip, EcsPolicy::Off);
        cfg.source_prefix = source_prefix;
        cfg
    });
    let mut windows = Vec::with_capacity(TIMELINE_WINDOWS as usize);
    let mut prev = fleet.report();
    let mut prev_trunc = truncated_total();
    for w in 0..TIMELINE_WINDOWS {
        if w == TIMELINE_FLIP_WINDOW {
            let now = Instant::now();
            for (idx, on) in sends_ecs.iter().enumerate() {
                if !on {
                    continue;
                }
                let ldns = fleet.resolver_mut(ResolverId(idx as u32));
                ldns.set_policy(EcsPolicy::Always);
                ldns.flush_cache(now);
            }
        }
        let from = w as usize * per_window;
        let chunk = QueryPlan {
            queries: plan.queries[from..from + per_window].to_vec(),
        };
        let clients: Vec<ChannelClient> = (0..FLEET_WORKERS)
            .map(|_| ChannelClient::new(connector.clone()))
            .collect();
        let cur = fleet.run(clients, &chunk, &RunConfig::new(top));
        let trunc = truncated_total();
        windows.push(FleetWindowStats {
            window: w,
            queries: cur.downstream_queries - prev.downstream_queries,
            cache_hits: cur.downstream_cache_hits - prev.downstream_cache_hits,
            upstream: cur.upstream_queries - prev.upstream_queries,
            tcp_retries: cur.upstream_tcp_retries - prev.upstream_tcp_retries,
            truncations: trunc - prev_trunc,
        });
        prev = cur;
        prev_trunc = trunc;
    }
    FleetTimeline {
        windows,
        flip_window: Some(TIMELINE_FLIP_WINDOW),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rum::Metric;

    /// One shared roll-out run: the tests below all read from the same
    /// report (the run is deterministic, so sharing loses nothing).
    fn report() -> &'static RolloutReport {
        static REPORT: std::sync::OnceLock<RolloutReport> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| Scenario::build(ScenarioConfig::tiny(0x5EED)).run_rollout())
    }

    #[test]
    fn tiny_rollout_completes_with_samples() {
        let r = report();
        assert!(r.rum.len() > 10_000, "only {} samples", r.rum.len());
        assert_eq!(r.failed_views, 0, "views failed in a healthy world");
        assert!(!r.high_expectation.is_empty());
    }

    #[test]
    fn public_query_rate_rises_after_rollout() {
        let r = report();
        let ((pre_total, pre_public), (post_total, post_public)) = r.query_rate_change();
        assert!(pre_public > 0.0);
        // The tiny universe has too few client blocks per public site for
        // the paper's full 8× step, but the rise must be clear, and the
        // relative rise of the public share must dominate the total's.
        assert!(
            post_public > 1.3 * pre_public,
            "public queries/day {pre_public:.0} -> {post_public:.0}"
        );
        assert!(
            post_public / pre_public > post_total / pre_total,
            "public rise must outpace total rise"
        );
    }

    #[test]
    fn mapping_distance_improves_for_high_expectation_group() {
        let r = report();
        let (pre, post) = r.before_after(Metric::MappingDistance, true);
        assert!(pre.is_finite() && post.is_finite());
        assert!(post < pre, "mapping distance {pre:.0} -> {post:.0}");
    }

    #[test]
    fn record_metrics_exports_amplification_and_unit_counts() {
        let r = report();
        assert!(r.ns_unit_count > 0, "every map has NS units");
        assert!(
            r.eu_unit_count > 0,
            "the roll-out ends with end-user units built"
        );
        let registry = eum_telemetry::Registry::new();
        r.record_metrics(&registry);
        let amp = registry
            .gauge("eum_sim_rollout_query_amplification", "", &[])
            .get();
        assert!(amp > 1.3, "roll-out must amplify public queries: {amp}");
        let units = |kind: &str| {
            registry
                .gauge("eum_sim_rollout_mapping_units", "", &[("kind", kind)])
                .get()
        };
        assert_eq!(units("ns"), r.ns_unit_count as f64);
        assert_eq!(units("eu"), r.eu_unit_count as f64);
        let text = registry.render_text();
        assert!(text.contains("eum_sim_rollout_queries_per_day"));
        assert!(text.contains("eum_sim_rollout_rum_samples_total"));
    }

    #[test]
    fn amplification_buckets_exist_and_popular_pairs_amplify_more() {
        let r = report();
        let buckets = r.amplification_buckets();
        assert!(!buckets.is_empty());
        let first = buckets.first().unwrap();
        let last = buckets.last().unwrap();
        assert!(
            last.factor >= first.factor,
            "popular pairs should amplify more: {first:?} vs {last:?}"
        );
    }

    #[test]
    fn summary_mentions_key_numbers() {
        let r = report();
        let s = r.summary();
        assert!(s.contains("RUM samples"));
        assert!(s.contains("mapping distance"));
        assert!(s.contains("queries/day"));
        assert!(s.contains("LDNS fleet"));
    }

    #[test]
    fn fleet_measurement_matches_analytic_estimate() {
        let f = &report().fleet;
        assert!(f.resolvers >= 8, "acceptance: at least 8 resolver sites");
        assert_eq!(f.downstream_queries, FLEET_QUERIES as u64);
        assert!(
            f.measured_scaling() > 1.5,
            "ECS must raise measured amplification over the ECS-off \
             baseline: scaling {:.2}",
            f.measured_scaling()
        );
        for (which, m, a) in [
            (
                "ecs-off",
                f.measured_amplification_off(),
                f.analytic_amplification_off(),
            ),
            (
                "ecs-on",
                f.measured_amplification_on(),
                f.analytic_amplification_on(),
            ),
        ] {
            assert!(a > 0.0, "{which}: analytic estimate must be positive");
            assert!(
                (m - a).abs() <= 0.25 * a,
                "{which}: measured amplification {m:.3} diverges more than \
                 25% from the analytic estimate {a:.3}"
            );
        }
    }

    #[test]
    fn flip_timeline_shows_dip_and_recovery() {
        let t = &report().timeline;
        assert_eq!(t.windows.len(), TIMELINE_WINDOWS as usize);
        assert_eq!(t.flip_window, Some(TIMELINE_FLIP_WINDOW));
        for w in &t.windows {
            assert_eq!(
                w.queries, TIMELINE_WINDOW_QUERIES as u64,
                "window {} deltas must reconcile to the queries driven",
                w.window
            );
        }
        let (pre, dip, last) = (
            t.pre_flip_hit_ratio(),
            t.flip_hit_ratio(),
            t.final_hit_ratio(),
        );
        // The curve the paper's §6.3 deploy plots: a warm fleet, a
        // visible hit-rate dip when the ECS flip flushes the flipped
        // resolvers, and recovery as scoped answers re-fill the caches.
        assert!(pre > 0.9, "fleet must be warm before the flip: {pre:.3}");
        assert!(
            dip < pre - 0.05,
            "the flip must dent the hit rate: pre {pre:.3} dip {dip:.3}"
        );
        assert!(
            last > dip + 0.05,
            "the fleet must recover after the flip: dip {dip:.3} final {last:.3}"
        );
        // The rendered JSONL is one object per window and carries the dip.
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), TIMELINE_WINDOWS as usize);
        assert!(jsonl.contains("\"flip\": true"));
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = Scenario::build(ScenarioConfig::tiny(7));
        let b = Scenario::build(ScenarioConfig::tiny(7));
        assert_eq!(a.net.blocks.len(), b.net.blocks.len());
        assert_eq!(a.root_ip, b.root_ip);
        assert_eq!(a.ecs_eligible, b.ecs_eligible);
        assert_eq!(a.mapping.top_level_ip(), b.mapping.top_level_ip());
    }
}
