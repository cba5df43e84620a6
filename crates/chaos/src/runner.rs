//! The live A/B runner: one scenario, two arms, fixed offered load.
//!
//! # Queueing model
//!
//! The runner is open-loop over a **virtual arrival clock** with
//! **measured service times**. Arrival `i` lands at `i * interval_ns`
//! on the virtual clock; the single serving lane starts it at
//! `max(arrival, lane_free)`, the resolution runs for real against the
//! spawned authd (wall-clock `svc_ns` measured around the call), and
//! the lane frees at `start + svc_ns`. Latency is `start + svc_ns -
//! arrival`: queueing delay plus service. When offered load exceeds
//! the arm's service rate the backlog — and with it every later
//! arrival's latency — grows without bound, exactly as a saturated
//! resolver's queue does; answers later than the scenario's deadline
//! count as lost even though the server (which cannot know the client
//! gave up) still produced them.
//!
//! The arrival interval is *calibrated, then fixed*: a short batch with
//! the scenario's own traffic mix is timed against each arm, and the
//! offered interval is placed midway between the two measured per-query
//! costs. Both arms then replay the identical schedule at the identical
//! interval — offered load is fixed; only the defenses differ. When the
//! defended arm is genuinely cheaper per query (shedding beats
//! computing), the undefended arm saturates while the defended one
//! keeps its queue empty; if the defenses bought nothing, neither arm
//! saturates — the calibration cannot manufacture a difference, it can
//! only expose one. Both measured costs land in the report.
//!
//! The same virtual clock drives resolver caches and the admission
//! bucket's refill, so TTL expiry and token accrual see the offered
//! timeline, not the compressed wall time of the test run.

use crate::report::{AbReport, ArmReport, WindowStats};
use crate::scenario::{hottest, AttackGenKind, ChaosQuery, ChaosScenario, ScheduledEvent};
use eum_authd::{
    channel_transports, AdmissionConfig, AuthServer, ChannelClient, ServerConfig, SnapshotHandle,
    TelemetryConfig,
};
use eum_cdn::{
    deployment_universe, CatalogConfig, CdnPlatform, ClusterId, ContentCatalog, DeployConfig,
};
use eum_dns::Rcode;
use eum_ldns::{EcsPolicy, Ldns, LdnsConfig};
use eum_mapping::{MappingConfig, MappingPolicy, MappingSystem, RescoreHints};
use eum_netmodel::{Internet, InternetConfig};
use eum_telemetry::Registry;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries timed per arm to calibrate the offered arrival interval.
const CALIBRATION_QUERIES: usize = 600;

/// How long a throwaway server's shard waits on a quiet channel before
/// re-checking its stop flag. An A/B run tears down four servers; at
/// the serving default (20 ms) the teardowns alone would outlast the
/// calibration they follow.
const STOP_POLL: Duration = Duration::from_millis(1);

/// The serving-side defenses an arm runs with.
#[derive(Debug, Clone)]
pub struct Defenses {
    /// Token-bucket admission control on authd's compute path
    /// (`None`: every query is routed, nothing is shed).
    pub admission: Option<AdmissionConfig>,
    /// Republish a liveness-refreshed, health-filtered map when a site
    /// dies mid-run (`false`: keep serving the stale snapshot).
    pub republish_on_outage: bool,
}

impl Defenses {
    /// Everything off: the undefended baseline arm.
    pub fn off() -> Defenses {
        Defenses {
            admission: None,
            republish_on_outage: false,
        }
    }

    /// Everything on. The burst is sized to swallow legitimate
    /// compute transients — a cold fleet's warm-up misses plus one
    /// full cache-refill surge after a mid-run flush (outage TTL
    /// expiry, an ECS policy flip, together worst-case ~1.2k tokens)
    /// — while staying well under a sustained flood's volume, so
    /// admission only bites workloads that *keep* missing: exactly
    /// the attack shape.
    pub fn on() -> Defenses {
        Defenses {
            admission: Some(AdmissionConfig::new(4_000, 2_048)),
            republish_on_outage: true,
        }
    }
}

/// The world one chaos lab runs against: a generated internet, a
/// deployed CDN, a content catalog, and a built mapping system.
pub struct ChaosWorld {
    pub net: Internet,
    pub cdn: CdnPlatform,
    pub catalog: ContentCatalog,
    pub map: MappingSystem,
    pub top_ip: Ipv4Addr,
}

impl ChaosWorld {
    /// Builds the standard small world every scenario runs in.
    pub fn build(seed: u64) -> ChaosWorld {
        let mut net = Internet::generate(InternetConfig::tiny(seed));
        let sites = deployment_universe(seed, 12);
        let cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
        let catalog = ContentCatalog::generate(&CatalogConfig::tiny(seed));
        let map = MappingSystem::build(
            &mut net,
            &cdn,
            &catalog,
            "cdn.example".parse().expect("static zone name"),
            MappingConfig {
                policy: MappingPolicy::end_user_default(),
                max_ping_targets: 40,
                ..MappingConfig::default()
            },
        );
        let top_ip = map.top_level_ip();
        ChaosWorld {
            net,
            cdn,
            catalog,
            map,
            top_ip,
        }
    }

    /// The cluster the outage scenario kills: the one carrying the
    /// most client demand through the end-user assignment for the
    /// hottest domain's class — the site whose loss reassigns the
    /// most catchment.
    fn victim_cluster(&self) -> ClusterId {
        let class = self
            .catalog
            .domains
            .iter()
            .max_by(|a, b| a.popularity.total_cmp(&b.popularity))
            .expect("catalog is never empty")
            .class;
        let mut votes: HashMap<ClusterId, f64> = HashMap::new();
        for b in &self.net.blocks {
            if let Some(c) = self.map.assigned_cluster_for_block_class(b.prefix, class) {
                *votes.entry(c).or_default() += b.demand;
            }
        }
        votes
            .into_iter()
            .max_by(|(ac, an), (bc, bn)| an.total_cmp(bn).then(bc.index().cmp(&ac.index())))
            .map(|(c, _)| c)
            .unwrap_or(ClusterId(0))
    }
}

/// Runs `scenario` through both arms against `world` and reports the
/// A/B outcome. The world is returned unchanged: event mutations
/// (site outages) are reverted after each arm.
pub fn run_ab(world: &mut ChaosWorld, scenario: &ChaosScenario) -> AbReport {
    let schedule = scenario.schedule(&world.net, &world.catalog);
    let cost_off_ns = calibrate(world, scenario, &Defenses::off());
    let cost_on_ns = calibrate(world, scenario, &Defenses::on());
    // Offered interval midway between the two measured service rates
    // for the cache-busting flood — the one scenario whose defense
    // changes per-query cost (shedding beats computing). The midpoint
    // cannot manufacture a gap: were shedding no cheaper, both arms
    // would saturate identically and the ratio would read ~1. Every
    // other scenario parks the interval above the slower cost so
    // neither arm saturates and the contrast is answer quality, not a
    // queue.
    let interval_ns = if scenario.attack == Some(AttackGenKind::NxFlood) {
        (cost_on_ns + cost_off_ns) / 2
    } else {
        cost_off_ns.max(cost_on_ns) * 2
    }
    .max(200);
    let off = run_arm(world, scenario, &schedule, &Defenses::off(), interval_ns);
    let on = run_arm(world, scenario, &schedule, &Defenses::on(), interval_ns);
    AbReport {
        scenario: scenario.name.to_string(),
        seed: scenario.seed,
        interval_ns,
        deadline_ns: scenario.deadline_intervals * interval_ns,
        cost_off_ns,
        cost_on_ns,
        off,
        on,
    }
}

/// Times a short closed-loop batch of the scenario's mix against a
/// throwaway server in `defenses` configuration; returns mean ns per
/// resolution. For the NXDOMAIN flood the defended probe uses a
/// zero-rate bucket (pure shed price) — a sustained flood's steady
/// state is mostly-shedding, and the opening burst would mask it —
/// and the timing is two-phase: an untimed pass warms every cache the
/// legitimate mix touches, then a second batch (fresh flood names,
/// same legit names) is timed, so the estimate is the warm-legit /
/// cold-attack steady state the run actually spends its windows in.
/// Every other shape probes with the real admission config on a
/// single cold batch: crowds, scans and event scenarios are judged at
/// an interval with headroom, and the cold-biased estimate *is* the
/// headroom.
fn calibrate(world: &ChaosWorld, scenario: &ChaosScenario, defenses: &Defenses) -> u64 {
    let flood = scenario.attack == Some(AttackGenKind::NxFlood);
    let registry = Arc::new(Registry::new());
    let (transports, connector) = channel_transports(1);
    let mut cfg =
        ServerConfig::new(world.top_ip).with_telemetry(TelemetryConfig::metrics(registry.clone()));
    cfg.recv_timeout = STOP_POLL;
    if let Some(adm) = &defenses.admission {
        cfg = cfg.with_admission(if flood {
            AdmissionConfig::new(0, 1)
        } else {
            adm.clone()
        });
    }
    let server = AuthServer::spawn(
        transports,
        SnapshotHandle::new(world.map.clone_for_publish()),
        cfg,
    );
    let mut client = ChannelClient::new(connector);
    let epoch = Instant::now();
    let mut resolvers = build_resolvers(world, scenario, epoch);
    // Warm the hot name through one resolver so the legit share of the
    // mix is cache-priced, as it is mid-run.
    let hot = hottest(&world.catalog);
    let warm_client = world.net.blocks[0].client_ip();
    resolvers[0].resolve(&mut client, 0, world.top_ip, &hot, warm_client, epoch);
    if flood {
        // Two windows' worth of warm-up: a sustained flood's cost is
        // dominated by operating over caches already swollen with
        // thousands of one-shot entries, and the estimate must be
        // taken from that regime, not from a fresh-table honeymoon.
        let warm = scenario.calibration_batch(&world.net, &world.catalog, 2_400, 0);
        for (i, q) in warm.iter().enumerate() {
            let now = epoch + Duration::from_nanos(i as u64);
            resolvers[q.resolver].resolve(&mut client, 0, world.top_ip, &q.qname, q.client, now);
        }
    }
    let timed = if flood { 1_200 } else { CALIBRATION_QUERIES };
    let batch = scenario.calibration_batch(&world.net, &world.catalog, timed, 1);
    // Timed in chunks, keeping the median chunk: one multi-ms scheduler
    // preemption landing inside the batch would drag a whole-batch mean
    // microseconds off the true cost and park the offered interval on
    // the wrong side of an arm's real service rate. The chunk is large
    // enough that each sees the scenario's attack/legit mix.
    const CHUNK: usize = 100;
    let mut per_chunk = Vec::with_capacity(batch.len() / CHUNK + 1);
    let mut i = 0u64;
    for chunk in batch.chunks(CHUNK) {
        let t0 = Instant::now();
        for q in chunk {
            let now = epoch + Duration::from_nanos(i);
            i += 1;
            resolvers[q.resolver].resolve(&mut client, 0, world.top_ip, &q.qname, q.client, now);
        }
        per_chunk.push(t0.elapsed().as_nanos() as u64 / chunk.len().max(1) as u64);
    }
    per_chunk.sort_unstable();
    let median = per_chunk[per_chunk.len() / 2].max(100);
    drop(client);
    server.stop_join();
    median
}

/// Per-resolver `Ldns` instances for one arm, cache geometry and ECS
/// start policy per the scenario.
fn build_resolvers(world: &ChaosWorld, scenario: &ChaosScenario, epoch: Instant) -> Vec<Ldns> {
    world
        .net
        .resolvers
        .iter()
        .map(|r| {
            let policy = if scenario.ecs_at_start {
                EcsPolicy::Always
            } else {
                EcsPolicy::Off
            };
            let mut cfg = LdnsConfig::new(r.ip, policy);
            cfg.cache = scenario.ldns_cache;
            Ldns::new(cfg, epoch)
        })
        .collect()
}

/// Replays `schedule` against a freshly spawned arm and collects
/// per-window statistics.
fn run_arm(
    world: &mut ChaosWorld,
    scenario: &ChaosScenario,
    schedule: &[Vec<ChaosQuery>],
    defenses: &Defenses,
    interval_ns: u64,
) -> ArmReport {
    let registry = Arc::new(Registry::new());
    let (transports, connector) = channel_transports(1);
    let mut cfg =
        ServerConfig::new(world.top_ip).with_telemetry(TelemetryConfig::metrics(registry.clone()));
    cfg.recv_timeout = STOP_POLL;
    if let Some(adm) = &defenses.admission {
        cfg = cfg.with_admission(adm.clone());
    }
    let handle = SnapshotHandle::new(world.map.clone_for_publish());
    let server = AuthServer::spawn(transports, handle.clone(), cfg);
    let mut client = ChannelClient::new(connector);
    let epoch = Instant::now();
    let mut resolvers = build_resolvers(world, scenario, epoch);

    let shed_counter = registry.counter("eum_authd_shed_total", "", &[("shard", "0")]);
    let admitted_counter = registry.counter("eum_authd_admitted_total", "", &[("shard", "0")]);
    let deadline_ns = scenario.deadline_intervals * interval_ns;
    let span_ns = scenario.queries_per_window as u64 * interval_ns;

    let mut outage: Option<ClusterId> = None;
    let mut lane_free_ns;
    let mut shed_prev = 0u64;
    let mut admitted_prev = 0u64;
    let mut windows = Vec::with_capacity(schedule.len());

    for (w, batch) in schedule.iter().enumerate() {
        let window_start_ns = w as u64 * span_ns;
        // Each window is an independent offered epoch: backlog does
        // not carry across the inter-window gap, so a cold warm-up
        // window cannot poison every later measurement — saturation
        // must re-prove itself inside each window it claims.
        lane_free_ns = window_start_ns;
        if let Some((at, event)) = scenario.event {
            if at == w {
                let now = epoch + Duration::from_nanos(window_start_ns);
                match event {
                    ScheduledEvent::SiteOutage => {
                        let victim = world.victim_cluster();
                        world.cdn.set_cluster_alive(victim, false);
                        outage = Some(victim);
                        if defenses.republish_on_outage {
                            // Incremental republication with a keyed
                            // delta: only answers the dead site could
                            // have touched are invalidated, so the
                            // refill surge stays inside the admission
                            // burst instead of re-computing the whole
                            // warm cache.
                            let delta = world.map.rebuild_incremental(
                                &world.net,
                                &world.cdn,
                                &RescoreHints::default(),
                            );
                            handle.publish_delta(world.map.clone_for_publish(), delta);
                        }
                        // Low CDN TTLs mean cached answers for the dead
                        // site drain fast; model that expiry in both
                        // arms so the contrast is the *map*, not TTLs.
                        for l in &mut resolvers {
                            l.flush_cache(now);
                        }
                    }
                    ScheduledEvent::EcsFlipAll => {
                        for l in &mut resolvers {
                            l.set_policy(EcsPolicy::Always);
                            l.flush_cache(now);
                        }
                    }
                }
            }
        }

        let mut stats = WindowStats::new(w);
        let mut legit_lat_ns: Vec<u64> = Vec::with_capacity(batch.len());
        for (slot, q) in batch.iter().enumerate() {
            let arrival_ns = window_start_ns + slot as u64 * interval_ns;
            let start_ns = arrival_ns.max(lane_free_ns);
            let now = epoch + Duration::from_nanos(start_ns);
            let t0 = Instant::now();
            let res = resolvers[q.resolver].resolve(
                &mut client,
                0,
                world.top_ip,
                &q.qname,
                q.client,
                now,
            );
            let svc_ns = t0.elapsed().as_nanos() as u64;
            lane_free_ns = start_ns + svc_ns;
            let lat_ns = lane_free_ns - arrival_ns;
            let answered = res.rcode == Rcode::NoError && !res.ips.is_empty();
            if q.attack {
                stats.attack_offered += 1;
                if answered || res.rcode == Rcode::NxDomain {
                    stats.attack_answered += 1;
                } else {
                    stats.attack_failed += 1;
                }
            } else {
                stats.legit_offered += 1;
                legit_lat_ns.push(lat_ns);
                let healthy = answered && healthy_answer(&world.cdn, &res.ips);
                if healthy && lat_ns <= deadline_ns {
                    stats.legit_ok += 1;
                } else if healthy {
                    stats.legit_late += 1;
                } else if answered {
                    stats.legit_unhealthy += 1;
                } else {
                    stats.legit_failed += 1;
                }
            }
        }

        let shed_now = shed_counter.get();
        let admitted_now = admitted_counter.get();
        stats.shed = shed_now - shed_prev;
        stats.admitted = admitted_now - admitted_prev;
        shed_prev = shed_now;
        admitted_prev = admitted_now;
        stats.finish(&legit_lat_ns, span_ns);
        windows.push(stats);
    }

    drop(client);
    server.stop_join();
    if let Some(victim) = outage {
        world.cdn.set_cluster_alive(victim, true);
        if defenses.republish_on_outage {
            // The defended arm rebuilt the control-plane map against
            // the dead site; fold the revival back in so the next arm
            // (or scenario) starts from the all-healthy map.
            world
                .map
                .rebuild_incremental(&world.net, &world.cdn, &RescoreHints::default());
        }
    }
    ArmReport::aggregate(
        defenses.admission.is_some(),
        windows,
        scenario.impact_range(),
    )
}

/// True when the answer's primary IP belongs to a live server — the
/// client can actually fetch from it.
fn healthy_answer(cdn: &CdnPlatform, ips: &[Ipv4Addr]) -> bool {
    ips.first()
        .and_then(|ip| cdn.server_by_ip(*ip))
        .map(|sid| cdn.server(sid).alive)
        .unwrap_or(false)
}
