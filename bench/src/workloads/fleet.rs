//! `fleet_e2e`: downstream clients → `ResolverFleet` (one `Ldns` per
//! resolver site; ECS-capable public-provider sites `EcsPolicy::Always`,
//! everyone else `Off` — the paper's post-roll-out state) → a top-level
//! and a low-level authd over `SocketClient` sockets. The paper's whole
//! path: the only workload where the resolver cache, the delegation walk
//! and the client socket leg carry weight, and where authd sees only the
//! miss stream.
//!
//! Closed loop, one generator thread calling `Ldns::resolve`. Origins are
//! demand-weighted, names Zipf(0.9), and a virtual clock (`now` passed to
//! `resolve`) advances [`VIRTUAL_STEP`] per query so the catalog's 2–12 h
//! TTLs expire several times per run. Latency is sampled on every 8th
//! resolution so the timer stays a few percent of a cached resolve.

use crate::harness::{self, Outcome, Placement, RunConfig};
use crate::oracle::{self, FULL_CHECK_EVERY};
use crate::procfs;
use crate::replay;
use crate::report::{Metrics, RunResult};
use crate::spans::{self, ClientStamp, Span};
use crate::stats::{
    latency_window_ns, median, now_ns, LatencyLog, Lateness, RateWindows, WINDOW_NS,
};
use crate::stream::{FleetOp, FleetStream, Shape, Templates};
use crate::udpgen::Usage;
use crate::workloads;
use crate::workloads::auth::{spawn_udp, Serving};
use crate::workloads::{set_server_span_metrics, span_median};
use crate::world::World;
use crate::wrap::RoutedClient;
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{DnsName, Message, Question, Rcode};
use eum_ldns::{EcsPolicy, FleetReport, LdnsConfig, ResolverFleet};
use eum_net::SocketClient;
use eum_netmodel::{Resolver, ResolverKind};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::time::{Duration, Instant};

/// Virtual time per downstream query. Tuned once on the reference box so
/// the steady-state `ldns.hit_ratio` lands inside 0.6–0.9 (0.67 there),
/// then frozen: at 300 ms a 12-hour TTL spans 144 000 queries, so a run
/// of a few hundred thousand queries sees every TTL expire several times.
pub const VIRTUAL_STEP: Duration = Duration::from_millis(300);
/// Untimed resolutions before measuring: a little more than one
/// longest-TTL's worth of virtual time (12.5 h), so expiry and refill
/// are in equilibrium. Not longer: the fleet resolves ~22 000 names a
/// second (every expiry is an O(cache) `retain` in `ResolverCache`), so
/// this warm-up already costs ~6 s of every run.
const WARM_OPS_PAPER: u64 = 150_000;
const WARM_OPS_TINY: u64 = 20_000;
/// Latency is sampled on one resolution in this many.
const SAMPLE_EVERY: u64 = 8;
/// The exact-count ldns metrics cover this many resolutions at the end
/// of the warm-up: a fixed count from a fixed start, so the same seed
/// gives the same numbers whatever the host's speed.
const EXACT_OPS_PAPER: u64 = 50_000;
const EXACT_OPS_TINY: u64 = 8_000;

fn policy_of(world: &World, r: &Resolver) -> EcsPolicy {
    match r.kind {
        ResolverKind::PublicSite { provider, .. } if world.net.provider(provider).supports_ecs => {
            EcsPolicy::Always
        }
        _ => EcsPolicy::Off,
    }
}

/// The two authoritative servers and the client routed between them.
struct Servers {
    top: Serving,
    low: Serving,
}

impl Servers {
    fn spawn(world: &World, traced: bool) -> Servers {
        Servers {
            top: spawn_udp(world, world.map.top_level_ip(), traced, 0),
            low: spawn_udp(world, world.low_ip(), traced, 0),
        }
    }

    fn client(&self, world: &World, stamp_capacity: usize) -> RoutedClient {
        let sock = |s: &Serving| {
            SocketClient::connect(vec![SocketAddr::V4(s.addr)], Vec::new())
                .expect("bind a loopback client socket")
        };
        RoutedClient::new(
            world.map.top_level_ip(),
            sock(&self.top),
            sock(&self.low),
            stamp_capacity,
        )
    }

    fn stop(self) {
        self.top.server.stop_join();
        self.low.server.stop_join();
    }
}

/// Generator state that lives across phases.
struct Driver<'a> {
    world: &'a World,
    fleet: ResolverFleet,
    names: Vec<DnsName>,
    stream: FleetStream,
    epoch: Instant,
    /// Resolutions issued so far (the virtual clock's tick).
    k: u64,
    attempted: u64,
    /// Resolutions that ended SERVFAIL/NXDOMAIN or without addresses.
    failed: u64,
    wrong_answers: u64,
}

/// What one phase measured.
struct Phase {
    start_ns: u64,
    end_ns: u64,
    ops: u64,
    usage: Usage,
    latency: LatencyLog,
    /// How long drawing the next operation held up the sampled
    /// resolutions.
    lateness: Lateness,
    rates: RateWindows,
    /// Root spans of the sampled resolutions (traced phases).
    roots: Vec<Span>,
}

impl<'a> Driver<'a> {
    fn new(world: &'a World, seed: u64) -> Driver<'a> {
        let epoch = Instant::now();
        Driver {
            world,
            fleet: ResolverFleet::new(&world.net, epoch, |r| {
                LdnsConfig::new(r.ip, policy_of(world, r))
            }),
            names: world
                .catalog
                .domains
                .iter()
                .map(|d| d.cdn_name.clone())
                .collect(),
            stream: FleetStream::new(&world.net, &world.catalog, seed),
            epoch,
            k: 0,
            attempted: 0,
            failed: 0,
            wrong_answers: 0,
        }
    }

    /// One downstream resolution, checked.
    #[inline]
    fn step(&mut self, client: &mut RoutedClient) {
        let op = self.stream.next_op();
        self.resolve(client, op);
    }

    #[inline]
    fn resolve(&mut self, client: &mut RoutedClient, op: FleetOp) {
        let client_ip = self.world.net.block(op.block).client_ip();
        let now = self.epoch + VIRTUAL_STEP * (self.k.min(u32::MAX as u64) as u32);
        let name = &self.names[op.name as usize];
        let top = self.world.map.top_level_ip();
        let ldns = self.fleet.resolver_mut(op.resolver);
        let r = ldns.resolve(client, 0, top, name, client_ip, now);
        self.attempted += 1;
        if r.rcode != Rcode::NoError || r.ips.is_empty() {
            self.failed += 1;
        } else if self.k.is_multiple_of(FULL_CHECK_EVERY) {
            // The oracle: what the map answers this client through this
            // resolver's policy, computed fresh. A cached answer must
            // agree — that is what an ECS scope promises.
            let ecs = ldns.policy().sends_for(name);
            let opt = ecs.then(|| OptData::with_ecs(EcsOption::query(client_ip, 24)));
            let q = Message::query(0, Question::a(name.clone()), opt);
            let want = oracle::expected(
                &self.world.map,
                self.world.low_ip(),
                Ipv4Addr::LOCALHOST,
                &q,
            );
            if want.ips != r.ips {
                self.wrong_answers += 1;
            }
        }
        self.k += 1;
    }

    /// `ops` untimed resolutions.
    fn warm(&mut self, client: &mut RoutedClient, ops: u64) {
        for _ in 0..ops {
            self.step(client);
        }
    }

    /// Closed loop for `secs`. `traced`: arm the client for the sampled
    /// resolutions and keep their root spans.
    fn measure(&mut self, client: &mut RoutedClient, secs: f64, traced: bool) -> Phase {
        let usage0 = Usage::now();
        let start = now_ns();
        let end = start + (secs * 1e9) as u64;
        let windows = (secs * 1e9 / WINDOW_NS as f64) as usize + 2;
        let mut rates = RateWindows::new(start, WINDOW_NS, windows);
        // Room for every sampled resolution at 2 M resolutions a second.
        let capacity = (secs * 2e6 / SAMPLE_EVERY as f64) as usize + 1024;
        let mut latency = LatencyLog::with_capacity(capacity);
        let mut roots = Vec::with_capacity(if traced { capacity } else { 0 });
        let mut lateness = Lateness::default();
        let mut ops = 0u64;
        loop {
            for _ in 0..SAMPLE_EVERY - 1 {
                self.step(client);
            }
            let request = self.k as u32;
            if traced {
                client.arm(request);
            }
            // A closed loop has no schedule to be late against; what the
            // generator can hold up is the start of the next resolution,
            // by however long it takes to draw the operation.
            let ready = now_ns();
            let op = self.stream.next_op();
            let t0 = now_ns();
            lateness.record(ready, t0);
            self.resolve(client, op);
            let t1 = now_ns();
            if traced {
                client.disarm();
                if roots.len() < roots.capacity() {
                    roots.push(Span {
                        name: "ldns.resolve",
                        start_ns: t0,
                        end_ns: t1,
                        parent: None,
                        request,
                    });
                }
            }
            ops += SAMPLE_EVERY;
            latency.push(t1, t1 - t0);
            rates.add(t1, SAMPLE_EVERY);
            if t1 >= end {
                break;
            }
        }
        let end_ns = now_ns();
        Phase {
            start_ns: start,
            end_ns,
            ops,
            usage: Usage::now().since(&usage0),
            latency,
            lateness,
            rates,
            roots,
        }
    }
}

/// Exact counts over a span of resolutions: the difference of two
/// cumulative fleet reports.
struct Exact {
    downstream: u64,
    hits: u64,
    upstream: u64,
    timeouts: u64,
    servfails: u64,
    expired: u64,
    entries: usize,
}

impl Exact {
    fn between(a: &FleetReport, b: &FleetReport) -> Exact {
        Exact {
            downstream: b.downstream_queries - a.downstream_queries,
            hits: b.downstream_cache_hits - a.downstream_cache_hits,
            upstream: b.upstream_queries - a.upstream_queries,
            timeouts: b.upstream_timeouts - a.upstream_timeouts,
            servfails: b.upstream_servfails - a.upstream_servfails,
            expired: b.expired_churn - a.expired_churn,
            entries: b.cache_entries,
        }
    }

    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / self.downstream.max(1) as f64
    }
}

/// Warm-up in two legs so the second leg's counts can be taken exactly.
fn warm_up(driver: &mut Driver, client: &mut RoutedClient, paper: bool) -> Exact {
    let (warm, exact) = if paper {
        (WARM_OPS_PAPER, EXACT_OPS_PAPER)
    } else {
        (WARM_OPS_TINY, EXACT_OPS_TINY)
    };
    driver.warm(client, warm - exact);
    let before = driver.fleet.report();
    driver.warm(client, exact);
    Exact::between(&before, &driver.fleet.report())
}

fn cpu_us_per_op(p: &Phase) -> f64 {
    p.usage.process_cpu_s * 1e6 / p.ops.max(1) as f64
}

fn lat_window(p: &Phase) -> u64 {
    let secs = (p.end_ns - p.start_ns) as f64 / 1e9;
    latency_window_ns(p.latency.len() as f64 / secs.max(1e-9))
}

fn hit_ratio_problem(exact: &Exact, paper: bool) -> Option<String> {
    let h = exact.hit_ratio();
    (paper && !(0.6..=0.9).contains(&h))
        .then(|| format!("ldns.hit_ratio {h:.3} is outside 0.6–0.9: VIRTUAL_STEP needs retuning"))
}

pub fn run(cfg: &RunConfig) -> RunResult {
    if cfg.traced {
        run_traced(cfg)
    } else {
        run_untraced(cfg)
    }
}

fn run_untraced(cfg: &RunConfig) -> RunResult {
    let paper = cfg.paper();
    // The world, the map and the servers are set up `setup_reps` times
    // for the median; the fleet warm-up (the larger half of set-up) runs
    // once, on the last, and is added to that median.
    let ((world, servers), build_s) = harness::median_setup(
        cfg,
        || {
            let world = World::build(cfg.scale);
            let servers = Servers::spawn(&world, false);
            (world, servers)
        },
        |(_, servers)| servers.stop(),
    );
    let (phase, exact, driver_counts, warm_s) = std::thread::scope(|s| {
        s.spawn(|| {
            harness::pin_thread(Placement::Together);
            let mut client = servers.client(&world, 0);
            let mut driver = Driver::new(&world, cfg.seed);
            let t = Instant::now();
            let exact = warm_up(&mut driver, &mut client, paper);
            let warm_s = t.elapsed().as_secs_f64();
            let phase = driver.measure(&mut client, cfg.seconds, false);
            let counts = (
                driver.attempted,
                driver.failed + client.wire_failures,
                driver.wrong_answers,
            );
            (phase, exact, counts, warm_s)
        })
        .join()
        .expect("generator thread")
    });
    servers.stop();

    let lat = phase.latency.summarize(phase.start_ns, lat_window(&phase));
    let mut m = Metrics::new();
    m.set("setup_s", build_s + warm_s, cfg.setup_reps() as u64);
    m.set(
        "throughput_ops_s",
        phase.rates.median_rate(phase.end_ns),
        phase.ops,
    );
    m.set("lat_p50_us", lat.p50_us, lat.samples);
    m.set("lat_p99_us", lat.p99_us, lat.samples);
    m.set("cpu_us_per_op", cpu_us_per_op(&phase), phase.ops);
    m.set("peak_rss_mb", procfs::peak_rss_mb(), 1);
    println!(
        "# ldns.hit_ratio {:.4} over the last {} warm-up resolutions",
        exact.hit_ratio(),
        exact.downstream
    );
    let (attempted, failed, wrong) = driver_counts;
    harness::verdict(
        cfg,
        Outcome {
            metrics: m,
            attempted,
            failed: failed + wrong,
            wrong,
            fail_share: (failed + wrong) as f64 / attempted.max(1) as f64,
            late_share: phase.lateness.late_share(),
            problems: hit_ratio_problem(&exact, paper).into_iter().collect(),
        },
    )
}

fn run_traced(cfg: &RunConfig) -> RunResult {
    let paper = cfg.paper();
    let world = World::build(cfg.scale);
    let templates = Templates::build(&world.catalog);
    let plain = Servers::spawn(&world, false);
    let traced = Servers::spawn(&world, true);
    let ref_s = cfg.seconds / 3.0;
    let traced_s = cfg.seconds - ref_s;

    let out = std::thread::scope(|s| {
        s.spawn(|| {
            harness::pin_thread(Placement::Together);
            let mut driver = Driver::new(&world, cfg.seed);
            let mut client = plain.client(&world, 0);
            let exact = warm_up(&mut driver, &mut client, paper);
            let reference = driver.measure(&mut client, ref_s, false);
            let mut wire_failures = client.wire_failures;
            // The traced servers start with cold answer caches; refill
            // them untimed so both phases see authd in the same state.
            let mut client = traced.client(&world, 1 << 20);
            let refill = if paper {
                WARM_OPS_PAPER / 3
            } else {
                WARM_OPS_TINY / 3
            };
            driver.warm(&mut client, refill);
            let phase = driver.measure(&mut client, traced_s, true);
            wire_failures += client.wire_failures;
            let counts = (
                driver.attempted,
                driver.failed + wire_failures,
                driver.wrong_answers,
            );
            (exact, reference, phase, client.take_stamps(), counts)
        })
        .join()
        .expect("generator thread")
    });
    let (exact, reference, phase, exchanges, (attempted, failed, wrong)) = out;
    plain.stop();
    let taps = [&traced.top, &traced.low].map(|s| s.tap.clone().expect("traced serving has a tap"));
    // What the low-level authd served, and how much of it from its cache:
    // authd sees only the fleet's miss stream.
    let authd_hits = {
        use std::sync::atomic::Ordering;
        let c = &traced.low.server.counters()[0];
        // relaxed-ok: statistics read after the generator finished
        (
            c.queries.load(Ordering::Relaxed),
            c.cache_hits.load(Ordering::Relaxed),
        )
    };
    traced.stop();
    let mut server_stamps = Vec::new();
    let mut stamp_drops = 0;
    for tap in &taps {
        server_stamps.extend(tap.take_stamps());
        stamp_drops += tap.dropped();
    }

    // resolve roots first, then one exchange subtree per upstream query,
    // parented at the resolution that sent it.
    let mut tree = phase.roots.clone();
    let root_of: HashMap<u32, usize> = tree
        .iter()
        .enumerate()
        .map(|(i, s)| (s.request, i))
        .collect();
    let exchanges: Vec<ClientStamp> = exchanges
        .into_iter()
        .filter(|c| root_of.contains_key(&c.request))
        .collect();
    spans::assemble(
        "net.exchange",
        &exchanges,
        &server_stamps,
        |c| root_of.get(&c.request).copied(),
        &mut tree,
    );
    workloads::write_spans(cfg, &tree);
    let selfs = spans::self_times(&tree);
    let mut has_child = vec![false; tree.len()];
    for s in &tree {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let misses: Vec<usize> = (0..phase.roots.len()).filter(|&i| has_child[i]).collect();
    let miss_us: Vec<f64> = misses
        .iter()
        .map(|&i| tree[i].duration_ns() as f64 / 1e3)
        .collect();
    let miss_self_us: Vec<f64> = misses.iter().map(|&i| selfs[i] as f64 / 1e3).collect();
    // Unexplained: what neither the resolution's own span tree nor any
    // exchange subtree accounts for — the self time of exchanges, which
    // is the part of a round trip no boundary stamp covers.
    let (mut unexplained, mut total) = (0u64, 0u64);
    for (s, own) in tree.iter().zip(&selfs) {
        match s.name {
            "net.exchange" => unexplained += own,
            "ldns.resolve" => total += s.duration_ns(),
            _ => {}
        }
    }

    let mut m = Metrics::new();
    let lat = phase.latency.summarize(phase.start_ns, lat_window(&phase));
    let ref_lat = reference
        .latency
        .summarize(reference.start_ns, lat_window(&reference));
    m.set("fail_share", 0.0, 0);
    m.set(
        "allocs_per_op",
        reference.usage.total_allocs as f64 / reference.ops.max(1) as f64,
        reference.ops,
    );
    m.set("lat_p99_median_us", lat.p99_median_us, lat.samples);
    m.set("lat_p99_all_us", lat.p99_all_us, lat.samples);
    set_server_span_metrics(&mut m, &tree);
    let (ex_us, ex_n) = span_median(&tree, "net.exchange", 1e3);
    m.set("net.exchange_us", ex_us, ex_n);
    m.set("ldns.hit_ratio", exact.hit_ratio(), exact.downstream);
    m.set(
        "ldns.amplification",
        exact.upstream as f64 / exact.downstream.max(1) as f64,
        exact.downstream,
    );
    m.set(
        "ldns.upstream_per_miss",
        exact.upstream as f64 / (exact.downstream - exact.hits).max(1) as f64,
        exact.downstream - exact.hits,
    );
    m.set("ldns.expired_churn", exact.expired as f64, exact.downstream);
    m.set("ldns.cache_entries", exact.entries as f64, 1);
    m.set("ldns.timeouts", exact.timeouts as f64, exact.downstream);
    m.set("ldns.servfails", exact.servfails as f64, exact.downstream);
    m.set(
        "ldns.resolve_miss_us",
        median(&miss_us),
        miss_us.len() as u64,
    );
    m.set(
        "ldns.resolve_miss_self_us",
        median(&miss_self_us),
        miss_self_us.len() as u64,
    );
    m.set(
        "telemetry.overhead_share",
        cpu_us_per_op(&phase) / cpu_us_per_op(&reference).max(1e-9) - 1.0,
        phase.ops,
    );
    m.set(
        "trace.overhead_share",
        lat.p50_us / ref_lat.p50_us.max(1e-9) - 1.0,
        lat.samples,
    );
    m.set(
        "trace.unexplained_share",
        unexplained as f64 / total.max(1) as f64,
        phase.roots.len() as u64,
    );
    // The generator *is* the resolver here; its share is the ldns side.
    m.set(
        "gen.cpu_share",
        phase.usage.generator_cpu_s / phase.usage.process_cpu_s.max(1e-9),
        phase.ops,
    );
    m.set(
        "gen.late_share",
        phase.lateness.late_share(),
        phase.lateness.sends,
    );
    m.set(
        "gen.max_late_us",
        phase.lateness.max_late_ns as f64 / 1e3,
        phase.lateness.sends,
    );
    m.set(
        "authd.cache_hit_ratio",
        authd_hits.1 as f64 / authd_hits.0.max(1) as f64,
        authd_hits.0,
    );

    // Replay: the upstream queries this workload's resolvers send.
    let mut stream = FleetStream::new(&world.net, &world.catalog, cfg.seed);
    let inputs: Vec<Shape> = (0..replay::input_count(cfg))
        .map(|_| {
            let op = stream.next_op();
            let r = world.net.resolver(op.resolver);
            let client = world.net.block(op.block).client_ip();
            match policy_of(&world, r) {
                EcsPolicy::Off => Shape {
                    name: op.name,
                    block: None,
                },
                _ => Shape::ecs(op.name, client),
            }
        })
        .collect();
    replay::run(&world, &templates, &inputs, &mut m);

    let mut problems: Vec<String> = hit_ratio_problem(&exact, paper).into_iter().collect();
    if stamp_drops > 0 {
        problems.push(format!("{stamp_drops} server stamps dropped"));
    }
    workloads::finish_traced(
        cfg,
        Outcome {
            metrics: m,
            attempted,
            failed: failed + wrong,
            wrong,
            fail_share: (failed + wrong) as f64 / attempted.max(1) as f64,
            late_share: phase.lateness.late_share(),
            problems,
        },
        (exact.timeouts, wrong, 0),
    )
}
