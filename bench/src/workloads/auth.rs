//! `auth_hot` and `auth_miss`: resolvers → authd over loopback UDP
//! through `ReuseportUdpTransport` + `AuthServer::spawn_batched`, one
//! shard. Same server, same transport, same generator; only the stream
//! differs — 256 cache-resident shapes against a walk whose reuse
//! distance exceeds the answer cache — so socket cost is equal and the
//! work moves from decode + cache replay (`hot`) to
//! `MappingSystem::answer` + encode + cache insert/evict (`miss`).
//!
//! Phase `rate`: open loop at a fixed rate from one socket, each query
//! timed from its due time → `lat_p50_us`, `lat_p99_us`. Phase
//! `capacity`: closed loop, 32 in flight on one socket →
//! `throughput_ops_s`, `cpu_us_per_op`, `allocs_per_op`.

use crate::harness::{self, Outcome, Placement, RunConfig};
use crate::replay;
use crate::report::{Metrics, RunResult};
use crate::spans::{self, ClientStamp, ServerStamp};
use crate::stats::{latency_window_ns, WINDOW_NS};
use crate::stream::{FixedSetStream, MissStream, ShapeStream, Templates};
use crate::udpgen::{OracleCtx, PhaseOut, Tally, UdpGen, LIMIT_NS};
use crate::world::World;
use crate::wrap::{ServerTap, TracedBatch};
use crate::{procfs, workloads};
use eum_authd::{AuthServer, ServerConfig, ShardReport, SnapshotHandle, TelemetryConfig};
use eum_net::{BatchConfig, ReuseportUdpTransport};
use eum_telemetry::{Registry, SampleValue, TraceRing};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Miss,
}

/// In flight in the closed-loop phase.
const WINDOW: usize = 32;
/// Distinct shapes of `auth_hot`, every tenth without ECS.
const HOT_SHAPES: usize = 256;
/// Stamp one operation in 64 in the traced run.
const STAMP_MASK: u16 = 0x3F;

impl Kind {
    /// Open-loop rate, q/s: about 30 % of what one shard sustains on the
    /// reference box for that stream, so latency is measured well below
    /// saturation and moves with per-query cost, not with queueing.
    fn rate(self, paper: bool) -> f64 {
        match (self, paper) {
            (Kind::Hot, true) => 100_000.0,
            (Kind::Miss, true) => 40_000.0,
            (Kind::Hot, false) => 20_000.0,
            (Kind::Miss, false) => 10_000.0,
        }
    }

    fn stream(self, world: &World, names: usize, seed: u64) -> Box<dyn ShapeStream + Send> {
        match self {
            Kind::Hot => Box::new(FixedSetStream::new(
                &world.net,
                names,
                HOT_SHAPES,
                Some(10),
                seed,
            )),
            Kind::Miss => Box::new(MissStream::new(&world.net, &world.map, names, seed)),
        }
    }

    /// Queries that put the stream's working set in the answer cache
    /// (`hot`) or fill the cache to its 65 536-entry bound (`miss`), so
    /// the measured phases see the steady state — every query an insert
    /// and an eviction — and not the table growing and rehashing.
    fn warm_ops(self) -> u64 {
        match self {
            Kind::Hot => 16 * HOT_SHAPES as u64,
            Kind::Miss => 80_000,
        }
    }
}

/// A running one-shard UDP server.
pub struct Serving {
    pub server: AuthServer,
    pub addr: SocketAddrV4,
    pub tap: Option<Arc<ServerTap>>,
    pub registry: Option<Arc<Registry>>,
}

/// Spawns authd answering as `server_ip` on a fresh loopback port.
/// Traced: the transport is wrapped, batch instruments are attached and
/// authd's own telemetry (metrics + 1-in-64 trace ring) is on.
pub fn spawn_udp(world: &World, server_ip: Ipv4Addr, traced: bool, stamp_mask: u16) -> Serving {
    let bcfg = BatchConfig {
        pin_cpus: true,
        ..BatchConfig::default()
    };
    let (mut transports, addrs) =
        ReuseportUdpTransport::bind_shards(1, &bcfg).expect("bind a loopback UDP socket");
    let addr = match addrs[0] {
        SocketAddr::V4(a) => a,
        SocketAddr::V6(_) => unreachable!("bound a V4 socket"),
    };
    let snapshots = SnapshotHandle::new(world.map.clone_for_publish());
    let cfg = ServerConfig::new(server_ip);
    if !traced {
        return Serving {
            server: AuthServer::spawn_batched(transports, snapshots, cfg),
            addr,
            tap: None,
            registry: None,
        };
    }
    let registry = Arc::new(Registry::new());
    let ring = Arc::new(TraceRing::new(1 << 12));
    transports[0].attach_metrics(&registry, 0);
    let tap = ServerTap::new(stamp_mask);
    let wrapped: Vec<_> = transports
        .into_iter()
        .map(|t| TracedBatch::new(t, bcfg.batch, tap.clone()))
        .collect();
    let cfg = cfg.with_telemetry(TelemetryConfig::metrics(registry.clone()).with_trace(ring, 64));
    Serving {
        server: AuthServer::spawn_batched(wrapped, snapshots, cfg),
        addr,
        tap: Some(tap),
        registry: Some(registry),
    }
}

/// One pass of the generator: warm-up, then the two measured phases.
struct Pass {
    /// How long the warm-up took.
    warm_s: f64,
    open: PhaseOut,
    closed: PhaseOut,
    tally: Tally,
    stamps: Vec<ClientStamp>,
    /// Server-side (recv calls, datagrams, send calls) over `closed`.
    closed_calls: (u64, u64, u64),
    /// Server counters (queries, cache hits) over both phases.
    served: (u64, u64),
}

/// Drives `serving` from one pinned generator thread: the warm-up, then
/// the `rate` and the `capacity` phase, `open_s` and `closed_s` long.
fn drive(
    kind: Kind,
    world: &World,
    templates: &Templates,
    serving: &Serving,
    seed: u64,
    paper: bool,
    (open_s, closed_s): (f64, f64),
) -> Pass {
    let oracle = OracleCtx {
        map: &world.map,
        server_ip: world.low_ip(),
        resolver_ip: Ipv4Addr::LOCALHOST,
    };
    let mut stream = kind.stream(world, templates.names(), seed);
    let counters = serving.server.counters()[0].clone();
    let served = || {
        use std::sync::atomic::Ordering;
        // relaxed-ok: monotonic statistics read between phases
        (
            counters.queries.load(Ordering::Relaxed),
            counters.cache_hits.load(Ordering::Relaxed),
        )
    };
    let calls = || serving.tap.as_ref().map_or((0, 0, 0), |t| t.counts());
    std::thread::scope(|s| {
        s.spawn(|| {
            harness::pin_thread(Placement::Apart);
            let mask = serving.tap.as_ref().map(|_| STAMP_MASK);
            let mut gen = UdpGen::new(serving.addr, templates, oracle, mask)
                .expect("bind the generator socket");
            let io = "generator socket I/O on loopback";
            let t = Instant::now();
            gen.run_closed(stream.as_mut(), WINDOW, 30.0, kind.warm_ops())
                .expect(io);
            let warm_s = t.elapsed().as_secs_f64();
            let s0 = served();
            let open = gen
                .run_open(stream.as_mut(), kind.rate(paper), open_s)
                .expect(io);
            let c0 = calls();
            let closed = gen
                .run_closed(stream.as_mut(), WINDOW, closed_s, u64::MAX)
                .expect(io);
            let c1 = calls();
            let s1 = served();
            Pass {
                warm_s,
                open,
                closed,
                tally: gen.tally,
                stamps: gen.take_stamps(),
                closed_calls: (c1.0 - c0.0, c1.1 - c0.1, c1.2 - c0.2),
                served: (s1.0 - s0.0, s1.1 - s0.1),
            }
        })
        .join()
        .expect("generator thread")
    })
}

impl Pass {
    /// `fail_share`, phase by phase, the larger reported. The rate phase:
    /// operations without a correct answer over operations attempted,
    /// plus the share of replies later than the 2-ms limit in the median
    /// 250-ms window — judged against the phase's own traffic, and by the
    /// median window so that one host stall cannot fail a run. The rest
    /// (warm-up and capacity phase) has no limit to miss.
    fn fail_share(&self) -> f64 {
        let rate = &self.open;
        let late = rate
            .latency
            .over_limit_share(rate.start_ns, WINDOW_NS, LIMIT_NS);
        (rate.tally.failed_share() + late).max(self.tally.since(&rate.tally).failed_share())
    }
}

/// CPU the system (every thread but the generator's) spent per verified
/// answer in the closed-loop phase, µs.
fn cpu_us_per_op(p: &PhaseOut) -> f64 {
    (p.usage.process_cpu_s - p.usage.generator_cpu_s).max(0.0) * 1e6 / p.tally.ok.max(1) as f64
}

/// Heap allocations by the system per verified answer, closed loop.
fn allocs_per_op(p: &PhaseOut) -> f64 {
    p.usage
        .total_allocs
        .saturating_sub(p.usage.generator_allocs) as f64
        / p.tally.ok.max(1) as f64
}

/// Checks the contrast the two workloads exist for, on the shard's own
/// final report and on the measured phases.
fn contrast_problems(kind: Kind, paper: bool, report: &ShardReport, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    let measured = pass.served.1 as f64 / pass.served.0.max(1) as f64;
    let total = report.cache.hits as f64 / (report.cache.hits + report.cache.misses).max(1) as f64;
    match kind {
        Kind::Hot if measured < 0.99 || total < 0.98 => problems.push(format!(
            "auth_hot must be cache-resident: hit ratio {measured:.4} measured, {total:.4} overall"
        )),
        // The tiny world has fewer (unit, name) pairs than cache entries.
        Kind::Miss if paper && (measured > 0.02 || total > 0.02) => problems.push(format!(
            "auth_miss must take the compute path: hit ratio {measured:.4} measured, {total:.4} overall"
        )),
        _ => {}
    }
    problems
}

pub fn run(cfg: &RunConfig, kind: Kind) -> RunResult {
    if cfg.traced {
        run_traced(cfg, kind)
    } else {
        run_untraced(cfg, kind)
    }
}

fn run_untraced(cfg: &RunConfig, kind: Kind) -> RunResult {
    let paper = cfg.paper();
    // The world, the map and the server are set up `setup_reps` times for
    // the median; the warm-up runs once, on the last, and is added to that
    // median (as `fleet_e2e`'s is): filling `auth_miss`'s 65 536-entry
    // cache three times over leaves the allocator, and with it
    // `peak_rss_mb`, in one of two states from run to run.
    let ((world, templates, serving), build_s) = harness::median_setup(
        cfg,
        || {
            let world = World::build(cfg.scale);
            let templates = Templates::build(&world.catalog);
            let serving = spawn_udp(&world, world.low_ip(), false, 0);
            (world, templates, serving)
        },
        |(_, _, serving)| {
            serving.server.stop_join();
        },
    );
    let half = cfg.seconds / 2.0;
    let phases = (half, half);
    let pass = drive(kind, &world, &templates, &serving, cfg.seed, paper, phases);
    let report = serving.server.stop_join().remove(0);
    println!("# rate phase: {:?}", pass.open.tally);
    println!("# capacity phase: {:?}", pass.closed.tally);

    let lat_window = latency_window_ns(kind.rate(paper));
    let lat = pass.open.latency.summarize(pass.open.start_ns, lat_window);
    let mut m = Metrics::new();
    m.set("setup_s", build_s + pass.warm_s, cfg.setup_reps() as u64);
    m.set(
        "throughput_ops_s",
        pass.closed.rates.median_rate(pass.closed.end_ns),
        pass.closed.tally.ok,
    );
    m.set("lat_p50_us", lat.p50_us, lat.samples);
    m.set("lat_p99_us", lat.p99_us, lat.samples);
    m.set(
        "cpu_us_per_op",
        cpu_us_per_op(&pass.closed),
        pass.closed.tally.ok,
    );
    m.set("peak_rss_mb", procfs::peak_rss_mb(), 1);
    harness::verdict(
        cfg,
        Outcome {
            metrics: m,
            attempted: pass.tally.attempted,
            failed: pass.tally.failed(),
            wrong: pass.tally.wire_failures + pass.tally.wrong_answers,
            fail_share: pass.fail_share(),
            late_share: pass.open.lateness.late_share(),
            problems: contrast_problems(kind, paper, &report, &pass),
        },
    )
}

fn run_traced(cfg: &RunConfig, kind: Kind) -> RunResult {
    let paper = cfg.paper();
    let world = World::build(cfg.scale);
    let templates = Templates::build(&world.catalog);

    // Reference pass, tracing off: what the traced numbers are shares of.
    let sixth = cfg.seconds / 6.0;
    let plain = spawn_udp(&world, world.low_ip(), false, 0);
    let phases = (sixth, sixth);
    let reference = drive(kind, &world, &templates, &plain, cfg.seed, paper, phases);
    plain.server.stop_join();

    // Traced pass: wrapped transport, authd telemetry on, stamps taken.
    let third = cfg.seconds / 3.0;
    let serving = spawn_udp(&world, world.low_ip(), true, STAMP_MASK);
    let phases = (third, third);
    let pass = drive(kind, &world, &templates, &serving, cfg.seed, paper, phases);
    let tap = serving.tap.clone().expect("traced serving has a tap");
    let registry = serving
        .registry
        .clone()
        .expect("traced serving has a registry");
    let report = serving.server.stop_join().remove(0);
    let server_stamps: Vec<ServerStamp> = tap.take_stamps();

    // Spans of the rate phase: the phase the latency metrics come from.
    let in_open = |c: &&ClientStamp| c.due_ns >= pass.open.start_ns && c.due_ns < pass.open.end_ns;
    let open_stamps: Vec<ClientStamp> = pass.stamps.iter().filter(in_open).copied().collect();
    let mut tree = Vec::new();
    spans::assemble("op", &open_stamps, &server_stamps, |_| None, &mut tree);
    workloads::write_spans(cfg, &tree);

    let mut m = Metrics::new();
    let lat_window = latency_window_ns(kind.rate(paper));
    let ref_lat = reference
        .open
        .latency
        .summarize(reference.open.start_ns, lat_window);
    let lat = pass.open.latency.summarize(pass.open.start_ns, lat_window);
    let ops = pass.closed.tally.ok;
    m.set("fail_share", 0.0, 0); // set by `workloads::finish_traced`
    m.set(
        "allocs_per_op",
        allocs_per_op(&reference.closed),
        reference.closed.tally.ok,
    );
    m.set("lat_p99_median_us", lat.p99_median_us, lat.samples);
    m.set("lat_p99_all_us", lat.p99_all_us, lat.samples);
    workloads::set_server_span_metrics(&mut m, &tree);
    m.set(
        "authd.cache_hit_ratio",
        pass.served.1 as f64 / pass.served.0.max(1) as f64,
        pass.served.0,
    );
    let (recvs, datagrams, sends) = pass.closed_calls;
    m.set(
        "net.recv_batch_fill",
        datagrams as f64 / recvs.max(1) as f64,
        recvs,
    );
    m.set(
        "net.syscalls_per_query",
        (recvs + sends) as f64 / datagrams.max(1) as f64,
        datagrams,
    );
    let partial: f64 = registry
        .sample()
        .iter()
        .filter(|s| s.name == "eum_net_sendmmsg_partial_total")
        .map(|s| match s.value {
            SampleValue::Counter(c) => c as f64,
            _ => 0.0,
        })
        .sum();
    m.set("net.partial_sends", partial, sends.max(1));
    m.set(
        "telemetry.overhead_share",
        cpu_us_per_op(&pass.closed) / cpu_us_per_op(&reference.closed).max(1e-9) - 1.0,
        ops,
    );
    m.set(
        "trace.overhead_share",
        lat.p50_us / ref_lat.p50_us.max(1e-9) - 1.0,
        lat.samples,
    );
    m.set(
        "trace.unexplained_share",
        spans::unexplained_share(&tree),
        open_stamps.len() as u64,
    );
    m.set(
        "gen.late_share",
        pass.open.lateness.late_share(),
        pass.open.lateness.sends,
    );
    m.set(
        "gen.max_late_us",
        pass.open.lateness.max_late_ns as f64 / 1e3,
        pass.open.lateness.sends,
    );
    m.set(
        "gen.cpu_share",
        pass.closed.usage.generator_cpu_s / pass.closed.usage.process_cpu_s.max(1e-9),
        ops,
    );

    let mut stream = kind.stream(&world, templates.names(), cfg.seed);
    let inputs = replay::inputs_from_shapes(stream.as_mut(), cfg);
    replay::run(&world, &templates, &inputs, &mut m);

    let mut tally = pass.tally;
    let r = reference.tally;
    tally.attempted += r.attempted;
    tally.timeouts += r.timeouts;
    tally.wire_failures += r.wire_failures;
    tally.wrong_answers += r.wrong_answers;
    tally.over_limit += r.over_limit;
    let mut problems = contrast_problems(kind, paper, &report, &pass);
    if tap.dropped() > 0 {
        problems.push(format!("{} server stamps dropped", tap.dropped()));
    }
    workloads::finish_traced(
        cfg,
        Outcome {
            metrics: m,
            attempted: tally.attempted,
            failed: tally.failed(),
            wrong: tally.wire_failures + tally.wrong_answers,
            fail_share: pass.fail_share().max(reference.fail_share()),
            late_share: pass
                .open
                .lateness
                .late_share()
                .max(reference.open.lateness.late_share()),
            problems,
        },
        (tally.timeouts, tally.wrong_answers, tally.over_limit),
    )
}
