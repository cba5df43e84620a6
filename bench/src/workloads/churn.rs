//! `map_churn`: writes beside reads. authd over the **channel** transport
//! (`channel_transports` + `AuthServer::spawn`, the single-datagram shard
//! loop, resolver IPs carried faithfully) answers one query thread while
//! one control thread loops: flip one non-escape cluster's liveness →
//! `rebuild_incremental` → `clone_for_publish` → `publish_delta`, pause;
//! one cycle, [`FULL_AT`] of the way through the pass, is a full
//! `rebuild` + `publish`. The only workload where rebuild, `MapDelta`,
//! snapshot publication, `observe` and keyed eviction run — and the only
//! one crossing `run_shard`/`ChannelTransport`.
//!
//! The query thread offers a fixed rate in 2-ms ticks for the whole run
//! (it sleeps between ticks; each exchange is timed from its slot's due
//! time, so a tick that starts late, or a backlog, is charged to the
//! queries that waited) → `lat_*`, `cpu_us_per_op`, and
//! `throughput_ops_s`, which here is the rate achieved against the fixed
//! rate offered. While a publication is pending it weaves in probes of a
//! *sentinel* shape whose answer the flip must change; the first reply
//! carrying the new answer stops the `update_visible_ms` clock started at
//! the flip.
//!
//! The query thread and the shard share CPU 0 (a strict ping-pong); the
//! control thread, and with it the rebuild's workers, has the last CPU.
//! Left to float, a full rebuild took both CPUs and the query thread fell
//! 0.14 s to 1.3 s behind its schedule from one run to the next of the
//! same commit, and a closed-loop phase's throughput spread over 0.2.

use crate::harness::{self, Outcome, Placement, RunConfig};
use crate::oracle::{self, Answer, FULL_CHECK_EVERY};
use crate::procfs;
use crate::replay;
use crate::report::{Metrics, RunResult};
use crate::spans::{self, ClientStamp, Span, StampBuf};
use crate::stats::{latency_window_ns, median, now_ns, LatencyLog, Lateness};
use crate::stream::{FixedSetStream, Shape, SplitMix64, Templates, MAX_QUERY};
use crate::udpgen::Usage;
use crate::workloads;
use crate::workloads::set_server_span_metrics;
use crate::world::World;
use crate::wrap::{ServerTap, TracedServer};
use eum_authd::{
    channel_transports, AnswerCacheStats, AuthServer, CacheConfig, ChannelClient, ClientTransport,
    QueryStages, ReplyCap, ServerConfig, ShardState, Snapshot, SnapshotHandle, TelemetryConfig,
};
use eum_cdn::ClusterId;
use eum_dns::decode_message;
use eum_mapping::RescoreHints;
use eum_telemetry::{Registry, TraceRing};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The pass's one full rebuild starts at the first cycle after this share
/// of the pass. (The issue asked for a full cycle in ten. On the one CPU
/// the control plane has here a full rebuild takes 1.8 s, a third of a
/// traced pass: one per pass, at a fixed point, gives every pass of one
/// length the same schedule.)
const FULL_AT: f64 = 0.3;
/// Pause between cycles (the issue asked for 100 ms; 50 ms fits ~165
/// incremental cycles into a 12-s run).
const PAUSE: Duration = Duration::from_millis(50);
/// Query-thread tick; `rate × TICK` exchanges are issued per tick.
const TICK_NS: u64 = 2_000_000;
/// The query thread sleeps until this long before a tick and spins the
/// rest: a sleep alone overshoots by 80 µs at the median and 180 µs at the
/// p99 on the reference VM, and timed from due time that overshoot would
/// be most of `lat_p99_us`.
const SPIN_NS: u64 = 200_000;
/// Clusters whose liveness the control thread flips, in rotation.
const VICTIMS: usize = 4;
/// A publication not seen by the sentinel within this long is a failure.
const VISIBLE_TIMEOUT_NS: u64 = 1_000_000_000;
/// The previous generation's answer is accepted this long after the new
/// one was first seen (a reply may have been computed just before).
const GRACE_NS: u64 = 100_000_000;
/// Exchange timeout.
const TIMEOUT: Duration = Duration::from_millis(500);
/// Stamp one exchange in 16 in the traced run.
const STAMP_MASK: u16 = 0x0F;

fn shapes_count(paper: bool) -> usize {
    if paper {
        4096
    } else {
        512
    }
}

fn rate(paper: bool) -> f64 {
    if paper {
        20_000.0
    } else {
        5_000.0
    }
}

/// A victim cluster and the shape that watches it.
#[derive(Clone)]
struct Victim {
    cluster: ClusterId,
    sentinel: Shape,
    resolver: Ipv4Addr,
}

/// What the control thread asks the query thread to watch for.
#[derive(Clone)]
struct Probe {
    cycle: u64,
    shape: Shape,
    resolver: Ipv4Addr,
    want: Answer,
}

/// The two threads' meeting point.
#[derive(Default)]
struct Shared {
    probe: Mutex<Option<Probe>>,
    /// (cycle, when the new answer was first seen).
    seen: Mutex<Vec<(u64, u64)>>,
    /// When the pass's full rebuild falls due (0 until the query thread
    /// has started its measured phase).
    full_at_ns: AtomicU64,
    stop: AtomicBool,
}

/// Timings of one control cycle (ns on the shared clock).
#[derive(Clone, Copy)]
struct Cycle {
    cycle: u64,
    full: bool,
    flip_ns: u64,
    rebuild: (u64, u64),
    clone: (u64, u64),
    publish: (u64, u64),
    /// The sentinel's answer did change (else the cycle is not timed).
    watched: bool,
}

/// Picks victims (assigned, non-escape clusters) and a sentinel block
/// assigned to each at generation 1. Which clusters fail belongs to the
/// deployment, like the world: the same in every run, so every run
/// publishes deltas of the same sizes. `seed`, which varies the query
/// stream, picks the sentinels.
fn pick_victims(world: &World, names: usize, seed: u64) -> Vec<Victim> {
    let mut deployment = SplitMix64::new(0x7C71_3A5E, 0xC4A0);
    let mut rng = SplitMix64::new(seed, 0xC4A0);
    let escape = world.cdn.clusters[0].id;
    let mut by_cluster: HashMap<ClusterId, Vec<usize>> = HashMap::new();
    for (i, b) in world.net.blocks.iter().enumerate() {
        if let Some(c) = world.map.assigned_cluster_for_block(b.prefix) {
            if c != escape {
                by_cluster.entry(c).or_default().push(i);
            }
        }
    }
    let mut clusters: Vec<ClusterId> = by_cluster.keys().copied().collect();
    clusters.sort();
    deployment.shuffle(&mut clusters);
    clusters
        .into_iter()
        .take(VICTIMS)
        .map(|cluster| {
            let blocks = &by_cluster[&cluster];
            let b = &world.net.blocks[blocks[rng.below(blocks.len())]];
            Victim {
                cluster,
                sentinel: Shape::ecs(rng.below(names) as u16, b.client_ip()),
                resolver: world.net.resolver(b.primary_ldns()).ip,
            }
        })
        .collect()
}

/// The control loop. Runs until `shared.stop`; returns the cycles it
/// completed and how many publications never became visible.
fn control(
    world: &mut World,
    snapshots: &SnapshotHandle,
    templates: &Templates,
    victims: &[Victim],
    shared: &Shared,
    first_cycle: u64,
) -> (Vec<Cycle>, u64) {
    // The rebuild's workers inherit this: the control plane has the last
    // CPU to itself and the query path CPU 0.
    harness::pin_thread(Placement::Apart);
    let low = world.low_ip();
    let mut cycles = Vec::new();
    let mut lost = 0;
    let mut c = first_cycle;
    let mut full_done = false;
    // relaxed-ok: a lone stop flag; the scope join is the sync point
    while !shared.stop.load(Ordering::Relaxed) {
        let v = &victims[(c / 2) as usize % victims.len()];
        let alive = c % 2 == 1;
        // relaxed-ok: a schedule hint; a cycle late either way is harmless
        let full_at = shared.full_at_ns.load(Ordering::Relaxed);
        let full = !full_done && full_at != 0 && now_ns() >= full_at;
        full_done |= full;
        let query = decode_message(&templates.to_vec(v.sentinel, 0)).expect("own query decodes");
        let before = oracle::expected(&snapshots.current().map, low, v.resolver, &query);

        let flip_ns = now_ns();
        world.cdn.set_cluster_alive(v.cluster, alive);
        let t0 = now_ns();
        let delta = if full {
            world.map.rebuild(&world.net, &world.cdn);
            None
        } else {
            Some(
                world
                    .map
                    .rebuild_incremental(&world.net, &world.cdn, &RescoreHints::default()),
            )
        };
        let t1 = now_ns();
        let serve = world.map.clone_for_publish();
        let t2 = now_ns();
        let want = oracle::expected(&serve, low, v.resolver, &query);
        let t3 = now_ns();
        match delta {
            Some(d) => snapshots.publish_delta(serve, d),
            None => snapshots.publish(serve),
        };
        let t4 = now_ns();
        let watched = want != before;
        if watched {
            *shared.probe.lock().expect("probe lock") = Some(Probe {
                cycle: c,
                shape: v.sentinel,
                resolver: v.resolver,
                want,
            });
        }
        cycles.push(Cycle {
            cycle: c,
            full,
            flip_ns,
            rebuild: (t0, t1),
            clone: (t1, t2),
            publish: (t3, t4),
            watched,
        });
        std::thread::sleep(PAUSE);
        // Do not start the next flip while this one is still invisible.
        while watched && shared.probe.lock().expect("probe lock").is_some() {
            if now_ns() - t4 > VISIBLE_TIMEOUT_NS {
                lost += 1;
                *shared.probe.lock().expect("probe lock") = None;
                break;
            }
            // relaxed-ok: lone stop flag
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        c += 1;
    }
    (cycles, lost)
}

/// Outcome counters of the query thread.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    attempted: u64,
    ok: u64,
    timeouts: u64,
    wire_failures: u64,
    wrong_answers: u64,
}

impl Counts {
    fn failed(&self) -> u64 {
        self.timeouts + self.wire_failures + self.wrong_answers
    }
}

/// The query side: one channel client, the shape stream, the oracle's
/// view of the current and previous generation.
struct Querier<'a> {
    world_low: Ipv4Addr,
    templates: &'a Templates,
    snapshots: &'a SnapshotHandle,
    shared: &'a Shared,
    client: ChannelClient,
    stream: FixedSetStream,
    resolvers: Vec<Ipv4Addr>,
    seq: u64,
    counts: Counts,
    cur: Arc<Snapshot>,
    prev: Option<(Arc<Snapshot>, u64)>,
    stamps: Option<StampBuf<ClientStamp>>,
}

impl Querier<'_> {
    /// One exchange, due at `due_ns` (`u64::MAX`: whenever it starts).
    /// `probe`: this one asks the sentinel's question. Returns (the
    /// earlier of due time and start, end) on the shared clock when
    /// answered correctly: an exchange sent ahead of its slot has waited
    /// for nothing, one sent behind it has waited since it was due.
    fn exchange(&mut self, probe: Option<&Probe>, due_ns: u64) -> Option<(u64, u64)> {
        let (shape, resolver) = match probe {
            Some(p) => (p.shape, p.resolver),
            None => {
                let i = self.stream.next_index();
                (self.stream.shapes()[i], self.resolvers[i])
            }
        };
        let request = self.seq;
        let id = request as u16;
        self.seq += 1;
        let mut buf = [0u8; MAX_QUERY];
        let n = self.templates.write(shape, id, &mut buf);
        let query = &buf[..n];
        self.counts.attempted += 1;
        let t0 = now_ns();
        let reply = self
            .client
            .exchange(0, self.world_low, resolver, query, TIMEOUT);
        let t1 = now_ns();
        let reply = match reply {
            Ok(r) => r,
            Err(_) => {
                self.counts.timeouts += 1;
                return None;
            }
        };
        let echo_ok = shape.block.is_none_or(|b| oracle::ecs_echo_ok(&reply, b));
        if !oracle::wire_ok(query, &reply) || !echo_ok {
            self.counts.wire_failures += 1;
            return None;
        }
        if let Some(p) = probe {
            if oracle::full_ok(&reply, &p.want) {
                self.shared
                    .seen
                    .lock()
                    .expect("seen lock")
                    .push((p.cycle, t1));
                *self.shared.probe.lock().expect("probe lock") = None;
            }
        } else if self.seq.is_multiple_of(FULL_CHECK_EVERY)
            && !self.full_check(query, &reply, resolver, t1)
        {
            self.counts.wrong_answers += 1;
            return None;
        }
        self.counts.ok += 1;
        if let Some(buf) = self.stamps.as_mut() {
            if id & STAMP_MASK == 0 {
                buf.push(ClientStamp {
                    request: request as u32,
                    id,
                    due_ns: t0.min(due_ns),
                    send_start_ns: t0,
                    send_end_ns: t0,
                    recv_ns: t1,
                    done_ns: t1,
                });
            }
        }
        Some((t0.min(due_ns), t1))
    }

    /// Decodes `reply` and compares it with what the generation in force
    /// answers — or, for [`GRACE_NS`] after a swap, the one before it.
    fn full_check(&mut self, query: &[u8], reply: &[u8], resolver: Ipv4Addr, now: u64) -> bool {
        let latest = self.snapshots.current();
        if latest.generation != self.cur.generation {
            let old = std::mem::replace(&mut self.cur, latest);
            self.prev = Some((old, now));
        }
        let low = self.world_low;
        let matches = |snap: &Snapshot| {
            oracle::expected_for_bytes(&snap.map, low, resolver, query)
                .is_some_and(|w| oracle::full_ok(reply, &w))
        };
        if matches(&self.cur) {
            return true;
        }
        match &self.prev {
            Some((old, since)) if now - since < GRACE_NS => matches(old),
            _ => false,
        }
    }

    fn pending(&self) -> Option<Probe> {
        self.shared.probe.lock().expect("probe lock").clone()
    }
}

struct QueryOut {
    start_ns: u64,
    end_ns: u64,
    /// Verified answers.
    ops: u64,
    usage: Usage,
    latency: LatencyLog,
    lateness: Lateness,
    counts: Counts,
    stamps: Vec<ClientStamp>,
}

/// The query thread's measured phase: `secs` of the fixed rate.
fn query(q: &mut Querier, paper: bool, secs: f64) -> QueryOut {
    let per_tick = ((rate(paper) * TICK_NS as f64 / 1e9).round() as u64).max(1);
    let slot_ns = TICK_NS / per_tick;
    let usage0 = Usage::now();
    let start = now_ns();
    let end = start + (secs * 1e9) as u64;
    // relaxed-ok: a schedule hint for the control thread
    q.shared
        .full_at_ns
        .store(start + (secs * FULL_AT * 1e9) as u64, Ordering::Relaxed);
    let mut latency = LatencyLog::with_capacity((rate(paper) * secs * 1.1) as usize + 1024);
    let mut lateness = Lateness::default();
    let mut ops = 0;
    let mut tick = 0u64;
    // When the previous tick's last exchange returned. A tick that falls
    // due before then is held up by the system under test, not by the
    // generator: its wait goes into the latencies below, not into
    // `lateness`.
    let mut free_ns = start;
    loop {
        let due = start + tick * TICK_NS;
        if due >= end {
            break;
        }
        let now = now_ns();
        if now + SPIN_NS < due {
            std::thread::sleep(Duration::from_nanos(due - SPIN_NS - now));
        }
        while now_ns() < due {
            std::hint::spin_loop();
        }
        lateness.record(due.max(free_ns), now_ns());
        let probe = q.pending();
        for j in 0..per_tick {
            // Every fifth exchange is a probe while a publication is pending.
            let p = probe.as_ref().filter(|_| j % 5 == 0);
            if let Some((from, t1)) = q.exchange(p, due + j * slot_ns) {
                latency.push(t1, t1 - from);
                ops += 1;
            }
        }
        free_ns = now_ns();
        tick += 1;
    }
    QueryOut {
        start_ns: start,
        end_ns: now_ns(),
        ops,
        usage: Usage::now().since(&usage0),
        latency,
        lateness,
        counts: q.counts,
        stamps: q.stamps.take().map(StampBuf::into_vec).unwrap_or_default(),
    }
}

/// Runs `f` on a short-lived thread pinned to CPU 0: a shard thread
/// inherits the affinity of the thread that spawns it.
fn on_cpu0<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| {
            harness::pin_thread(Placement::Together);
            f()
        })
        .join()
        .expect("pinned thread")
    })
}

/// One live pass: server up, both threads running, server down.
struct Live {
    out: QueryOut,
    cycles: Vec<Cycle>,
    lost_updates: u64,
    seen: Vec<(u64, u64)>,
    tap: Option<Arc<ServerTap>>,
    /// Largest drop of the shard's 100-ms hit ratio below its median.
    hit_dip: f64,
    /// The shard's cache counters at shutdown.
    cache: AnswerCacheStats,
}

#[allow(clippy::too_many_arguments)]
fn live(
    world: &mut World,
    templates: &Templates,
    victims: &[Victim],
    seed: u64,
    paper: bool,
    traced: bool,
    secs: f64,
    first_cycle: u64,
) -> Live {
    let snapshots = SnapshotHandle::new(world.map.clone_for_publish());
    let (transports, connector) = channel_transports(1);
    let cfg = ServerConfig::new(world.low_ip());
    let (server, tap) = if traced {
        let registry = Arc::new(Registry::new());
        let ring = Arc::new(TraceRing::new(1 << 12));
        let tap = ServerTap::new(STAMP_MASK);
        let wrapped: Vec<_> = transports
            .into_iter()
            .map(|t| TracedServer::new(t, tap.clone()))
            .collect();
        let cfg = cfg.with_telemetry(TelemetryConfig::metrics(registry).with_trace(ring, 64));
        (
            on_cpu0(|| AuthServer::spawn(wrapped, snapshots.clone(), cfg)),
            Some(tap),
        )
    } else {
        (
            on_cpu0(|| AuthServer::spawn(transports, snapshots.clone(), cfg)),
            None,
        )
    };

    let stream = FixedSetStream::new(
        &world.net,
        templates.names(),
        shapes_count(paper),
        None,
        seed,
    );
    let by_block: HashMap<[u8; 3], Ipv4Addr> = world
        .net
        .blocks
        .iter()
        .map(|b| {
            let o = b.client_ip().octets();
            ([o[0], o[1], o[2]], world.net.resolver(b.primary_ldns()).ip)
        })
        .collect();
    let resolvers: Vec<Ipv4Addr> = stream
        .shapes()
        .iter()
        .map(|s| {
            s.block
                .and_then(|b| by_block.get(&b).copied())
                .unwrap_or(Ipv4Addr::LOCALHOST)
        })
        .collect();

    let shared = Shared::default();
    let low = world.low_ip();
    let counters = server.counters()[0].clone();
    let (out, (cycles, lost_updates), windows) = std::thread::scope(|s| {
        let shared = &shared;
        let snapshots = &snapshots;
        let ctl =
            s.spawn(move || control(world, snapshots, templates, victims, shared, first_cycle));
        let qry = s.spawn(move || {
            harness::pin_thread(Placement::Together);
            let mut q = Querier {
                world_low: low,
                templates,
                snapshots,
                shared,
                client: ChannelClient::new(connector),
                stream,
                resolvers,
                seq: 0,
                counts: Counts::default(),
                cur: snapshots.current(),
                prev: None,
                stamps: traced.then(|| StampBuf::with_capacity(1 << 18)),
            };
            // Every shape once: the measured phases start cache-resident.
            for _ in 0..2 * q.stream.shapes().len() {
                q.exchange(None, u64::MAX);
            }
            let out = query(&mut q, paper, secs);
            // relaxed-ok: lone stop flag; the join below synchronises
            shared.stop.store(true, Ordering::Relaxed);
            out
        });
        // The shard's hit ratio in 100-ms windows, sampled from outside.
        let mut windows = Vec::new();
        let mut last = (0u64, 0u64);
        while !qry.is_finished() {
            std::thread::sleep(Duration::from_millis(100));
            // relaxed-ok: monotonic statistics
            let now = (
                counters.queries.load(Ordering::Relaxed),
                counters.cache_hits.load(Ordering::Relaxed),
            );
            if now.0 > last.0 + 100 {
                windows.push((now.1 - last.1) as f64 / (now.0 - last.0) as f64);
            }
            last = now;
        }
        let out = qry.join().expect("query thread");
        (out, ctl.join().expect("control thread"), windows)
    });
    let report = server.stop_join().remove(0);
    let seen = std::mem::take(&mut *shared.seen.lock().expect("seen lock"));
    let base = median(&windows);
    let worst = windows.iter().copied().fold(base, f64::min);
    Live {
        out,
        cycles,
        lost_updates,
        seen,
        tap,
        hit_dip: base - worst,
        cache: report.cache,
    }
}

/// Flip → first new answer, per watched incremental cycle, ms; and
/// publish return → first new answer, µs.
fn visibility(l: &Live) -> (Vec<f64>, Vec<f64>) {
    let seen: HashMap<u64, u64> = l.seen.iter().copied().collect();
    let mut visible_ms = Vec::new();
    let mut observe_us = Vec::new();
    for c in l.cycles.iter().filter(|c| c.watched && !c.full) {
        if let Some(&t) = seen.get(&c.cycle) {
            visible_ms.push(t.saturating_sub(c.flip_ns) as f64 / 1e6);
            observe_us.push(t.saturating_sub(c.publish.1) as f64 / 1e3);
        }
    }
    (visible_ms, observe_us)
}

/// CPU the system (every thread but the query thread, which spins before
/// each tick) spent per verified answer, µs. Rebuilds included: they are
/// the workload.
fn cpu_us_per_op(o: &QueryOut) -> f64 {
    let u = &o.usage;
    (u.process_cpu_s - u.generator_cpu_s).max(0.0) * 1e6 / o.ops.max(1) as f64
}

fn cycle_problems(l: &Live, paper: bool, seconds: f64) -> Vec<String> {
    let mut problems = Vec::new();
    let incr = l.cycles.iter().filter(|c| !c.full).count();
    let full = l.cycles.iter().filter(|c| c.full).count();
    // At paper scale an incremental cycle takes ~60 ms and the full one
    // 1.8 s of the pass.
    let want_incr = (seconds * 4.0) as usize;
    if paper && (incr < want_incr || full != 1) {
        problems.push(format!(
            "{incr} incremental and {full} full publication cycles in {seconds} s"
        ));
    }
    if l.lost_updates > 0 {
        problems.push(format!(
            "{} publications never became visible",
            l.lost_updates
        ));
    }
    problems
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
    // Server spawn and the 2×shapes warm-up queries take milliseconds and
    // happen inside `live`; the set-up median covers world + map build.
    let (mut world, setup_s) = harness::median_setup(cfg, || World::build(cfg.scale), drop);
    let templates = Templates::build(&world.catalog);
    let victims = pick_victims(&world, templates.names(), cfg.seed);
    let l = live(
        &mut world,
        &templates,
        &victims,
        cfg.seed,
        paper,
        false,
        cfg.seconds,
        0,
    );
    let o = &l.out;
    let lat = o
        .latency
        .summarize(o.start_ns, latency_window_ns(rate(paper)));
    let (visible_ms, _) = visibility(&l);
    println!(
        "# cycles: {} incremental, {} full; update_visible_ms median {:.3} over {}; \
         late ticks {:.4} (max {} us); plain p99 {:.0} us",
        l.cycles.iter().filter(|c| !c.full).count(),
        l.cycles.iter().filter(|c| c.full).count(),
        median(&visible_ms),
        visible_ms.len(),
        o.lateness.late_share(),
        o.lateness.max_late_ns / 1000,
        lat.p99_all_us,
    );
    let mut m = Metrics::new();
    m.set("setup_s", setup_s, cfg.setup_reps() as u64);
    // The rate achieved against the fixed rate offered: every tick is
    // issued however late, so a system that falls behind stretches the
    // phase and this drops below the offered rate.
    m.set(
        "throughput_ops_s",
        o.ops as f64 * 1e9 / (o.end_ns - o.start_ns).max(1) as f64,
        o.ops,
    );
    m.set("lat_p50_us", lat.p50_us, lat.samples);
    // The median over windows, not the lower quartile the socket
    // workloads report: the tail here is a 1–2 % population of slow
    // hand-offs spread over every window, the window p99s range from 25
    // to 130 µs, and their lower quartile sits on the steep flank (spread
    // 0.19–0.34 over ten runs where the median's is 0.07). Host stalls
    // reach fewer than a quarter of these 50-ms windows.
    m.set("lat_p99_us", lat.p99_median_us, lat.samples);
    m.set("cpu_us_per_op", cpu_us_per_op(o), o.ops);
    m.set("peak_rss_mb", procfs::peak_rss_mb(), 1);
    let failed = o.counts.failed() + l.lost_updates;
    harness::verdict(
        cfg,
        Outcome {
            metrics: m,
            attempted: o.counts.attempted,
            failed,
            wrong: o.counts.wire_failures + o.counts.wrong_answers,
            fail_share: failed as f64 / o.counts.attempted.max(1) as f64,
            late_share: o.lateness.late_share(),
            problems: cycle_problems(&l, paper, cfg.seconds),
        },
    )
}

/// The exact counts of the control plane, which must not depend on
/// timing: the flips the live run makes (each victim killed, then revived)
/// replayed single-threaded against one `ShardState`, each followed by one
/// pass over every shape. Returns the mean units changed per delta and the
/// mean keyed evictions per update, over the updates replayed. `world`
/// ends where it started, every victim alive.
fn replay_exact_counts(
    world: &mut World,
    templates: &Templates,
    victims: &[Victim],
    shapes: &[Shape],
) -> (f64, f64, u64) {
    let low = world.low_ip();
    let resolver = Ipv4Addr::new(192, 0, 2, 53);
    let snapshots = SnapshotHandle::new(world.map.clone_for_publish());
    let mut reader = snapshots.reader();
    let mut state = ShardState::new(Some(CacheConfig::default()));
    let wires: Vec<Vec<u8>> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| templates.to_vec(*s, i as u16))
        .collect();
    let pass = |state: &mut ShardState, snap: &Snapshot| {
        for wire in &wires {
            let mut stages = QueryStages::new(false);
            state.serve(&snap.map, low, resolver, wire, ReplyCap::udp(), &mut stages);
        }
    };
    let snap = reader.snapshot().clone();
    state.observe(&snap);
    pass(&mut state, &snap);
    let evictions = |s: &ShardState| {
        s.cache()
            .expect("cache enabled")
            .stats()
            .keyed_invalidations
    };

    let updates = 2 * victims.len() as u64;
    let (mut delta_units, before) = (0, evictions(&state));
    for c in 0..updates {
        let v = &victims[(c / 2) as usize % victims.len()];
        world.cdn.set_cluster_alive(v.cluster, c % 2 == 1);
        let delta = world
            .map
            .rebuild_incremental(&world.net, &world.cdn, &RescoreHints::default());
        delta_units += delta.units_changed() as u64;
        snapshots.publish_delta(world.map.clone_for_publish(), delta);
        let snap = reader.snapshot().clone();
        state.observe(&snap);
        pass(&mut state, &snap);
    }
    let n = updates.max(1) as f64;
    (
        delta_units as f64 / n,
        (evictions(&state) - before) as f64 / n,
        updates,
    )
}

fn run_traced(cfg: &RunConfig) -> RunResult {
    let paper = cfg.paper();
    let mut world = World::build(cfg.scale);
    let templates = Templates::build(&world.catalog);
    let victims = pick_victims(&world, templates.names(), cfg.seed);
    let shapes = FixedSetStream::new(
        &world.net,
        templates.names(),
        shapes_count(paper),
        None,
        cfg.seed,
    )
    .shapes()
    .to_vec();
    let (delta_units, keyed_evictions, updates) =
        replay_exact_counts(&mut world, &templates, &victims, &shapes);

    // Reference pass (tracing off), then the traced pass, equally long so
    // the one full rebuild weighs the same in both.
    let pass_s = cfg.seconds / 2.0;
    let reference = live(
        &mut world, &templates, &victims, cfg.seed, paper, false, pass_s, 0,
    );
    let next_cycle = reference.cycles.last().map_or(0, |c| c.cycle + 1);
    // Start the traced pass on a kill cycle so every victim is alive.
    let next_cycle = next_cycle + next_cycle % 2;
    for v in &victims {
        world.cdn.set_cluster_alive(v.cluster, true);
    }
    world
        .map
        .rebuild_incremental(&world.net, &world.cdn, &RescoreHints::default());
    let l = live(
        &mut world, &templates, &victims, cfg.seed, paper, true, pass_s, next_cycle,
    );
    let tap = l.tap.clone().expect("traced pass has a tap");
    let server_stamps = tap.take_stamps();

    // Query-path spans, then one control-plane tree per cycle.
    let mut tree: Vec<Span> = Vec::new();
    spans::assemble("op", &l.out.stamps, &server_stamps, |_| None, &mut tree);
    let query_spans = tree.len();
    let seen: HashMap<u64, u64> = l.seen.iter().copied().collect();
    for c in &l.cycles {
        let end = seen.get(&c.cycle).copied().unwrap_or(c.publish.1);
        tree.push(Span {
            name: "control.update",
            start_ns: c.flip_ns,
            end_ns: end,
            parent: None,
            request: c.cycle as u32,
        });
        let root = tree.len() - 1;
        let rebuild = if c.full {
            "mapping.rebuild_full"
        } else {
            "mapping.rebuild_incr"
        };
        for (name, (a, b)) in [
            (rebuild, c.rebuild),
            ("mapping.clone_publish", c.clone),
            ("authd.publish", c.publish),
            ("authd.observe", (c.publish.1, end)),
        ] {
            if b > a {
                tree.push(Span {
                    name,
                    start_ns: a,
                    end_ns: b,
                    parent: Some(root),
                    request: c.cycle as u32,
                });
            }
        }
    }
    workloads::write_spans(cfg, &tree);

    let o = &l.out;
    let lat_window = latency_window_ns(rate(paper));
    let lat = o.latency.summarize(o.start_ns, lat_window);
    let ref_lat = reference
        .out
        .latency
        .summarize(reference.out.start_ns, lat_window);
    let (visible_ms, observe_us) = visibility(&l);
    let dur = |pick: &dyn Fn(&Cycle) -> Option<(u64, u64)>, unit: f64| -> Vec<f64> {
        l.cycles
            .iter()
            .filter_map(pick)
            .map(|(a, b)| (b - a) as f64 / unit)
            .collect()
    };
    let incr_ms = dur(&|c| (!c.full).then_some(c.rebuild), 1e6);
    let full_ms = dur(&|c| c.full.then_some(c.rebuild), 1e6);
    let clone_us = dur(&|c| Some(c.clone), 1e3);
    let publish_us = dur(&|c| Some(c.publish), 1e3);
    let exchange_us: Vec<f64> = o
        .stamps
        .iter()
        .map(|c| (c.recv_ns - c.send_start_ns) as f64 / 1e3)
        .collect();

    let mut m = Metrics::new();
    m.set("fail_share", 0.0, 0);
    m.set(
        "allocs_per_op",
        reference.out.usage.total_allocs as f64 / reference.out.ops.max(1) as f64,
        reference.out.ops,
    );
    for (name, values) in [
        ("update_visible_ms", &visible_ms),
        ("mapping.rebuild_incr_ms", &incr_ms),
        ("mapping.rebuild_full_ms", &full_ms),
        ("mapping.clone_publish_us", &clone_us),
        ("authd.publish_us", &publish_us),
        ("authd.observe_us", &observe_us),
        ("authd.channel_exchange_us", &exchange_us),
    ] {
        m.set(name, median(values), values.len() as u64);
    }
    m.set("mapping.delta_units", delta_units, updates);
    m.set("authd.keyed_evictions_per_update", keyed_evictions, updates);
    m.set("lat_p99_median_us", lat.p99_median_us, lat.samples);
    m.set("lat_p99_all_us", lat.p99_all_us, lat.samples);
    let cycles = l.cycles.len() as u64;
    m.set("authd.hit_dip", l.hit_dip, cycles);
    m.set(
        "authd.generation_clears",
        l.cache.generation_clears as f64,
        cycles,
    );
    m.set(
        "authd.cache_hit_ratio",
        l.cache.hits as f64 / (l.cache.hits + l.cache.misses).max(1) as f64,
        o.counts.ok,
    );
    set_server_span_metrics(&mut m, &tree[..query_spans]);
    let (recvs, datagrams, sends) = tap.counts();
    m.set(
        "net.recv_batch_fill",
        datagrams as f64 / recvs.max(1) as f64,
        recvs,
    );
    m.set(
        "net.syscalls_per_query",
        // Channel endpoints make no system calls on the data path.
        0.0,
        datagrams.max(sends),
    );
    m.set(
        "telemetry.overhead_share",
        cpu_us_per_op(o) / cpu_us_per_op(&reference.out).max(1e-9) - 1.0,
        o.ops,
    );
    m.set(
        "trace.overhead_share",
        lat.p50_us / ref_lat.p50_us.max(1e-9) - 1.0,
        lat.samples,
    );
    m.set(
        "trace.unexplained_share",
        spans::unexplained_share(&tree[..query_spans]),
        l.out.stamps.len() as u64,
    );
    m.set("gen.late_share", o.lateness.late_share(), o.lateness.sends);
    m.set(
        "gen.max_late_us",
        o.lateness.max_late_ns as f64 / 1e3,
        o.lateness.sends,
    );
    m.set(
        "gen.cpu_share",
        o.usage.generator_cpu_s / o.usage.process_cpu_s.max(1e-9),
        o.ops,
    );

    replay::run(
        &world,
        &templates,
        &shapes[..shapes.len().min(replay::input_count(cfg))],
        &mut m,
    );

    let mut problems = cycle_problems(&l, paper, pass_s);
    if tap.dropped() > 0 {
        problems.push(format!("{} server stamps dropped", tap.dropped()));
    }
    let c = o.counts;
    let r = reference.out.counts;
    let attempted = c.attempted + r.attempted;
    let failed = c.failed() + r.failed() + l.lost_updates + reference.lost_updates;
    workloads::finish_traced(
        cfg,
        Outcome {
            metrics: m,
            attempted,
            failed,
            wrong: c.wire_failures + c.wrong_answers + r.wire_failures + r.wrong_answers,
            fail_share: failed as f64 / attempted.max(1) as f64,
            late_share: o
                .lateness
                .late_share()
                .max(reference.out.lateness.late_share()),
            problems,
        },
        (
            c.timeouts + r.timeouts,
            c.wrong_answers + r.wrong_answers,
            0,
        ),
    )
}
