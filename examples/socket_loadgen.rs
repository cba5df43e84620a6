//! Multi-process closed-loop load generation over real kernel sockets:
//! the `SO_REUSEPORT` + `recvmmsg`/`sendmmsg` batched transport,
//! measured from separate client *processes* so the generator never
//! shares an allocator, a scheduler run-queue decision, or a libc lock
//! with the server it is measuring.
//!
//!     cargo run --release --example socket_loadgen                   # full-size run
//!     cargo run --release --example socket_loadgen -- --smoke        # tiny CI check
//!     cargo run --release --example socket_loadgen -- --scrape-smoke # live /metrics check
//!
//! The parent builds the seeded world, spawns the authoritative server
//! in-process (batched shards sharing one UDP port), then re-executes
//! itself with `--worker`: each worker rebuilds the same deterministic
//! world and drives a *windowed* closed loop — `window` sockets each
//! keep one query in flight, so the shard sockets queue multi-datagram
//! bursts and `recvmmsg` has real batches to harvest (a strict
//! one-in-flight loop never forms a batch and measures only scheduler
//! noise). Every reply is checked (matching ID, response bit) and every
//! 16th fully decoded and verified (NOERROR, at least one A answer) so
//! client-side decode cost does not drown the server-side cost being
//! measured; each worker prints one machine-readable line and the
//! parent aggregates them into one `RESULT` line. The numbers of record
//! come from `bench/` (`auth_hot`, `auth_miss`); this is the smoke that
//! proves the multi-process socket path end to end.

use eum_authd::{AuthServer, ServerConfig, SnapshotHandle, TelemetryConfig};
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{decode_message, encode_message, Message, Question, Rcode};
use eum_mapping::{MappingConfig, MappingSystem};
use eum_net::{BatchConfig, ReuseportUdpTransport, ScrapeServer};
use eum_netmodel::{Internet, InternetConfig};
use eum_telemetry::{Registry, TraceRing, WindowCapturer};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, TcpStream, UdpSocket};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0x10AD6;
const SHARDS: usize = 2;
const WORKERS: usize = 2;

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

/// Run sizes: (queries per worker, in-flight window per worker).
fn sizes(smoke: bool) -> (usize, usize) {
    if smoke {
        (200, 4)
    } else {
        (8_000, 32)
    }
}

// ---------------------------------------------------------------- worker

/// The fixed per-worker probe set: ECS queries across client blocks plus
/// plain (no-ECS) queries, over the catalog's hosted names.
fn probe_set(net: &Internet, catalog: &ContentCatalog, worker: u64) -> Vec<Vec<u8>> {
    let mut probes = Vec::new();
    for (i, block) in net
        .blocks
        .iter()
        .skip(worker as usize * 7)
        .take(12)
        .enumerate()
    {
        let domain = &catalog.domains[(worker as usize + i) % catalog.domains.len()];
        let opt = (i % 8 != 0).then(|| OptData::with_ecs(EcsOption::query(block.client_ip(), 24)));
        // The ID is patched per send; 0 here.
        let q = Message::query(0, Question::a(domain.cdn_name.clone()), opt);
        probes.push(encode_message(&q));
    }
    probes
}

/// `--worker <addrs_csv> <queries> <window> <worker_idx>`: drive a
/// windowed closed loop against the addresses and print one
/// `ok=... p99_us=...` line.
fn worker_main(args: &[String]) {
    let addrs: Vec<SocketAddr> = args[0]
        .split(',')
        .map(|a| a.parse().expect("worker: bad socket address"))
        .collect();
    let queries: usize = args[1].parse().expect("worker: bad query count");
    let window: usize = args[2].parse().expect("worker: bad window");
    let idx: u64 = args[3].parse().expect("worker: bad worker index");

    let (net, catalog, _map) = world();
    let probes = probe_set(&net, &catalog, idx);

    // One socket per window slot: each keeps exactly one query in
    // flight, so `window` datagrams are queued server-side at any time.
    let sockets: Vec<UdpSocket> = (0..window)
        .map(|i| {
            let s = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("worker: bind socket");
            s.connect(addrs[i % addrs.len()])
                .expect("worker: connect socket");
            s.set_read_timeout(Some(Duration::from_secs(2)))
                .expect("worker: timeout");
            s
        })
        .collect();

    let mut payload = vec![0u8; 512];
    let mut rbuf = vec![0u8; 4096];
    let mut pending: Vec<(u16, Instant)> = vec![(0, Instant::now()); window];
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(queries);
    let (mut sent, mut ok, mut err, mut bad) = (0usize, 0u64, 0u64, 0u64);
    let start = Instant::now();
    while sent < queries {
        let burst = window.min(queries - sent);
        // Fill the window: one send per socket, each with a fresh ID.
        for (slot, sock) in sockets.iter().enumerate().take(burst) {
            let probe = &probes[(sent + slot) % probes.len()];
            let id = (sent + slot) as u16;
            payload.clear();
            payload.extend_from_slice(probe);
            payload[0] = (id >> 8) as u8;
            payload[1] = (id & 0xff) as u8;
            pending[slot] = (id, Instant::now());
            sock.send(&payload).expect("worker: send");
        }
        // Drain it: every socket gets back exactly its own reply.
        for (slot, sock) in sockets.iter().enumerate().take(burst) {
            match sock.recv(&mut rbuf) {
                Ok(n) => {
                    let (id, t_send) = pending[slot];
                    // Cheap wire check on every reply; full decode +
                    // verification on a 1-in-16 sample.
                    let id_ok = n >= 12
                        && rbuf[0] == (id >> 8) as u8
                        && rbuf[1] == (id & 0xff) as u8
                        && rbuf[2] & 0x80 != 0;
                    let good = id_ok
                        && ((sent + slot) % 16 != 0
                            || decode_message(&rbuf[..n]).is_ok_and(|resp| {
                                resp.flags.rcode == Rcode::NoError && !resp.answer_ips().is_empty()
                            }));
                    if good {
                        ok += 1;
                        latencies_ns.push(t_send.elapsed().as_nanos() as u64);
                    } else {
                        bad += 1;
                    }
                }
                Err(_) => err += 1,
            }
        }
        sent += burst;
    }
    let elapsed = start.elapsed();

    latencies_ns.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if latencies_ns.is_empty() {
            return 0.0;
        }
        let i = ((latencies_ns.len() - 1) as f64 * q).round() as usize;
        latencies_ns[i] as f64 / 1_000.0
    };
    println!(
        "ok={ok} err={err} bad={bad} elapsed_s={:.6} p50_us={:.1} p99_us={:.1}",
        elapsed.as_secs_f64(),
        quantile(0.50),
        quantile(0.99),
    );
}

// ---------------------------------------------------------------- parent

/// One worker process's parsed result line.
struct WorkerResult {
    ok: u64,
    err: u64,
    bad: u64,
    elapsed_s: f64,
    p50_us: f64,
    p99_us: f64,
}

fn field(line: &str, key: &str) -> f64 {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
        .unwrap_or_else(|| panic!("worker line missing `{key}`: {line}"))
        .parse()
        .unwrap_or_else(|_| panic!("worker line has non-numeric `{key}`: {line}"))
}

fn parse_worker_line(line: &str) -> WorkerResult {
    WorkerResult {
        ok: field(line, "ok") as u64,
        err: field(line, "err") as u64,
        bad: field(line, "bad") as u64,
        elapsed_s: field(line, "elapsed_s"),
        p50_us: field(line, "p50_us"),
        p99_us: field(line, "p99_us"),
    }
}

/// Spawns `WORKERS` copies of this binary in `--worker` mode and collects
/// their result lines (workers run concurrently; stdout is read after
/// exit, so a line is either complete or the whole run fails loudly).
fn run_workers(addrs: &[SocketAddr], queries: usize, window: usize) -> Vec<WorkerResult> {
    let exe = std::env::current_exe().expect("current_exe");
    let csv = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let children: Vec<_> = (0..WORKERS)
        .map(|idx| {
            Command::new(&exe)
                .arg("--worker")
                .arg(&csv)
                .arg(queries.to_string())
                .arg(window.to_string())
                .arg(idx.to_string())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn worker process")
        })
        .collect();
    children
        .into_iter()
        .map(|mut child| {
            let mut out = String::new();
            child
                .stdout
                .take()
                .expect("worker stdout")
                .read_to_string(&mut out)
                .expect("read worker stdout");
            let status = child.wait().expect("wait for worker");
            assert!(status.success(), "worker exited with {status}");
            parse_worker_line(out.lines().last().expect("worker printed no result"))
        })
        .collect()
}

/// The plain run: spawn the batched server, run the worker fleet,
/// aggregate, print the `RESULT` line.
fn run_load(smoke: bool) {
    let (queries, window) = sizes(smoke);
    println!(
        "socket loadgen: {WORKERS} worker processes x {queries} queries \
         (window {window}), {SHARDS} server shards{}",
        if smoke { " (smoke)" } else { "" }
    );
    let (_, _, map) = world();
    let low = map.ns_ips()[1];
    let (transports, addrs) = ReuseportUdpTransport::bind_shards(SHARDS, &BatchConfig::default())
        .expect("bind reuseport shards");
    let server =
        AuthServer::spawn_batched(transports, SnapshotHandle::new(map), ServerConfig::new(low));

    let results = run_workers(&addrs, queries, window);
    let reports = server.stop_join();

    let ok: u64 = results.iter().map(|r| r.ok).sum();
    let err: u64 = results.iter().map(|r| r.err).sum();
    let bad: u64 = results.iter().map(|r| r.bad).sum();
    // Workers run concurrently: wall-clock is the slowest worker, and the
    // fleet's throughput is total completions over that window.
    let elapsed = results.iter().map(|r| r.elapsed_s).fold(0.0, f64::max);
    let qps = ok as f64 / elapsed.max(1e-9);
    let p50 = if ok == 0 {
        0.0
    } else {
        results.iter().map(|r| r.p50_us * r.ok as f64).sum::<f64>() / ok as f64
    };
    let p99 = results.iter().map(|r| r.p99_us).fold(0.0, f64::max);
    let served: u64 = reports.iter().map(|r| r.queries).sum();

    let expected = (WORKERS * queries) as u64;
    assert_eq!(ok + err + bad, expected, "every exchange must be accounted");
    assert_eq!(bad, 0, "no response may fail verification");
    assert!(
        served >= ok,
        "the server must have served at least every verified exchange"
    );

    println!(
        "RESULT qps={qps:.0} p50_us={p50:.1} p99_us={p99:.1} ok={ok} err={err} bad={bad} \
         served={served} shards={SHARDS} workers={WORKERS} window={window}"
    );
}

// ---------------------------------------------------------- scrape smoke

/// One blocking HTTP/1.0 GET against the scrape endpoint; returns
/// (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect scrape endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("scrape read timeout");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: scrape\r\n\r\n").expect("send scrape request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read scrape response");
    let text = String::from_utf8(raw).expect("scrape response is utf-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("scrape response has a blank line");
    (
        head.lines().next().unwrap_or("").to_string(),
        body.to_string(),
    )
}

/// `--scrape-smoke`: run the batched server under smoke-sized load with
/// the full observability plane on — batch instruments, trace sampling,
/// a Reporter capturing windows, and a live [`ScrapeServer`] — and GET
/// the endpoints *while the load is running*. Prints `SCRAPE PASS` only
/// if every mid-run and post-run scrape checks out; `scripts/check.sh`
/// greps for that line.
fn run_scrape_smoke() {
    let (queries, window) = sizes(true);
    let (_, _, map) = world();
    let low = map.ns_ips()[1];

    let registry = Arc::new(Registry::new());
    let ring = Arc::new(TraceRing::new(1 << 12));
    let (mut transports, addrs) =
        ReuseportUdpTransport::bind_shards(SHARDS, &BatchConfig::default())
            .expect("bind reuseport shards");
    for (i, t) in transports.iter_mut().enumerate() {
        t.attach_metrics(&registry, i);
    }
    let cfg = ServerConfig::new(low)
        .with_telemetry(TelemetryConfig::metrics(registry.clone()).with_trace(ring.clone(), 16));
    let server = AuthServer::spawn_batched(transports, SnapshotHandle::new(map), cfg);

    let capturer = Arc::new(WindowCapturer::new(registry.clone(), 600));
    let reporter = WindowCapturer::start(capturer.clone(), Duration::from_millis(20));
    let scrape = ScrapeServer::spawn(
        SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
        registry.clone(),
        Some(capturer.clone()),
    )
    .expect("spawn scrape endpoint");
    println!("scrape endpoint: http://{}/metrics", scrape.addr());

    // Scrape concurrently with the load: every GET must come back 200
    // with parseable Prometheus text, no matter when it lands.
    let stop = Arc::new(AtomicBool::new(false));
    let mid_run_scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let stop = stop.clone();
        let n = mid_run_scrapes.clone();
        let addr = scrape.addr();
        std::thread::spawn(move || {
            // relaxed-ok: lone stop flag; the join below is the sync point
            while !stop.load(Ordering::Relaxed) {
                let (status, body) = http_get(addr, "/metrics");
                assert!(status.contains("200"), "mid-run scrape status: {status}");
                assert!(
                    body.contains("# TYPE eum_authd_queries_total counter"),
                    "mid-run scrape lost the query counter family"
                );
                // relaxed-ok: monotonic scrape counter read after join
                n.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let results = run_workers(&addrs, queries, window);
    stop.store(true, Ordering::SeqCst);
    scraper.join().expect("scraper thread");
    let ok: u64 = results.iter().map(|r| r.ok).sum();
    assert!(ok > 0, "load generated no verified exchanges");

    // Post-run: the counters saw the load, the windows carried it, and
    // the health/error routes behave.
    let (status, metrics) = http_get(scrape.addr(), "/metrics");
    assert!(status.contains("200"), "final /metrics status: {status}");
    for family in [
        "eum_authd_queries_total",
        "eum_net_recv_batch_fill",
        "eum_net_sendmmsg_partial_total",
        "eum_trace_sample_rate",
    ] {
        assert!(metrics.contains(family), "missing family {family}");
    }
    for line in metrics.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("metrics line has a value");
        value.parse::<f64>().expect("metrics value parses");
    }
    let (status, body) = http_get(scrape.addr(), "/healthz");
    assert!(status.contains("200") && body == "ok\n", "healthz broken");
    let (status, jsonl) = http_get(scrape.addr(), "/timeseries.jsonl");
    assert!(status.contains("200"), "timeseries status: {status}");
    let windows = jsonl.lines().count();
    assert!(windows >= 2, "reporter captured {windows} windows");
    let (status, _) = http_get(scrape.addr(), "/no-such-route");
    assert!(status.contains("404"), "unknown route status: {status}");

    reporter.stop();
    let reports = server.stop_join();
    scrape.stop_join();
    let served: u64 = reports.iter().map(|r| r.queries).sum();
    let traces = ring.dump().len();
    assert!(served >= ok, "server served fewer than verified exchanges");
    assert!(traces > 0, "trace sampling captured nothing");
    println!(
        "SCRAPE PASS mid_run_scrapes={} windows={windows} served={served} traces={traces}",
        mid_run_scrapes.load(Ordering::SeqCst)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--worker") {
        worker_main(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--scrape-smoke") {
        run_scrape_smoke();
        return;
    }
    run_load(args.first().map(String::as_str) == Some("--smoke"));
}
