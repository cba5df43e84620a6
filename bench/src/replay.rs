//! Layer replay: the first inputs of the workload's own stream pushed
//! single-threaded through each crate's public functions, timed in
//! blocks of 1 024 calls so the timer is amortised to nothing. This is
//! each layer's cost *in isolation* (caches warm, no contention) — the
//! traced run's in-situ spans show what the same work costs in place,
//! and the difference is the cache-cold and contention share.

use crate::alloc::thread_allocs;
use crate::harness::RunConfig;
use crate::oracle;
use crate::report::Metrics;
use crate::stats::{median, now_ns};
use crate::stream::{Shape, ShapeStream, Templates};
use crate::world::World;
use eum_authd::{
    AnswerCache, AuthServer, CacheConfig, CachedAnswer, ClientTransport, QueryStages, ReplyCap,
    ServeOutcome, ServerConfig, ShardState, SnapshotHandle,
};
use eum_dns::{
    decode_message, decode_message_into, encode_message, encode_message_into, DnsName, Message,
    QueryContext, RrType,
};
use eum_geo::Prefix;
use eum_ldns::{
    AnswerBody, CacheEntry, EcsPolicy, Ldns, LdnsCacheConfig, LdnsConfig, ResolverCache, TimerWheel,
};
use eum_mapping::MappingSystem;
use eum_net::{SocketClient, TcpServerTransport};
use eum_telemetry::{Histogram, QueryTrace, TraceHop, TraceRing};
use std::hint::black_box;
use std::io;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Calls per timed block.
pub const BLOCK: usize = 1024;

/// How many inputs the replay takes from the head of a stream.
pub fn input_count(cfg: &RunConfig) -> usize {
    if cfg.paper() {
        100_000
    } else {
        4 * BLOCK
    }
}

/// The first [`input_count`] shapes of `stream`.
pub fn inputs_from_shapes(stream: &mut dyn ShapeStream, cfg: &RunConfig) -> Vec<Shape> {
    (0..input_count(cfg)).map(|_| stream.next_shape()).collect()
}

/// Per-call nanoseconds of each block, reduced to their median; the
/// first block (cold buffers, cold code) is left out when there are
/// others.
#[derive(Default)]
struct Blocks {
    per_call_ns: Vec<f64>,
    calls: u64,
}

impl Blocks {
    fn add(&mut self, elapsed_ns: u64, calls: usize) {
        if calls > 0 {
            self.per_call_ns.push(elapsed_ns as f64 / calls as f64);
            self.calls += calls as u64;
        }
    }

    fn steady(&self) -> &[f64] {
        match self.per_call_ns.len() {
            0 | 1 => &self.per_call_ns,
            _ => &self.per_call_ns[1..],
        }
    }

    fn set(&self, m: &mut Metrics, name: &str) {
        m.set(name, median(self.steady()), self.calls);
    }
}

fn timed(f: impl FnOnce()) -> u64 {
    let t = now_ns();
    f();
    now_ns() - t
}

/// An in-process `ClientTransport`: decodes the query, asks the map,
/// encodes the answer. Carries addressing faithfully, so a resolver can
/// walk top level → low level without sockets.
struct Loopback<'a> {
    map: &'a MappingSystem,
}

impl ClientTransport for Loopback<'_> {
    fn exchange(
        &mut self,
        _shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        _timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let q = decode_message(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))?;
        let ctx = QueryContext {
            resolver_ip,
            now_ms: 0,
        };
        Ok(encode_message(&self.map.answer(server_ip, &q, &ctx)))
    }

    fn num_shards(&self) -> usize {
        1
    }
}

/// Runs every replay and sets its metrics (plus the world's own
/// `mapping.build_s` / `mapping.units_total`).
pub fn run(world: &World, templates: &Templates, inputs: &[Shape], m: &mut Metrics) {
    m.set("mapping.build_s", world.map_build_s, 1);
    m.set("mapping.units_total", world.map.total_units() as f64, 1);
    let wires: Vec<Vec<u8>> = inputs
        .iter()
        .enumerate()
        .map(|(k, s)| templates.to_vec(*s, k as u16))
        .collect();
    codec_mapping_and_caches(world, inputs, &wires, m);
    shard_serve(world, &wires, m);
    ldns_layers(world, inputs, m);
    telemetry_primitives(m);
    tcp_exchange_sample(world, &wires, m);
}

/// dns codec, `MappingSystem::answer`, and authd's `AnswerCache`, one
/// block at a time so the block's decoded queries and computed responses
/// feed the next function.
fn codec_mapping_and_caches(world: &World, inputs: &[Shape], wires: &[Vec<u8>], m: &mut Metrics) {
    let low = world.low_ip();
    let resolver = Ipv4Addr::LOCALHOST;
    let ctx = QueryContext {
        resolver_ip: resolver,
        now_ms: 0,
    };
    let now = Instant::now();
    let mut queries: Vec<Message> = (0..BLOCK).map(|_| Message::empty()).collect();
    let mut responses: Vec<Message> = Vec::with_capacity(BLOCK);
    let mut reply_bytes: Vec<Vec<u8>> = (0..BLOCK).map(|_| Vec::with_capacity(512)).collect();
    let mut scratch = Message::empty();
    let mut qbuf = Vec::with_capacity(512);
    let mut cache = AnswerCache::new(CacheConfig::default());

    let (mut dec_q, mut enc_q, mut dec_r, mut enc_r): (Blocks, Blocks, Blocks, Blocks) =
        Default::default();
    let (mut answer, mut lookup, mut insert): (Blocks, Blocks, Blocks) = Default::default();
    let (mut dec_allocs, mut ans_allocs) = (Vec::new(), Vec::new());
    for (inp, block) in inputs.chunks(BLOCK).zip(wires.chunks(BLOCK)) {
        let n = block.len();
        let a0 = thread_allocs();
        let dt = timed(|| {
            for (w, q) in block.iter().zip(queries.iter_mut()) {
                decode_message_into(black_box(w), q).expect("generated query decodes");
            }
        });
        dec_allocs.push((thread_allocs() - a0) as f64 / n as f64);
        dec_q.add(dt, n);

        responses.clear();
        let a0 = thread_allocs();
        let dt = timed(|| {
            for q in &queries[..n] {
                responses.push(world.map.answer(low, black_box(q), &ctx));
            }
        });
        ans_allocs.push((thread_allocs() - a0) as f64 / n as f64);
        answer.add(dt, n);

        let dt = timed(|| {
            for (r, out) in responses.iter().zip(reply_bytes.iter_mut()) {
                encode_message_into(black_box(r), out);
            }
        });
        enc_r.add(dt, n);
        let dt = timed(|| {
            for bytes in &reply_bytes[..n] {
                decode_message_into(black_box(bytes), &mut scratch).expect("own encoding decodes");
            }
        });
        dec_r.add(dt, n);
        let dt = timed(|| {
            for q in &queries[..n] {
                encode_message_into(black_box(q), &mut qbuf);
            }
        });
        enc_q.add(dt, n);

        // AnswerCache: entries and keys are built outside the timer.
        let name_of = |q: &Message| -> DnsName { q.questions[0].name.clone() };
        let mut staged: Vec<(DnsName, Option<Prefix>, CachedAnswer)> = Vec::with_capacity(n);
        for ((shape, q), r) in inp.iter().zip(&queries[..n]).zip(&responses) {
            let ttl = r.min_answer_ttl().unwrap_or(1).max(1);
            let scope = r.ecs().map(|e| e.scope_prefix).filter(|s| *s > 0);
            let block = shape
                .client()
                .zip(scope)
                .map(|(client, scope)| Prefix::of(client, scope));
            staged.push((name_of(q), block, CachedAnswer::from_response(r, ttl, now)));
        }
        let dt = timed(|| {
            for (name, block, entry) in staged.drain(..) {
                match block {
                    Some(b) => cache.insert_scoped(name, RrType::A, b, entry),
                    None => cache.insert_resolver(name, RrType::A, resolver, low, entry),
                }
            }
        });
        insert.add(dt, n);
        let dt = timed(|| {
            for (shape, q) in inp.iter().zip(&queries[..n]) {
                let name = &q.questions[0].name;
                let hit = match shape.client() {
                    Some(c) => cache.lookup_scoped(name, RrType::A, c, 24, now).is_some(),
                    None => cache
                        .lookup_resolver(name, RrType::A, resolver, low, now)
                        .is_some(),
                };
                black_box(hit);
            }
        });
        lookup.add(dt, n);
    }
    let steady = |v: &[f64]| median(if v.len() > 1 { &v[1..] } else { v });
    dec_q.set(m, "dns.decode_query_ns");
    m.set("dns.decode_allocs", steady(&dec_allocs), dec_q.calls);
    enc_r.set(m, "dns.encode_response_ns");
    enc_q.set(m, "dns.encode_query_ns");
    dec_r.set(m, "dns.decode_response_ns");
    answer.set(m, "mapping.answer_ns");
    m.set("mapping.answer_allocs", steady(&ans_allocs), answer.calls);
    lookup.set(m, "authd.cache_lookup_ns");
    insert.set(m, "authd.cache_insert_ns");
}

/// `ShardState::serve`, hit and miss. Pass A serves every input against
/// an empty cache; pass B serves the last inputs again while they are
/// still resident. Blocks that came out all-hit or all-miss give the two
/// costs directly; when no block is pure (256 hot shapes miss only inside
/// the first block) the miss cost is what the mixed blocks spent beyond
/// their hits.
fn shard_serve(world: &World, wires: &[Vec<u8>], m: &mut Metrics) {
    let low = world.low_ip();
    let snapshots = SnapshotHandle::new(world.map.clone_for_publish());
    let mut reader = snapshots.reader();
    let mut state = ShardState::new(Some(CacheConfig::default()));
    let snap = reader.snapshot().clone();
    state.observe(&snap);

    // (elapsed ns, hits, misses) per block.
    let mut blocks: Vec<(u64, usize, usize)> = Vec::new();
    let resident = wires.len().min(CacheConfig::default().max_entries / 2);
    let passes = [wires, &wires[wires.len() - resident..]];
    for pass in passes {
        for block in pass.chunks(BLOCK) {
            let (mut hits, mut misses) = (0, 0);
            let dt = timed(|| {
                for w in block {
                    let mut stages = QueryStages::new(false);
                    let out = state.serve(
                        &snap.map,
                        low,
                        Ipv4Addr::LOCALHOST,
                        black_box(w),
                        ReplyCap::udp(),
                        &mut stages,
                    );
                    match out {
                        ServeOutcome::Replied {
                            cache_hit: true, ..
                        } => hits += 1,
                        _ => misses += 1,
                    }
                    black_box(state.reply());
                }
            });
            blocks.push((dt, hits, misses));
        }
    }
    let per_call = |pick: &dyn Fn(&(u64, usize, usize)) -> bool| -> Vec<f64> {
        blocks
            .iter()
            .filter(|b| pick(b))
            .map(|b| b.0 as f64 / (b.1 + b.2) as f64)
            .collect()
    };
    let hit_blocks = per_call(&|b| b.2 == 0 && b.1 > 0);
    let miss_blocks = per_call(&|b| b.1 == 0 && b.2 > 0);
    let hit_ns = median(&hit_blocks);
    let miss_ns = if miss_blocks.is_empty() {
        let mixed: Vec<f64> = blocks
            .iter()
            .filter(|b| b.1 > 0 && b.2 > 0)
            .map(|b| (b.0 as f64 - b.1 as f64 * hit_ns).max(0.0) / b.2 as f64)
            .collect();
        median(&mixed)
    } else {
        median(&miss_blocks)
    };
    let hits: usize = blocks.iter().map(|b| b.1).sum();
    let misses: usize = blocks.iter().map(|b| b.2).sum();
    m.set("authd.serve_hit_ns", hit_ns, hits as u64);
    m.set("authd.serve_miss_ns", miss_ns, misses as u64);
}

/// `ResolverCache::{insert, lookup}`, `TimerWheel`, and a cached
/// `Ldns::resolve` against the in-process loopback transport.
fn ldns_layers(world: &World, inputs: &[Shape], m: &mut Metrics) {
    let now = Instant::now();
    let names: Vec<DnsName> = world
        .catalog
        .domains
        .iter()
        .map(|d| d.cdn_name.clone())
        .collect();
    let client_of = |s: &Shape| s.client().unwrap_or(Ipv4Addr::new(192, 0, 2, 0));

    let mut cache = ResolverCache::new(LdnsCacheConfig::default(), now);
    let (mut insert, mut lookup, mut wheel_ns): (Blocks, Blocks, Blocks) = Default::default();
    let mut wheel: TimerWheel<u32> = TimerWheel::new(now);
    let mut expired = Vec::with_capacity(BLOCK);
    for (b, block) in inputs.chunks(BLOCK).enumerate() {
        let n = block.len();
        let mut staged: Vec<(DnsName, Option<Prefix>, CacheEntry)> = block
            .iter()
            .map(|s| {
                let scope = if s.block.is_some() { 20 } else { 0 };
                let body = AnswerBody::Addresses(vec![Ipv4Addr::new(10, 0, 0, 1); 2]);
                (
                    names[s.name as usize].clone(),
                    s.client().map(|c| Prefix::of(c, scope)),
                    CacheEntry::new(body, scope, 3600, now),
                )
            })
            .collect();
        let dt = timed(|| {
            for (name, scope_block, entry) in staged.drain(..) {
                cache.insert(name, RrType::A, scope_block, entry);
            }
        });
        insert.add(dt, n);
        let dt = timed(|| {
            for s in block {
                let prefix = if s.block.is_some() { 24 } else { 0 };
                let hit = cache
                    .lookup(
                        &names[s.name as usize],
                        RrType::A,
                        client_of(s),
                        prefix,
                        now,
                    )
                    .is_some();
                black_box(hit);
            }
        });
        lookup.add(dt, n);

        // Arm a block of deadlines spread over the next hour of this
        // block's own epoch, then advance past all of them.
        let base = now + Duration::from_secs(3600 * b as u64);
        let dt = timed(|| {
            for (i, _) in block.iter().enumerate() {
                wheel.insert(
                    base + Duration::from_secs(1 + (i as u64 * 7) % 3000),
                    i as u32,
                );
            }
            expired.clear();
            black_box(wheel.advance(base + Duration::from_secs(3599), &mut expired));
        });
        wheel_ns.add(dt, n);
    }
    insert.set(m, "ldns.cache_insert_ns");
    lookup.set(m, "ldns.cache_lookup_ns");
    wheel_ns.set(m, "ldns.wheel_ns");

    // A resolver that forwards ECS, filled by a first pass over each
    // block, timed on the second: every resolution is a cache hit.
    let mut ldns = Ldns::new(
        LdnsConfig::new(Ipv4Addr::new(198, 51, 100, 53), EcsPolicy::Always),
        now,
    );
    let mut transport = Loopback { map: &world.map };
    let top = world.map.top_level_ip();
    let mut resolve_hit = Blocks::default();
    for block in inputs.chunks(BLOCK).take(16) {
        for s in block {
            let name = &names[s.name as usize];
            ldns.resolve(&mut transport, 0, top, name, client_of(s), now);
        }
        let mut hits = 0usize;
        let dt = timed(|| {
            for s in block {
                let r = ldns.resolve(
                    &mut transport,
                    0,
                    top,
                    &names[s.name as usize],
                    client_of(s),
                    now,
                );
                hits += usize::from(r.from_cache);
                black_box(&r);
            }
        });
        if hits == block.len() {
            resolve_hit.add(dt, hits);
        }
    }
    resolve_hit.set(m, "ldns.resolve_hit_ns");
}

/// `Histogram::record` and `TraceRing::push`, the two primitives every
/// instrumented query pays.
fn telemetry_primitives(m: &mut Metrics) {
    let hist = Histogram::new();
    let ring = TraceRing::new(1 << 12);
    let trace = QueryTrace::blank(7, TraceHop::Authd);
    let (mut record, mut push): (Blocks, Blocks) = Default::default();
    for b in 0..32u64 {
        let dt = timed(|| {
            for i in 0..BLOCK as u64 {
                hist.record(black_box(100 + b * 37 + i));
            }
        });
        record.add(dt, BLOCK);
        let dt = timed(|| {
            for _ in 0..BLOCK {
                ring.push(black_box(&trace));
            }
        });
        push.add(dt, BLOCK);
    }
    record.set(m, "telemetry.hist_record_ns");
    push.set(m, "telemetry.trace_push_ns");
}

/// `net.tcp_exchange_us`: a fixed sample of one-at-a-time DNS-over-TCP
/// exchanges against `TcpServerTransport` (one connection each, as a
/// resolver retrying a truncated answer makes them). No workload serves
/// over TCP, so this sample is the metric's only source.
fn tcp_exchange_sample(world: &World, wires: &[Vec<u8>], m: &mut Metrics) {
    let sample = &wires[..wires.len().min(1000)];
    let low = world.low_ip();
    let tcp = TcpServerTransport::bind().expect("bind a loopback TCP listener");
    let addr = tcp.local_addr().expect("listener address");
    let snapshots = SnapshotHandle::new(world.map.clone_for_publish());
    let server = AuthServer::spawn(vec![tcp], snapshots, ServerConfig::new(low));
    let mut client =
        SocketClient::connect(vec![addr], vec![addr]).expect("bind the TCP sample's client");
    let mut us = Vec::with_capacity(sample.len());
    for w in sample {
        let t = now_ns();
        let r = client.exchange_stream(0, low, Ipv4Addr::LOCALHOST, w, Duration::from_secs(1));
        let dt = now_ns() - t;
        if r.is_ok_and(|reply| oracle::wire_ok(w, &reply)) {
            us.push(dt as f64 / 1e3);
        }
    }
    server.stop_join();
    m.set("net.tcp_exchange_us", median(&us), us.len() as u64);
}
