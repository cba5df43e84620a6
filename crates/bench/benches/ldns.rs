//! Benchmarks for the resolver-side serve path: the ECS-partitioned
//! answer cache, the timer wheel under it, and a full cached `resolve`
//! through [`eum_ldns::Ldns`] — the per-downstream-query cost every
//! fleet replay pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eum_authd::ClientTransport;
use eum_dns::name::name;
use eum_dns::{decode_message, encode_message, Message, RData, Rcode, Record, RrType};
use eum_geo::Prefix;
use eum_ldns::{
    AnswerBody, CacheEntry, EcsPolicy, Ldns, LdnsCacheConfig, LdnsConfig, ResolverCache, TimerWheel,
};
use std::hint::black_box;
use std::io;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

const TOP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const LOW: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 2);

/// A /24-scoped positive entry whose block is derived from `i`.
fn scoped_entry(i: u32, now: Instant) -> (Prefix, CacheEntry) {
    scoped_entry_ttl(i, 3_600, now)
}

fn scoped_entry_ttl(i: u32, ttl_s: u32, now: Instant) -> (Prefix, CacheEntry) {
    let block = Prefix::new(0x0B00_0000 | (i << 8), 24);
    let entry = CacheEntry::new(
        AnswerBody::Addresses(vec![Ipv4Addr::from(0xCB00_7100 | i)]),
        24,
        ttl_s,
        now,
    );
    (block, entry)
}

/// A cache holding `n` distinct /24-scoped entries for one popular name —
/// the post-roll-out steady state for a hot (domain, LDNS) pair.
fn filled_cache(n: u32, now: Instant) -> ResolverCache {
    let mut c = ResolverCache::new(LdnsCacheConfig::default(), now);
    for i in 0..n {
        let (block, entry) = scoped_entry(i, now);
        c.insert(name("popular.cdn.example"), RrType::A, Some(block), entry);
    }
    c
}

fn bench_cache(c: &mut Criterion) {
    let t0 = Instant::now();
    let mut group = c.benchmark_group("ldns_cache_lookup");
    for entries in [64u32, 1_024, 16_384] {
        let mut cache = filled_cache(entries, t0);
        let client = Ipv4Addr::from(0x0B00_0000 | ((entries / 2) << 8) | 7);
        group.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| {
                cache
                    .lookup(
                        &name("popular.cdn.example"),
                        RrType::A,
                        black_box(client),
                        24,
                        t0,
                    )
                    .is_some()
            })
        });
    }
    group.finish();

    c.bench_function("ldns_cache_insert_scoped", |b| {
        let mut cache = filled_cache(1_024, t0);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let (block, entry) = scoped_entry(i % 4_096, t0);
            cache.insert(name("popular.cdn.example"), RrType::A, Some(block), entry)
        })
    });
}

/// One second of steady-state churn: insert an entry living `ttl_s`
/// seconds, move the clock one second, reap whatever came due.
struct Churn {
    cache: ResolverCache,
    t0: Instant,
    tick: u32,
    ttl_s: u32,
}

impl Churn {
    /// A cache bounded at `max_entries`, run for `warm` seconds so it
    /// sits at its steady-state size.
    fn warmed(max_entries: usize, ttl_s: u32, warm: u32) -> Churn {
        let t0 = Instant::now();
        let cfg = LdnsCacheConfig {
            max_entries,
            ..LdnsCacheConfig::default()
        };
        let mut churn = Churn {
            cache: ResolverCache::new(cfg, t0),
            t0,
            tick: 0,
            ttl_s,
        };
        for _ in 0..warm {
            churn.step();
        }
        churn
    }

    fn step(&mut self) -> u64 {
        self.tick += 1;
        let now = self.t0 + Duration::from_secs(u64::from(self.tick));
        // 2¹⁶ blocks: none recurs while an earlier use is still live.
        let (block, entry) = scoped_entry_ttl(self.tick % (1 << 16), self.ttl_s, now);
        self.cache
            .insert(name("popular.cdn.example"), RrType::A, Some(block), entry);
        self.cache.advance(now)
    }
}

fn bench_churn(c: &mut Criterion) {
    // TTL expiry at `live` resident entries: every step reaps exactly the
    // entry inserted `live` steps earlier. Per-entry reaping keeps the
    // two sizes level; a scan of the live set per expiry would not.
    let mut group = c.benchmark_group("ldns_cache_expire");
    for live in [1_024u32, 16_384] {
        let mut churn = Churn::warmed(usize::MAX, live, 2 * live);
        assert_eq!(churn.cache.len(), live as usize);
        group.bench_with_input(BenchmarkId::from_parameter(live), &live, |b, _| {
            b.iter(|| black_box(churn.step()))
        });
    }
    group.finish();

    // The capacity bound: day-long TTLs, so every step evicts the oldest
    // of 16 384 entries well before anything expires.
    c.bench_function("ldns_cache_evict_at_capacity", |b| {
        let mut churn = Churn::warmed(16_384, 86_400, 2 * 16_384);
        assert_eq!(churn.cache.len(), 16_384);
        assert!(churn.cache.stats().evictions >= 16_384);
        b.iter(|| black_box(churn.step()))
    });
}

fn bench_wheel(c: &mut Criterion) {
    // Steady state: every iteration arms one deadline 30 s out and moves
    // the cursor one second, reaping the entry armed 30 iterations ago —
    // the per-second cost of TTL churn at one expiry per second.
    c.bench_function("ldns_wheel_insert_advance_steady", |b| {
        let t0 = Instant::now();
        let mut wheel: TimerWheel<u64> = TimerWheel::new(t0);
        let mut scratch = Vec::new();
        let mut tick = 0u64;
        b.iter(|| {
            tick += 1;
            wheel.insert(t0 + Duration::from_secs(tick + 30), tick);
            scratch.clear();
            wheel.advance(t0 + Duration::from_secs(tick), &mut scratch);
            black_box(scratch.len())
        })
    });
    // One resolver of a fleet: 80 live entries with TTLs of one hour to
    // a day, and 160 s of virtual time between its resolutions (the
    // `fleet_e2e` average). Each iteration advances one resolution's
    // worth and re-arms what expired (about one entry in 40 iterations'
    // worth of ticks), so the cost is the idle time between deadlines.
    c.bench_function("ldns_wheel_advance_sparse", |b| {
        let t0 = Instant::now();
        let mut wheel: TimerWheel<u64> = TimerWheel::new(t0);
        let ttl = |i: u64| [3_600, 7_200, 14_400, 86_400][(i % 4) as usize];
        for i in 0..80 {
            wheel.insert(t0 + Duration::from_secs(ttl(i) + 37 * i), i);
        }
        let mut scratch = Vec::new();
        let mut now = 0u64;
        b.iter(|| {
            now += 160;
            scratch.clear();
            wheel.advance(t0 + Duration::from_secs(now), &mut scratch);
            for i in &scratch {
                wheel.insert(t0 + Duration::from_secs(now + ttl(*i)), *i);
            }
            black_box(scratch.len())
        })
    });
}

/// An upstream answering the two-level hierarchy from static tables: the
/// top level refers to `LOW` with glue, the low level answers one A.
struct StaticUpstream;

impl ClientTransport for StaticUpstream {
    fn exchange(
        &mut self,
        _shard: usize,
        server_ip: Ipv4Addr,
        _resolver_ip: Ipv4Addr,
        payload: &[u8],
        _timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let q = decode_message(payload).expect("well-formed query");
        let qname = q.questions[0].name.clone();
        let mut resp = Message::response_to(&q, Rcode::NoError);
        if server_ip == TOP {
            resp.authorities.push(Record {
                name: qname,
                ttl: 86_400,
                rdata: RData::Ns(name("ns1.cdn.example")),
            });
            resp.additionals.push(Record {
                name: name("ns1.cdn.example"),
                ttl: 86_400,
                rdata: RData::A(LOW),
            });
        } else {
            resp.answers.push(Record {
                name: qname,
                ttl: 3_600,
                rdata: RData::A(Ipv4Addr::new(203, 0, 113, 7)),
            });
        }
        Ok(encode_message(&resp))
    }

    fn num_shards(&self) -> usize {
        1
    }
}

fn bench_resolve(c: &mut Criterion) {
    // The downstream fast path: a warm resolver answering from cache
    // (delegation + answer both hit, zero upstream exchanges).
    c.bench_function("ldns_cached_resolve_hit", |b| {
        let t0 = Instant::now();
        let mut ldns = Ldns::new(
            LdnsConfig::new(Ipv4Addr::new(192, 0, 2, 53), EcsPolicy::Off),
            t0,
        );
        let mut upstream = StaticUpstream;
        let qname = name("e0.cdn.example");
        let client = Ipv4Addr::new(10, 0, 0, 1);
        let cold = ldns.resolve(&mut upstream, 0, TOP, &qname, client, t0);
        assert_eq!(cold.rcode, Rcode::NoError);
        assert_eq!(cold.upstream_queries, 2);
        b.iter(|| {
            let r = ldns.resolve(&mut upstream, 0, TOP, &qname, black_box(client), t0);
            debug_assert!(r.from_cache);
            black_box(r.ips.len())
        })
    });
}

criterion_group!(
    benches,
    bench_cache,
    bench_churn,
    bench_wheel,
    bench_resolve
);
criterion_main!(benches);
