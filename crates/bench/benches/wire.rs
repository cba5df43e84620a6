//! The zero-allocation serve path, measured: the `*_into` codec variants
//! against persistent buffers, the full cached-hit and cold-miss shard
//! paths through [`eum_authd::ShardState`], and the stride-8 geo lookup.
//!
//! The wire messages here match `dns_codec.rs` and the shard scenario
//! matches `authd.rs`, so numbers are directly comparable with the
//! allocating variants.

use criterion::{criterion_group, criterion_main, Criterion};
use eum_authd::{CacheConfig, QueryStages, ReplyCap, ServeOutcome, ShardState, SnapshotHandle};
use eum_bench::{tiny_internet, BENCH_SEED};
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::name::name;
use eum_dns::{
    decode_message_into, encode_message, encode_message_into, Message, Question, Rcode, Record,
};
use eum_mapping::{MappingConfig, MappingSystem};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn typical_response() -> Message {
    let ecs = EcsOption::query("93.184.216.34".parse().unwrap(), 24);
    let q = Message::query(
        0x1234,
        Question::a(name("e42.cdn.example")),
        Some(OptData::with_ecs(ecs)),
    );
    let mut r = Message::response_to(&q, Rcode::NoError);
    r.answers.push(Record::a(
        name("e42.cdn.example"),
        20,
        "96.7.1.1".parse().unwrap(),
    ));
    r.answers.push(Record::a(
        name("e42.cdn.example"),
        20,
        "96.7.1.2".parse().unwrap(),
    ));
    r.set_opt(OptData::with_ecs(EcsOption {
        addr: "93.184.216.0".parse().unwrap(),
        source_prefix: 24,
        scope_prefix: 20,
    }));
    r
}

/// The `*_into` codec against reused buffers — the shape the serve path
/// actually runs, vs the allocating wrappers in `dns_codec.rs`.
fn bench_codec_into(c: &mut Criterion) {
    let response = typical_response();
    let response_bytes = encode_message(&response);

    let mut out = Vec::with_capacity(512);
    c.bench_function("encode_a_response_into", |b| {
        b.iter(|| {
            encode_message_into(black_box(&response), &mut out);
            black_box(out.len())
        })
    });
    let mut scratch = Message::empty();
    c.bench_function("decode_a_response_into", |b| {
        b.iter(|| {
            decode_message_into(black_box(&response_bytes), &mut scratch).unwrap();
            black_box(scratch.answers.len())
        })
    });
}

fn world() -> (eum_netmodel::Internet, MappingSystem) {
    let mut net = tiny_internet();
    let sites = deployment_universe(BENCH_SEED, 16);
    let cdn = CdnPlatform::deploy(
        &mut net,
        &sites,
        &DeployConfig {
            servers_per_cluster: 4,
            cache_objects_per_server: 256,
            cluster_capacity: f64::INFINITY,
        },
    );
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(BENCH_SEED));
    let mapping = MappingSystem::build(
        &mut net,
        &cdn,
        &catalog,
        "cdn.example".parse().unwrap(),
        MappingConfig {
            max_ping_targets: 50,
            ..MappingConfig::default()
        },
    );
    (net, mapping)
}

/// The wire-format ECS query the shard benches serve.
fn ecs_query(client: Ipv4Addr) -> Vec<u8> {
    encode_message(&Message::query(
        7,
        Question::a("e0.cdn.example".parse().unwrap()),
        Some(OptData::with_ecs(EcsOption::query(client, 24))),
    ))
}

/// The full per-query shard path on a warm cache: decode into scratch,
/// scoped probe, memcpy + patch replay. This is the path the PR drives to
/// zero allocations.
fn bench_cached_hit(c: &mut Criterion) {
    let (net, mapping) = world();
    let client = net.blocks[0].client_ip();
    let resolver = net.resolvers[0].ip;
    let low = mapping.ns_ips()[1];
    let payload = ecs_query(client);
    let snapshots = SnapshotHandle::new(mapping);
    let snap = snapshots.current();

    let mut state = ShardState::new(Some(CacheConfig::default()));
    state.observe(&snap);
    // Warm: the first serve computes and inserts, the second must hit.
    let mut stages = QueryStages::new(false);
    state.serve(
        &snap.map,
        low,
        resolver,
        &payload,
        ReplyCap::udp(),
        &mut stages,
    );
    let warm = state.serve(
        &snap.map,
        low,
        resolver,
        &payload,
        ReplyCap::udp(),
        &mut stages,
    );
    assert_eq!(
        warm,
        ServeOutcome::Replied {
            cache_hit: true,
            truncated: false
        }
    );

    c.bench_function("authd_cached_hit_serve_path", |b| {
        b.iter(|| {
            let mut stages = QueryStages::new(false);
            let out = state.serve(
                &snap.map,
                low,
                resolver,
                black_box(&payload),
                ReplyCap::udp(),
                &mut stages,
            );
            debug_assert_eq!(
                out,
                ServeOutcome::Replied {
                    cache_hit: true,
                    truncated: false
                }
            );
            black_box(state.reply().len())
        })
    });
}

/// The same shard path with the cache disabled: decode into scratch,
/// route through the snapshot, encode into the reused reply buffer.
fn bench_cold_miss(c: &mut Criterion) {
    let (net, mapping) = world();
    let client = net.blocks[0].client_ip();
    let resolver = net.resolvers[0].ip;
    let low = mapping.ns_ips()[1];
    let payload = ecs_query(client);
    let snapshots = SnapshotHandle::new(mapping);
    let snap = snapshots.current();

    let mut state = ShardState::new(None);
    state.observe(&snap);
    c.bench_function("authd_cold_miss_serve_path", |b| {
        b.iter(|| {
            let mut stages = QueryStages::new(false);
            let out = state.serve(
                &snap.map,
                low,
                resolver,
                black_box(&payload),
                ReplyCap::udp(),
                &mut stages,
            );
            debug_assert_eq!(
                out,
                ServeOutcome::Replied {
                    cache_hit: false,
                    truncated: false
                }
            );
            black_box(state.reply().len())
        })
    });
}

/// LPM lookups against the jump-table trie, same table shape as the
/// pre-change baseline: /8 coarse routes, /16 mid, /24 leaves.
fn bench_geo_lookup(c: &mut Criterion) {
    use eum_geo::{Asn, Country, GeoDb, GeoInfo, GeoPoint, Prefix};
    let mut db = GeoDb::new();
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 32) as u32
    };
    for i in 0..20_000u32 {
        let addr = next();
        let len = match i % 10 {
            0 => 8,
            1..=3 => 16,
            _ => 24,
        };
        db.insert(
            Prefix::new(addr, len),
            GeoInfo {
                point: GeoPoint::new(0.0, 0.0),
                country: Country::UnitedStates,
                asn: Asn(i),
            },
        );
    }
    let probes: Vec<Ipv4Addr> = (0..1024).map(|_| Ipv4Addr::from(next())).collect();
    let mut i = 0usize;
    c.bench_function("geo_lookup", |b| {
        b.iter(|| {
            i = (i + 1) & 1023;
            black_box(db.lookup(black_box(probes[i])))
        })
    });
}

criterion_group!(
    benches,
    bench_codec_into,
    bench_cached_hit,
    bench_cold_miss,
    bench_geo_lookup
);
criterion_main!(benches);
