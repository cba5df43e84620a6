//! Proof of the serve path's allocation budget, hit and miss alike. A
//! counting `#[global_allocator]` makes each claim checkable: the
//! allocation count across thousands of serves must not move at all.
//!
//! * **Cached hits**: once a shard's buffers are warm, a cached-hit
//!   query — decode into the persistent scratch, scoped cache probe,
//!   memcpy-and-patch replay — touches the heap zero times, **with
//!   tracing on**: every counted serve also pushes a [`QueryTrace`] into
//!   a [`TraceRing`], as the sampled server loop does. Window capture
//!   ([`WindowCapturer::capture`]) allocates by design, so it runs
//!   outside the counted region — where the Reporter thread runs it in
//!   production.
//! * **Warm misses**: with the answer cache at its bound, a stream of
//!   distinct `(name, /24)` ECS misses — plus resolver-keyed and
//!   top-level-delegation ones — decides, evicts, renders into the
//!   recycled slot and replays, again with zero allocations; so does
//!   keyed invalidation after a delta publication.
//!
//! The counter is per thread (each `#[test]` runs on its own): libtest
//! harness threads allocate at unpredictable times, and their heap
//! traffic says nothing about the serve path.

use eum_authd::{CacheConfig, QueryStages, ReplyCap, ServeOutcome, ShardState, SnapshotHandle};
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{decode_message, encode_message, Message, Question, Rcode};
use eum_mapping::{MappingConfig, MappingSystem, RescoreHints};
use eum_netmodel::{Internet, InternetConfig};
use eum_telemetry::{QueryTrace, Registry, TraceHop, TraceOutcome, TraceRing, WindowCapturer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

const SEED: u64 = 0xA110C;

/// Counts every path into the heap, per thread; frees are uncounted (a
/// zero-alloc steady state cannot free what it never allocated).
struct CountingAlloc;

std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // try_with: allocator calls can outlive a thread's TLS (during
    // teardown); those are nobody's serve path.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by the calling thread so far.
fn allocs() -> u64 {
    ALLOCS.with(|n| n.get())
}

// SAFETY: every method forwards verbatim to the System allocator, so
// the GlobalAlloc contract is exactly System's; the counter increment
// touches only a const-initialized thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout contract as System::alloc; forwarded unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: caller upholds GlobalAlloc's contract; layout passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: same contract as System::dealloc; forwarded unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr was produced by the System forwards above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: same contract as System::realloc; forwarded unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: ptr/layout originate from this allocator's System forwards.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: same contract as System::alloc_zeroed; forwarded unchanged.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: caller upholds GlobalAlloc's contract; layout passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn world() -> (Internet, CdnPlatform, MappingSystem) {
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
    (net, cdn, map)
}

fn query(id: u16, client: Option<Ipv4Addr>) -> Vec<u8> {
    query_for(0, id, client)
}

fn query_for(domain: usize, id: u16, client: Option<Ipv4Addr>) -> Vec<u8> {
    encode_message(&Message::query(
        id,
        Question::a(format!("e{domain}.cdn.example").parse().unwrap()),
        client.map(|c| OptData::with_ecs(EcsOption::query(c, 24))),
    ))
}

#[test]
fn cached_hits_do_not_allocate() {
    let (net, _cdn, mapping) = world();
    let client = net.blocks[0].client_ip();
    let resolver = net.resolvers[0].ip;
    let low = mapping.ns_ips()[1];
    let ecs_payload = query(7, Some(client));
    let plain_payload = query(8, None);
    let snapshots = SnapshotHandle::new(mapping);
    let snap = snapshots.current();

    let mut state = ShardState::new(Some(CacheConfig::default()));
    state.observe(&snap);

    // The observability plane, live during the counted loop: a trace
    // ring fed per serve, and a registry the capturer snapshots outside
    // the counted region.
    let registry = Arc::new(Registry::new());
    let ring = TraceRing::new(1 << 8);
    let capturer = WindowCapturer::new(registry.clone(), 16);

    // Warm-up: first serve of each shape computes and inserts; replays
    // after that settle every buffer's capacity.
    for payload in [&ecs_payload, &plain_payload] {
        let mut stages = QueryStages::new(false);
        let first = state.serve(
            &snap.map,
            low,
            resolver,
            payload,
            ReplyCap::udp(),
            &mut stages,
        );
        assert_eq!(
            first,
            ServeOutcome::Replied {
                cache_hit: false,
                truncated: false
            }
        );
        let again = state.serve(
            &snap.map,
            low,
            resolver,
            payload,
            ReplyCap::udp(),
            &mut stages,
        );
        assert_eq!(
            again,
            ServeOutcome::Replied {
                cache_hit: true,
                truncated: false
            }
        );
    }
    // Sanity: the replayed reply is a well-formed answer for the query,
    // and its TTLs were patched to the remaining lifetime — present and
    // no larger than the catalog's configured record TTLs.
    let replayed = decode_message(state.reply()).expect("replay decodes");
    assert_eq!(replayed.id, 8);
    assert_eq!(replayed.flags.rcode, Rcode::NoError);
    assert!(!replayed.answer_ips().is_empty());
    let max_ttl = replayed.answers.iter().map(|r| r.ttl).max().unwrap_or(0);
    assert!(
        (1..=86_400).contains(&max_ttl),
        "replayed TTLs must be live remaining values, got {max_ttl}"
    );

    capturer.capture();
    let before = allocs();
    for round in 0..2_000u32 {
        for payload in [&ecs_payload, &plain_payload] {
            let mut stages = QueryStages::new(false);
            let out = state.serve(
                &snap.map,
                low,
                resolver,
                payload,
                ReplyCap::udp(),
                &mut stages,
            );
            assert_eq!(
                out,
                ServeOutcome::Replied {
                    cache_hit: true,
                    truncated: false
                }
            );
            assert!(!state.reply().is_empty());
            // The sampled trace push the batched loop performs per hit.
            ring.push(&QueryTrace {
                outcome: TraceOutcome::CacheHit,
                ..QueryTrace::blank(round + 1, TraceHop::Authd)
            });
        }
        // Interleave a malformed datagram: the FORMERR path must be
        // allocation-free too.
        if round % 64 == 0 {
            let mut stages = QueryStages::new(false);
            let garbage = [0u8; 16];
            let out = state.serve(
                &snap.map,
                low,
                resolver,
                &garbage,
                ReplyCap::udp(),
                &mut stages,
            );
            assert_eq!(out, ServeOutcome::FormErr);
        }
    }
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "cached-hit serve path allocated {delta} times over 4000 hits"
    );

    // Off the counted path, capture still works and traces landed.
    capturer.capture();
    assert!(!capturer.windows().is_empty());
    assert!(!ring.dump().is_empty(), "counted serves pushed no traces");
}

/// One query of the miss stream: where it arrives, from whom, its bytes.
struct Miss {
    server: Ipv4Addr,
    resolver: Ipv4Addr,
    payload: Vec<u8>,
}

#[test]
fn warm_misses_do_not_allocate() {
    const MAX_ENTRIES: usize = 64;
    let (net, mut cdn, mut mapping) = world();
    let low = mapping.ns_ips()[1];
    let top = mapping.top_level_ip();
    let known = net.resolvers[0].ip;

    // 6 × MAX_ENTRIES queries, every one a different cache key: distinct
    // (name, /24) ECS pairs at a low level, with every eighth a non-ECS
    // query from a resolver of its own and every sixteenth a top-level
    // delegation for one. Cycled, each key comes back long after the
    // 64-entry FIFO has evicted it.
    let blocks: Vec<Ipv4Addr> = net.blocks.iter().map(|b| b.client_ip()).collect();
    let stream: Vec<Miss> = (0..6 * MAX_ENTRIES)
        .map(|i| {
            let id = i as u16;
            let own_resolver = Ipv4Addr::new(198, 18, (i >> 8) as u8, i as u8);
            let domain = (i / blocks.len()) % 12;
            if i % 16 == 0 {
                Miss {
                    server: top,
                    resolver: own_resolver,
                    payload: query_for(domain, id, None),
                }
            } else if i % 8 == 0 {
                Miss {
                    server: low,
                    resolver: own_resolver,
                    payload: query_for(domain, id, None),
                }
            } else {
                Miss {
                    server: low,
                    resolver: known,
                    payload: query_for(domain, id, Some(blocks[i % blocks.len()])),
                }
            }
        })
        .collect();
    assert!(
        blocks.len() * 12 >= stream.len(),
        "{} blocks are too few for distinct (name, block) pairs",
        blocks.len()
    );

    let snapshots = SnapshotHandle::new(mapping.clone_for_publish());
    let mut state = ShardState::new(Some(CacheConfig {
        max_entries: MAX_ENTRIES,
        ..CacheConfig::default()
    }));
    state.observe(&snapshots.current());

    // Serves `queries` in order; returns (misses, allocations).
    let pass = |state: &mut ShardState, snap: &eum_authd::Snapshot, queries: &[Miss]| {
        let before = allocs();
        let mut misses = 0;
        for m in queries {
            let mut stages = QueryStages::new(false);
            let out = state.serve(
                &snap.map,
                m.server,
                m.resolver,
                &m.payload,
                ReplyCap::udp(),
                &mut stages,
            );
            match out {
                ServeOutcome::Replied { cache_hit, .. } => misses += usize::from(!cache_hit),
                other => panic!("stream query was not answered: {other:?}"),
            }
        }
        (misses, allocs() - before)
    };

    // Warm-up: the first pass touches every slot for the first time, the
    // later ones let every slot's buffers meet the largest answer they
    // recycle into.
    let snap = snapshots.current();
    for _ in 0..3 {
        pass(&mut state, &snap, &stream);
    }
    let stats = state.cache().unwrap().stats();
    assert_eq!(
        state.cache().unwrap().len(),
        MAX_ENTRIES,
        "cache at its bound"
    );
    let (misses, allocated) = pass(&mut state, &snap, &stream);
    assert!(
        misses >= 4 * MAX_ENTRIES,
        "only {misses} of {} stream queries missed",
        stream.len()
    );
    let after = state.cache().unwrap().stats();
    assert!(after.evictions - stats.evictions >= misses as u64 - 64);
    assert!(after.scoped_insertions > stats.scoped_insertions);
    assert!(
        after.insertions - stats.insertions > after.scoped_insertions - stats.scoped_insertions
    );
    assert_eq!(
        allocated, 0,
        "warm miss path allocated {allocated} times over {misses} misses"
    );

    // Keyed invalidation: a cluster dies, the map is rebuilt
    // incrementally and published with its delta. Observing it is the
    // control plane's business (uncounted); re-serving the stream's tail
    // — resident until now — is the data plane's: entries the delta
    // names are dropped, recomputed and refilled into the slot just
    // freed, the rest replay, and nothing allocates.
    let resident = &stream[stream.len() - MAX_ENTRIES..];
    assert_eq!(
        pass(&mut state, &snap, resident).0,
        0,
        "the tail is resident"
    );
    let last_block = net.blocks[(stream.len() - 1) % blocks.len()].prefix;
    let victim = mapping
        .assigned_cluster_for_block(last_block)
        .expect("a generated block is mapped");
    cdn.set_cluster_alive(victim, false);
    let delta = mapping.rebuild_incremental(&net, &cdn, &RescoreHints::default());
    assert!(!delta.is_full() && !delta.is_empty());
    snapshots.publish_delta(mapping.clone_for_publish(), delta);
    let snap = snapshots.current();
    state.observe(&snap);
    let (recomputed, allocated) = pass(&mut state, &snap, resident);
    let churned = state.cache().unwrap().stats();
    assert_eq!(churned.generation_clears, 0, "the delta must stay keyed");
    assert!(churned.keyed_invalidations > 0 && recomputed > 0);
    assert_eq!(
        churned.keyed_invalidations, recomputed as u64,
        "every recomputed answer was a keyed invalidation"
    );
    assert_eq!(
        allocated, 0,
        "keyed invalidation allocated {allocated} times over {recomputed} entries"
    );
}
