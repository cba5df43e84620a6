//! The resolver side's allocation budget, proven with the counting
//! `#[global_allocator]` idiom of `crates/authd/tests/zero_alloc.rs`:
//!
//! * a warm [`ResolverCache::lookup`] and [`ResolverCache::advance`] —
//!   with nothing due and with entries due — never touch the heap;
//! * a warm cached [`Ldns::resolve`] allocates at most once (the
//!   `Resolved.ips` it returns);
//! * a miss allocates a fixed number of times: one reply `Vec` per
//!   upstream exchange (the transport trait's return type), the answer's
//!   addresses twice (once for the cache, once for the caller), and the
//!   glue address when the delegation had to be fetched too.
//!
//! This file holds exactly one `#[test]` on purpose, and the counter only
//! counts the test thread's own allocations: libtest harness threads
//! allocate at unpredictable times.

use eum_authd::ClientTransport;
use eum_dns::{encode_message, DnsName, Message, Question, RData, Rcode, Record, RrType};
use eum_geo::Prefix;
use eum_ldns::{
    AnswerBody, CacheEntry, EcsPolicy, Ldns, LdnsCacheConfig, LdnsConfig, ResolverCache,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static IS_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count_one() {
    // try_with: allocator calls can outlive a thread's TLS (during
    // teardown); treat those as not-the-test-thread.
    if IS_TEST_THREAD.try_with(|f| f.get()).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards verbatim to the System allocator, so
// the GlobalAlloc contract is exactly System's; the counter increment
// touches only an atomic and a const-initialized thread-local.
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

/// Heap entries the test thread makes while `f` runs.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

const TOP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const LOW: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 2);
const NAMES: usize = 8;

fn names() -> Vec<DnsName> {
    (0..NAMES)
        .map(|i| format!("e{i}.cdn.example").parse().unwrap())
        .collect()
}

/// The two-level hierarchy as pre-encoded replies: answering is a lookup
/// by the query's name bytes, an id patch and one `Vec` clone — the one
/// allocation the trait's return type costs per exchange.
struct CannedUpstream {
    /// Per name: its wire bytes, the top level's referral, the low
    /// level's answer.
    replies: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)>,
}

impl CannedUpstream {
    fn new(ns_ttl: u32, a_ttl: u32) -> CannedUpstream {
        let ns: DnsName = "ns1.cdn.example".parse().unwrap();
        let replies = names()
            .into_iter()
            .enumerate()
            .map(|(i, qname)| {
                let query = Message::query(0, Question::a(qname.clone()), None);
                let mut referral = Message::response_to(&query, Rcode::NoError);
                referral.authorities.push(Record {
                    name: qname.clone(),
                    ttl: ns_ttl,
                    rdata: RData::Ns(ns.clone()),
                });
                referral.additionals.push(Record {
                    name: ns.clone(),
                    ttl: ns_ttl,
                    rdata: RData::A(LOW),
                });
                let mut answer = Message::response_to(&query, Rcode::NoError);
                for host in [7, 8] {
                    answer.answers.push(Record {
                        name: qname.clone(),
                        ttl: a_ttl,
                        rdata: RData::A(Ipv4Addr::new(203, 0, 113 + i as u8, host)),
                    });
                }
                (
                    qname.wire().to_vec(),
                    encode_message(&referral),
                    encode_message(&answer),
                )
            })
            .collect();
        CannedUpstream { replies }
    }
}

impl ClientTransport for CannedUpstream {
    fn exchange(
        &mut self,
        _shard: usize,
        server_ip: Ipv4Addr,
        _resolver_ip: Ipv4Addr,
        payload: &[u8],
        _timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let (_, referral, answer) = self
            .replies
            .iter()
            .find(|(wire, _, _)| payload[12..].starts_with(wire))
            .expect("a query for one of the canned names");
        let mut reply = if server_ip == TOP { referral } else { answer }.clone();
        reply[..2].copy_from_slice(&payload[..2]);
        Ok(reply)
    }

    fn num_shards(&self) -> usize {
        1
    }
}

/// Resolves every name once at `now`; returns the allocations of each
/// resolution and how many upstream queries the round cost.
fn round(ldns: &mut Ldns, upstream: &mut CannedUpstream, now: Instant) -> (Vec<u64>, u32) {
    let mut per_resolve = Vec::with_capacity(NAMES);
    let mut queries = 0;
    for qname in &names() {
        let (n, r) =
            allocs_in(|| ldns.resolve(upstream, 0, TOP, qname, Ipv4Addr::new(10, 0, 0, 1), now));
        assert_eq!(r.rcode, Rcode::NoError);
        assert_eq!(r.ips.len(), 2);
        per_resolve.push(n);
        queries += r.upstream_queries;
    }
    (per_resolve, queries)
}

#[test]
fn resolver_side_allocation_budget() {
    IS_TEST_THREAD.with(|f| f.set(true));
    let t0 = Instant::now();
    let at = |s: u64| t0 + Duration::from_secs(s);
    let qname: DnsName = "popular.cdn.example".parse().unwrap();

    // ---- the cache alone ----
    let mut cache = ResolverCache::new(LdnsCacheConfig::default(), t0);
    let block = |i: u32| Prefix::new(0x0B00_0000 | (i << 8), 24);
    let fill = |cache: &mut ResolverCache, now: Instant, ttl_s: u32| {
        for i in 0..256u32 {
            let body = AnswerBody::Addresses(vec![Ipv4Addr::from(0xCB00_7100 | i)]);
            let entry = CacheEntry::new(body, 24, ttl_s, now);
            cache.insert(qname.clone(), RrType::A, Some(block(i)), entry);
        }
    };
    // A first generation that expires, so slab, index, wheel slots and
    // the drain buffer have all seen their working sizes.
    fill(&mut cache, t0, 20);
    assert_eq!(cache.advance(at(30)), 256);
    fill(&mut cache, at(256), 20);

    let (n, hits) = allocs_in(|| {
        let mut hits = 0;
        // 256 scoped hits, 256 misses that probe /24 and fall through.
        for i in 0..512u32 {
            let client = Ipv4Addr::from(0x0B00_0000 | (i << 8) | 9);
            hits += u32::from(
                cache
                    .lookup(&qname, RrType::A, client, 24, at(257))
                    .is_some(),
            );
        }
        hits
    });
    assert_eq!(hits, 256);
    assert_eq!(n, 0, "warm lookups must not allocate");

    let (n, reaped) = allocs_in(|| cache.advance(at(260)));
    assert_eq!((n, reaped), (0, 0), "an advance with nothing due");
    let (n, reaped) = allocs_in(|| cache.advance(at(256 + 30)));
    assert_eq!(
        (n, reaped),
        (0, 256),
        "an advance reaping a whole generation"
    );

    // ---- a resolver: cached hits, then misses with the delegation held ----
    let cfg = LdnsConfig::new(Ipv4Addr::new(192, 0, 2, 53), EcsPolicy::Off);
    let mut ldns = Ldns::new(cfg.clone(), t0);
    let mut upstream = CannedUpstream::new(86_400, 60);
    let (_, cold) = round(&mut ldns, &mut upstream, t0);
    assert_eq!(cold, 2 * NAMES as u32, "referral + answer per name");
    let (hits, none) = round(&mut ldns, &mut upstream, at(1));
    assert_eq!(none, 0);
    assert!(
        hits.iter().all(|&n| n <= 1),
        "a cached resolve allocates the returned ips at most: {hits:?}"
    );
    // A record TTL is 60 s: a round every 64 s finds every answer
    // expired and every delegation cached. Two wheel revolutions warm
    // every slot the deadlines land on.
    for r in 1..=8 {
        round(&mut ldns, &mut upstream, at(64 * r));
    }
    for r in 9..=12 {
        let (misses, queries) = round(&mut ldns, &mut upstream, at(64 * r));
        assert_eq!(queries, NAMES as u32, "one exchange per name");
        assert!(
            misses.iter().all(|&n| n == 3),
            "reply + ips for the cache + ips for the caller: {misses:?}"
        );
    }

    // ---- the full walk: delegation and answer both expired ----
    let mut ldns = Ldns::new(cfg, t0);
    let mut upstream = CannedUpstream::new(200, 60);
    for r in 0..=2 {
        round(&mut ldns, &mut upstream, at(256 * r));
    }
    for r in 3..=4 {
        let (misses, queries) = round(&mut ldns, &mut upstream, at(256 * r));
        assert_eq!(queries, 2 * NAMES as u32, "referral + answer per name");
        assert!(
            misses.iter().all(|&n| n == 5),
            "two replies + the glue + ips twice: {misses:?}"
        );
    }
    IS_TEST_THREAD.with(|f| f.set(false));
}
