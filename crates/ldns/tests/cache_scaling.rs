//! Scaling guard: reaping and capacity eviction cost O(1) per entry.
//!
//! No test or benchmark drove [`ResolverCache::advance`] at size before
//! this one, which is how a `VecDeque::retain` per expired entry — O(live
//! entries) each — went unnoticed from PR 5 to PR 12. At these sizes that
//! code needs minutes; anything per-entry finishes in a fraction of a
//! second, so the wall bound is generous enough for a loaded debug run
//! and still fails a quadratic pass.

use eum_dns::{DnsName, RrType};
use eum_geo::Prefix;
use eum_ldns::{AnswerBody, CacheEntry, LdnsCacheConfig, ResolverCache};
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

const ENTRIES: u32 = 50_000;
const CAPACITY: usize = 16_384;
const WALL_BOUND: Duration = Duration::from_secs(20);

/// A positive entry scoped to the `i`-th /24 of 11.0.0.0/8.
fn scoped(i: u32, ttl_s: u32, now: Instant) -> (Prefix, CacheEntry) {
    let body = AnswerBody::Addresses(vec![Ipv4Addr::from(0xCB00_7100 | (i & 0xFF))]);
    (
        Prefix::new(0x0B00_0000 + (i << 8), 24),
        CacheEntry::new(body, 24, ttl_s, now),
    )
}

#[test]
fn reaping_and_eviction_stay_linear_in_entries_handled() {
    let started = Instant::now();
    let t0 = Instant::now();
    let qname: DnsName = "popular.cdn.example".parse().unwrap();

    // 50 000 entries with TTLs staggered over ~14 h (so all three wheel
    // levels hold some), reaped through advance in 97-second strides.
    let mut cache = ResolverCache::new(
        LdnsCacheConfig {
            max_entries: ENTRIES as usize,
            ..LdnsCacheConfig::default()
        },
        t0,
    );
    for i in 0..ENTRIES {
        let (block, entry) = scoped(i, 1 + i, t0);
        cache.insert(qname.clone(), RrType::A, Some(block), entry);
    }
    assert_eq!(cache.len(), ENTRIES as usize);
    let mut reaped = 0;
    for s in (0..=u64::from(ENTRIES) + 97).step_by(97) {
        reaped += cache.advance(t0 + Duration::from_secs(s));
        // Everything past its deadline's tick is gone, nothing else.
        assert_eq!(reaped, s.min(u64::from(ENTRIES)));
    }
    assert!(cache.is_empty());
    assert_eq!(cache.stats().expirations, u64::from(ENTRIES));
    assert_eq!(cache.stats().stale_drops + cache.stats().evictions, 0);

    // 50 000 more than fit, all long-lived: every insert past the bound
    // evicts the oldest entry.
    let mut cache = ResolverCache::new(
        LdnsCacheConfig {
            max_entries: CAPACITY,
            ..LdnsCacheConfig::default()
        },
        t0,
    );
    for i in 0..CAPACITY as u32 + ENTRIES {
        let (block, entry) = scoped(i, 86_400, t0);
        cache.insert(qname.clone(), RrType::A, Some(block), entry);
    }
    assert_eq!(cache.len(), CAPACITY);
    assert_eq!(cache.stats().evictions, u64::from(ENTRIES));
    // FIFO: exactly the newest CAPACITY blocks survive.
    let client = |i: u32| Ipv4Addr::from(0x0B00_0000 + (i << 8) + 1);
    assert!(cache
        .lookup(&qname, RrType::A, client(ENTRIES - 1), 24, t0)
        .is_none());
    assert!(cache
        .lookup(&qname, RrType::A, client(ENTRIES), 24, t0)
        .is_some());

    assert!(
        started.elapsed() < WALL_BOUND,
        "{ENTRIES} expiries and {ENTRIES} evictions took {:?}: something is O(live entries) again",
        started.elapsed()
    );
}
