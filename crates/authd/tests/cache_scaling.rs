//! Scaling guard: dropping an entry from the middle of the answer cache
//! — on expiry, or because a generation delta names it — costs the same
//! whether 4 K or 64 K entries are resident.
//!
//! Before the slab layout both removals ran `VecDeque::retain` over the
//! whole insertion order, so each cost O(live entries): 16× more at 64 K
//! than at 4 K, which no test or benchmark drove at size. The intrusive
//! FIFO unlinks in O(1); what is left to grow with the cache is the
//! memory hierarchy (a colder index probe): measured 1.1–1.6×, inside
//! the 2× this test allows. Each cost is the best of several rounds, so
//! a descheduled round cannot fail the comparison.

use eum_authd::{AnswerCache, CacheConfig, CachedAnswer};
use eum_dns::{DnsName, Message, Question, Rcode, Record, RrType};
use eum_geo::Prefix;
use eum_mapping::MapDelta;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Entries dropped (and timed) per round, from the oldest end.
const DROPPED: u32 = 2_048;
const ROUNDS: usize = 7;
/// Allowance for the one thing that does grow with the cache: the index
/// probe leaving the CPU caches. An O(live entries) removal overshoots it
/// by three orders of magnitude.
const COLD_PROBE_NS: f64 = 100.0;

fn qname() -> DnsName {
    "popular.cdn.example".parse().unwrap()
}

/// The `i`-th /24 of 11.0.0.0/8.
fn block(i: u32) -> Prefix {
    Prefix::new(0x0B00_0000 + (i << 8), 24)
}

fn client(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(block(i).addr() + 1)
}

/// A cache holding `resident` ten-second scoped answers captured at `t0`.
fn filled(resident: u32, t0: Instant) -> AnswerCache {
    let query = Message::query(0, Question::a(qname()), None);
    let mut resp = Message::response_to(&query, Rcode::NoError);
    resp.answers
        .push(Record::a(qname(), 10, Ipv4Addr::new(203, 0, 113, 1)));
    let answer = CachedAnswer::from_response(&resp, 10, t0);
    let mut cache = AnswerCache::new(CacheConfig {
        max_entries: resident as usize,
        ..CacheConfig::default()
    });
    for i in 0..resident {
        cache.insert_scoped(qname(), RrType::A, block(i), answer.clone());
    }
    assert_eq!(cache.len(), resident as usize);
    cache
}

/// Nanoseconds per lookup-that-removes over the first [`DROPPED`] blocks.
fn drop_cost(cache: &mut AnswerCache, now: Instant) -> f64 {
    let name = qname();
    let before = cache.len();
    let started = Instant::now();
    for i in 0..DROPPED {
        assert!(cache
            .lookup_scoped(&name, RrType::A, client(i), 24, now)
            .is_none());
    }
    let spent = started.elapsed();
    assert_eq!(
        cache.len(),
        before - DROPPED as usize,
        "every probe dropped its entry"
    );
    spent.as_nanos() as f64 / f64::from(DROPPED)
}

/// Best-of-[`ROUNDS`] per-entry cost of (expire-remove, keyed-invalidate)
/// with `resident` entries in the cache.
fn costs(resident: u32) -> (f64, f64) {
    let dirty: Vec<Prefix> = (0..DROPPED).map(block).collect();
    let delta = Arc::new(MapDelta::from_dirty(&dirty, &[]));
    let (mut expire, mut invalidate) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let mut cache = filled(resident, t0);
        expire = expire.min(drop_cost(&mut cache, t0 + Duration::from_secs(11)));
        assert_eq!(cache.stats().keyed_invalidations, 0);

        let mut cache = filled(resident, t0);
        cache.begin_generation(Some(&delta));
        invalidate = invalidate.min(drop_cost(&mut cache, t0));
        assert_eq!(cache.stats().keyed_invalidations, u64::from(DROPPED));
        assert_eq!(cache.stats().generation_clears, 0);
    }
    (expire, invalidate)
}

#[test]
fn expiry_and_keyed_invalidation_cost_is_flat_in_cache_size() {
    let (expire_small, invalidate_small) = costs(4_096);
    let (expire_large, invalidate_large) = costs(65_536);
    assert!(
        expire_large <= 2.0 * expire_small + COLD_PROBE_NS,
        "expire-remove: {expire_small:.0} ns/entry at 4 K resident, {expire_large:.0} at 64 K"
    );
    assert!(
        invalidate_large <= 2.0 * invalidate_small + COLD_PROBE_NS,
        "keyed-invalidate: {invalidate_small:.0} ns/entry at 4 K resident, {invalidate_large:.0} at 64 K"
    );
}
