//! Property tests for the ECS-scope-aware answer cache: RFC 7871 §7.3.1
//! reuse rules must hold for every interleaving of inserts and lookups.

use eum_authd::{AnswerCache, CacheConfig, CachedAnswer};
use eum_dns::{DnsName, Message, Question, Rcode, Record, RrType};
use eum_geo::Prefix;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use std::time::Instant;

fn qname() -> DnsName {
    "e0.cdn.example".parse().unwrap()
}

/// A cache entry whose answer IP encodes `marker`, so a hit can be traced
/// back to the exact insertion that produced it.
fn entry(marker: u32) -> CachedAnswer {
    let q = Message::query(0, Question::a(qname()), None);
    let mut resp = Message::response_to(&q, Rcode::NoError);
    resp.answers
        .push(Record::a(qname(), 60, Ipv4Addr::from(marker)));
    CachedAnswer::from_response(&resp, 60, Instant::now())
}

/// Recovers the marker from the entry's stored wire template.
fn marker_of(e: &CachedAnswer) -> u32 {
    let template = eum_dns::decode_message(e.wire()).expect("cached wire decodes");
    match template.answers.first().expect("marker record").rdata {
        eum_dns::RData::A(ip) => u32::from(ip),
        ref other => panic!("marker record is not an A record: {other:?}"),
    }
}

proptest! {
    /// Any scoped hit must come from an inserted block that (a) contains
    /// the querying client and (b) is no longer than the query's ECS
    /// source prefix — and among such blocks, the longest one.
    #[test]
    fn scoped_hits_respect_containment_and_narrowing(
        inserts in proptest::collection::vec((any::<u32>(), 1u8..=32), 1..24),
        probes in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..32),
    ) {
        let mut cache = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        // Model: block -> marker, replace on duplicate key like the cache.
        let mut model: Vec<(Prefix, u32)> = Vec::new();
        for (i, (addr, len)) in inserts.iter().enumerate() {
            let block = Prefix::of(Ipv4Addr::from(*addr), *len);
            cache.insert_scoped(qname(), RrType::A, block, entry(i as u32));
            match model.iter_mut().find(|(b, _)| *b == block) {
                Some(slot) => slot.1 = i as u32,
                None => model.push((block, i as u32)),
            }
        }
        for (addr, max_scope) in probes {
            let client = Ipv4Addr::from(addr);
            let hit = cache.lookup_scoped(&qname(), RrType::A, client, max_scope, now);
            let expect = model
                .iter()
                .filter(|(b, _)| b.len() <= max_scope && b.contains(client))
                .max_by_key(|(b, _)| b.len());
            match (hit, expect) {
                (Some(e), Some((block, marker))) => {
                    prop_assert_eq!(marker_of(e), *marker);
                    prop_assert!(block.contains(client));
                    prop_assert!(block.len() <= max_scope);
                }
                (None, None) => {}
                (Some(e), None) => panic!(
                    "hit marker {} for client {client}/{max_scope} with no eligible block",
                    marker_of(e)
                ),
                (None, Some((block, _))) => panic!(
                    "missed eligible block {block:?} for client {client}/{max_scope}"
                ),
            }
        }
    }

    /// Answers stored without ECS scope — per-resolver entries and /0
    /// (global) answers — must never be returned to a scoped (ECS) lookup,
    /// whatever the client or source prefix.
    #[test]
    fn unscoped_answers_never_leak_to_ecs_queries(
        resolver_inserts in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..16),
        global_inserts in 1usize..4,
        probes in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..32),
    ) {
        let mut cache = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        for (i, (resolver, server)) in resolver_inserts.iter().enumerate() {
            cache.insert_resolver(
                qname(),
                RrType::A,
                Ipv4Addr::from(*resolver),
                Ipv4Addr::from(*server),
                entry(i as u32),
            );
        }
        // A hostile /0 scoped insert (the server never does this; the
        // probe order must still never surface it).
        for i in 0..global_inserts {
            cache.insert_scoped(qname(), RrType::A, Prefix::ALL, entry(1000 + i as u32));
        }
        for (addr, max_scope) in probes {
            let client = Ipv4Addr::from(addr);
            let hit = cache.lookup_scoped(&qname(), RrType::A, client, max_scope, now);
            prop_assert!(
                hit.is_none(),
                "ECS lookup for {}/{} must miss, got marker {:?}",
                client,
                max_scope,
                hit.map(marker_of),
            );
        }
        // The resolver entries are still there and still served on the
        // resolver path.
        let (resolver, server) = resolver_inserts[resolver_inserts.len() - 1];
        let got = cache.lookup_resolver(
            &qname(),
            RrType::A,
            Ipv4Addr::from(resolver),
            Ipv4Addr::from(server),
            now,
        );
        prop_assert!(got.is_some());
    }
}

// ---- Model test: the cache against a plain `HashMap` reference ----
//
// Random insert / lookup / expire / `begin_generation` / `clear`
// sequences run against both the cache and `Model` below, which spells
// the cache's contract in the most direct way possible (a `HashMap` of
// full keys plus a `VecDeque` of insertion order). After every step the
// two must agree on hit-or-miss, on which insertion a hit returns, on the
// live count and on every counter in [`AnswerCacheStats`]; the run ends
// by probing every key the model holds in FIFO order and then by forcing
// evictions one at a time, so a victim order that drifted shows up as a
// hit on an entry the model already evicted.

use eum_authd::AnswerCacheStats;
use eum_mapping::MapDelta;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// The `(name, type)` pairs the model test queries.
fn question(i: usize) -> Question {
    let (n, rtype) = [
        ("e0.cdn.example", RrType::A),
        ("e1.cdn.example", RrType::A),
        ("e0.cdn.example", RrType::Aaaa),
    ][i % 3];
    Question {
        name: n.parse().unwrap(),
        rtype,
    }
}

/// An entry answering `question(q)` whose A record encodes `marker`.
fn entry_for(q: usize, marker: u32, ttl_s: u32, now: Instant) -> CachedAnswer {
    let question = question(q);
    let query = Message::query(0, question.clone(), None);
    let mut resp = Message::response_to(&query, Rcode::NoError);
    resp.answers
        .push(Record::a(question.name, ttl_s, Ipv4Addr::from(marker)));
    CachedAnswer::from_response(&resp, ttl_s, now)
}

/// Eight /24s spread so that /16, /20 and /24 truncations all differ.
fn block_addr(b: u8, host: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, (b >> 2) & 1, (b & 3) << 4, host)
}

fn small_ip(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(192, 0, 2, i % 3)
}

const SCOPE_LENS: [u8; 3] = [16, 20, 24];

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MKey {
    Scoped(usize, Prefix),
    Resolver(usize, Ipv4Addr, Ipv4Addr),
}

struct MEntry {
    marker: u32,
    expires: Instant,
    epoch: u64,
}

/// The reference: what the cache must do, written with whole keys.
struct Model {
    max: usize,
    map: HashMap<MKey, MEntry>,
    order: VecDeque<MKey>,
    epoch: u64,
    deltas: Vec<(u64, Arc<MapDelta>)>,
    stats: AnswerCacheStats,
}

impl Model {
    fn insert(&mut self, key: MKey, marker: u32, expires: Instant) {
        while self.map.len() >= self.max {
            let oldest = self.order.pop_front().expect("order tracks map");
            self.map.remove(&oldest).expect("order tracks map");
            self.stats.evictions += 1;
        }
        if matches!(key, MKey::Scoped(..)) {
            self.stats.scoped_insertions += 1;
        }
        let e = MEntry {
            marker,
            expires,
            epoch: self.epoch,
        };
        if self.map.insert(key.clone(), e).is_none() {
            self.order.push_back(key);
        }
        self.stats.insertions += 1;
    }

    fn remove(&mut self, key: &MKey) {
        self.map.remove(key);
        self.order.retain(|k| k != key);
    }

    fn delta_stale(&self, key: &MKey, entry_epoch: u64) -> bool {
        self.deltas
            .iter()
            .filter(|(epoch, _)| *epoch > entry_epoch)
            .any(|(_, d)| match key {
                MKey::Scoped(_, p) => d.affects_scoped(*p),
                MKey::Resolver(_, resolver, _) => d.affects_resolver(*resolver),
            })
    }

    /// Probes one key: a hit's marker, or `None` after dropping an
    /// expired or delta-stale entry.
    fn probe(&mut self, key: &MKey, now: Instant) -> Option<u32> {
        let e = self.map.get(key)?;
        if now >= e.expires {
            self.remove(key);
            return None;
        }
        if e.epoch != self.epoch && self.delta_stale(key, e.epoch) {
            self.remove(key);
            self.stats.keyed_invalidations += 1;
            return None;
        }
        let epoch = self.epoch;
        let e = self.map.get_mut(key).expect("probed above");
        e.epoch = epoch;
        Some(e.marker)
    }

    fn count(&mut self, hit: Option<u32>) -> Option<u32> {
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    fn lookup_scoped(&mut self, q: usize, client: Ipv4Addr, max: u8, now: Instant) -> Option<u32> {
        let hit = (1..=max.min(32))
            .rev()
            .find_map(|len| self.probe(&MKey::Scoped(q, Prefix::of(client, len)), now));
        self.count(hit)
    }

    fn lookup_resolver(&mut self, key: &MKey, now: Instant) -> Option<u32> {
        let hit = self.probe(key, now);
        self.count(hit)
    }

    fn begin_generation(&mut self, delta: Option<&Arc<MapDelta>>) {
        match delta {
            Some(d) if d.is_empty() => {}
            // 8 = the cache's MAX_DELTA_HISTORY.
            Some(d) if !d.is_full() && self.deltas.len() < 8 => {
                self.epoch += 1;
                self.deltas.push((self.epoch, d.clone()));
            }
            _ => self.clear(),
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.deltas.clear();
        self.stats.generation_clears += 1;
    }
}

/// Both sides of the comparison, stepped together.
struct Pair {
    cache: AnswerCache,
    model: Model,
    inserted: u32,
}

impl Pair {
    fn insert(&mut self, key: MKey, ttl_s: u32, now: Instant) {
        self.inserted += 1;
        let marker = self.inserted;
        match &key {
            MKey::Scoped(q, block) => self.cache.insert_scoped(
                question(*q).name,
                question(*q).rtype,
                *block,
                entry_for(*q, marker, ttl_s, now),
            ),
            MKey::Resolver(q, resolver, server) => self.cache.insert_resolver(
                question(*q).name,
                question(*q).rtype,
                *resolver,
                *server,
                entry_for(*q, marker, ttl_s, now),
            ),
        }
        self.model
            .insert(key, marker, now + Duration::from_secs(u64::from(ttl_s)));
    }

    fn lookup_scoped(&mut self, q: usize, client: Ipv4Addr, max_scope: u8, now: Instant) {
        let question = question(q);
        let got = self
            .cache
            .lookup_scoped(&question.name, question.rtype, client, max_scope, now)
            .map(marker_of);
        let want = self.model.lookup_scoped(q, client, max_scope, now);
        assert_eq!(got, want, "scoped lookup q{q} {client}/{max_scope}");
    }

    fn lookup_key(&mut self, key: &MKey, now: Instant) {
        match key {
            // Probe from inside the block at exactly its own length.
            MKey::Scoped(q, block) => self.lookup_scoped(*q, block.network(), block.len(), now),
            MKey::Resolver(q, resolver, server) => {
                let question = question(*q);
                let got = self
                    .cache
                    .lookup_resolver(&question.name, question.rtype, *resolver, *server, now)
                    .map(marker_of);
                let want = self.model.lookup_resolver(key, now);
                assert_eq!(got, want, "resolver lookup {key:?}");
            }
        }
    }

    fn agree(&self, step: &str) {
        assert_eq!(self.cache.stats(), self.model.stats, "stats after {step}");
        assert_eq!(self.cache.len(), self.model.map.len(), "len after {step}");
    }
}

proptest! {
    #[test]
    fn cache_agrees_with_hashmap_model(
        ops in proptest::collection::vec(
            (0u8..16, any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
            1..200,
        ),
    ) {
        let max = 6;
        let mut p = Pair {
            // The TTL cap is out of play here (its own unit test pins it).
            cache: AnswerCache::new(CacheConfig { max_entries: max, max_ttl_s: 1_000_000 }),
            model: Model {
                max,
                map: HashMap::new(),
                order: VecDeque::new(),
                epoch: 0,
                deltas: Vec::new(),
                stats: AnswerCacheStats::default(),
            },
            inserted: 0,
        };
        let mut now = Instant::now();
        for (kind, a, b, c, d) in ops {
            let q = usize::from(a % 3);
            let ttl_s = [5u32, 30, 90][usize::from(d % 3)];
            match kind {
                0..=2 => {
                    let len = SCOPE_LENS[usize::from(c % 3)];
                    p.insert(MKey::Scoped(q, Prefix::of(block_addr(b, 0), len)), ttl_s, now);
                }
                3 => p.insert(MKey::Resolver(q, small_ip(b), small_ip(c)), ttl_s, now),
                // A source prefix shorter than a stored scope must never
                // reuse it: max_scope ranges below, at and above 16/20/24.
                4..=6 => p.lookup_scoped(q, block_addr(b, c), [12, 16, 20, 22, 24, 32][usize::from(d % 6)], now),
                7 => p.lookup_key(&MKey::Resolver(q, small_ip(b), small_ip(c)), now),
                8 => now += Duration::from_secs(u64::from(d % 20)),
                9..=12 => {
                    // Keyed delta: one dirty block unit, sometimes a
                    // dirty resolver too; `a` picks the odd shapes.
                    let delta = match a % 16 {
                        0 => None,
                        1 => Some(Arc::new(MapDelta::full(10))),
                        2 => Some(Arc::new(MapDelta::from_dirty(&[], &[]))),
                        _ => {
                            let len = SCOPE_LENS[usize::from(c % 3)];
                            let resolvers: &[Ipv4Addr] = if d % 2 == 0 { &[] } else { &[small_ip(d)] };
                            Some(Arc::new(MapDelta::from_dirty(
                                &[Prefix::of(block_addr(b, 0), len)],
                                resolvers,
                            )))
                        }
                    };
                    p.cache.begin_generation(delta.as_ref());
                    p.model.begin_generation(delta.as_ref());
                }
                13 => {
                    if a % 4 == 0 {
                        p.cache.clear();
                        p.model.clear();
                    }
                }
                _ => {
                    // Re-probe the oldest live key, if any.
                    if let Some(key) = p.model.order.front().cloned() {
                        p.lookup_key(&key, now);
                    }
                }
            }
            p.agree(&format!("op {kind}"));
        }
        // Everything the model still holds, oldest first.
        for key in p.model.order.clone() {
            p.lookup_key(&key, now);
        }
        p.agree("final sweep");
        // Victim order: each forced eviction must take the model's head.
        for i in 0..max as u8 {
            let victim = p.model.order.front().cloned();
            let full = p.model.map.len() >= max;
            p.insert(
                MKey::Resolver(0, Ipv4Addr::new(198, 51, 100, i), small_ip(0)),
                90,
                now,
            );
            if let (true, Some(victim)) = (full, victim) {
                p.lookup_key(&victim, now);
            }
            p.agree("forced eviction");
        }
    }
}
