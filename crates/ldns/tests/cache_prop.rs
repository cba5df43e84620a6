//! Property tests for the resolver-side ECS cache: the RFC 7871 §7.3.1
//! reuse rules must hold against the same oracle the authd-side cache is
//! tested with, TTL expiry must never serve a stale answer, and negative
//! caching must honor RFC 2308's SOA-minimum rule end to end. A
//! differential test drives the slab-backed cache and a naive
//! `Vec`-backed model through the same interleavings at tiny bounds, so
//! FIFO order, eviction victims and every counter are pinned.

use eum_authd::ClientTransport;
use eum_dns::{
    decode_message, encode_message, DnsName, Message, RData, Rcode, Record, RrType, SoaData,
};
use eum_geo::Prefix;
use eum_ldns::{
    AnswerBody, CacheEntry, EcsPolicy, Ldns, LdnsCacheConfig, LdnsCacheStats, LdnsConfig,
    ResolverCache,
};
use proptest::prelude::*;
use std::io;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

fn qname() -> DnsName {
    "e0.cdn.example".parse().unwrap()
}

/// An entry whose first answer address encodes `marker`.
fn entry(marker: u32, scope: u8, ttl_s: u32, now: Instant) -> CacheEntry {
    CacheEntry::new(
        AnswerBody::Addresses(vec![Ipv4Addr::from(marker)]),
        scope,
        ttl_s,
        now,
    )
}

/// Recovers the marker.
fn marker_of(e: &CacheEntry) -> u32 {
    match &e.body {
        AnswerBody::Addresses(ips) => u32::from(ips[0]),
        other => panic!("marker entry is not an address answer: {other:?}"),
    }
}

proptest! {
    /// The resolver cache must implement the same §7.3.1 rule as the
    /// authoritative-side cache: a hit comes from the longest inserted
    /// scope block that contains the client and is no longer than the
    /// query's source prefix — with the global (scope-0) entry as the
    /// fallback eligible at any source prefix.
    #[test]
    fn scoped_reuse_matches_the_7871_oracle(
        inserts in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..24),
        probes in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..32),
    ) {
        let now = Instant::now();
        let mut cache = ResolverCache::new(LdnsCacheConfig::default(), now);
        // Model: block -> marker (None = the global entry), replace on
        // duplicate key exactly like the cache.
        let mut model: Vec<(Option<Prefix>, u32)> = Vec::new();
        for (i, (addr, len)) in inserts.iter().enumerate() {
            let block = (*len > 0).then(|| Prefix::of(Ipv4Addr::from(*addr), *len));
            cache.insert(qname(), RrType::A, block, entry(i as u32, *len, 3600, now));
            match model.iter_mut().find(|(b, _)| *b == block) {
                Some(slot) => slot.1 = i as u32,
                None => model.push((block, i as u32)),
            }
        }
        for (addr, source_prefix) in probes {
            let client = Ipv4Addr::from(addr);
            let hit = cache
                .lookup(&qname(), RrType::A, client, source_prefix, now)
                .map(marker_of);
            let expect = model
                .iter()
                .filter(|(b, _)| match b {
                    Some(b) => b.len() <= source_prefix && b.contains(client),
                    None => true, // global: eligible for every client
                })
                .max_by_key(|(b, _)| b.map(|b| b.len()).unwrap_or(0))
                .map(|(_, m)| *m);
            prop_assert_eq!(
                hit, expect,
                "client {}/{} hit {:?}, oracle says {:?}",
                client, source_prefix, hit, expect
            );
        }
    }

    /// A lookup must never return an entry past its TTL — whether or not
    /// the timer wheel has been advanced past the deadline — and the
    /// wheel must account for every insertion exactly once.
    #[test]
    fn expiry_never_serves_stale(
        inserts in proptest::collection::vec((0u8..200, 1u32..120), 1..32),
        probe_times in proptest::collection::vec(0u64..260, 1..40),
        advance_to in 0u64..260,
    ) {
        let t0 = Instant::now();
        let mut cache = ResolverCache::new(LdnsCacheConfig::default(), t0);
        // host byte -> (marker, ttl); distinct qnames via distinct hosts.
        let mut model: Vec<(DnsName, u32)> = Vec::new();
        for (i, (host, ttl_s)) in inserts.iter().enumerate() {
            let name: DnsName = format!("h{host}.cdn.example").parse().unwrap();
            cache.insert(name.clone(), RrType::A, None, entry(i as u32, 0, *ttl_s, t0));
            match model.iter_mut().find(|(n, _)| *n == name) {
                Some(slot) => slot.1 = *ttl_s,
                None => model.push((name, *ttl_s)),
            }
        }
        let inserted = model.len();

        cache.advance(t0 + Duration::from_secs(advance_to));

        // Probes run at/after the advance point, in time order: a
        // resolver's clock never runs backwards.
        let mut probes: Vec<u64> = probe_times.iter().map(|p| advance_to.max(*p)).collect();
        probes.sort_unstable();
        for at in probes {
            let now = t0 + Duration::from_secs(at);
            for (name, ttl_s) in &model {
                let hit = cache.lookup(name, RrType::A, Ipv4Addr::new(10, 0, 0, 1), 0, now);
                if at >= u64::from(*ttl_s) {
                    prop_assert!(
                        hit.is_none(),
                        "{name} served {}s past a {}s TTL",
                        at - u64::from(*ttl_s),
                        ttl_s
                    );
                } else {
                    // Not yet expired: still served, with a live TTL.
                    let e = hit.expect("live entry must be served");
                    prop_assert!(e.remaining_ttl_s(now) > 0);
                }
            }
        }
        // Conservation: everything inserted is either still live or was
        // counted out by the wheel / stale-drop path.
        let s = cache.stats();
        prop_assert_eq!(
            cache.len() as u64 + s.expirations + s.stale_drops,
            inserted as u64
        );
    }
}

// ---------------------------------------------------------------------
// RFC 2308: negative answers honor the SOA minimum, end to end.
// ---------------------------------------------------------------------

/// An upstream that answers every query NXDOMAIN, optionally with an SOA
/// whose TTL/minimum it controls.
struct NegativeUpstream {
    soa: Option<(u32, u32)>,
}

impl ClientTransport for NegativeUpstream {
    fn exchange(
        &mut self,
        _shard: usize,
        _server_ip: Ipv4Addr,
        _resolver_ip: Ipv4Addr,
        payload: &[u8],
        _timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let query = decode_message(payload).expect("resolver sends well-formed queries");
        let mut resp = Message::response_to(&query, Rcode::NxDomain);
        if let Some((ttl, minimum)) = self.soa {
            resp.authorities.push(Record {
                name: "cdn.example".parse().unwrap(),
                ttl,
                rdata: RData::Soa(SoaData {
                    mname: "ns.cdn.example".parse().unwrap(),
                    rname: "ops.cdn.example".parse().unwrap(),
                    serial: 1,
                    refresh: 300,
                    retry: 60,
                    expire: 86_400,
                    minimum,
                }),
            });
        }
        Ok(encode_message(&resp))
    }

    fn num_shards(&self) -> usize {
        1
    }
}

proptest! {
    /// The negative TTL the resolver caches (and reports downstream) is
    /// `min(SOA record TTL, SOA MINIMUM)` clamped to the configured
    /// ceiling — and the configured default when no SOA is present.
    #[test]
    fn negative_ttl_honors_soa_minimum(
        soa_ttl in 0u32..10_000,
        soa_minimum in 0u32..10_000,
        with_soa in any::<bool>(),
    ) {
        let t0 = Instant::now();
        let cfg = LdnsConfig::new(Ipv4Addr::new(192, 0, 2, 53), EcsPolicy::Off);
        let max_neg = cfg.cache.max_negative_ttl_s;
        let default_neg = cfg.default_negative_ttl_s;
        let mut ldns = Ldns::new(cfg, t0);
        let mut upstream = NegativeUpstream {
            soa: with_soa.then_some((soa_ttl, soa_minimum)),
        };

        let res = ldns.resolve(
            &mut upstream,
            0,
            Ipv4Addr::new(198, 51, 100, 1),
            &qname(),
            Ipv4Addr::new(10, 0, 0, 1),
            t0,
        );
        prop_assert_eq!(res.rcode, Rcode::NxDomain);
        let expect = if with_soa {
            soa_ttl.min(soa_minimum).clamp(1, max_neg)
        } else {
            default_neg.clamp(1, max_neg)
        };
        prop_assert_eq!(res.ttl_s, expect);

        // The negative entry is actually cached: a repeat within the TTL
        // costs no upstream query.
        let again = ldns.resolve(
            &mut upstream,
            0,
            Ipv4Addr::new(198, 51, 100, 1),
            &qname(),
            Ipv4Addr::new(10, 0, 0, 99),
            t0,
        );
        prop_assert_eq!(again.rcode, Rcode::NxDomain);
        prop_assert!(again.from_cache);
        prop_assert_eq!(again.upstream_queries, 0);
    }
}

// ---------------------------------------------------------------------
// Differential model: FIFO order, eviction victims, every counter.
// ---------------------------------------------------------------------

/// What the cache keys an entry by (the name by its index in [`NAMES`]).
#[derive(Debug, Clone, PartialEq)]
struct ModelKey {
    name: usize,
    qtype: RrType,
    block: Option<Prefix>,
}

struct ModelEntry {
    key: ModelKey,
    body: AnswerBody,
    scope: u8,
    expires_ms: u64,
    /// The wheel tick this entry's deadline fires on: the deadline
    /// rounded up to a whole second, or the wheel's cursor if that is
    /// already later.
    fire_tick: u64,
}

impl ModelEntry {
    fn negative(&self) -> bool {
        !matches!(self.body, AnswerBody::Addresses(_))
    }
}

/// The cache as a specification: live entries in a `Vec` in insertion
/// order, the negative class's own order beside it, every operation a
/// linear scan. It is the `VecDeque` + `retain` cache this crate used to
/// ship, with one simplification: the old wheel armed *keys*, so a
/// deadline left behind by a key's earlier life could reap its
/// re-inserted entry up to a second before that entry's own deadline
/// came round; here, as in the slab cache, an entry is reaped by the
/// first advance at or past the tick of its own deadline.
struct Model {
    cfg: LdnsCacheConfig,
    live: Vec<ModelEntry>,
    negatives: Vec<ModelKey>,
    /// The wheel's next unprocessed tick.
    cursor: u64,
    stats: LdnsCacheStats,
}

impl Model {
    fn remove(&mut self, key: &ModelKey) {
        self.live.retain(|e| e.key != *key);
        self.negatives.retain(|k| k != key);
    }

    fn insert(&mut self, key: ModelKey, body: AnswerBody, scope: u8, ttl_s: u32, now_ms: u64) {
        let expires_ms = now_ms + 1000 * u64::from(ttl_s);
        let new = ModelEntry {
            key: key.clone(),
            body,
            scope,
            expires_ms,
            fire_tick: expires_ms.div_ceil(1000).max(self.cursor),
        };
        let neg = new.negative();
        if neg {
            while self.negatives.len() >= self.cfg.max_negative_entries.max(1) {
                let oldest = self.negatives[0].clone();
                self.remove(&oldest);
                self.stats.negative_evictions += 1;
            }
        }
        while self.live.len() >= self.cfg.max_entries.max(1) {
            let oldest = self.live[0].key.clone();
            self.remove(&oldest);
            self.stats.evictions += 1;
        }
        match self.live.iter_mut().find(|e| e.key == key) {
            // In place: the capacity position stays; the negative order
            // changes only on a class flip.
            Some(resident) => {
                let was_neg = resident.negative();
                *resident = new;
                if was_neg && !neg {
                    self.negatives.retain(|k| *k != key);
                } else if neg && !was_neg {
                    self.negatives.push(key);
                }
            }
            None => {
                self.live.push(new);
                if neg {
                    self.negatives.push(key);
                }
            }
        }
        self.stats.insertions += 1;
    }

    /// Body, scope and deadline (ms) of the entry a lookup serves.
    fn lookup(
        &mut self,
        name: usize,
        qtype: RrType,
        client: Ipv4Addr,
        source_prefix: u8,
        now_ms: u64,
    ) -> Option<(AnswerBody, u8, u64)> {
        let blocks = (1..=source_prefix.min(32))
            .rev()
            .map(|len| Some(Prefix::of(client, len)))
            .chain([None]);
        for block in blocks {
            let key = ModelKey { name, qtype, block };
            let Some(e) = self.live.iter().find(|e| e.key == key) else {
                continue;
            };
            if now_ms >= e.expires_ms {
                self.remove(&key);
                self.stats.stale_drops += 1;
                continue;
            }
            self.stats.hits_by_scope[usize::from(e.scope.min(32))] += 1;
            return Some((e.body.clone(), e.scope, e.expires_ms));
        }
        self.stats.misses += 1;
        None
    }

    fn advance(&mut self, now_ms: u64) {
        let now_tick = now_ms / 1000;
        if self.cursor > now_tick {
            return;
        }
        let due: Vec<ModelKey> = self
            .live
            .iter()
            .filter(|e| e.fire_tick <= now_tick)
            .map(|e| e.key.clone())
            .collect();
        for key in &due {
            self.remove(key);
        }
        self.stats.expirations += due.len() as u64;
        self.cursor = now_tick + 1;
    }
}

/// Short names the slot holds inline, and longer ones it spills out of
/// line: one a single octet past the 22-octet inline form, one of the
/// full 255 wire octets RFC 1035 allows.
const NAMES: [&str; 6] = [
    "e0.cdn.example",
    "e1.cdn.example",
    "a-rather-longer-customer-hostname.cdn.example",
    "nx.cdn.example",
    "abcdefghij.cdn.example",
    concat!(
        "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa.",
        "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb.",
        "ccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc.",
        "ddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd",
    ),
];

const CLIENTS: [Ipv4Addr; 4] = [
    Ipv4Addr::new(10, 1, 2, 3),
    Ipv4Addr::new(10, 1, 9, 9),
    Ipv4Addr::new(10, 2, 0, 1),
    Ipv4Addr::new(172, 16, 0, 1),
];

proptest! {
    /// Random interleavings of insert (positive / negative / failure,
    /// global / scoped, refreshes and class flips fall out of the small
    /// key space), lookup and advance on a sub-second clock, at bounds
    /// small enough that both FIFOs overflow constantly. After every step
    /// the cache and the model agree on the lookup result, both lengths
    /// and every counter.
    #[test]
    fn slab_cache_matches_the_naive_model(
        steps in proptest::collection::vec(
            (0u8..8, 0usize..NAMES.len(), 0u8..12, 0usize..4, 0u32..6, 0u64..1500),
            1..160,
        ),
    ) {
        let t0 = Instant::now();
        let cfg = LdnsCacheConfig {
            max_entries: 8,
            max_negative_entries: 3,
            ..LdnsCacheConfig::default()
        };
        let names: Vec<DnsName> = NAMES.iter().map(|n| n.parse().unwrap()).collect();
        let mut cache = ResolverCache::new(cfg, t0);
        let mut model = Model {
            cfg,
            live: Vec::new(),
            negatives: Vec::new(),
            cursor: 0,
            stats: LdnsCacheStats::default(),
        };
        let mut now_ms = 0u64;
        for (i, (kind, name, shape, client, ttl_s, dt_ms)) in steps.into_iter().enumerate() {
            now_ms += dt_ms;
            let now = t0 + Duration::from_millis(now_ms);
            let client = CLIENTS[client];
            let qtype = if (name + usize::from(shape)).is_multiple_of(5) {
                RrType::Ns
            } else {
                RrType::A
            };
            match kind {
                0..=3 => {
                    let body = match shape % 3 {
                        0 => AnswerBody::Addresses(vec![Ipv4Addr::from(i as u32)]),
                        1 => AnswerBody::Negative(Rcode::NxDomain),
                        _ => AnswerBody::Failure,
                    };
                    let len = [0u8, 8, 16, 24][usize::from(shape / 3)];
                    let block = (len > 0).then(|| Prefix::of(client, len));
                    let key = ModelKey { name, qtype, block };
                    model.insert(key, body.clone(), len, ttl_s, now_ms);
                    cache.insert(
                        names[name].clone(),
                        qtype,
                        block,
                        CacheEntry::new(body, len, ttl_s, now),
                    );
                }
                4..=6 => {
                    let source_prefix = [0u8, 8, 16, 24, 32][usize::from(shape % 5)];
                    let want = model
                        .lookup(name, qtype, client, source_prefix, now_ms)
                        .map(|(body, scope, expires_ms)| {
                            (body, scope, t0 + Duration::from_millis(expires_ms))
                        });
                    let got = cache
                        .lookup(&names[name], qtype, client, source_prefix, now)
                        .map(|e| (e.body.clone(), e.scope, e.expires_at()));
                    prop_assert_eq!(got, want, "step {}: lookup", i);
                }
                _ => {
                    model.advance(now_ms);
                    cache.advance(now);
                }
            }
            prop_assert_eq!(cache.len(), model.live.len(), "step {}: len", i);
            prop_assert_eq!(cache.negative_len(), model.negatives.len(), "step {}: negative_len", i);
            prop_assert_eq!(cache.stats(), model.stats, "step {}: stats", i);
        }
    }
}
