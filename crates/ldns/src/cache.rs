//! The resolver-side answer cache, ECS-partitioned per RFC 7871 §7.3.
//!
//! This is the other half of the cache pair whose authoritative side
//! lives in `eum_authd::cache`: where the authoritative memoizes what it
//! *announced* per scope block, the resolver must partition what it
//! *received* by the same blocks — an answer tagged scope `/y` may only
//! be served to clients inside the `/y` block it was fetched for
//! (§7.3.1), and a scope-0 answer is globally reusable. The reuse
//! semantics are deliberately identical to the authd-side cache and are
//! checked against the same oracle in `tests/cache_prop.rs`.
//!
//! Four answer shapes share one table ([`AnswerBody`]):
//!
//! * **Addresses** — positive A answers, expiring at the record TTL; a
//!   delegation is the same shape under `(zone, NS)`, holding the glue.
//! * **Alias** — a CNAME: the name to restart the resolution on.
//! * **Negative** — NXDOMAIN / NODATA per RFC 2308, expiring at the SOA
//!   minimum (clamped by configuration).
//! * **Failure** — upstream SERVFAIL or exhausted retries, cached for a
//!   short fixed TTL (RFC 2308 §7.1) so a dead authoritative is not
//!   hammered.
//!
//! # Storage
//!
//! Every live entry is one `Slot` of a per-cache slab (at most 128
//! bytes) — the only place its name is stored, as wire octets held
//! inline up to 22 and out of line beyond (the names the workloads cache
//! are 15–17 octets, so an insert never allocates for its name).
//! Everything else refers to the slot by its `u32` id:
//!
//! * the **index** maps a 16-byte `IndexKey` — the name's 64-bit hash,
//!   taken once per call, packed with qtype and scope block — to the
//!   slot; a hit verifies the full name in the slot, so the RFC 7871
//!   longest-scope probe never copies or re-hashes a name per length;
//! * the **capacity FIFO** and the **negative-class FIFO** are intrusive
//!   `prev`/`next` links through the slots, so eviction pops a head and
//!   every other removal unlinks in O(1);
//! * the hierarchical [`TimerWheel`](crate::wheel) carries 8-byte
//!   handles `(slot, generation)`; freeing or refreshing a slot bumps
//!   its generation, which is all it takes to disarm the old deadline.
//!
//! No operation but [`ResolverCache::clear`] is O(live entries):
//! [`ResolverCache::advance`] reaps in O(elapsed + expired), and lookups
//! still double-check the deadline so a stale answer can never leave the
//! resolver even between advances. The lookup/insert/advance trio is
//! under `lint.toml` hot-fn discipline like the authd serve path.

use crate::wheel::TimerWheel;
use eum_dns::{DnsName, Rcode, RrType};
use eum_geo::Prefix;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// Cache sizing and negative-TTL policy.
#[derive(Debug, Clone, Copy)]
pub struct LdnsCacheConfig {
    /// Maximum entries (FIFO eviction beyond this).
    pub max_entries: usize,
    /// Independent FIFO bound on negative entries ([`AnswerBody::Negative`]
    /// and [`AnswerBody::Failure`]). Negatives still count toward
    /// `max_entries`, but once this many are live the oldest *negative*
    /// is evicted first — a random-subdomain NXDOMAIN flood can occupy at
    /// most this many slots and can never push the positive working set
    /// out through the shared capacity bound.
    pub max_negative_entries: usize,
    /// TTL for cached upstream failures, seconds (RFC 2308 §7.1 caps
    /// SERVFAIL caching at 5 minutes).
    pub servfail_ttl_s: u32,
    /// Upper bound on negative-answer TTLs, seconds — an SOA minimum
    /// above this is clamped (RFC 2308 §5 recommends 1–3 h tops).
    pub max_negative_ttl_s: u32,
}

impl Default for LdnsCacheConfig {
    fn default() -> Self {
        LdnsCacheConfig {
            max_entries: 65_536,
            max_negative_entries: 8_192,
            servfail_ttl_s: 30,
            max_negative_ttl_s: 3_600,
        }
    }
}

/// What a cached entry answers with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnswerBody {
    /// Positive answer: the A records' addresses.
    Addresses(Vec<Ipv4Addr>),
    /// The name is a CNAME for this one (boxed: a [`DnsName`] is 256
    /// bytes and every slot holds a body, which must stay a few words).
    Alias(Box<DnsName>),
    /// RFC 2308 negative answer (`NxDomain`, or `NoError` for NODATA).
    Negative(Rcode),
    /// Failure upstream (SERVFAIL / retries exhausted), briefly cached.
    Failure,
}

/// One cached answer with its expiry bookkeeping.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The answer itself.
    pub body: AnswerBody,
    /// The announced ECS scope this entry was partitioned by (0 for
    /// global entries).
    pub scope: u8,
    created: Instant,
    expires: Instant,
    orig_ttl_s: u32,
}

impl CacheEntry {
    /// An entry expiring `ttl_s` after `now`.
    pub fn new(body: AnswerBody, scope: u8, ttl_s: u32, now: Instant) -> CacheEntry {
        CacheEntry {
            body,
            scope,
            created: now,
            expires: now + Duration::from_secs(ttl_s as u64),
            orig_ttl_s: ttl_s,
        }
    }

    /// True once the TTL has run out.
    pub fn expired(&self, now: Instant) -> bool {
        now >= self.expires
    }

    /// Seconds of TTL left (0 when expired) — what a downstream client
    /// would see in a served answer.
    pub fn remaining_ttl_s(&self, now: Instant) -> u32 {
        self.orig_ttl_s
            .saturating_sub(now.saturating_duration_since(self.created).as_secs() as u32)
    }

    /// When the entry expires (the wheel arms on this).
    pub fn expires_at(&self) -> Instant {
        self.expires
    }
}

/// Per-cache counters, cumulative over the cache's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdnsCacheStats {
    /// Hits by the hit entry's scope length (`[0]` counts global hits).
    pub hits_by_scope: [u64; 33],
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries reaped by the timer wheel (TTL-expiry churn).
    pub expirations: u64,
    /// Lookups that found only an expired entry between wheel advances
    /// (dropped on the spot, counted in `misses` too).
    pub stale_drops: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Negative entries evicted by the independent negative bound
    /// (`max_negative_entries`), not counted in `evictions`.
    pub negative_evictions: u64,
}

impl Default for LdnsCacheStats {
    fn default() -> LdnsCacheStats {
        LdnsCacheStats {
            hits_by_scope: [0; 33],
            misses: 0,
            insertions: 0,
            expirations: 0,
            stale_drops: 0,
            evictions: 0,
            negative_evictions: 0,
        }
    }
}

impl LdnsCacheStats {
    /// Total hits across all scope lengths.
    pub fn hits(&self) -> u64 {
        self.hits_by_scope.iter().sum()
    }

    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits() + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits() as f64 / total as f64
    }
}

/// "No slot": the end of a list, the head of an empty one.
const NIL: u32 = u32::MAX;
/// Which intrusive list: insertion order of every live entry (the
/// capacity FIFO)…
const ORDER: usize = 0;
/// …or of the live negative/failure entries only (the independently
/// bounded class). Invariant: a slot is on this list iff it is live and
/// its body is `Negative`/`Failure`.
const NEG: usize = 1;

/// A slot's place in one list.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// Ends and length of one list threaded through the slots.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    len: usize,
}

const EMPTY: Fifo = Fifo {
    head: NIL,
    tail: NIL,
    len: 0,
};

/// What the index hashes and compares instead of a name: the name's
/// hash (taken once per call) and, packed into one word, the
/// qtype code, the key class (0: global — scope-0 / no-ECS answers,
/// negatives, failures, delegations; `1 + len`: a positive answer
/// partitioned by a scope block of that length) and the block's
/// address. Two names sharing a 64-bit hash share a key, so a match is
/// confirmed against the name in the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct IndexKey {
    name_hash: u64,
    rest: u64,
}

impl IndexKey {
    fn new(name_hash: u64, qtype: RrType, block: Option<Prefix>) -> IndexKey {
        let (class, addr) = match block {
            Some(p) => (1 + u64::from(p.len()), u64::from(p.addr())),
            None => (0, 0),
        };
        IndexKey {
            name_hash,
            rest: u64::from(qtype.code()) << 48 | class << 32 | addr,
        }
    }

    fn qtype_code(self) -> u64 {
        self.rest >> 48
    }

    /// The scope block's length, `None` for a global key.
    fn scope_len(self) -> Option<usize> {
        (((self.rest >> 32) & 0xFF) as usize).checked_sub(1)
    }
}

/// One arming of one slot on the timer wheel. A handle whose generation
/// no longer matches its slot's was disarmed — the slot was freed
/// (perhaps reused since) or its entry refreshed — and fires as a no-op.
#[derive(Debug, Clone, Copy)]
struct Handle {
    slot: u32,
    generation: u32,
}

/// Wire octets of a name a slot holds inline; longer names spill.
const INLINE_NAME: usize = 22;

/// A slot's copy of its entry's name: the wire form, inline up to
/// [`INLINE_NAME`] octets and boxed beyond, so a slot pays for the name
/// it holds rather than for the 255 octets any name may take.
#[derive(Debug)]
enum SlotName {
    Inline { len: u8, wire: [u8; INLINE_NAME] },
    Spilled(Box<[u8]>),
}

impl SlotName {
    const EMPTY: SlotName = SlotName::Inline {
        len: 0,
        wire: [0; INLINE_NAME],
    };

    fn new(name: &DnsName) -> SlotName {
        let wire = name.wire();
        let mut inline = [0; INLINE_NAME];
        match inline.get_mut(..wire.len()) {
            Some(head) => {
                head.copy_from_slice(wire);
                SlotName::Inline {
                    len: wire.len() as u8,
                    wire: inline,
                }
            }
            None => SlotName::spill(wire),
        }
    }

    #[cold]
    fn spill(wire: &[u8]) -> SlotName {
        SlotName::Spilled(wire.into())
    }

    fn wire(&self) -> &[u8] {
        match self {
            SlotName::Inline { len, wire } => wire.get(..usize::from(*len)).unwrap_or_default(),
            SlotName::Spilled(wire) => wire,
        }
    }
}

/// One slab slot: a live entry with its key and list links, or a free
/// slot (empty name, empty `Failure` body) chained through
/// `links[ORDER].next`.
#[derive(Debug)]
struct Slot {
    name: SlotName,
    key: IndexKey,
    entry: CacheEntry,
    /// Bumped whenever the armed deadline stops applying: on free and on
    /// in-place refresh. Wraps after 2³² re-arms of one slot, far beyond
    /// any deadline's stay on the wheel.
    generation: u32,
    links: [Link; 2],
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 128);

/// The ECS-partitioned resolver cache with timer-wheel expiry.
///
/// Two corners where keying by name hash and arming by handle show:
///
/// * Two names whose 64-bit hashes collide under the same `(qtype,
///   block)` cannot both be cached: inserting one evicts the other
///   (counted in `evictions`). The hasher is randomly keyed per cache,
///   so no fixed pair of names collides, and a lookup never serves one
///   name's answer for another — the slot's full name is compared.
/// * A deadline speaks only for the insert that armed it. An entry
///   re-inserted under a key that expired or was evicted earlier is
///   never reaped by that earlier life's leftover deadline; it expires
///   on its own.
pub struct ResolverCache {
    cfg: LdnsCacheConfig,
    /// Key → slot. Its randomly keyed hasher also takes the once-per-call
    /// name hash ([`ResolverCache::name_hash`]).
    index: HashMap<IndexKey, u32>,
    slots: Vec<Slot>,
    /// First free slot, [`NIL`] when the slab has none to reuse.
    free_head: u32,
    /// The [`ORDER`] and [`NEG`] lists.
    fifos: [Fifo; 2],
    wheel: TimerWheel<Handle>,
    /// Drain buffer for the wheel, reused across advances.
    due: Vec<Handle>,
    /// Live scoped-entry count per scope length; lookups probe only
    /// lengths actually present.
    scope_lens: [u32; 33],
    stats: LdnsCacheStats,
}

impl ResolverCache {
    /// An empty cache whose wheel epoch is `now`.
    pub fn new(cfg: LdnsCacheConfig, now: Instant) -> ResolverCache {
        ResolverCache {
            cfg,
            index: HashMap::new(),
            slots: Vec::new(),
            free_head: NIL,
            fifos: [EMPTY; 2],
            wheel: TimerWheel::new(now),
            due: Vec::new(),
            scope_lens: [0; 33],
            stats: LdnsCacheStats::default(),
        }
    }

    /// Drops every live entry at once — a resolver reload. The wheel is
    /// re-epoched at `now`; the cumulative [`LdnsCacheStats`] keep
    /// counting across the flush (a flush is an operational event, not a
    /// statistics reset).
    pub fn clear(&mut self, now: Instant) {
        self.index.clear();
        self.slots.clear();
        self.free_head = NIL;
        self.fifos = [EMPTY; 2];
        self.scope_lens = [0; 33];
        self.wheel = TimerWheel::new(now);
    }

    /// Looks up an answer for `client`, probing scoped entries from the
    /// most to the least specific length present — but never longer than
    /// `source_prefix` (the prefix this resolver would announce; 0 when
    /// ECS is off, which skips the scoped table entirely) — and falling
    /// back to the global entry. Expired entries are dropped, never
    /// served.
    pub fn lookup(
        &mut self,
        qname: &DnsName,
        qtype: RrType,
        client: Ipv4Addr,
        source_prefix: u8,
        now: Instant,
    ) -> Option<&CacheEntry> {
        let name_hash = self.name_hash(qname.wire());
        let mut hit = None;
        for len in (1..=source_prefix.min(32)).rev() {
            // lint: allow(serve-index) — len ≤ 32 by the loop bound; the table has 33 slots
            if self.scope_lens[len as usize] == 0 {
                continue;
            }
            let key = IndexKey::new(name_hash, qtype, Some(Prefix::of(client, len)));
            hit = self.probe(key, qname.wire(), now);
            if hit.is_some() {
                break;
            }
        }
        if hit.is_none() {
            hit = self.probe(IndexKey::new(name_hash, qtype, None), qname.wire(), now);
        }
        match hit {
            Some(id) => {
                let scope = self.slot(id).entry.scope;
                // lint: allow(serve-index) — scope clamped to 32; the table has 33 slots
                self.stats.hits_by_scope[scope.min(32) as usize] += 1;
                Some(&self.slot(id).entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// The glue address of the deepest live delegation covering `qname`:
    /// the `(zone, NS)` entry of `qname` itself, else of its nearest
    /// ancestor that has one. One lookup, counted once.
    pub fn delegation_for(&mut self, qname: &DnsName, now: Instant) -> Option<Ipv4Addr> {
        // A name's wire form ends with the wire form of each ancestor, so
        // the walk hashes and compares suffixes in place.
        let mut zone = qname.wire();
        let hit = loop {
            let key = IndexKey::new(self.name_hash(zone), RrType::Ns, None);
            if let Some(id) = self.probe(key, zone, now) {
                break Some(id);
            }
            let Some((&label_len, rest)) = zone.split_first() else {
                break None; // the root had none either
            };
            let Some(parent) = rest.get(usize::from(label_len)..) else {
                break None;
            };
            zone = parent;
        };
        let glue = hit.and_then(|id| match &self.slot(id).entry.body {
            AnswerBody::Addresses(ips) => ips.first().copied(),
            _ => None,
        });
        // A delegation is a global (scope-0) entry.
        match self.stats.hits_by_scope.first_mut() {
            Some(global_hits) if glue.is_some() => *global_hits += 1,
            _ => self.stats.misses += 1,
        }
        glue
    }

    /// What [`IndexKey`] carries in place of the name whose wire form is
    /// `wire`.
    fn name_hash(&self, wire: &[u8]) -> u64 {
        self.index.hasher().hash_one(wire)
    }

    /// The slot under `key` when it holds the name whose wire form is
    /// `wire` and is still fresh; an expired one is dropped on the spot.
    fn probe(&mut self, key: IndexKey, wire: &[u8], now: Instant) -> Option<u32> {
        let id = *self.index.get(&key)?;
        let slot = self.slot(id);
        if slot.name.wire() != wire {
            return None;
        }
        if slot.entry.expired(now) {
            self.remove(id);
            self.stats.stale_drops += 1;
            return None;
        }
        Some(id)
    }

    /// Inserts an answer: `scope_block` carries the announced-scope
    /// partition for positive ECS answers; `None` stores a global entry
    /// (scope 0, no ECS, negatives, failures, delegations). The entry's
    /// slot is armed on the timer wheel at its deadline.
    pub fn insert(
        &mut self,
        qname: DnsName,
        qtype: RrType,
        scope_block: Option<Prefix>,
        entry: CacheEntry,
    ) {
        let neg = is_negative(&entry);
        // The negative class is bounded on its own: an NXDOMAIN flood
        // churns this FIFO and only this FIFO.
        if neg {
            while self.negative_len() >= self.cfg.max_negative_entries.max(1) {
                // lint: allow(serve-index) — NEG < 2, the array's length
                self.remove(self.fifos[NEG].head);
                self.stats.negative_evictions += 1;
            }
        }
        while self.len() >= self.cfg.max_entries.max(1) {
            // lint: allow(serve-index) — ORDER < 2, the array's length
            self.remove(self.fifos[ORDER].head);
            self.stats.evictions += 1;
        }
        let key = IndexKey::new(self.name_hash(qname.wire()), qtype, scope_block);
        let expires = entry.expires;
        let resident = self.index.get(&key).copied();
        let (id, generation) = match resident {
            // Replaced in place: the entry keeps its slot and its place
            // in the capacity FIFO, and moves between classes only when
            // its answer class flips (a name starting or ceasing to
            // exist); a same-class refresh keeps that place too.
            Some(id) if self.slot(id).name.wire() == qname.wire() => {
                let slot = self.slot_mut(id);
                let was_neg = is_negative(&slot.entry);
                slot.entry = entry;
                slot.generation = slot.generation.wrapping_add(1);
                let generation = slot.generation;
                if was_neg && !neg {
                    self.unlink(NEG, id);
                } else if neg && !was_neg {
                    self.push_back(NEG, id);
                }
                (id, generation)
            }
            other => {
                if let Some(collider) = other {
                    // Another name with the same 64-bit hash holds the
                    // key; the index has room for one of them.
                    self.remove(collider);
                    self.stats.evictions += 1;
                }
                let id = self.alloc(&qname, key, entry);
                self.index.insert(key, id);
                if let Some(len) = key.scope_len() {
                    // lint: allow(serve-index) — prefix length ≤ 32; the table has 33 slots
                    self.scope_lens[len] += 1;
                }
                self.push_back(ORDER, id);
                if neg {
                    self.push_back(NEG, id);
                }
                (id, self.slot(id).generation)
            }
        };
        self.wheel.insert(
            expires,
            Handle {
                slot: id,
                generation,
            },
        );
        self.stats.insertions += 1;
    }

    /// Reaps entries whose wheel deadline has passed. Returns how many
    /// entries expired.
    pub fn advance(&mut self, now: Instant) -> u64 {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        self.wheel.advance(now, &mut due);
        let mut reaped = 0u64;
        for handle in due.drain(..) {
            // The wheel rounds deadlines up, so a handle that still speaks
            // for its slot fires at or after the entry's expiry; any other
            // was disarmed (evicted, stale-dropped or refreshed since).
            let armed = self
                .slots
                .get(handle.slot as usize)
                .is_some_and(|s| s.generation == handle.generation);
            if armed {
                self.remove(handle.slot);
                reaped += 1;
            }
        }
        self.due = due;
        self.stats.expirations += reaped;
        reaped
    }

    /// Takes a live entry out of the index, both lists and the scope
    /// table, disarms its deadline and frees its slot.
    fn remove(&mut self, id: u32) {
        let slot = self.slot_mut(id);
        let key = slot.key;
        let neg = is_negative(&slot.entry);
        slot.generation = slot.generation.wrapping_add(1);
        // Give the addresses (and a spilled name) back now; the slot
        // itself waits for reuse.
        slot.entry.body = AnswerBody::Failure;
        slot.name = SlotName::EMPTY;
        self.index.remove(&key);
        if let Some(len) = key.scope_len() {
            // lint: allow(serve-index) — prefix length ≤ 32; the table has 33 slots
            self.scope_lens[len] -= 1;
        }
        self.unlink(ORDER, id);
        if neg {
            self.unlink(NEG, id);
        }
        // lint: allow(serve-index) — ORDER < 2, the array's length
        self.slot_mut(id).links[ORDER].next = self.free_head;
        self.free_head = id;
    }

    /// A slot for a new entry: the most recently freed one, else a fresh
    /// one at the slab's end. A reused slot keeps its generation (bumped
    /// when it was freed), so handles armed for its past lives stay dead.
    fn alloc(&mut self, name: &DnsName, key: IndexKey, entry: CacheEntry) -> u32 {
        let mut slot = Slot {
            name: SlotName::new(name),
            key,
            entry,
            generation: 0,
            links: [UNLINKED; 2],
        };
        let id = self.free_head;
        if id == NIL {
            self.slots.push(slot);
            return (self.slots.len() - 1) as u32;
        }
        let free = self.slot_mut(id);
        // lint: allow(serve-index) — ORDER < 2, the array's length
        let next_free = free.links[ORDER].next;
        slot.generation = free.generation;
        *free = slot;
        self.free_head = next_free;
        id
    }

    /// Appends slot `id` to `list` (`ORDER` or `NEG`).
    // lint: allow(serve-index) — list is ORDER or NEG, both < 2, the arrays' length
    fn push_back(&mut self, list: usize, id: u32) {
        let tail = self.fifos[list].tail;
        self.slot_mut(id).links[list] = Link {
            prev: tail,
            next: NIL,
        };
        if tail == NIL {
            self.fifos[list].head = id;
        } else {
            self.slot_mut(tail).links[list].next = id;
        }
        self.fifos[list].tail = id;
        self.fifos[list].len += 1;
    }

    /// Takes slot `id` out of `list` (`ORDER` or `NEG`), which it is on.
    // lint: allow(serve-index) — list is ORDER or NEG, both < 2, the arrays' length
    fn unlink(&mut self, list: usize, id: u32) {
        let Link { prev, next } = std::mem::replace(&mut self.slot_mut(id).links[list], UNLINKED);
        if prev == NIL {
            self.fifos[list].head = next;
        } else {
            self.slot_mut(prev).links[list].next = next;
        }
        if next == NIL {
            self.fifos[list].tail = prev;
        } else {
            self.slot_mut(next).links[list].prev = prev;
        }
        self.fifos[list].len -= 1;
    }

    fn slot(&self, id: u32) -> &Slot {
        // lint: allow(serve-index) — ids come from the index, a list link or a free-list head, which only ever name allocated slots
        &self.slots[id as usize]
    }

    fn slot_mut(&mut self, id: u32) -> &mut Slot {
        // lint: allow(serve-index) — ids come from the index, a list link or a free-list head, which only ever name allocated slots
        &mut self.slots[id as usize]
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        // lint: allow(serve-index) — ORDER < 2, the array's length
        self.fifos[ORDER].len
    }

    /// Live negative/failure entries (the independently bounded class).
    pub fn negative_len(&self) -> usize {
        // lint: allow(serve-index) — NEG < 2, the array's length
        self.fifos[NEG].len
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries held for `(qname, qtype)` across every scope block — the
    /// per-name fan-out of the paper's §5.2. A diagnostic: scans the index.
    pub fn entries_for(&self, qname: &DnsName, qtype: RrType) -> usize {
        self.index
            .iter()
            .filter(|&(key, &id)| {
                key.qtype_code() == u64::from(qtype.code())
                    && self.slot(id).name.wire() == qname.wire()
            })
            .count()
    }

    /// Counters so far.
    pub fn stats(&self) -> LdnsCacheStats {
        self.stats
    }

    /// Heap bytes of the cache's tables, from their capacities: the slab,
    /// the index (a control byte per entry beside it), the timer wheel and
    /// its drain buffer. Answer addresses and spilled names are
    /// per-entry heap outside this sum. For reports, not the serve path:
    /// the wheel's share walks its slots.
    pub fn footprint_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
            + self.index.capacity() * (size_of::<(IndexKey, u32)>() + 1)
            + self.wheel.footprint_bytes()
            + self.due.capacity() * size_of::<Handle>()
    }
}

/// True for the answer classes governed by the negative bound.
fn is_negative(entry: &CacheEntry) -> bool {
    matches!(entry.body, AnswerBody::Negative(_) | AnswerBody::Failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eum_dns::name::name;

    fn addrs(ip: [u8; 4]) -> AnswerBody {
        AnswerBody::Addresses(vec![ip.into()])
    }

    fn cache(now: Instant) -> ResolverCache {
        ResolverCache::new(LdnsCacheConfig::default(), now)
    }

    #[test]
    fn scoped_entry_serves_only_its_block() {
        let t0 = Instant::now();
        let mut c = cache(t0);
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            Some("10.1.2.0/24".parse().unwrap()),
            CacheEntry::new(addrs([9, 9, 9, 9]), 24, 60, t0),
        );
        assert!(c
            .lookup(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.77".parse().unwrap(),
                24,
                t0
            )
            .is_some());
        assert!(c
            .lookup(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.3.77".parse().unwrap(),
                24,
                t0
            )
            .is_none());
        assert_eq!(c.stats().hits_by_scope[24], 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn global_entry_serves_every_client_even_with_ecs_off() {
        let t0 = Instant::now();
        let mut c = cache(t0);
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(addrs([9, 9, 9, 9]), 0, 60, t0),
        );
        for (client, sp) in [("10.1.2.3", 24u8), ("172.16.9.9", 0)] {
            assert!(c
                .lookup(
                    &name("e0.cdn.example"),
                    RrType::A,
                    client.parse().unwrap(),
                    sp,
                    t0
                )
                .is_some());
        }
        assert_eq!(c.stats().hits_by_scope[0], 2);
    }

    #[test]
    fn longest_containing_scope_wins() {
        let t0 = Instant::now();
        let mut c = cache(t0);
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            Some("10.1.0.0/16".parse().unwrap()),
            CacheEntry::new(addrs([1, 1, 1, 1]), 16, 60, t0),
        );
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            Some("10.1.2.0/24".parse().unwrap()),
            CacheEntry::new(addrs([2, 2, 2, 2]), 24, 60, t0),
        );
        let got = c
            .lookup(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.5".parse().unwrap(),
                24,
                t0,
            )
            .unwrap();
        assert_eq!(got.scope, 24);
        let got = c
            .lookup(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.9.5".parse().unwrap(),
                24,
                t0,
            )
            .unwrap();
        assert_eq!(got.scope, 16);
    }

    #[test]
    fn source_prefix_bounds_the_probe() {
        // A /24-scoped entry must not serve a resolver announcing /16 —
        // the §7.3.1 `/y ≤ /x` guarantee survives caching.
        let t0 = Instant::now();
        let mut c = cache(t0);
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            Some("10.1.2.0/24".parse().unwrap()),
            CacheEntry::new(addrs([9, 9, 9, 9]), 24, 60, t0),
        );
        assert!(c
            .lookup(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.77".parse().unwrap(),
                16,
                t0
            )
            .is_none());
    }

    #[test]
    fn wheel_advance_reaps_expired_entries() {
        let t0 = Instant::now();
        let mut c = cache(t0);
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(addrs([9, 9, 9, 9]), 0, 5, t0),
        );
        c.insert(
            name("e1.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(addrs([8, 8, 8, 8]), 0, 500, t0),
        );
        assert_eq!(c.advance(t0 + Duration::from_secs(4)), 0);
        assert_eq!(c.advance(t0 + Duration::from_secs(10)), 1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().expirations, 1);
    }

    #[test]
    fn lookup_never_serves_stale_between_advances() {
        let t0 = Instant::now();
        let mut c = cache(t0);
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(addrs([9, 9, 9, 9]), 0, 5, t0),
        );
        // No advance has run; the entry is past deadline anyway.
        let got = c.lookup(
            &name("e0.cdn.example"),
            RrType::A,
            "10.0.0.1".parse().unwrap(),
            0,
            t0 + Duration::from_secs(6),
        );
        assert!(got.is_none());
        assert_eq!(c.stats().stale_drops, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn refreshed_entry_survives_its_old_deadline() {
        let t0 = Instant::now();
        let mut c = cache(t0);
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(addrs([9, 9, 9, 9]), 0, 5, t0),
        );
        // Refreshed with a longer TTL before the old deadline fires.
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(addrs([9, 9, 9, 9]), 0, 60, t0 + Duration::from_secs(2)),
        );
        assert_eq!(c.advance(t0 + Duration::from_secs(10)), 0);
        assert!(c
            .lookup(
                &name("e0.cdn.example"),
                RrType::A,
                "10.0.0.1".parse().unwrap(),
                0,
                t0 + Duration::from_secs(10)
            )
            .is_some());
        // The re-armed deadline still fires.
        assert_eq!(c.advance(t0 + Duration::from_secs(70)), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn remaining_ttl_decrements_and_saturates() {
        let t0 = Instant::now();
        let e = CacheEntry::new(addrs([9, 9, 9, 9]), 0, 60, t0);
        assert_eq!(e.remaining_ttl_s(t0), 60);
        assert_eq!(e.remaining_ttl_s(t0 + Duration::from_secs(10)), 50);
        assert_eq!(e.remaining_ttl_s(t0 + Duration::from_secs(1000)), 0);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let t0 = Instant::now();
        let mut c = ResolverCache::new(
            LdnsCacheConfig {
                max_entries: 2,
                ..LdnsCacheConfig::default()
            },
            t0,
        );
        for i in 0..3u8 {
            c.insert(
                name(&format!("e{i}.cdn.example")),
                RrType::A,
                None,
                CacheEntry::new(addrs([i, i, i, i]), 0, 60, t0),
            );
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c
            .lookup(
                &name("e0.cdn.example"),
                RrType::A,
                "10.0.0.1".parse().unwrap(),
                0,
                t0
            )
            .is_none());
        assert!(c
            .lookup(
                &name("e2.cdn.example"),
                RrType::A,
                "10.0.0.1".parse().unwrap(),
                0,
                t0
            )
            .is_some());
    }

    #[test]
    fn negative_bound_evicts_oldest_negative_first() {
        let t0 = Instant::now();
        let mut c = ResolverCache::new(
            LdnsCacheConfig {
                max_negative_entries: 2,
                ..LdnsCacheConfig::default()
            },
            t0,
        );
        for i in 0..3u8 {
            c.insert(
                name(&format!("n{i}.cdn.example")),
                RrType::A,
                None,
                CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, 60, t0),
            );
        }
        assert_eq!(c.negative_len(), 2);
        assert_eq!(c.stats().negative_evictions, 1);
        assert_eq!(c.stats().evictions, 0, "the shared bound never fired");
        assert!(c
            .lookup(
                &name("n0.cdn.example"),
                RrType::A,
                "10.0.0.1".parse().unwrap(),
                0,
                t0
            )
            .is_none());
        assert!(c
            .lookup(
                &name("n2.cdn.example"),
                RrType::A,
                "10.0.0.1".parse().unwrap(),
                0,
                t0
            )
            .is_some());
    }

    #[test]
    fn nxdomain_flood_cannot_evict_the_positive_working_set() {
        let t0 = Instant::now();
        let mut c = ResolverCache::new(
            LdnsCacheConfig {
                max_entries: 64,
                max_negative_entries: 8,
                ..LdnsCacheConfig::default()
            },
            t0,
        );
        for i in 0..16u8 {
            c.insert(
                name(&format!("e{i}.cdn.example")),
                RrType::A,
                None,
                CacheEntry::new(addrs([10, 0, 0, i]), 0, 600, t0),
            );
        }
        // A cache-busting flood: 1000 distinct names, all NXDOMAIN. With
        // a shared-only bound these would churn every positive entry out;
        // the negative bound caps their footprint at 8 slots.
        for i in 0..1000u32 {
            c.insert(
                name(&format!("x{i:06x}.cdn.example")),
                RrType::A,
                None,
                CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, 60, t0),
            );
        }
        assert_eq!(c.negative_len(), 8);
        assert_eq!(c.stats().negative_evictions, 1000 - 8);
        assert_eq!(c.stats().evictions, 0);
        for i in 0..16u8 {
            assert!(
                c.lookup(
                    &name(&format!("e{i}.cdn.example")),
                    RrType::A,
                    "10.0.0.1".parse().unwrap(),
                    0,
                    t0
                )
                .is_some(),
                "positive e{i} must survive the flood"
            );
        }
    }

    #[test]
    fn failure_entries_share_the_negative_bound() {
        let t0 = Instant::now();
        let mut c = ResolverCache::new(
            LdnsCacheConfig {
                max_negative_entries: 1,
                ..LdnsCacheConfig::default()
            },
            t0,
        );
        c.insert(
            name("f0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(AnswerBody::Failure, 0, 30, t0),
        );
        c.insert(
            name("f1.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, 60, t0),
        );
        assert_eq!(c.negative_len(), 1);
        assert_eq!(c.stats().negative_evictions, 1);
    }

    #[test]
    fn answer_class_flips_move_between_fifos() {
        let t0 = Instant::now();
        let mut c = ResolverCache::new(
            LdnsCacheConfig {
                max_negative_entries: 4,
                ..LdnsCacheConfig::default()
            },
            t0,
        );
        // Name starts out nonexistent...
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, 60, t0),
        );
        assert_eq!(c.negative_len(), 1);
        // ...then comes into existence: the entry leaves the negative FIFO.
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(addrs([9, 9, 9, 9]), 0, 60, t0),
        );
        assert_eq!(c.negative_len(), 0);
        assert_eq!(c.len(), 1);
        // ...and stops existing again: back under the negative bound.
        c.insert(
            name("e0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, 60, t0),
        );
        assert_eq!(c.negative_len(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn expiry_and_stale_drops_release_negative_slots() {
        let t0 = Instant::now();
        let mut c = ResolverCache::new(
            LdnsCacheConfig {
                max_negative_entries: 2,
                ..LdnsCacheConfig::default()
            },
            t0,
        );
        c.insert(
            name("n0.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, 5, t0),
        );
        c.insert(
            name("n1.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, 500, t0),
        );
        assert_eq!(c.advance(t0 + Duration::from_secs(10)), 1);
        assert_eq!(c.negative_len(), 1);
        // The freed slot is usable without evicting the survivor.
        c.insert(
            name("n2.cdn.example"),
            RrType::A,
            None,
            CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, 60, t0),
        );
        assert_eq!(c.negative_len(), 2);
        assert_eq!(c.stats().negative_evictions, 0);
    }
}
