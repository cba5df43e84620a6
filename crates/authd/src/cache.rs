//! The authoritative-side answer cache, ECS-scope aware.
//!
//! Computing an answer means routing through the snapshot's candidate
//! tables and consistent-hash rings. For a hot domain the result is
//! identical for every client inside the answer's ECS *scope* (the `/y`
//! of Figure 4's `/y ≤ /x` narrowing), so each serving shard memoizes
//! finished answers and replays them for equivalent queries.
//!
//! Entries store the answer **already encoded**: [`CachedAnswer`] holds
//! the full wire bytes of a response template (transaction ID zero, no
//! OPT record). A hit replays by copying those bytes into the shard's
//! reply buffer and patching the per-query parts in place — the ID, the
//! RD flag, and (for ECS queries) an appended OPT record echoing the
//! querier's subnet with the stored scope. No `Message` is rebuilt, no
//! record is cloned, and nothing allocates. A miss is the same replay
//! after one extra step: the mapping decision is rendered straight into
//! the entry's template (`AnswerCache::insert_with`), so the first
//! reply and every later one come off the same bytes.
//!
//! Two strictly separated tables keep the RFC 7871 reuse rules honest:
//!
//! * **Scoped answers** (`scope > 0`, the end-user path) are keyed by
//!   `(qname, qtype, scope block)`. A lookup probes the client's address
//!   truncated to each scope length present in the cache, longest first,
//!   so an entry is only ever reused for clients *inside* the stored
//!   scope.
//! * **Resolver answers** (no ECS in the query, a policy that ignores
//!   it, or a top-level delegation) are keyed by `(qname, qtype,
//!   resolver ip, serving ip)`. They are never consulted for ECS queries
//!   on the end-user path, so a `/0` answer cannot leak to a client the
//!   map would have steered elsewhere.
//!
//! Entries expire with the answer's record TTL, capacity is bounded with
//! FIFO eviction, and hits/misses/evictions are counted per shard (each
//! shard owns its cache outright — no cross-shard locking).
//!
//! # Storage
//!
//! The layout is `eum_ldns::cache`'s, minus the timer wheel (entries
//! here expire lazily, on the probe that finds them stale). Every live
//! entry is one `Slot` of a per-cache slab, and everything else names
//! the slot by its `u32` id:
//!
//! * the **index** maps a 16-byte `IndexKey` to the slot: the 64-bit
//!   hash of the question's name and type — taken once per query, its
//!   top bit replaced by the table — and one word holding the scope
//!   block, or the resolver and serving IPs. The longest-scope probe
//!   re-packs that word per length; it never copies or re-hashes a name;
//! * the question itself is stored **nowhere but in the entry's wire
//!   template**, whose question section (offset 12) a hit compares with
//!   the query's — two questions sharing a hash share a key, and the
//!   index has room for one of them;
//! * the **capacity FIFO** is an intrusive `prev`/`next` list through
//!   the slots: eviction pops the head, and expiry and keyed
//!   invalidation unlink from the middle, all in O(1);
//! * a freed slot keeps its `wire` and `ttl_offsets` buffers on the
//!   **free list**, and the next insert renders into them.
//!
//! Slab and index are *reserved* when the cache is built — the slab at
//! `max_entries`, the index at twice that, so it stays under half load
//! and reclaims the tombstones churn leaves by rehashing in place,
//! never by growing — so neither ever reallocates while the cache fills
//! or turns over. But a slot is only written (and its page touched) when
//! an entry first needs it: a cache holding 256 answers costs 256 slots
//! of resident memory, not 65 536. No operation but
//! [`AnswerCache::clear`] is O(live entries).

use crate::truncate::skip_name;
use eum_dns::edns::EcsOption;
use eum_dns::{encode_message_into, DnsName, Flags, Message, RData, RrType};
use eum_geo::Prefix;
use eum_mapping::MapDelta;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasher;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many generation deltas the cache keeps for lazy keyed
/// invalidation. An entry untouched for longer than this many
/// generations can no longer prove itself clean, so the cache falls back
/// to a wholesale clear rather than growing the history without bound.
const MAX_DELTA_HISTORY: usize = 8;

/// Cache sizing and policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum entries across both tables (FIFO eviction beyond this).
    pub max_entries: usize,
    /// Cap on any entry's lifetime, seconds, regardless of record TTL —
    /// bounds how long a control-plane change can be masked by the cache
    /// when the generation does not change.
    pub max_ttl_s: u32,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 65_536,
            max_ttl_s: 300,
        }
    }
}

/// Per-shard cache counters. Counters are **cumulative over the cache's
/// lifetime**: [`AnswerCache::clear`] drops the entries but never the
/// stats, so hit ratios stay meaningful across snapshot-generation swaps
/// (each swap is itself counted in `generation_clears`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnswerCacheStats {
    /// Lookups served from cache.
    pub hits: u64,
    /// Lookups that had to compute the answer.
    pub misses: u64,
    /// Entries evicted by the capacity bound.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Subset of `insertions` keyed by ECS scope block (the end-user
    /// path); the rest were resolver-keyed.
    pub scoped_insertions: u64,
    /// Times the cache was wholesale-cleared for a new map generation.
    pub generation_clears: u64,
    /// Entries evicted individually because a generation delta named
    /// their mapping unit (the keyed replacement for a generation clear).
    pub keyed_invalidations: u64,
}

/// Capacity a template buffer is given when it is first filled: room for
/// any two-address answer to a name of up to 80 octets, so a recycled
/// slot does not have to grow for whichever answer it is handed next.
const TEMPLATE_RESERVE: usize = 128;

/// A memoized answer, stored as encoded wire bytes.
///
/// The template is a complete response with transaction ID 0, RD clear,
/// and no OPT record; [`CachedAnswer::replay_into`] memcpys it and
/// patches the per-query parts in place — including every record's TTL
/// field, rewritten to the *remaining* TTL so downstream resolvers see
/// decrementing values instead of a frozen insert-time snapshot.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The encoded response template.
    wire: Vec<u8>,
    /// Byte offset of each record's 4-byte TTL field in `wire`, paired
    /// with the TTL value at capture time. Rebuilt by every
    /// [`CachedAnswer::fill`], replayed alloc-free on every hit.
    ttl_offsets: Vec<(u16, u32)>,
    expires: Instant,
    /// When the template was captured; TTLs decrement from this instant.
    created: Instant,
    /// The cache epoch the entry was last validated at (stamped on
    /// insert and re-stamped on every clean hit). An entry behind the
    /// cache's epoch must prove itself against the deltas published
    /// since before it can be served again.
    epoch: u64,
    /// The answered ECS scope (`None` for resolver-keyed entries).
    scope: Option<u8>,
}

impl CachedAnswer {
    /// An answer with no content yet; [`CachedAnswer::fill`] gives it some.
    pub(crate) fn empty(now: Instant) -> CachedAnswer {
        CachedAnswer {
            // Empty vectors own no heap: constructing one allocates nothing.
            wire: Vec::default(),
            ttl_offsets: Vec::default(),
            expires: now,
            created: now,
            epoch: 0,
            scope: None,
        }
    }

    /// Captures the cacheable parts of a computed response: everything
    /// except the per-query transaction ID, RD flag, and OPT/ECS record,
    /// pre-encoded so a hit is a copy, not an encode. The by-value
    /// adapter over `CachedAnswer::fill` for callers holding a
    /// [`Message`]; the serve path renders its decision directly.
    pub fn from_response(resp: &Message, ttl_s: u32, now: Instant) -> CachedAnswer {
        let template = Message {
            id: 0,
            flags: Flags {
                qr: true,
                // Delegations are not authoritative data.
                aa: resp.authorities.is_empty(),
                rcode: resp.flags.rcode,
                ..Flags::default()
            },
            questions: resp.questions.clone(),
            answers: resp.answers.clone(),
            authorities: resp.authorities.clone(),
            additionals: resp
                .additionals
                .iter()
                .filter(|r| !matches!(r.rdata, RData::Opt(_)))
                .cloned()
                .collect(),
        };
        let mut answer = CachedAnswer::empty(now);
        let scope = resp.ecs().map(|e| e.scope_prefix);
        answer.fill(scope, ttl_s, now, |wire| {
            encode_message_into(&template, wire)
        });
        answer
    }

    /// Replaces the answer's content in place, reusing its buffers:
    /// `write_template` writes the response (ID 0, RD clear, no OPT)
    /// into the emptied wire buffer it is handed, and the TTL patch table,
    /// scope and lifetime are derived from that.
    pub(crate) fn fill(
        &mut self,
        scope: Option<u8>,
        ttl_s: u32,
        now: Instant,
        write_template: impl FnOnce(&mut Vec<u8>),
    ) {
        self.wire.clear();
        self.wire.reserve(TEMPLATE_RESERVE);
        write_template(&mut self.wire);
        record_ttl_offsets(&self.wire, &mut self.ttl_offsets);
        self.scope = scope;
        self.created = now;
        self.expires = now + Duration::from_secs(ttl_s as u64);
        self.epoch = 0;
    }

    /// The stored response template bytes (ID 0, RD clear, no OPT).
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// The stored ECS scope (`None` for resolver-keyed entries).
    pub fn scope(&self) -> Option<u8> {
        self.scope
    }

    /// True when the template answers exactly `asked`: its question
    /// section, right behind the 12-byte header, spells that name and
    /// type. This is the index's collision check — the template is the
    /// only place an entry's name is stored.
    fn answers(&self, asked: Asked<'_>) -> bool {
        let qtype = asked.rtype.code().to_be_bytes();
        self.wire
            .get(12..)
            .and_then(|question| question.strip_prefix(asked.name.wire()))
            .and_then(|rest| rest.strip_prefix(&[0]))
            .is_some_and(|rest| rest.starts_with(&qtype))
    }

    /// Replays the entry into `out` for one specific query: memcpy the
    /// template, patch the transaction ID, RD bit, and every record's
    /// remaining TTL in place, and — when the query carried ECS — append
    /// an OPT record echoing the querier's subnet with the stored scope
    /// (clamped to `/y ≤ /x`). Allocation-free once `out` has warmed
    /// capacity.
    pub fn replay_into(
        &self,
        id: u16,
        rd: bool,
        ecs: Option<&EcsOption>,
        now: Instant,
        out: &mut Vec<u8>,
    ) {
        out.clear();
        out.extend_from_slice(&self.wire);
        // lint: allow(serve-index) — the template always starts with a 12-byte header
        out[0] = (id >> 8) as u8;
        // lint: allow(serve-index) — header byte, see above
        out[1] = (id & 0xFF) as u8;
        // Decrement TTLs by the entry's age. Entries expire at the
        // answer's minimum TTL (or sooner), so remaining TTLs never
        // underflow on a live hit — saturating_sub only guards the
        // lookup-at-deadline race.
        let age_s = now.saturating_duration_since(self.created).as_secs() as u32;
        for &(off, orig) in &self.ttl_offsets {
            let off = off as usize;
            let remaining = orig.saturating_sub(age_s);
            // lint: allow(serve-index) — offsets were computed against this same template at insert
            out[off..off + 4].copy_from_slice(&remaining.to_be_bytes());
        }
        if rd {
            // lint: allow(serve-index) — header byte, see above
            out[2] |= 0x01; // RD is the low bit of header byte 2
        }
        if let Some(e) = ecs {
            // ARCOUNT += 1 for the appended OPT.
            // lint: allow(serve-index) — ARCOUNT lives inside the 12-byte header
            let ar = u16::from_be_bytes([out[10], out[11]]) + 1;
            // lint: allow(serve-index) — header bytes, see above
            out[10..12].copy_from_slice(&ar.to_be_bytes());
            // OPT pseudo-RR: root owner, TYPE 41, CLASS = UDP size,
            // TTL = extended fields (all zero).
            out.push(0);
            out.extend_from_slice(&41u16.to_be_bytes());
            out.extend_from_slice(&4096u16.to_be_bytes());
            out.extend_from_slice(&0u32.to_be_bytes());
            let octets = e.addr_octets();
            out.extend_from_slice(&((4 + 4 + octets) as u16).to_be_bytes()); // RDLEN
            out.extend_from_slice(&8u16.to_be_bytes()); // OPTION-CODE: ECS
            out.extend_from_slice(&((4 + octets) as u16).to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // FAMILY: IPv4
            out.push(e.source_prefix);
            out.push(self.scope.unwrap_or(0).min(e.source_prefix));
            // lint: allow(serve-index) — octets ≤ 4 = the length of an IPv4 address
            out.extend_from_slice(&e.addr.octets()[..octets]);
        }
    }

    /// True once the entry's TTL has run out.
    pub fn expired(&self, now: Instant) -> bool {
        now >= self.expires
    }
}

/// Walks a freshly encoded response template and records into `offsets`
/// (cleared first) the byte offset and capture-time value of every
/// record's TTL field, so replays can patch remaining TTLs in place
/// without re-encoding. Runs once per cache fill; the walk trusts
/// nothing — a malformed template (impossible for self-encoded bytes)
/// just yields fewer offsets, never a panic.
fn record_ttl_offsets(wire: &[u8], offsets: &mut Vec<(u16, u32)>) {
    offsets.clear();
    let rd_u16 = |pos: usize| -> Option<u16> {
        Some(u16::from_be_bytes([*wire.get(pos)?, *wire.get(pos + 1)?]))
    };
    let Some(qdcount) = rd_u16(4) else {
        return;
    };
    let records = [rd_u16(6), rd_u16(8), rd_u16(10)]
        .iter()
        .map(|c| c.unwrap_or(0) as usize)
        .sum::<usize>();
    let mut pos = 12usize;
    for _ in 0..qdcount {
        let Some(past_name) = skip_name(wire, pos) else {
            return;
        };
        pos = past_name + 4; // QTYPE + QCLASS
    }
    for _ in 0..records {
        let Some(past_name) = skip_name(wire, pos) else {
            return;
        };
        let ttl_at = past_name + 4; // past TYPE + CLASS
        let (Some(hi), Some(lo)) = (rd_u16(ttl_at), rd_u16(ttl_at + 2)) else {
            return;
        };
        let Some(rdlen) = rd_u16(ttl_at + 4) else {
            return;
        };
        if let Ok(off) = u16::try_from(ttl_at) {
            offsets.push((off, ((hi as u32) << 16) | lo as u32));
        }
        pos = ttl_at + 6 + rdlen as usize;
    }
}

/// "No slot": the end of the FIFO, the head of an empty list.
const NIL: u32 = u32::MAX;

/// Set in [`IndexKey::question`] for the resolver table, clear for the
/// scoped one — so no scoped key can equal a resolver key.
const RESOLVER_TABLE: u64 = 1 << 63;

/// A query's question with its hash taken — once, by
/// [`AnswerCache::ask`] — which every probe for it, and the insert that
/// follows a miss, are then keyed by.
#[derive(Clone, Copy)]
pub(crate) struct Asked<'a> {
    hash: u64,
    name: &'a DnsName,
    rtype: RrType,
}

impl Asked<'_> {
    /// The key of the end-user answer valid inside `block`.
    pub(crate) fn scoped(self, block: Prefix) -> IndexKey {
        IndexKey {
            question: self.hash & !RESOLVER_TABLE,
            rest: u64::from(block.len()) << 32 | u64::from(block.addr()),
        }
    }

    /// The key of the answer for one LDNS at one serving IP.
    pub(crate) fn resolver(self, resolver: Ipv4Addr, server: Ipv4Addr) -> IndexKey {
        IndexKey {
            question: self.hash | RESOLVER_TABLE,
            rest: u64::from(u32::from(resolver)) << 32 | u64::from(u32::from(server)),
        }
    }
}

/// What the index hashes and compares instead of a 256-byte name: 63
/// bits of the question's hash plus the table bit, and the partition
/// within that table — a scope block, or the resolver and serving IPs
/// (a name delegates at the top level and answers at a low level, so the
/// serving IP must split resolver entries; low-level scoped answers do
/// not depend on which cluster's NS was asked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct IndexKey {
    question: u64,
    rest: u64,
}

impl IndexKey {
    /// The scope block of a scoped key, `None` for a resolver key.
    fn scope_block(self) -> Option<Prefix> {
        (self.question & RESOLVER_TABLE == 0)
            .then(|| Prefix::new(self.rest as u32, (self.rest >> 32) as u8))
    }
}

/// One slab slot: a live entry on the FIFO, or a free one (stale answer,
/// buffers kept for the next insert) chained through `next`.
#[derive(Debug)]
struct Slot {
    key: IndexKey,
    answer: CachedAnswer,
    prev: u32,
    next: u32,
}

// The footprint this layout exists for: a slot (heap buffers aside) and
// an index key must not quietly grow back.
const _: () = assert!(std::mem::size_of::<Slot>() <= 128);
const _: () = assert!(std::mem::size_of::<IndexKey>() == 16);

/// The per-shard answer cache.
pub struct AnswerCache {
    cfg: CacheConfig,
    /// Key → slot. Its randomly keyed hasher also takes the
    /// once-per-query question hash ([`AnswerCache::ask`]).
    index: HashMap<IndexKey, u32>,
    slots: Vec<Slot>,
    /// First free slot, [`NIL`] when the slab has none to reuse.
    free_head: u32,
    /// Oldest and newest live slot: insertion order for FIFO eviction.
    head: u32,
    tail: u32,
    /// How many live entries use each scope length — lookups probe only
    /// lengths actually present.
    scope_lens: [u32; 33],
    /// The current generation epoch; bumped by
    /// [`AnswerCache::begin_generation`] when a keyed delta arrives.
    epoch: u64,
    /// Deltas published since the oldest entry epoch still in play,
    /// oldest first: `(epoch the delta introduced, the delta)`. An entry
    /// stamped at epoch `e` is clean iff no delta with epoch `> e` names
    /// its unit.
    deltas: VecDeque<(u64, Arc<MapDelta>)>,
    stats: AnswerCacheStats,
}

impl AnswerCache {
    /// An empty cache with the given bounds.
    pub fn new(cfg: CacheConfig) -> AnswerCache {
        let reserve = cfg.max_entries.max(1);
        AnswerCache {
            cfg,
            // Twice the bound: at under half load the table reclaims the
            // tombstones churn leaves behind by rehashing in place, where a
            // fuller one would grow — an allocation and a stall.
            index: HashMap::with_capacity(2 * reserve),
            slots: Vec::with_capacity(reserve),
            free_head: NIL,
            head: NIL,
            tail: NIL,
            scope_lens: [0; 33],
            epoch: 0,
            deltas: VecDeque::new(),
            stats: AnswerCacheStats::default(),
        }
    }

    /// Transitions the cache to a new snapshot generation. With a keyed
    /// delta, entries survive and are invalidated lazily on first touch
    /// (zero work now, zero allocations later); without one — or when the
    /// delta is full, or the history window is exhausted — the cache
    /// falls back to the wholesale generation clear.
    pub fn begin_generation(&mut self, delta: Option<&Arc<MapDelta>>) {
        match delta {
            // Nothing changed: current entries stay valid as-is.
            Some(d) if d.is_empty() => {}
            Some(d) if !d.is_full() && self.deltas.len() < MAX_DELTA_HISTORY => {
                self.epoch += 1;
                self.deltas.push_back((self.epoch, d.clone()));
            }
            _ => self.clear(),
        }
    }

    /// True when some delta published after `entry_epoch` names the
    /// entry's mapping unit. Walks the (short, bounded) delta history
    /// newest-first and stops at the entry's own epoch; no allocations.
    fn delta_affected(&self, entry_epoch: u64, key: IndexKey) -> bool {
        for (epoch, delta) in self.deltas.iter().rev() {
            if *epoch <= entry_epoch {
                break;
            }
            let affected = match key.scope_block() {
                Some(block) => delta.affects_scoped(block),
                // A resolver key: the LDNS is the word's high half.
                None => delta.affects_resolver(Ipv4Addr::from((key.rest >> 32) as u32)),
            };
            if affected {
                return true;
            }
        }
        false
    }

    /// Hashes the question `(qname, qtype)`. The serve path asks once per
    /// query and hands the result to every probe and to the insert that
    /// follows a miss.
    pub(crate) fn ask<'a>(&self, qname: &'a DnsName, qtype: RrType) -> Asked<'a> {
        Asked {
            hash: self.index.hasher().hash_one((qname.wire(), qtype.code())),
            name: qname,
            rtype: qtype,
        }
    }

    /// Looks up a scoped (end-user) answer for `client`, probing the scope
    /// lengths present in the cache from most to least specific. Scopes
    /// longer than `max_scope` (the query's ECS source prefix) are never
    /// reused — the answer's `/y ≤ /x` guarantee must survive caching.
    /// Counts a hit or miss. Returns a reference — replaying borrows the
    /// entry's bytes instead of cloning records.
    pub fn lookup_scoped(
        &mut self,
        qname: &DnsName,
        qtype: RrType,
        client: Ipv4Addr,
        max_scope: u8,
        now: Instant,
    ) -> Option<&CachedAnswer> {
        self.find_scoped(self.ask(qname, qtype), client, max_scope, now)
    }

    /// [`AnswerCache::lookup_scoped`] for a question already hashed.
    pub(crate) fn find_scoped(
        &mut self,
        asked: Asked<'_>,
        client: Ipv4Addr,
        max_scope: u8,
        now: Instant,
    ) -> Option<&CachedAnswer> {
        let mut hit = None;
        for len in (1..=max_scope.min(32)).rev() {
            // lint: allow(serve-index) — len ≤ 32 by the loop bound; the table has 33 slots
            if self.scope_lens[len as usize] == 0 {
                continue;
            }
            hit = self.probe(asked.scoped(Prefix::of(client, len)), asked, now);
            if hit.is_some() {
                break;
            }
        }
        self.count(hit)
    }

    /// Looks up a resolver-keyed answer for queries `resolver` sent to
    /// the authoritative IP `server`. Counts a hit or miss.
    pub fn lookup_resolver(
        &mut self,
        qname: &DnsName,
        qtype: RrType,
        resolver: Ipv4Addr,
        server: Ipv4Addr,
        now: Instant,
    ) -> Option<&CachedAnswer> {
        let asked = self.ask(qname, qtype);
        self.find(asked.resolver(resolver, server), asked, now)
    }

    /// Looks up the answer to `asked` under exactly `key`. Counts a hit
    /// or miss.
    pub(crate) fn find(
        &mut self,
        key: IndexKey,
        asked: Asked<'_>,
        now: Instant,
    ) -> Option<&CachedAnswer> {
        let hit = self.probe(key, asked, now);
        self.count(hit)
    }

    /// The live, clean slot under `key` that answers `asked`, re-stamped
    /// at the current epoch. An expired entry, or one a generation delta
    /// names, is dropped on the spot.
    fn probe(&mut self, key: IndexKey, asked: Asked<'_>, now: Instant) -> Option<u32> {
        let id = *self.index.get(&key)?;
        let answer = &self.slots.get(id as usize)?.answer;
        if !answer.answers(asked) {
            return None;
        }
        let entry_epoch = answer.epoch;
        if answer.expired(now) {
            self.remove(id);
            return None;
        }
        if entry_epoch != self.epoch && self.delta_affected(entry_epoch, key) {
            self.remove(id);
            self.stats.keyed_invalidations += 1;
            return None;
        }
        // The entry just proved itself clean against every delta up to
        // the current epoch.
        self.slots.get_mut(id as usize)?.answer.epoch = self.epoch;
        Some(id)
    }

    /// Counts a lookup's outcome and borrows the hit's answer.
    fn count(&mut self, hit: Option<u32>) -> Option<&CachedAnswer> {
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        self.slots.get(hit? as usize).map(|slot| &slot.answer)
    }

    /// Inserts a scoped answer to `(qname, qtype)` valid for
    /// `scope_block`. The template in `answer` must be the answer to that
    /// question — it is where the entry's name lives.
    pub fn insert_scoped(
        &mut self,
        qname: DnsName,
        qtype: RrType,
        scope_block: Prefix,
        answer: CachedAnswer,
    ) {
        let asked = self.ask(&qname, qtype);
        let key = asked.scoped(scope_block);
        self.insert_with(key, asked, answer.created, |slot| *slot = answer);
    }

    /// Inserts a resolver-keyed answer to `(qname, qtype)` for the given
    /// serving IP (same template contract as [`AnswerCache::insert_scoped`]).
    pub fn insert_resolver(
        &mut self,
        qname: DnsName,
        qtype: RrType,
        resolver: Ipv4Addr,
        server: Ipv4Addr,
        answer: CachedAnswer,
    ) {
        let asked = self.ask(&qname, qtype);
        let key = asked.resolver(resolver, server);
        self.insert_with(key, asked, answer.created, |slot| *slot = answer);
    }

    /// The one insert path: claims the slot for `key` — evicting the
    /// oldest entries while the cache is at its bound, replacing a
    /// resident answer to the same question in place, else reusing a
    /// freed slot (buffers and all) or first-touching a fresh one — has
    /// `fill` write the answer to `asked` into it, stamps it with the
    /// current epoch and caps its lifetime at `max_ttl_s` from its own
    /// creation time. Returns the stored answer, ready to replay.
    pub(crate) fn insert_with(
        &mut self,
        key: IndexKey,
        asked: Asked<'_>,
        now: Instant,
        fill: impl FnOnce(&mut CachedAnswer),
    ) -> Option<&CachedAnswer> {
        while self.index.len() >= self.cfg.max_entries.max(1) && self.head != NIL {
            self.remove(self.head);
            self.stats.evictions += 1;
        }
        let answers =
            |id: u32| (self.slots.get(id as usize)).is_some_and(|s| s.answer.answers(asked));
        let id = match self.index.get(&key).copied() {
            // Replaced in place: the entry keeps its slot and its place
            // in the FIFO.
            Some(id) if answers(id) => id,
            other => {
                if let Some(collider) = other {
                    // Another question with the same 63-bit hash holds
                    // the key; the index has room for one of them.
                    self.remove(collider);
                    self.stats.evictions += 1;
                }
                let id = self.alloc(key, now);
                self.index.insert(key, id);
                if let Some(n) = self.scope_count(key) {
                    *n += 1;
                }
                self.push_back(id);
                id
            }
        };
        self.stats.insertions += 1;
        self.stats.scoped_insertions += u64::from(key.scope_block().is_some());
        let max_ttl = Duration::from_secs(self.cfg.max_ttl_s as u64);
        let answer = &mut self.slots.get_mut(id as usize)?.answer;
        fill(answer);
        answer.epoch = self.epoch;
        answer.expires = answer.expires.min(answer.created + max_ttl);
        Some(answer)
    }

    /// The live-entry count of a scoped key's length (`None`: resolver key).
    fn scope_count(&mut self, key: IndexKey) -> Option<&mut u32> {
        self.scope_lens
            .get_mut(usize::from(key.scope_block()?.len()))
    }

    /// Takes a live entry out of the index, the FIFO and the scope
    /// table, and puts its slot — buffers kept — on the free list.
    fn remove(&mut self, id: u32) {
        let Some(slot) = self.slots.get(id as usize) else {
            return;
        };
        let key = slot.key;
        self.index.remove(&key);
        if let Some(n) = self.scope_count(key) {
            *n -= 1;
        }
        self.unlink(id);
        if let Some(slot) = self.slots.get_mut(id as usize) {
            slot.next = self.free_head;
            self.free_head = id;
        }
    }

    /// A slot for a new entry under `key`: the most recently freed one,
    /// else a fresh one at the slab's end — first touched here, inside
    /// the capacity reserved by [`AnswerCache::new`].
    fn alloc(&mut self, key: IndexKey, now: Instant) -> u32 {
        let id = self.free_head;
        if let Some(free) = self.slots.get_mut(id as usize) {
            self.free_head = free.next;
            free.key = key;
            return id;
        }
        self.slots.push(Slot {
            key,
            answer: CachedAnswer::empty(now),
            prev: NIL,
            next: NIL,
        });
        (self.slots.len() - 1) as u32
    }

    /// Appends slot `id` to the FIFO.
    fn push_back(&mut self, id: u32) {
        let tail = self.tail;
        if let Some(slot) = self.slots.get_mut(id as usize) {
            slot.prev = tail;
            slot.next = NIL;
        }
        // [`NIL`] names no slot: an empty list gets a new head instead.
        match self.slots.get_mut(tail as usize) {
            Some(last) => last.next = id,
            None => self.head = id,
        }
        self.tail = id;
    }

    /// Takes slot `id` out of the FIFO, which it is on.
    fn unlink(&mut self, id: u32) {
        let Some(slot) = self.slots.get(id as usize) else {
            return;
        };
        let (prev, next) = (slot.prev, slot.next);
        match self.slots.get_mut(prev as usize) {
            Some(before) => before.next = next,
            None => self.head = next,
        }
        match self.slots.get_mut(next as usize) {
            Some(after) => after.prev = prev,
            None => self.tail = prev,
        }
    }

    /// Drops every entry (used when a new snapshot generation lands).
    /// Stats survive — they are cumulative across generations — and the
    /// clear itself is counted. Every slot goes to the free list with its
    /// buffers, so the refill allocates nothing.
    pub fn clear(&mut self) {
        self.index.clear();
        let n = self.slots.len() as u32;
        for (slot, id) in self.slots.iter_mut().zip(1..) {
            slot.next = if id < n { id } else { NIL };
        }
        self.free_head = if n == 0 { NIL } else { 0 };
        self.head = NIL;
        self.tail = NIL;
        self.scope_lens = [0; 33];
        // With no entries left, history proves nothing — drop it so the
        // keyed path gets its full window back.
        self.deltas.clear();
        self.stats.generation_clears += 1;
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> AnswerCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eum_dns::edns::OptData;
    use eum_dns::name::name;
    use eum_dns::{decode_message, Message, Question, Rcode, Record};

    fn ns() -> Ipv4Addr {
        "192.0.2.2".parse().unwrap()
    }

    /// A cached entry answering `qname` with one A record of the given
    /// TTL and an ECS response scope of /24, captured at `now`.
    fn entry_at(qname: &str, ttl_s: u32, now: Instant) -> CachedAnswer {
        let q = Message::query(
            7,
            Question::a(name(qname)),
            Some(OptData::with_ecs(EcsOption::query(
                "10.1.2.3".parse().unwrap(),
                24,
            ))),
        );
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.answers
            .push(Record::a(name(qname), ttl_s, [9, 9, 9, 9].into()));
        resp.set_opt(OptData::with_ecs(EcsOption::response(q.ecs().unwrap(), 24)));
        CachedAnswer::from_response(&resp, ttl_s, now)
    }

    /// [`entry_at`] for `e0.cdn.example`, captured now.
    fn entry(ttl_s: u32) -> CachedAnswer {
        entry_at("e0.cdn.example", ttl_s, Instant::now())
    }

    #[test]
    fn template_strips_per_query_parts() {
        let e = entry(30);
        let template = decode_message(e.wire()).unwrap();
        assert_eq!(template.id, 0);
        assert!(!template.flags.rd, "RD is patched per query");
        assert!(template.opt().is_none(), "OPT is appended per query");
        assert_eq!(template.answer_ips(), vec![Ipv4Addr::new(9, 9, 9, 9)]);
        assert_eq!(e.scope(), Some(24));
    }

    #[test]
    fn replay_patches_id_rd_and_appends_ecs() {
        let e = entry(30);
        let ecs = EcsOption::query("10.1.2.200".parse().unwrap(), 28);
        let mut out = Vec::new();
        e.replay_into(0xBEEF, true, Some(&ecs), Instant::now(), &mut out);
        let resp = decode_message(&out).expect("replayed bytes decode");
        assert_eq!(resp.id, 0xBEEF);
        assert!(resp.flags.qr && resp.flags.rd);
        assert_eq!(resp.answer_ips(), vec![Ipv4Addr::new(9, 9, 9, 9)]);
        let echo = resp.ecs().expect("ECS echoed");
        // RFC 7871 §7.1.3: family/source/address echo the query; the
        // scope is the stored one clamped to the source.
        assert_eq!(echo.addr, Ipv4Addr::new(10, 1, 2, 192));
        assert_eq!(echo.source_prefix, 28);
        assert_eq!(echo.scope_prefix, 24);
    }

    #[test]
    fn replay_without_ecs_appends_nothing() {
        let e = entry(30);
        let mut out = Vec::new();
        e.replay_into(42, false, None, Instant::now(), &mut out);
        let resp = decode_message(&out).expect("replayed bytes decode");
        assert_eq!(resp.id, 42);
        assert!(!resp.flags.rd);
        assert!(resp.opt().is_none());
        assert_eq!(out.len(), e.wire().len());
    }

    #[test]
    fn replay_reuses_buffer_capacity() {
        let e = entry(30);
        let mut out = Vec::new();
        let now = Instant::now();
        e.replay_into(1, false, None, now, &mut out);
        let cap = out.capacity();
        let ptr = out.as_ptr();
        for id in 2..50u16 {
            e.replay_into(
                id,
                true,
                None,
                now + Duration::from_secs(id as u64),
                &mut out,
            );
        }
        assert_eq!(out.capacity(), cap, "replay must not reallocate");
        assert_eq!(out.as_ptr(), ptr, "replay must not move the buffer");
    }

    #[test]
    fn replay_decrements_record_ttls() {
        let t0 = Instant::now();
        let q = Message::query(7, Question::a(name("e0.cdn.example")), None);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.answers
            .push(Record::a(name("e0.cdn.example"), 30, [9, 9, 9, 9].into()));
        resp.answers
            .push(Record::a(name("e0.cdn.example"), 45, [9, 9, 9, 8].into()));
        let e = CachedAnswer::from_response(&resp, 30, t0);
        let ttls = |out: &[u8]| {
            let m = decode_message(out).expect("replayed bytes decode");
            m.answers.iter().map(|r| r.ttl).collect::<Vec<_>>()
        };
        let mut out = Vec::new();
        e.replay_into(1, false, None, t0, &mut out);
        assert_eq!(ttls(&out), vec![30, 45], "fresh replay keeps full TTLs");
        e.replay_into(2, false, None, t0 + Duration::from_secs(10), &mut out);
        assert_eq!(ttls(&out), vec![20, 35], "TTLs decrement with entry age");
        // Way past the record TTL the patch saturates at zero rather
        // than wrapping (only reachable through the expiry race).
        e.replay_into(3, false, None, t0 + Duration::from_secs(1000), &mut out);
        assert_eq!(ttls(&out), vec![0, 0]);
    }

    #[test]
    fn ttl_patching_handles_compressed_owner_names() {
        // A delegation-shaped response: NS authorities plus glue, all
        // sharing suffixes, so the encoded template contains RFC 1035
        // compression pointers in owner names. The offset walk must step
        // over them correctly.
        let t0 = Instant::now();
        let q = Message::query(7, Question::a(name("www.cdn.example")), None);
        let mut resp = Message::response_to(&q, Rcode::NoError);
        resp.authorities.push(Record::ns(
            name("cdn.example"),
            600,
            name("ns1.cdn.example"),
        ));
        resp.authorities.push(Record::ns(
            name("cdn.example"),
            600,
            name("ns2.cdn.example"),
        ));
        resp.additionals
            .push(Record::a(name("ns1.cdn.example"), 300, [9, 0, 0, 1].into()));
        resp.additionals
            .push(Record::a(name("ns2.cdn.example"), 300, [9, 0, 0, 2].into()));
        let e = CachedAnswer::from_response(&resp, 300, t0);
        let mut out = Vec::new();
        e.replay_into(9, false, None, t0 + Duration::from_secs(100), &mut out);
        let m = decode_message(&out).expect("replayed bytes decode");
        assert_eq!(
            m.authorities.iter().map(|r| r.ttl).collect::<Vec<_>>(),
            vec![500, 500]
        );
        assert_eq!(
            m.additionals.iter().map(|r| r.ttl).collect::<Vec<_>>(),
            vec![200, 200]
        );
    }

    #[test]
    fn scoped_hit_requires_client_inside_scope() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            entry(30),
        );
        assert!(c
            .lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.77".parse().unwrap(),
                24,
                now
            )
            .is_some());
        assert!(c
            .lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.3.77".parse().unwrap(),
                24,
                now
            )
            .is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn longest_scope_wins_over_broader_one() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        let broad = {
            let mut e = entry(30);
            e.scope = Some(16);
            e
        };
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.0.0/16".parse().unwrap(),
            broad,
        );
        let narrow = {
            let mut e = entry(30);
            e.scope = Some(24);
            e
        };
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            narrow,
        );
        let got = c
            .lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.5".parse().unwrap(),
                24,
                now,
            )
            .unwrap();
        assert_eq!(got.scope(), Some(24));
        let got = c
            .lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.9.5".parse().unwrap(),
                24,
                now,
            )
            .unwrap();
        assert_eq!(got.scope(), Some(16));
    }

    #[test]
    fn resolver_entries_do_not_answer_scoped_lookups() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        let ldns: Ipv4Addr = "8.8.8.8".parse().unwrap();
        c.insert_resolver(name("e0.cdn.example"), RrType::A, ldns, ns(), entry(30));
        // The very client the resolver serves still misses the scoped path.
        assert!(c
            .lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.77".parse().unwrap(),
                24,
                now
            )
            .is_none());
        assert!(c
            .lookup_resolver(&name("e0.cdn.example"), RrType::A, ldns, ns(), now)
            .is_some());
    }

    #[test]
    fn expiry_removes_entries() {
        let mut c = AnswerCache::new(CacheConfig::default());
        c.insert_resolver(
            name("e0.cdn.example"),
            RrType::A,
            "8.8.8.8".parse().unwrap(),
            ns(),
            entry(0),
        );
        let later = Instant::now() + Duration::from_millis(1);
        assert!(c
            .lookup_resolver(
                &name("e0.cdn.example"),
                RrType::A,
                "8.8.8.8".parse().unwrap(),
                ns(),
                later
            )
            .is_none());
        assert!(c.is_empty(), "expired entry must be dropped on lookup");
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let mut c = AnswerCache::new(CacheConfig {
            max_entries: 2,
            max_ttl_s: 300,
        });
        let now = Instant::now();
        for i in 0..3u8 {
            let qname = format!("e{i}.cdn.example");
            c.insert_resolver(
                name(&qname),
                RrType::A,
                "8.8.8.8".parse().unwrap(),
                ns(),
                entry_at(&qname, 30, now),
            );
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(c
            .lookup_resolver(
                &name("e0.cdn.example"),
                RrType::A,
                "8.8.8.8".parse().unwrap(),
                ns(),
                now
            )
            .is_none());
        assert!(c
            .lookup_resolver(
                &name("e2.cdn.example"),
                RrType::A,
                "8.8.8.8".parse().unwrap(),
                ns(),
                now
            )
            .is_some());
    }

    #[test]
    fn stats_accumulate_across_generation_clears() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            entry(30),
        );
        let _ = c.lookup_scoped(
            &name("e0.cdn.example"),
            RrType::A,
            "10.1.2.77".parse().unwrap(),
            24,
            now,
        );
        c.clear();
        c.insert_resolver(
            name("e0.cdn.example"),
            RrType::A,
            "8.8.8.8".parse().unwrap(),
            ns(),
            entry(30),
        );
        let _ = c.lookup_resolver(
            &name("e0.cdn.example"),
            RrType::A,
            "8.8.8.8".parse().unwrap(),
            ns(),
            now,
        );
        c.clear();
        let s = c.stats();
        assert_eq!(s.hits, 2, "hits must survive clears");
        assert_eq!(s.insertions, 2);
        assert_eq!(s.scoped_insertions, 1);
        assert_eq!(s.generation_clears, 2);
    }

    #[test]
    fn keyed_delta_evicts_only_affected_scoped_entries() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        for block in ["10.1.2.0/24", "10.1.3.0/24"] {
            c.insert_scoped(
                name("e0.cdn.example"),
                RrType::A,
                block.parse().unwrap(),
                entry(30),
            );
        }
        // New generation: only 10.1.2.0/24 changed.
        let delta = Arc::new(MapDelta::from_dirty(&["10.1.2.0/24".parse().unwrap()], &[]));
        c.begin_generation(Some(&delta));
        assert_eq!(c.len(), 2, "keyed transition keeps entries for lazy checks");
        assert!(
            c.lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.77".parse().unwrap(),
                24,
                now
            )
            .is_none(),
            "entry named by the delta must be evicted on first touch"
        );
        assert!(
            c.lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.3.77".parse().unwrap(),
                24,
                now
            )
            .is_some(),
            "unaffected entry survives the generation swap"
        );
        let s = c.stats();
        assert_eq!(s.keyed_invalidations, 1);
        assert_eq!(s.generation_clears, 0);
    }

    #[test]
    fn keyed_delta_evicts_only_affected_resolver_entries() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        let dirty: Ipv4Addr = "8.8.8.8".parse().unwrap();
        let clean: Ipv4Addr = "9.9.9.9".parse().unwrap();
        for r in [dirty, clean] {
            c.insert_resolver(name("e0.cdn.example"), RrType::A, r, ns(), entry(30));
        }
        let delta = Arc::new(MapDelta::from_dirty(&[], &[dirty]));
        c.begin_generation(Some(&delta));
        assert!(c
            .lookup_resolver(&name("e0.cdn.example"), RrType::A, dirty, ns(), now)
            .is_none());
        assert!(c
            .lookup_resolver(&name("e0.cdn.example"), RrType::A, clean, ns(), now)
            .is_some());
        assert_eq!(c.stats().keyed_invalidations, 1);
    }

    #[test]
    fn hit_restamps_entry_past_older_deltas() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.3.0/24".parse().unwrap(),
            entry(300),
        );
        // Several unaffecting generations; the entry must keep hitting
        // even after the deltas that predate its last validation pile up.
        for _ in 0..3 {
            let delta = Arc::new(MapDelta::from_dirty(&["10.9.0.0/24".parse().unwrap()], &[]));
            c.begin_generation(Some(&delta));
            assert!(c
                .lookup_scoped(
                    &name("e0.cdn.example"),
                    RrType::A,
                    "10.1.3.77".parse().unwrap(),
                    24,
                    now
                )
                .is_some());
        }
        assert_eq!(c.stats().keyed_invalidations, 0);
        // A later delta that *does* name the unit still evicts.
        let delta = Arc::new(MapDelta::from_dirty(&["10.1.3.0/24".parse().unwrap()], &[]));
        c.begin_generation(Some(&delta));
        assert!(c
            .lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.3.77".parse().unwrap(),
                24,
                now
            )
            .is_none());
        assert_eq!(c.stats().keyed_invalidations, 1);
    }

    #[test]
    fn full_or_missing_delta_falls_back_to_generation_clear() {
        let mut c = AnswerCache::new(CacheConfig::default());
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            entry(30),
        );
        c.begin_generation(Some(&Arc::new(MapDelta::full(10))));
        assert!(c.is_empty(), "full delta must clear");
        assert_eq!(c.stats().generation_clears, 1);
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            entry(30),
        );
        c.begin_generation(None);
        assert!(c.is_empty(), "delta-less publish must clear");
        assert_eq!(c.stats().generation_clears, 2);
    }

    #[test]
    fn empty_delta_is_a_noop_transition() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            entry(30),
        );
        c.begin_generation(Some(&Arc::new(MapDelta::from_dirty(&[], &[]))));
        assert_eq!(c.len(), 1);
        assert!(c
            .lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.77".parse().unwrap(),
                24,
                now
            )
            .is_some());
        assert_eq!(c.stats().generation_clears, 0);
        assert_eq!(c.stats().keyed_invalidations, 0);
    }

    #[test]
    fn delta_history_overflow_degrades_to_clear() {
        let mut c = AnswerCache::new(CacheConfig::default());
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            entry(300),
        );
        // Fill the history window with keyed transitions…
        for _ in 0..MAX_DELTA_HISTORY {
            c.begin_generation(Some(&Arc::new(MapDelta::from_dirty(
                &["10.9.0.0/24".parse().unwrap()],
                &[],
            ))));
        }
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().generation_clears, 0);
        // …the next one can no longer be tracked and must clear.
        c.begin_generation(Some(&Arc::new(MapDelta::from_dirty(
            &["10.9.0.0/24".parse().unwrap()],
            &[],
        ))));
        assert!(c.is_empty());
        assert_eq!(c.stats().generation_clears, 1);
        // The clear resets the window, so keyed transitions resume.
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            entry(300),
        );
        c.begin_generation(Some(&Arc::new(MapDelta::from_dirty(
            &["10.9.0.0/24".parse().unwrap()],
            &[],
        ))));
        assert_eq!(c.len(), 1);
        assert_eq!(c.stats().generation_clears, 1);
    }

    #[test]
    fn clear_resets_scope_probe_table() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        c.insert_scoped(
            name("e0.cdn.example"),
            RrType::A,
            "10.1.2.0/24".parse().unwrap(),
            entry(30),
        );
        c.clear();
        assert!(c.is_empty());
        assert!(c
            .lookup_scoped(
                &name("e0.cdn.example"),
                RrType::A,
                "10.1.2.77".parse().unwrap(),
                24,
                now
            )
            .is_none());
    }

    #[test]
    fn lifetime_cap_counts_from_the_entrys_own_creation() {
        let mut c = AnswerCache::new(CacheConfig {
            max_entries: 8,
            max_ttl_s: 10,
        });
        // Captured well away from the wall clock, with a TTL over the cap.
        let t = Instant::now() + Duration::from_secs(1_000);
        let resolver: Ipv4Addr = "8.8.8.8".parse().unwrap();
        let e0 = name("e0.cdn.example");
        c.insert_resolver(
            e0.clone(),
            RrType::A,
            resolver,
            ns(),
            entry_at("e0.cdn.example", 60, t),
        );
        let just_before = t + Duration::from_secs(10) - Duration::from_nanos(1);
        assert!(c
            .lookup_resolver(&e0, RrType::A, resolver, ns(), just_before)
            .is_some());
        assert!(
            c.lookup_resolver(&e0, RrType::A, resolver, ns(), t + Duration::from_secs(10))
                .is_none(),
            "must expire at exactly created + max_ttl_s"
        );
        // A TTL under the cap is left alone.
        c.insert_resolver(
            e0.clone(),
            RrType::A,
            resolver,
            ns(),
            entry_at("e0.cdn.example", 4, t),
        );
        assert!(c
            .lookup_resolver(&e0, RrType::A, resolver, ns(), t + Duration::from_secs(4))
            .is_none());
    }

    #[test]
    fn removal_from_the_middle_keeps_fifo_order() {
        let mut c = AnswerCache::new(CacheConfig {
            max_entries: 3,
            max_ttl_s: 300,
        });
        let now = Instant::now();
        let resolver: Ipv4Addr = "8.8.8.8".parse().unwrap();
        let insert = |c: &mut AnswerCache, i: u32, ttl_s: u32| {
            let qname = format!("e{i}.cdn.example");
            c.insert_resolver(
                name(&qname),
                RrType::A,
                resolver,
                ns(),
                entry_at(&qname, ttl_s, now),
            );
        };
        let live = |c: &mut AnswerCache, i: u32, at: Instant| {
            let qname = name(&format!("e{i}.cdn.example"));
            c.lookup_resolver(&qname, RrType::A, resolver, ns(), at)
                .is_some()
        };
        insert(&mut c, 0, 30);
        insert(&mut c, 1, 1); // expires first, from the middle
        insert(&mut c, 2, 30);
        let later = now + Duration::from_secs(2);
        assert!(
            !live(&mut c, 1, later),
            "expired entry is dropped on the probe"
        );
        assert_eq!(c.len(), 2);
        // Its slot is reused, and the two evictions that follow take the
        // survivors oldest first.
        insert(&mut c, 3, 30);
        assert_eq!((c.len(), c.stats().evictions), (3, 0));
        insert(&mut c, 4, 30);
        assert!(!live(&mut c, 0, later) && live(&mut c, 2, later));
        insert(&mut c, 5, 30);
        assert!(!live(&mut c, 2, later) && live(&mut c, 3, later));
        assert_eq!(c.stats().evictions, 2);
        assert_eq!(c.slots.len(), 3, "the slab never outgrows the bound");
    }

    #[test]
    fn a_template_for_another_question_is_never_served() {
        // The key carries only a hash of the question; the template is
        // what a hit is checked against. Stand in for a hash collision
        // by storing e1's answer under e0's key.
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        let resolver: Ipv4Addr = "8.8.8.8".parse().unwrap();
        let e0 = name("e0.cdn.example");
        c.insert_resolver(
            e0.clone(),
            RrType::A,
            resolver,
            ns(),
            entry_at("e1.cdn.example", 30, now),
        );
        assert!(c
            .lookup_resolver(&e0, RrType::A, resolver, ns(), now)
            .is_none());
        assert!(c
            .lookup_resolver(&e0, RrType::Aaaa, resolver, ns(), now)
            .is_none());
        // The rightful answer takes the key over; the squatter is evicted.
        c.insert_resolver(e0.clone(), RrType::A, resolver, ns(), entry(30));
        assert!(c
            .lookup_resolver(&e0, RrType::A, resolver, ns(), now)
            .is_some());
        assert_eq!((c.len(), c.stats().evictions), (1, 1));
    }

    #[test]
    fn clear_recycles_every_slot() {
        let mut c = AnswerCache::new(CacheConfig::default());
        let now = Instant::now();
        let resolver: Ipv4Addr = "8.8.8.8".parse().unwrap();
        for round in 0..3 {
            for i in 0..5u32 {
                let qname = format!("e{i}.cdn.example");
                c.insert_resolver(
                    name(&qname),
                    RrType::A,
                    resolver,
                    ns(),
                    entry_at(&qname, 30, now),
                );
            }
            assert_eq!((c.len(), c.slots.len()), (5, 5), "round {round}");
            c.clear();
            assert!(c.is_empty());
        }
    }
}
