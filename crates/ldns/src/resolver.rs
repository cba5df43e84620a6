//! The recursive resolver — the workspace's only one.
//!
//! An [`Ldns`] exchanges RFC 1035 wire bytes with authoritative servers
//! over any [`ClientTransport`], owns an ECS-partitioned
//! [`ResolverCache`] with timer-wheel expiry, and implements the paper's
//! staged roll-out knob as a per-resolver [`EcsPolicy`]: off,
//! whitelist-only (Google/OpenDNS sent ECS only to opted-in
//! authorities), or always. What differs between its callers lives in
//! the transport and the clock they hand it: the fleet resolves against a
//! live `eum-authd` (in-process channels, sockets, or a fault-injecting
//! wrapper) on wall or virtual time; the simulator resolves through
//! `eum_sim::AuthNet`, which routes by server IP and adds up modelled
//! round-trip times, at `epoch + virtual milliseconds`.
//!
//! A resolution is one iterative walk, steered by the replies alone:
//! probe the answer cache; on a miss ask the server of the deepest
//! cached delegation (else the caller's start server) and then either
//! take the A answer (scoped when ECS is on), restart on a CNAME's
//! target, follow a referral through its glue (cached under the zone it
//! delegates), or cache a negative answer. Against the CDN's two-level
//! hierarchy that is top-level query (delegation, scope 0, long TTL) →
//! low-level query; from a root it is root → provider CNAME → root → top
//! → low. Exchanges upstream get bounded retries with a per-attempt
//! timeout; exhausted retries and SERVFAILs are negatively cached (RFC
//! 2308 §7), NXDOMAIN/NODATA honor the SOA minimum (§5).

use crate::cache::{AnswerBody, CacheEntry, LdnsCacheConfig, ResolverCache};
use eum_authd::ClientTransport;
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{
    decode_message_into, encode_message_into, DnsName, Message, Question, RData, Rcode, Record,
    RrType,
};
use eum_geo::Prefix;
use eum_telemetry::{QueryTrace, TraceHop, TraceOutcome, TraceRing};
use std::io;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether (and to whom) this resolver forwards EDNS0 Client Subnet —
/// the paper's staged public-resolver roll-out, per resolver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcsPolicy {
    /// Never send ECS; the authoritative maps on the resolver IP.
    Off,
    /// Send ECS only for names inside one of these zones (the opt-in
    /// whitelists Google Public DNS and OpenDNS ran during the roll-out).
    Whitelist(Vec<DnsName>),
    /// Send ECS for every query.
    Always,
}

impl EcsPolicy {
    /// True when a query for `qname` carries ECS under this policy.
    pub fn sends_for(&self, qname: &DnsName) -> bool {
        match self {
            EcsPolicy::Off => false,
            EcsPolicy::Whitelist(zones) => zones.iter().any(|z| qname.is_within(z)),
            EcsPolicy::Always => true,
        }
    }
}

/// Per-resolver configuration.
#[derive(Debug, Clone)]
pub struct LdnsConfig {
    /// The resolver's unicast IP (the source the authoritative sees).
    pub ip: Ipv4Addr,
    /// ECS forwarding policy.
    pub ecs: EcsPolicy,
    /// Source prefix length announced when ECS is sent (/24 per the
    /// paper's privacy footnote).
    pub source_prefix: u8,
    /// Attempts per upstream exchange before giving up (bounded fan-out).
    pub attempts: u32,
    /// Per-attempt upstream timeout.
    pub upstream_timeout: Duration,
    /// Negative TTL when a negative answer carries no SOA (RFC 2308
    /// leaves this to local policy).
    pub default_negative_ttl_s: u32,
    /// Cache bounds and negative-TTL clamps.
    pub cache: LdnsCacheConfig,
}

impl LdnsConfig {
    /// Defaults for a resolver at `ip` with the given policy.
    pub fn new(ip: Ipv4Addr, ecs: EcsPolicy) -> LdnsConfig {
        LdnsConfig {
            ip,
            ecs,
            source_prefix: 24,
            attempts: 3,
            upstream_timeout: Duration::from_millis(250),
            default_negative_ttl_s: 30,
            cache: LdnsCacheConfig::default(),
        }
    }
}

/// Per-resolver counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct LdnsStats {
    /// Client (downstream) resolutions served.
    pub downstream_queries: u64,
    /// Downstream resolutions answered entirely from cache.
    pub downstream_cache_hits: u64,
    /// Queries sent toward the authoritative (upstream), including
    /// retries.
    pub upstream_queries: u64,
    /// Attempts upstream that timed out.
    pub upstream_timeouts: u64,
    /// SERVFAIL responses received from upstream.
    pub upstream_servfails: u64,
    /// Truncated (TC=1) answers retried over the stream (TCP) leg.
    /// Counted inside `upstream_queries` too — a retry is a query.
    pub upstream_tcp_retries: u64,
    /// Resolutions that ended in failure (SERVFAIL to the client).
    pub failures: u64,
    /// Negative (NXDOMAIN/NODATA) answers served, cached or fresh.
    pub negative_answers: u64,
}

/// The outcome of one downstream resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved {
    /// Final A addresses (empty unless `rcode` is `NoError`).
    pub ips: Vec<Ipv4Addr>,
    /// Response code toward the client.
    pub rcode: Rcode,
    /// True when no upstream query was needed.
    pub from_cache: bool,
    /// Queries upstream this resolution cost (retries included).
    pub upstream_queries: u32,
    /// Remaining TTL toward the client, seconds.
    pub ttl_s: u32,
}

fn sat32(v: u64) -> u32 {
    v.min(u32::MAX as u64) as u32
}

/// The upstream leg's buffers, reused across resolutions so a miss
/// allocates only what it hands on (the transport's reply, the answer's
/// addresses).
struct UpstreamScratch {
    /// The query message, rewritten in place per resolution (its name and
    /// its OPT record; `DnsName` and a lone ECS option are inline).
    query: Message,
    /// `query` encoded once per resolution; every attempt only patches
    /// the message id in its first two bytes.
    wire: Vec<u8>,
    /// The last reply decoded; valid after [`Ldns::exchange`] returns
    /// `true`.
    reply: Message,
}

/// CNAME restarts one resolution may take (RFC 1034 §3.6.2 loops end
/// here).
const MAX_CNAME_CHASE: usize = 8;
/// Servers one name's walk may ask, each but the last having referred it
/// onward.
const MAX_REFERRALS: usize = 8;

/// The referral in `resp`, if it is one: a NOERROR reply with no answer
/// whose authority section carries an NS record — without the NS record
/// the same reply is NODATA (RFC 2308 §2.2). Yields the zone cut, the
/// name of its server and the TTL.
fn referral(resp: &Message) -> Option<(&DnsName, &DnsName, u32)> {
    if resp.flags.rcode != Rcode::NoError || !resp.answers.is_empty() {
        return None;
    }
    resp.authorities.iter().find_map(|r| match &r.rdata {
        RData::Ns(ns_name) => Some((&r.name, ns_name, r.ttl)),
        _ => None,
    })
}

/// The address `resp`'s additional section gives for `ns_name`.
fn glue_for(resp: &Message, ns_name: &DnsName) -> Option<Ipv4Addr> {
    resp.additionals.iter().find_map(|g| match g.rdata {
        RData::A(ip) if g.name == *ns_name => Some(ip),
        _ => None,
    })
}

/// Where the CNAME records in `resp`'s answer section lead from `name`;
/// `None` when `name` owns none.
fn cname_target<'m>(resp: &'m Message, name: &DnsName) -> Option<&'m DnsName> {
    let cname_of = |owner: &DnsName| {
        resp.answers.iter().find_map(|r| match &r.rdata {
            RData::Cname(target) if r.name == *owner => Some(target),
            _ => None,
        })
    };
    let mut target = cname_of(name)?;
    // One step per record at most, so a loop among them still ends.
    for _ in 1..resp.answers.len() {
        match cname_of(target) {
            Some(next) => target = next,
            None => break,
        }
    }
    Some(target)
}

/// Per-resolution stage capture for sampled traces. Only filled while a
/// traced resolution is in flight; untraced resolutions pay one branch
/// per stage.
#[derive(Debug, Default, Clone, Copy)]
struct TraceStages {
    /// Whether the in-flight resolution is being timed.
    timed: bool,
    /// First-attempt upstream message id: traced resolutions reuse the
    /// low 16 bits of the propagated trace id, so the authoritative's
    /// ring records an id the span stitcher can join on.
    id_hint: u16,
    /// Answer-cache probe time.
    probe_ns: u64,
    /// Time in exchanges that ended in a referral (the top level's).
    deleg_ns: u64,
    /// Time in every other exchange — the low level's answer (TCP retry
    /// leg included).
    upstream_ns: u64,
    /// TCP retry leg alone.
    tcp_ns: u64,
}

/// A recursive resolver instance bound to real transports.
pub struct Ldns {
    cfg: LdnsConfig,
    cache: ResolverCache,
    upstream: UpstreamScratch,
    next_id: u16,
    stats: LdnsStats,
    /// Ring receiving sampled per-resolution traces (`None`: untraced).
    trace: Option<Arc<TraceRing>>,
    tstages: TraceStages,
}

impl Ldns {
    /// A resolver whose cache epoch is `now`.
    pub fn new(cfg: LdnsConfig, now: Instant) -> Ldns {
        Ldns {
            cache: ResolverCache::new(cfg.cache, now),
            cfg,
            upstream: UpstreamScratch {
                query: Message::query(0, Question::a(DnsName::root()), None),
                wire: Vec::new(),
                reply: Message::empty(),
            },
            next_id: 0,
            stats: LdnsStats::default(),
            trace: None,
            tstages: TraceStages::default(),
        }
    }

    /// Attaches a trace ring: [`Ldns::resolve_traced`] resolutions the
    /// ring's sampling picks get a [`TraceHop::Ldns`] record pushed.
    pub fn attach_trace(&mut self, ring: Arc<TraceRing>) {
        self.trace = Some(ring);
    }

    /// Drops every cache entry at once — a resolver reload, the
    /// operational moment a config deploy (like flipping the ECS policy)
    /// restarts the process. Cumulative stats keep counting.
    pub fn flush_cache(&mut self, now: Instant) {
        self.cache.clear(now);
    }

    /// The resolver's unicast IP.
    pub fn ip(&self) -> Ipv4Addr {
        self.cfg.ip
    }

    /// Current ECS policy.
    pub fn policy(&self) -> &EcsPolicy {
        &self.cfg.ecs
    }

    /// Flips the ECS policy (the roll-out's per-site switch).
    pub fn set_policy(&mut self, ecs: EcsPolicy) {
        self.cfg.ecs = ecs;
    }

    /// Counters so far.
    pub fn stats(&self) -> LdnsStats {
        self.stats
    }

    /// Cache access (entry counts, hit ratios by scope, churn).
    pub fn cache(&self) -> &ResolverCache {
        &self.cache
    }

    fn fresh_id(&mut self) -> u16 {
        self.next_id = self.next_id.wrapping_add(1).max(1);
        self.next_id
    }

    /// Resolves `qname` (type A) on behalf of `client` through
    /// `transport` shard `shard`, starting any walk no cached delegation
    /// covers at `start_ip` — the CDN's top level, or a root.
    pub fn resolve<C: ClientTransport>(
        &mut self,
        transport: &mut C,
        shard: usize,
        start_ip: Ipv4Addr,
        qname: &DnsName,
        client: Ipv4Addr,
        now: Instant,
    ) -> Resolved {
        self.resolve_traced(transport, shard, start_ip, qname, client, now, 0)
    }

    /// [`Ldns::resolve`] carrying a propagated trace id (0: untraced).
    /// When a ring is attached and its sampling picks this resolution, a
    /// [`TraceHop::Ldns`] record is pushed whose stage fields are the
    /// cache probe, referral exchanges, answer exchange and TCP-retry
    /// times — and the id's low 16 bits become the first-attempt
    /// upstream DNS message id, so the authoritative's own ring records
    /// an id the span stitcher can join back to this record.
    #[allow(clippy::too_many_arguments)] // one resolution's full context, clearer spelled out
    pub fn resolve_traced<C: ClientTransport>(
        &mut self,
        transport: &mut C,
        shard: usize,
        start_ip: Ipv4Addr,
        qname: &DnsName,
        client: Ipv4Addr,
        now: Instant,
        trace_id: u32,
    ) -> Resolved {
        let sampled = trace_id != 0
            && self
                .trace
                .as_ref()
                .is_some_and(|r| r.should_sample(self.stats.downstream_queries + 1));
        if !sampled {
            return self.resolve_inner(transport, shard, start_ip, qname, client, now);
        }
        self.tstages = TraceStages {
            timed: true,
            id_hint: (trace_id & 0xFFFF) as u16,
            ..TraceStages::default()
        };
        let tc_before = self.stats.upstream_tcp_retries;
        let t0 = Instant::now();
        let out = self.resolve_inner(transport, shard, start_ip, qname, client, now);
        let total_ns = t0.elapsed().as_nanos() as u64;
        let st = self.tstages;
        self.tstages = TraceStages::default();
        let outcome = if out.rcode == Rcode::ServFail {
            TraceOutcome::Failed
        } else if out.from_cache {
            TraceOutcome::CacheHit
        } else {
            TraceOutcome::Computed
        };
        let ecs_on = self.cfg.ecs.sends_for(qname);
        if let Some(ring) = self.trace.as_ref() {
            ring.push(&QueryTrace {
                seq: 0,
                trace_id,
                hop: TraceHop::Ldns,
                shard: shard as u16,
                generation: 0,
                ecs_scope: ecs_on.then_some(self.cfg.source_prefix),
                outcome,
                truncated: self.stats.upstream_tcp_retries > tc_before,
                decode_ns: sat32(st.probe_ns),
                cache_ns: sat32(st.deleg_ns),
                route_ns: sat32(st.upstream_ns),
                encode_ns: sat32(st.tcp_ns),
                total_ns: sat32(total_ns),
            });
        }
        out
    }

    fn resolve_inner<C: ClientTransport>(
        &mut self,
        transport: &mut C,
        shard: usize,
        start_ip: Ipv4Addr,
        qname: &DnsName,
        client: Ipv4Addr,
        now: Instant,
    ) -> Resolved {
        self.stats.downstream_queries += 1;
        // Reap TTL-expired entries up to now; churn shows up in stats.
        self.cache.advance(now);

        let mut upstream = 0u32;
        // The answer's TTL is capped by every CNAME it was reached through.
        let mut ttl_cap = u32::MAX;
        // The name being resolved: `qname`, then each CNAME target in turn.
        let mut alias: Option<DnsName> = None;
        for _ in 0..=MAX_CNAME_CHASE {
            let name = alias.as_ref().unwrap_or(qname);
            let ecs_on = self.cfg.ecs.sends_for(name);
            let lookup_prefix = if ecs_on { self.cfg.source_prefix } else { 0 };

            let t_probe = self.tstages.timed.then(Instant::now);
            let probe = self
                .cache
                .lookup(name, RrType::A, client, lookup_prefix, now);
            if let Some(t) = t_probe {
                self.tstages.probe_ns += t.elapsed().as_nanos() as u64;
            }
            if let Some(hit) = probe {
                let ttl_s = hit.remaining_ttl_s(now).min(ttl_cap);
                let (ips, rcode) = match &hit.body {
                    AnswerBody::Alias(target) => {
                        ttl_cap = ttl_s;
                        alias = Some(DnsName::clone(target));
                        continue;
                    }
                    AnswerBody::Addresses(ips) => (ips.clone(), Rcode::NoError),
                    AnswerBody::Negative(rcode) => (Vec::new(), *rcode),
                    AnswerBody::Failure => (Vec::new(), Rcode::ServFail),
                };
                if upstream == 0 {
                    self.stats.downstream_cache_hits += 1;
                }
                if ips.is_empty() && rcode != Rcode::ServFail {
                    self.stats.negative_answers += 1;
                }
                return Resolved {
                    ips,
                    rcode,
                    from_cache: upstream == 0,
                    upstream_queries: upstream,
                    ttl_s,
                };
            }

            // Every server on the walk is asked the same question; put it
            // on the wire once.
            self.encode_query(name, client, ecs_on);
            // Start at the deepest zone cut already known. The CDN's top
            // level delegates each name on its own (per resolver, scope 0,
            // long TTL), so a name seen before goes straight to its
            // low-level server.
            let mut server = self.cache.delegation_for(name, now).unwrap_or(start_ip);
            let mut target = None;
            for _ in 0..MAX_REFERRALS {
                let t_exchange = self.tstages.timed.then(Instant::now);
                let answered = self.exchange(transport, shard, server, &mut upstream);
                let resp = &self.upstream.reply;
                let referred = if answered { referral(resp) } else { None };
                if let Some(t) = t_exchange {
                    let ns = t.elapsed().as_nanos() as u64;
                    if referred.is_some() {
                        self.tstages.deleg_ns += ns;
                    } else {
                        self.tstages.upstream_ns += ns;
                    }
                }
                if !answered {
                    return self.fail(name, upstream, now);
                }
                if let Some((zone, ns_name, ttl)) = referred {
                    // Follow only a cut above the name, through its glue.
                    let Some(glue) = glue_for(resp, ns_name).filter(|_| name.is_within(zone))
                    else {
                        return self.fail(name, upstream, now);
                    };
                    self.cache.insert(
                        zone.clone(),
                        RrType::Ns,
                        None,
                        CacheEntry::new(AnswerBody::Addresses(vec![glue]), 0, ttl.max(1), now),
                    );
                    server = glue;
                    continue;
                }
                match resp.flags.rcode {
                    Rcode::NoError if !resp.answers.is_empty() => {
                        let ttl_s = resp.min_answer_ttl().unwrap_or(0).max(1);
                        // RFC 7871 §7.3.1: partition by the announced
                        // scope, clamped to the source we asked about;
                        // scope 0 (or no ECS at all) makes the entry
                        // global.
                        let scope = resp
                            .ecs()
                            .map(|e| e.scope_prefix.min(e.source_prefix))
                            .unwrap_or(0);
                        let block = (ecs_on && scope > 0).then(|| Prefix::of(client, scope));
                        let ips = resp.answer_ips();
                        if !ips.is_empty() {
                            self.cache.insert(
                                name.clone(),
                                RrType::A,
                                block,
                                CacheEntry::new(
                                    AnswerBody::Addresses(ips.clone()),
                                    scope,
                                    ttl_s,
                                    now,
                                ),
                            );
                            return Resolved {
                                ips,
                                rcode: Rcode::NoError,
                                from_cache: false,
                                upstream_queries: upstream,
                                ttl_s: ttl_s.min(ttl_cap),
                            };
                        }
                        let Some(cname) = cname_target(resp, name) else {
                            return self.fail(name, upstream, now);
                        };
                        let cname = cname.clone();
                        self.cache.insert(
                            name.clone(),
                            RrType::A,
                            block,
                            CacheEntry::new(
                                AnswerBody::Alias(Box::new(cname.clone())),
                                scope,
                                ttl_s,
                                now,
                            ),
                        );
                        ttl_cap = ttl_cap.min(ttl_s);
                        target = Some(cname);
                        break;
                    }
                    Rcode::NxDomain | Rcode::NoError => {
                        // Negative answer (NXDOMAIN, or NODATA when
                        // NoError with neither answer nor referral): RFC
                        // 2308 caching.
                        let rcode = resp.flags.rcode;
                        let ttl_s = self.negative_ttl(resp);
                        self.cache.insert(
                            name.clone(),
                            RrType::A,
                            None,
                            CacheEntry::new(AnswerBody::Negative(rcode), 0, ttl_s, now),
                        );
                        self.stats.negative_answers += 1;
                        return Resolved {
                            ips: Vec::new(),
                            rcode,
                            from_cache: false,
                            upstream_queries: upstream,
                            ttl_s,
                        };
                    }
                    _ => return self.fail(name, upstream, now),
                }
            }
            match target {
                Some(cname) => alias = Some(cname),
                // Still being referred onward at the bound.
                None => return self.fail(name, upstream, now),
            }
        }
        // Still being aliased onward at the bound.
        self.fail(alias.as_ref().unwrap_or(qname), upstream, now)
    }

    /// Encodes this resolution's upstream query — `qname` type A, with
    /// the client's subnet when `ecs_on` — into the reused wire buffer.
    fn encode_query(&mut self, qname: &DnsName, client: Ipv4Addr, ecs_on: bool) {
        let UpstreamScratch { query, wire, .. } = &mut self.upstream;
        if let Some(q) = query.questions.first_mut() {
            q.name.clone_from(qname);
        }
        query.additionals.clear();
        if ecs_on {
            let ecs = EcsOption::query(client, self.cfg.source_prefix);
            query.additionals.push(Record {
                name: DnsName::root(),
                ttl: 0,
                rdata: RData::Opt(OptData::with_ecs(ecs)),
            });
        }
        encode_message_into(query, wire);
    }

    /// One upstream exchange of the encoded query with bounded retries:
    /// stamp an id, send, decode, verify. Timeouts retry; SERVFAIL
    /// retries (the next attempt could hit a healthy path); other
    /// transport errors fail immediately. `true` leaves the verified
    /// response in `self.upstream.reply`.
    fn exchange<C: ClientTransport>(
        &mut self,
        transport: &mut C,
        shard: usize,
        server_ip: Ipv4Addr,
        upstream: &mut u32,
    ) -> bool {
        for attempt in 0..self.cfg.attempts.max(1) {
            // A traced resolution's first attempt reuses the propagated
            // trace id's low 16 bits (retries fall back to fresh ids so a
            // stale first reply cannot be confused with a retry's).
            let id = if attempt == 0 && self.tstages.id_hint != 0 {
                self.tstages.id_hint
            } else {
                self.fresh_id()
            };
            if let Some(head) = self.upstream.wire.get_mut(..2) {
                head.copy_from_slice(&id.to_be_bytes());
            }
            *upstream += 1;
            self.stats.upstream_queries += 1;
            match transport.exchange(
                shard,
                server_ip,
                self.cfg.ip,
                &self.upstream.wire,
                self.cfg.upstream_timeout,
            ) {
                Ok(resp_bytes) => {
                    let resp = &mut self.upstream.reply;
                    if decode_message_into(&resp_bytes, resp).is_err() {
                        continue;
                    }
                    if resp.id != id || !resp.flags.qr {
                        continue;
                    }
                    if resp.flags.rcode == Rcode::ServFail {
                        self.stats.upstream_servfails += 1;
                        continue;
                    }
                    if resp.flags.tc {
                        // Truncated: the answer exists but overflowed the
                        // UDP reply budget. Re-ask the same question over
                        // the stream leg (RFC 1035 §4.2.2); a transport
                        // without one makes this a failed attempt.
                        self.stats.upstream_tcp_retries += 1;
                        *upstream += 1;
                        self.stats.upstream_queries += 1;
                        let t_tcp = self.tstages.timed.then(Instant::now);
                        let stream_res = transport.exchange_stream(
                            shard,
                            server_ip,
                            self.cfg.ip,
                            &self.upstream.wire,
                            self.cfg.upstream_timeout,
                        );
                        if let Some(t) = t_tcp {
                            self.tstages.tcp_ns += t.elapsed().as_nanos() as u64;
                        }
                        match stream_res {
                            Ok(tcp_bytes) => {
                                if decode_message_into(&tcp_bytes, resp).is_ok()
                                    && resp.id == id
                                    && resp.flags.qr
                                    && !resp.flags.tc
                                    && resp.flags.rcode != Rcode::ServFail
                                {
                                    return true;
                                }
                                continue;
                            }
                            Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                                self.stats.upstream_timeouts += 1;
                                continue;
                            }
                            Err(_) => continue,
                        }
                    }
                    return true;
                }
                Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                    self.stats.upstream_timeouts += 1;
                    continue;
                }
                Err(_) => break,
            }
        }
        false
    }

    /// RFC 2308 §5 negative TTL: `min(SOA TTL, SOA minimum)` when the
    /// authority section carries an SOA, the configured default
    /// otherwise, clamped by the cache's maximum.
    fn negative_ttl(&self, resp: &Message) -> u32 {
        let soa = resp.authorities.iter().find_map(|r| match &r.rdata {
            RData::Soa(soa) => Some(r.ttl.min(soa.minimum)),
            _ => None,
        });
        soa.unwrap_or(self.cfg.default_negative_ttl_s)
            .clamp(1, self.cfg.cache.max_negative_ttl_s)
    }

    /// Ends a resolution in SERVFAIL, caching the failure briefly so a
    /// dead upstream is not hammered (RFC 2308 §7.1).
    fn fail(&mut self, qname: &DnsName, upstream: u32, now: Instant) -> Resolved {
        self.stats.failures += 1;
        let ttl_s = self.cfg.cache.servfail_ttl_s.max(1);
        self.cache.insert(
            qname.clone(),
            RrType::A,
            None,
            CacheEntry::new(AnswerBody::Failure, 0, ttl_s, now),
        );
        Resolved {
            ips: Vec::new(),
            rcode: Rcode::ServFail,
            from_cache: false,
            upstream_queries: upstream,
            ttl_s,
        }
    }
}
