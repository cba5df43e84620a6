//! One recursive resolver over a real transport.
//!
//! Where `eum_dns::RecursiveResolver` is the *model* — an analytic
//! resolver driven by a millisecond clock inside the simulator — this is
//! the *system*: an LDNS instance that exchanges RFC 1035 wire bytes
//! with a live `eum-authd` over any [`ClientTransport`] (in-process
//! channels, loopback UDP, or a fault-injecting wrapper), owns an
//! ECS-partitioned [`ResolverCache`] with timer-wheel expiry, and
//! implements the paper's staged roll-out knob as a per-resolver
//! [`EcsPolicy`]: off, whitelist-only (Google/OpenDNS sent ECS only to
//! opted-in authorities), or always.
//!
//! A resolution follows the CDN's two-level hierarchy exactly as a real
//! LDNS would: answer cache → cached delegation → top-level query
//! (delegation, scope 0, long TTL) → low-level query (A answer, scoped
//! when ECS is on). Upstream exchanges get bounded retries with a
//! per-attempt timeout; exhausted retries and SERVFAILs are negatively
//! cached (RFC 2308 §7), NXDOMAIN/NODATA honor the SOA minimum (§5).

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
    /// Upstream attempts per exchange before giving up (bounded fan-out).
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
    /// Upstream attempts that timed out.
    pub upstream_timeouts: u64,
    /// Upstream SERVFAIL responses received.
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
    /// Upstream queries this resolution cost (retries included).
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

/// What the top level said about a name.
enum Delegation {
    /// Glue address of the low-level NS to follow.
    Found(Ipv4Addr),
    /// Authoritative negative: the name does not exist (already cached).
    Negative(u32),
    /// No usable referral (transport failure or malformed response).
    Failed,
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
    /// Delegation fetch (top-level exchange) time.
    deleg_ns: u64,
    /// Low-level answer exchange time (TCP retry leg included).
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

    /// Resolves `qname` (type A) on behalf of `client`, walking the
    /// two-level authoritative hierarchy rooted at `top_ip` through
    /// `transport` shard `shard`.
    pub fn resolve<C: ClientTransport>(
        &mut self,
        transport: &mut C,
        shard: usize,
        top_ip: Ipv4Addr,
        qname: &DnsName,
        client: Ipv4Addr,
        now: Instant,
    ) -> Resolved {
        self.resolve_traced(transport, shard, top_ip, qname, client, now, 0)
    }

    /// [`Ldns::resolve`] carrying a propagated trace id (0: untraced).
    /// When a ring is attached and its sampling picks this resolution, a
    /// [`TraceHop::Ldns`] record is pushed whose stage fields are the
    /// cache probe, delegation fetch, upstream exchange and TCP-retry
    /// times — and the id's low 16 bits become the first-attempt
    /// upstream DNS message id, so the authoritative's own ring records
    /// an id the span stitcher can join back to this record.
    #[allow(clippy::too_many_arguments)] // one resolution's full context, clearer spelled out
    pub fn resolve_traced<C: ClientTransport>(
        &mut self,
        transport: &mut C,
        shard: usize,
        top_ip: Ipv4Addr,
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
            return self.resolve_inner(transport, shard, top_ip, qname, client, now);
        }
        self.tstages = TraceStages {
            timed: true,
            id_hint: (trace_id & 0xFFFF) as u16,
            ..TraceStages::default()
        };
        let tc_before = self.stats.upstream_tcp_retries;
        let t0 = Instant::now();
        let out = self.resolve_inner(transport, shard, top_ip, qname, client, now);
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
        top_ip: Ipv4Addr,
        qname: &DnsName,
        client: Ipv4Addr,
        now: Instant,
    ) -> Resolved {
        self.stats.downstream_queries += 1;
        // Reap TTL-expired entries up to now; churn shows up in stats.
        self.cache.advance(now);

        let ecs_on = self.cfg.ecs.sends_for(qname);
        let lookup_prefix = if ecs_on { self.cfg.source_prefix } else { 0 };

        let t_probe = self.tstages.timed.then(Instant::now);
        let probe = self
            .cache
            .lookup(qname, RrType::A, client, lookup_prefix, now);
        if let Some(t) = t_probe {
            self.tstages.probe_ns += t.elapsed().as_nanos() as u64;
        }
        if let Some(hit) = probe {
            let ttl_s = hit.remaining_ttl_s(now);
            let out = match &hit.body {
                AnswerBody::Addresses(ips) => Resolved {
                    ips: ips.clone(),
                    rcode: Rcode::NoError,
                    from_cache: true,
                    upstream_queries: 0,
                    ttl_s,
                },
                AnswerBody::Negative(rcode) => Resolved {
                    ips: Vec::new(),
                    rcode: *rcode,
                    from_cache: true,
                    upstream_queries: 0,
                    ttl_s,
                },
                AnswerBody::Failure => Resolved {
                    ips: Vec::new(),
                    rcode: Rcode::ServFail,
                    from_cache: true,
                    upstream_queries: 0,
                    ttl_s,
                },
            };
            self.stats.downstream_cache_hits += 1;
            match out.rcode {
                Rcode::NoError if out.ips.is_empty() => self.stats.negative_answers += 1,
                Rcode::NxDomain => self.stats.negative_answers += 1,
                _ => {}
            }
            return out;
        }

        let mut upstream = 0u32;
        // Both legs of the walk ask the same question; put it on the wire
        // once.
        self.encode_query(qname, client, ecs_on);

        // Delegation: which low-level NS serves this name for us? The
        // top level answers per resolver with scope 0, so the entry is
        // global and long-lived.
        let low_ip = match self.cache.lookup(qname, RrType::Ns, client, 0, now) {
            Some(CacheEntry {
                body: AnswerBody::Addresses(ips),
                ..
            }) => ips.first().copied(),
            _ => None,
        };
        let low_ip = match low_ip {
            Some(ip) => ip,
            None => {
                let t_deleg = self.tstages.timed.then(Instant::now);
                let deleg =
                    self.fetch_delegation(transport, shard, top_ip, qname, &mut upstream, now);
                if let Some(t) = t_deleg {
                    self.tstages.deleg_ns += t.elapsed().as_nanos() as u64;
                }
                match deleg {
                    Delegation::Found(ip) => ip,
                    Delegation::Negative(ttl_s) => {
                        self.stats.negative_answers += 1;
                        return Resolved {
                            ips: Vec::new(),
                            rcode: Rcode::NxDomain,
                            from_cache: false,
                            upstream_queries: upstream,
                            ttl_s,
                        };
                    }
                    Delegation::Failed => return self.fail(qname, upstream, now),
                }
            }
        };

        // Low level: the A answer, scoped when ECS is on.
        let t_up = self.tstages.timed.then(Instant::now);
        let answered = self.exchange(transport, shard, low_ip, &mut upstream);
        if let Some(t) = t_up {
            self.tstages.upstream_ns += t.elapsed().as_nanos() as u64;
        }
        if !answered {
            return self.fail(qname, upstream, now);
        }
        let resp = &self.upstream.reply;
        match resp.flags.rcode {
            Rcode::NoError if !resp.answers.is_empty() => {
                let ips = resp.answer_ips();
                if ips.is_empty() {
                    return self.fail(qname, upstream, now);
                }
                let ttl_s = resp.min_answer_ttl().unwrap_or(0).max(1);
                // RFC 7871 §7.3.1: partition by the announced scope,
                // clamped to the source we asked about; scope 0 (or no
                // ECS at all) makes the entry global.
                let scope = resp
                    .ecs()
                    .map(|e| e.scope_prefix.min(e.source_prefix))
                    .unwrap_or(0);
                let block = (ecs_on && scope > 0).then(|| Prefix::of(client, scope));
                self.cache.insert(
                    qname.clone(),
                    RrType::A,
                    block,
                    CacheEntry::new(AnswerBody::Addresses(ips.clone()), scope, ttl_s, now),
                );
                Resolved {
                    ips,
                    rcode: Rcode::NoError,
                    from_cache: false,
                    upstream_queries: upstream,
                    ttl_s,
                }
            }
            Rcode::NxDomain | Rcode::NoError => {
                // Negative answer (NXDOMAIN, or NODATA when NoError with
                // an empty answer section): RFC 2308 caching.
                let rcode = resp.flags.rcode;
                let ttl_s = self.negative_ttl(resp);
                self.cache.insert(
                    qname.clone(),
                    RrType::A,
                    None,
                    CacheEntry::new(AnswerBody::Negative(rcode), 0, ttl_s, now),
                );
                self.stats.negative_answers += 1;
                Resolved {
                    ips: Vec::new(),
                    rcode,
                    from_cache: false,
                    upstream_queries: upstream,
                    ttl_s,
                }
            }
            _ => self.fail(qname, upstream, now),
        }
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

    /// Queries the top level for `qname`'s delegation, caching the glue
    /// under `(qname, NS)` with the referral TTL.
    fn fetch_delegation<C: ClientTransport>(
        &mut self,
        transport: &mut C,
        shard: usize,
        top_ip: Ipv4Addr,
        qname: &DnsName,
        upstream: &mut u32,
        now: Instant,
    ) -> Delegation {
        if !self.exchange(transport, shard, top_ip, upstream) {
            return Delegation::Failed;
        }
        let resp = &self.upstream.reply;
        if resp.flags.rcode != Rcode::NoError {
            // NXDOMAIN at the top is a real negative for the name.
            if resp.flags.rcode == Rcode::NxDomain {
                let ttl_s = self.negative_ttl(resp);
                self.cache.insert(
                    qname.clone(),
                    RrType::A,
                    None,
                    CacheEntry::new(AnswerBody::Negative(Rcode::NxDomain), 0, ttl_s, now),
                );
                return Delegation::Negative(ttl_s);
            }
            return Delegation::Failed;
        }
        let referral = resp.authorities.iter().find_map(|r| match &r.rdata {
            RData::Ns(target) => Some((target, r.ttl)),
            _ => None,
        });
        let Some((ns_name, ttl)) = referral else {
            return Delegation::Failed;
        };
        let glue = resp.additionals.iter().find_map(|g| match g.rdata {
            RData::A(ip) if g.name == *ns_name => Some(ip),
            _ => None,
        });
        let Some(glue) = glue else {
            return Delegation::Failed;
        };
        self.cache.insert(
            qname.clone(),
            RrType::Ns,
            None,
            CacheEntry::new(AnswerBody::Addresses(vec![glue]), 0, ttl.max(1), now),
        );
        Delegation::Found(glue)
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
