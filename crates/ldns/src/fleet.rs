//! The resolver fleet: every LDNS in the modeled Internet, driven at once.
//!
//! [`ResolverFleet`] instantiates one [`Ldns`] per
//! [`eum_netmodel::Resolver`] site and replays a demand-weighted query
//! stream through them against a live authoritative (any
//! [`ClientTransport`]). This closes the loop the analytic simulator only
//! estimates: client blocks → their LDNSes → `eum-authd` → answers back,
//! with real caches in the middle. The fleet's [`FleetReport`] therefore
//! carries *measured* quantities the paper reasons about analytically —
//! most importantly DNS **amplification** (upstream queries per
//! downstream query, §6.3's scaling concern for ECS) and the cache hit
//! ratio split by announced ECS scope length (§7.1's fragmentation).
//!
//! Determinism: the query plan is sampled up front from one seed
//! ([`QueryPlan::generate`]), and each query is pinned to the worker that
//! owns its resolver — so a run's per-resolver query sequence is
//! identical no matter how many workers execute it or how threads
//! interleave.

use crate::cache::LdnsCacheStats;
use crate::resolver::{Ldns, LdnsConfig, LdnsStats, Resolved};
use eum_authd::ClientTransport;
use eum_dns::{DnsName, Rcode};
use eum_netmodel::{Internet, QueryPopulation, Resolver, ResolverId};
use eum_telemetry::{QueryTrace, TraceHop, TraceOutcome, TraceRing};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One downstream query to replay: which resolver carries it, which
/// client asked, and for what name.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The LDNS the client is configured to use.
    pub resolver: ResolverId,
    /// The asking client's address (first host of its /24).
    pub client: Ipv4Addr,
    /// The hostname looked up.
    pub qname: DnsName,
}

/// A pre-sampled, seed-deterministic downstream query stream.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Queries in arrival order.
    pub queries: Vec<PlannedQuery>,
}

impl QueryPlan {
    /// Samples `count` queries: origins demand-weighted through
    /// [`QueryPopulation`], names popularity-weighted over `domains`
    /// (name, weight) — the CDN's customer hostnames and their traffic
    /// shares.
    pub fn generate(
        net: &Internet,
        domains: &[(DnsName, f64)],
        seed: u64,
        count: usize,
    ) -> QueryPlan {
        assert!(!domains.is_empty(), "query plan needs at least one domain");
        let pop = QueryPopulation::build(net);
        let mut cumulative = Vec::with_capacity(domains.len());
        let mut acc = 0.0f64;
        for (_, w) in domains {
            acc += w.max(0.0);
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "query plan needs positive domain weight");
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut queries = Vec::with_capacity(count);
        for _ in 0..count {
            let origin = pop.sample(&mut rng);
            let needle = rng.random_range(0.0..acc);
            let idx = cumulative.partition_point(|&c| c <= needle);
            let (qname, _) = &domains[idx.min(domains.len() - 1)];
            queries.push(PlannedQuery {
                resolver: origin.resolver,
                client: net.block(origin.block).client_ip(),
                qname: qname.clone(),
            });
        }
        QueryPlan { queries }
    }

    /// Number of planned queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// How a fleet run replays its plan.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The authoritative top level every resolver starts its walk at.
    pub top_ip: Ipv4Addr,
    /// Virtual time between consecutive queries *per worker*. Zero
    /// replays the whole plan at one instant (pure cache behavior, no
    /// TTL expiry); non-zero lets TTLs tick so churn shows up.
    pub query_interval: Duration,
}

impl RunConfig {
    /// Replay against `top_ip` with no virtual time passing.
    pub fn new(top_ip: Ipv4Addr) -> RunConfig {
        RunConfig {
            top_ip,
            query_interval: Duration::ZERO,
        }
    }
}

/// Aggregated outcome of one fleet run (cumulative over the fleet's
/// lifetime — run twice and the second report includes the first).
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Resolver sites in the fleet.
    pub resolvers: usize,
    /// Downstream (client-facing) resolutions served.
    pub downstream_queries: u64,
    /// Downstream resolutions answered entirely from resolver caches.
    pub downstream_cache_hits: u64,
    /// Queries sent upstream (toward the authoritative), retries included.
    pub upstream_queries: u64,
    /// Attempts upstream that timed out.
    pub upstream_timeouts: u64,
    /// SERVFAILs received from upstream.
    pub upstream_servfails: u64,
    /// Truncated (TC=1) answers retried over the stream (TCP) leg.
    pub upstream_tcp_retries: u64,
    /// Resolutions that failed (SERVFAIL toward the client).
    pub failures: u64,
    /// Negative (NXDOMAIN/NODATA) answers served.
    pub negative_answers: u64,
    /// Cache entries that expired off the timer wheels.
    pub expired_churn: u64,
    /// Live cache entries across the fleet at report time.
    pub cache_entries: usize,
    /// Heap bytes of the fleet's resolver-cache tables at report time
    /// ([`crate::ResolverCache::footprint_bytes`], summed).
    pub cache_bytes: usize,
    /// Cache hits split by the announced ECS scope length of the entry
    /// that served them (index 0: global/scope-0 entries).
    pub hits_by_scope: [u64; 33],
}

impl FleetReport {
    /// DNS amplification: upstream queries per downstream query. The
    /// quantity ECS inflates (cache fragmentation, RFC 7871 §7.1 /
    /// paper §6.3) — `1.0` would mean no caching benefit at all,
    /// healthy fleets sit well below, and the ECS-on/ECS-off ratio of
    /// two runs is the paper's scaling factor.
    pub fn amplification(&self) -> f64 {
        if self.downstream_queries == 0 {
            return 0.0;
        }
        self.upstream_queries as f64 / self.downstream_queries as f64
    }

    /// Fraction of downstream queries served from cache.
    pub fn hit_ratio(&self) -> f64 {
        if self.downstream_queries == 0 {
            return 0.0;
        }
        self.downstream_cache_hits as f64 / self.downstream_queries as f64
    }

    /// Hit ratio restricted to hits on entries of one scope length.
    pub fn hits_at_scope(&self, scope: u8) -> u64 {
        self.hits_by_scope[usize::from(scope.min(32))]
    }
}

/// Stamps one Client-hop record: only the whole-resolution latency and
/// the outcome as the client saw it (per-stage fields are the
/// downstream hops' business).
fn push_client_trace(ring: &TraceRing, worker: usize, tid: u32, t0: Option<Instant>, r: &Resolved) {
    let total = t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0);
    let outcome = if r.rcode == Rcode::ServFail {
        TraceOutcome::Failed
    } else if r.from_cache {
        TraceOutcome::CacheHit
    } else {
        TraceOutcome::Computed
    };
    ring.push(&QueryTrace {
        shard: worker as u16,
        outcome,
        total_ns: total.min(u32::MAX as u64) as u32,
        ..QueryTrace::blank(tid, TraceHop::Client)
    });
}

/// Every LDNS site in a modeled Internet, ready to replay query plans.
pub struct ResolverFleet {
    /// Resolvers indexed by [`ResolverId::index`].
    resolvers: Vec<Ldns>,
    /// Ring receiving Client-hop records stamped by the replay workers
    /// (`None`: untraced).
    client_trace: Option<Arc<TraceRing>>,
}

impl ResolverFleet {
    /// One resolver per site in `net`, configured by `configure` (which
    /// receives each site and returns its [`LdnsConfig`] — this is where
    /// per-provider ECS roll-out policy lives).
    pub fn new(
        net: &Internet,
        now: Instant,
        mut configure: impl FnMut(&Resolver) -> LdnsConfig,
    ) -> ResolverFleet {
        let resolvers = net
            .resolvers
            .iter()
            .map(|r| Ldns::new(configure(r), now))
            .collect();
        ResolverFleet {
            resolvers,
            client_trace: None,
        }
    }

    /// Wires cross-layer tracing: every resolver records `Ldns`-hop
    /// traces into `ldns_ring`, and each replay worker stamps a
    /// `Client`-hop record (whole-resolution latency + outcome) into
    /// `client_ring`. [`ResolverFleet::run`] stamps each planned query
    /// with trace id = plan position + 1 — nonzero, and unique in the
    /// low 16 bits for plans under 65 536 queries, so the resolver can
    /// reuse those bits as its upstream DNS message id and
    /// `eum_telemetry::span::stitch` can join all three rings.
    pub fn attach_trace(&mut self, client_ring: Arc<TraceRing>, ldns_ring: Arc<TraceRing>) {
        for l in &mut self.resolvers {
            l.attach_trace(ldns_ring.clone());
        }
        self.client_trace = Some(client_ring);
    }

    /// Number of resolver sites.
    pub fn len(&self) -> usize {
        self.resolvers.len()
    }

    /// True when the fleet has no sites.
    pub fn is_empty(&self) -> bool {
        self.resolvers.is_empty()
    }

    /// Access one resolver by id.
    pub fn resolver(&self, id: ResolverId) -> &Ldns {
        &self.resolvers[id.index()]
    }

    /// Mutable access to one resolver (tests flip policies mid-run).
    pub fn resolver_mut(&mut self, id: ResolverId) -> &mut Ldns {
        &mut self.resolvers[id.index()]
    }

    /// Replays `plan` through the fleet, one worker thread per transport
    /// in `clients`. Resolver `i` is owned by worker `i % workers` for
    /// the whole run, so each resolver sees its queries in plan order
    /// regardless of thread interleaving. Returns the cumulative report.
    pub fn run<C: ClientTransport + Send>(
        &mut self,
        clients: Vec<C>,
        plan: &QueryPlan,
        cfg: &RunConfig,
    ) -> FleetReport {
        assert!(
            !clients.is_empty(),
            "fleet run needs at least one transport"
        );
        let workers = clients.len();
        let n = self.resolvers.len();

        // Partition resolvers round-robin into per-worker buckets.
        let mut buckets: Vec<VecDeque<Ldns>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, l) in self.resolvers.drain(..).enumerate() {
            buckets[i % workers].push_back(l);
        }

        // Split the plan: each query goes to the worker owning its
        // resolver, rewritten to the resolver's local index and stamped
        // with its propagated trace id (plan position + 1).
        let mut streams: Vec<Vec<(usize, Ipv4Addr, DnsName, u32)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (pos, q) in plan.queries.iter().enumerate() {
            let idx = q.resolver.index();
            assert!(idx < n, "plan references resolver outside the fleet");
            streams[idx % workers].push((idx / workers, q.client, q.qname.clone(), pos as u32 + 1));
        }

        let epoch = Instant::now();
        let interval = cfg.query_interval;
        let top_ip = cfg.top_ip;
        let client_trace = &self.client_trace;

        let mut done: Vec<(usize, VecDeque<Ldns>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .zip(clients)
                .zip(streams)
                .enumerate()
                .map(|(w, ((mut bucket, mut client), stream))| {
                    let ctrace = client_trace.clone();
                    scope.spawn(move || {
                        let shard = w % client.num_shards().max(1);
                        for (j, (local, src, qname, tid)) in stream.iter().enumerate() {
                            let now = epoch + interval * (j as u32);
                            let ldns = &mut bucket[*local];
                            let t0 = ctrace.as_ref().map(|_| Instant::now());
                            let r = ldns.resolve_traced(
                                &mut client,
                                shard,
                                top_ip,
                                qname,
                                *src,
                                now,
                                *tid,
                            );
                            if let Some(ring) = ctrace.as_ref() {
                                if ring.should_sample(*tid as u64) {
                                    push_client_trace(ring, w, *tid, t0, &r);
                                }
                            }
                        }
                        (w, bucket)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        });

        // Reassemble the arena in id order (bucket w holds ids w, w+k, …
        // in increasing order).
        done.sort_by_key(|(w, _)| *w);
        let mut buckets: Vec<VecDeque<Ldns>> = done.into_iter().map(|(_, b)| b).collect();
        for i in 0..n {
            let l = buckets[i % workers]
                .pop_front()
                .expect("every resolver returns from its worker");
            self.resolvers.push(l);
        }

        self.report()
    }

    /// Aggregates the fleet's cumulative counters into a report.
    pub fn report(&self) -> FleetReport {
        let mut r = FleetReport {
            resolvers: self.resolvers.len(),
            downstream_queries: 0,
            downstream_cache_hits: 0,
            upstream_queries: 0,
            upstream_timeouts: 0,
            upstream_servfails: 0,
            upstream_tcp_retries: 0,
            failures: 0,
            negative_answers: 0,
            expired_churn: 0,
            cache_entries: 0,
            cache_bytes: 0,
            hits_by_scope: [0; 33],
        };
        for l in &self.resolvers {
            let s: LdnsStats = l.stats();
            r.downstream_queries += s.downstream_queries;
            r.downstream_cache_hits += s.downstream_cache_hits;
            r.upstream_queries += s.upstream_queries;
            r.upstream_timeouts += s.upstream_timeouts;
            r.upstream_servfails += s.upstream_servfails;
            r.upstream_tcp_retries += s.upstream_tcp_retries;
            r.failures += s.failures;
            r.negative_answers += s.negative_answers;
            let c: LdnsCacheStats = l.cache().stats();
            r.expired_churn += c.expirations;
            r.cache_entries += l.cache().len();
            r.cache_bytes += l.cache().footprint_bytes();
            for (i, h) in c.hits_by_scope.iter().enumerate() {
                r.hits_by_scope[i] += h;
            }
        }
        r
    }
}
