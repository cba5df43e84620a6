//! The sharded authoritative serving loop.
//!
//! [`AuthServer::spawn_batched`] starts one OS thread per transport
//! shard, and every shard runs the same loop whatever carries its
//! queries: the kernel socket transport hands over `recvmmsg` batches,
//! and single-datagram substrates (channel, TCP) come through
//! [`AuthServer::spawn`] as batches of one. Each shard owns its
//! transport endpoint and a [`ShardState`] outright — the decode
//! scratch, the reply buffer, and the [`AnswerCache`] all live for the
//! shard's lifetime, so the steady-state serve path never allocates.
//! The only shared state is the snapshot cell (each shard holds a
//! [`crate::SnapshotReader`] whose steady-state revalidation is one
//! atomic load) and the relaxed live counters; shards never contend on a
//! lock. Per batch a shard:
//!
//! 1. receives up to a batch of RFC 1035 datagrams,
//! 2. revalidates its map snapshot once for the whole batch
//!    (transitioning its cache — keyed delta invalidation or a wholesale
//!    clear — if the generation changed since the last batch),
//! 3. for each query, decodes into the shard's persistent [`Message`]
//!    scratch and consults the ECS-aware cache — a hit memcpys the stored
//!    wire bytes and patches them in place; a miss takes one
//!    [`eum_mapping::MappingSystem::decide_reply`], renders it straight
//!    into the cache slot the answer will live in and then replays that
//!    slot like a hit — then stages the reply buffer with the transport,
//! 4. flushes the staged replies.
//!
//! Malformed packets get a FORMERR when the header is intact (so the ID
//! can be echoed) and are dropped otherwise, like a production server.
//! The FORMERR is stamped straight into the reply buffer too — twelve
//! bytes, no encode.

use crate::admission::{AdmissionConfig, TokenBucket};
use crate::cache::{AnswerCache, AnswerCacheStats, CacheConfig, CachedAnswer};
use crate::snapshot::{Snapshot, SnapshotHandle};
use crate::telemetry::{ShardInstruments, TelemetryConfig};
use crate::transport::{
    BatchDatagram, BatchServerTransport, Datagram, ServerTransport, MAX_DATAGRAM,
};
use crate::truncate::truncate_in_place;
use eum_dns::{decode_message_into, DnsName, Message, QueryContext, Rcode};
use eum_geo::Prefix;
use eum_telemetry::{QueryTrace, TraceHop, TraceOutcome, TraceRing};
use std::io;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-wide configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The authoritative IP a shard serves when the transport does not
    /// carry one per datagram (sockets).
    pub default_server_ip: Ipv4Addr,
    /// Per-shard answer-cache bounds; `None` disables caching entirely
    /// (every query routes through the snapshot).
    pub cache: Option<CacheConfig>,
    /// How long `recv` blocks before re-checking the stop flag.
    pub recv_timeout: Duration,
    /// Metrics registry and trace ring; `None` serves unobserved. Stage
    /// timestamps are only taken when this is set.
    pub telemetry: Option<TelemetryConfig>,
    /// The largest UDP reply this deployment sends regardless of what
    /// the client advertises ([`ReplyCap::Datagram`]'s transport
    /// ceiling). Defaults to [`MAX_DATAGRAM`]; tests shrink it to force
    /// the truncate→TCP-retry path without multi-kilobyte answers.
    pub max_udp_reply: u16,
    /// Compute-path admission control; `None` admits everything.
    /// When set, each shard owns a token bucket priced per compute-path
    /// query (cache misses and uncacheable shapes); an empty bucket
    /// sheds the query with a REFUSED header instead of routing it.
    /// Cached hits are never shed — they are the cheap class the
    /// shedding protects.
    pub admission: Option<AdmissionConfig>,
}

impl ServerConfig {
    /// Defaults with the given fallback server IP.
    pub fn new(default_server_ip: Ipv4Addr) -> ServerConfig {
        ServerConfig {
            default_server_ip,
            cache: Some(CacheConfig::default()),
            recv_timeout: Duration::from_millis(20),
            telemetry: None,
            max_udp_reply: MAX_DATAGRAM as u16,
            admission: None,
        }
    }

    /// Same config with caching disabled.
    pub fn without_cache(mut self) -> ServerConfig {
        self.cache = None;
        self
    }

    /// Same config with the given observability wiring.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> ServerConfig {
        self.telemetry = Some(telemetry);
        self
    }

    /// Same config with a smaller UDP reply ceiling (truncation tests).
    pub fn with_max_udp_reply(mut self, max: u16) -> ServerConfig {
        self.max_udp_reply = max;
        self
    }

    /// Same config with compute-path admission control enabled.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> ServerConfig {
        self.admission = Some(admission);
        self
    }
}

/// The size regime one reply must fit, derived from the substrate its
/// query arrived on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyCap {
    /// Datagram (UDP) query: the reply must fit the client's advertised
    /// EDNS0 payload size — 512 when absent or smaller, per RFC 6891
    /// §6.2.3 — clamped to the transport's own ceiling. Oversize replies
    /// are truncated at a record boundary with TC set (RFC 2181 §9).
    Datagram {
        /// [`ServerConfig::max_udp_reply`] for server loops; tests pass
        /// a small value to force truncation.
        transport_max: u16,
    },
    /// Stream (TCP) query: 64 KiB frames, never truncated.
    Stream,
}

impl ReplyCap {
    /// The default UDP regime: replies capped only by [`MAX_DATAGRAM`].
    pub fn udp() -> ReplyCap {
        ReplyCap::Datagram {
            transport_max: MAX_DATAGRAM as u16,
        }
    }

    /// Effective reply byte limit for a query advertising `advertised`
    /// (its EDNS0 payload size; `None` when the query carried no OPT).
    fn limit(self, advertised: Option<u16>) -> usize {
        match self {
            ReplyCap::Stream => u16::MAX as usize,
            ReplyCap::Datagram { transport_max } => {
                let adv = advertised.unwrap_or(512).max(512);
                (adv as usize).min(transport_max as usize)
            }
        }
    }
}

/// Live counters one shard exposes while running (relaxed atomics; read
/// by reporters, written only by the owning shard).
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Datagrams answered.
    pub queries: AtomicU64,
    /// Answers served from the shard cache.
    pub cache_hits: AtomicU64,
    /// Datagrams that failed to decode.
    pub malformed: AtomicU64,
    /// Replies truncated to the client's UDP payload limit (TC=1).
    pub truncated: AtomicU64,
    /// Queries shed by admission control (REFUSED replies).
    pub shed: AtomicU64,
}

/// What a shard reports when joined.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Datagrams answered (including FORMERR replies).
    pub queries: u64,
    /// Datagrams dropped as undecodable without a usable header.
    pub dropped: u64,
    /// Datagrams answered FORMERR.
    pub malformed: u64,
    /// Replies truncated with TC=1.
    pub truncated: u64,
    /// Queries shed by admission control (REFUSED replies).
    pub shed: u64,
    /// Compute-path queries admitted past the token bucket (equals the
    /// non-cache-hit replies when admission is enabled; 0 otherwise).
    pub admitted: u64,
    /// Cache counters (zeros when the cache is disabled).
    pub cache: AnswerCacheStats,
    /// Snapshot generations this shard served from.
    pub generations_seen: u64,
}

/// A running sharded server; join with [`AuthServer::stop_join`].
pub struct AuthServer {
    stop: Arc<AtomicBool>,
    counters: Vec<Arc<ShardCounters>>,
    handles: Vec<JoinHandle<ShardReport>>,
}

impl AuthServer {
    /// Spawns one serving thread per single-datagram transport (channel,
    /// TCP): [`AuthServer::spawn_batched`] over batches of one.
    pub fn spawn<T: ServerTransport>(
        transports: Vec<T>,
        snapshots: SnapshotHandle,
        cfg: ServerConfig,
    ) -> AuthServer {
        let batched = transports
            .into_iter()
            .map(|inner| BatchOfOne { inner, slot: None })
            .collect();
        AuthServer::spawn_batched(batched, snapshots, cfg)
    }

    /// Spawns one serving thread per transport, each running the shard
    /// loop over its [`BatchServerTransport`]: receive up to a batch
    /// (`recvmmsg` on the socket transport), serve each query against
    /// one snapshot grab, stage every reply, flush once (`sendmmsg`).
    pub fn spawn_batched<T: BatchServerTransport>(
        transports: Vec<T>,
        snapshots: SnapshotHandle,
        cfg: ServerConfig,
    ) -> AuthServer {
        let stop = Arc::new(AtomicBool::new(false));
        let shards = transports.len();
        let mut counters = Vec::new();
        let mut handles = Vec::new();
        for (shard, transport) in transports.into_iter().enumerate() {
            let c = Arc::new(ShardCounters::default());
            counters.push(c.clone());
            let stop = stop.clone();
            let snapshots = snapshots.clone();
            let cfg = cfg.clone();
            handles.push(std::thread::spawn(move || {
                run_shard(shard, shards, transport, snapshots, cfg, stop, c)
            }));
        }
        AuthServer {
            stop,
            counters,
            handles,
        }
    }

    /// Live per-shard counters (for mid-run reporting).
    pub fn counters(&self) -> &[Arc<ShardCounters>] {
        &self.counters
    }

    /// Total queries answered so far across shards.
    pub fn total_queries(&self) -> u64 {
        self.counters
            .iter()
            // relaxed-ok: monotonic counter read for reporting; no data
            // is published through it
            .map(|c| c.queries.load(Ordering::Relaxed))
            .sum()
    }

    /// Signals every shard to stop and collects their reports.
    pub fn stop_join(self) -> Vec<ShardReport> {
        self.stop.store(true, Ordering::SeqCst);
        self.handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    }
}

/// Per-generation state a shard derives once per snapshot swap instead of
/// per query.
struct GenState {
    generation: u64,
    whoami: DnsName,
    uses_ecs: bool,
    top_ip: Ipv4Addr,
}

/// Per-query stage capture filled in by [`ShardState::serve`]. Timestamps
/// are only taken when `timed` is set (telemetry configured), so
/// unobserved servers pay nothing beyond the branch.
#[derive(Debug)]
pub struct QueryStages {
    /// Whether stage timestamps are taken at all.
    pub timed: bool,
    /// Wire-decode time.
    pub decode_ns: u64,
    /// Cache probe time; on a hit this includes the replay (probe plus
    /// patch together are "what the cache saved us").
    pub cache_ns: u64,
    /// Snapshot-routing time on a miss: the mapping decision.
    pub route_ns: u64,
    /// Time on a miss to render the decision into its cache slot and
    /// replay it (a hit writes the reply during the cache stage).
    pub encode_ns: u64,
    /// How the query was resolved.
    pub outcome: TraceOutcome,
}

impl QueryStages {
    /// Fresh per-query stages; timestamps are taken only when `timed`.
    pub fn new(timed: bool) -> QueryStages {
        QueryStages {
            timed,
            decode_ns: 0,
            cache_ns: 0,
            route_ns: 0,
            encode_ns: 0,
            outcome: TraceOutcome::Uncached,
        }
    }
}

/// How [`ShardState::serve`] disposed of one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// A full response is in [`ShardState::reply`].
    Replied {
        /// Whether it was replayed from the answer cache.
        cache_hit: bool,
        /// Whether the reply was truncated to the client's UDP payload
        /// limit (TC=1 set; the client should retry over TCP).
        truncated: bool,
    },
    /// The datagram did not decode but the header survived; a FORMERR
    /// echoing its ID is in [`ShardState::reply`].
    FormErr,
    /// Admission control shed the query: it decoded fine but the
    /// compute path is over budget; a REFUSED echoing its ID is in
    /// [`ShardState::reply`].
    Shed,
    /// The datagram did not even carry a usable header; nothing to send.
    Dropped,
}

/// The buffers a shard reuses across queries. `query` keeps its section
/// `Vec`s' capacity between decodes; `reply` keeps its bytes' capacity
/// between replays; `uncached` is the entry answers that are not to be
/// kept (whoami, errors, scope-0 ECS fallbacks, a disabled cache) are
/// rendered into and replayed from — after warm-up none touches the
/// allocator.
pub struct ScratchBuffers {
    query: Message,
    reply: Vec<u8>,
    uncached: CachedAnswer,
}

/// Everything one shard owns: scratch buffers, the answer cache, and the
/// derived per-generation state. [`AuthServer`] drives one per thread;
/// benchmarks and allocation tests can drive one directly with
/// [`ShardState::serve`].
pub struct ShardState {
    scratch: ScratchBuffers,
    cache: Option<AnswerCache>,
    admission: Option<TokenBucket>,
    gen: Option<GenState>,
    generations_seen: u64,
}

impl ShardState {
    /// Fresh shard state; `cache` bounds the answer cache (`None`
    /// disables it).
    pub fn new(cache: Option<CacheConfig>) -> ShardState {
        ShardState {
            scratch: ScratchBuffers {
                query: Message::empty(),
                reply: Vec::new(),
                uncached: CachedAnswer::empty(Instant::now()),
            },
            cache: cache.map(AnswerCache::new),
            admission: None,
            gen: None,
            generations_seen: 0,
        }
    }

    /// Same state with compute-path admission control: the bucket is
    /// born full at `now` so a fresh shard's warm-up misses are not
    /// shed.
    pub fn with_admission(mut self, cfg: &AdmissionConfig, now: Instant) -> ShardState {
        self.admission = Some(TokenBucket::new(cfg, now));
        self
    }

    /// Syncs the shard to `snap`'s generation: on a swap, transitions the
    /// answer cache — keyed lazy invalidation when the snapshot carries a
    /// delta from the immediately preceding generation, a wholesale clear
    /// otherwise — and re-derives the per-generation constants. Returns
    /// true when the generation changed (the first observation counts).
    pub fn observe(&mut self, snap: &Snapshot) -> bool {
        if self.gen.as_ref().map(|g| g.generation) == Some(snap.generation) {
            return false;
        }
        // A shard's very first observation only initializes state —
        // nothing to clear yet.
        if let Some(g) = &self.gen {
            // A delta is only sound against the generation it was diffed
            // from; a shard that skipped generations must fall back to
            // the clear path (begin_generation(None)).
            let delta = snap
                .delta
                .as_ref()
                .filter(|_| snap.generation == g.generation + 1);
            if let Some(c) = self.cache.as_mut() {
                c.begin_generation(delta);
            }
        }
        self.gen = Some(GenState {
            generation: snap.generation,
            whoami: snap.map.whoami_name(),
            uses_ecs: snap.map.policy().uses_ecs(),
            top_ip: snap.map.top_level_ip(),
        });
        self.generations_seen += 1;
        true
    }

    /// Serves one datagram end to end: decode into the shard scratch,
    /// consult the cache, on a miss decide and render into a cache slot,
    /// replay-and-patch into the reply buffer, and truncate to `cap`'s
    /// effective limit when the reply overflows it (RFC 2181 §9 — whole
    /// records dropped, TC set). Requires a prior [`ShardState::observe`]
    /// call for the snapshot `map` came from. Allocation-free, hit or
    /// miss, once the buffers are warm — truncation included.
    pub fn serve(
        &mut self,
        map: &eum_mapping::MappingSystem,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        cap: ReplyCap,
        stages: &mut QueryStages,
    ) -> ServeOutcome {
        // lint: allow(serve-panic) — API precondition, documented on serve(); every
        // caller observes the snapshot first
        let gen = self.gen.as_ref().expect("observe() must precede serve()");
        let ScratchBuffers {
            query,
            reply,
            uncached,
        } = &mut self.scratch;

        let t_decode = stages.timed.then(Instant::now);
        if decode_message_into(payload, query).is_err() {
            stages.decode_ns = elapsed_ns(t_decode);
            stages.outcome = TraceOutcome::Malformed;
            return if formerr_into(payload, reply) {
                ServeOutcome::FormErr
            } else {
                ServeOutcome::Dropped
            };
        }
        stages.decode_ns = elapsed_ns(t_decode);

        // The client's effective reply budget, fixed by the query's OPT
        // before any answer is built (RFC 6891 §6.2.3).
        let limit = cap.limit(query.opt().map(|o| o.udp_payload_size));

        let ctx = QueryContext {
            resolver_ip,
            now_ms: 0,
        };

        let now = Instant::now();
        let ecs = query.ecs().copied();
        // The end-user (scoped) path exists only at low-level servers; the
        // top level always delegates per resolver, whatever the query
        // carries.
        let eu_ecs = ecs.filter(|_| gen.uses_ecs && server_ip != gen.top_ip);
        // Only single-question catalog-name queries are memoizable (the
        // cached wire echoes the question section verbatim): whoami is
        // TTL-0 by design and error responses are cheap to recompute.
        let mut memo = match (self.cache.as_mut(), query.questions.as_slice()) {
            (Some(cache), [q]) if q.name != gen.whoami => {
                let asked = cache.ask(&q.name, q.rtype);
                Some((cache, asked, asked.resolver(resolver_ip, server_ip)))
            }
            _ => None,
        };
        if let Some((cache, asked, resolver_key)) = memo.as_mut() {
            let hit = match eu_ecs {
                Some(e) => cache.find_scoped(*asked, e.addr, e.source_prefix, now),
                None => cache.find(*resolver_key, *asked, now),
            };
            if let Some(entry) = hit {
                entry.replay_into(query.id, query.flags.rd, ecs.as_ref(), now, reply);
                // The template is stored untruncated; each replay is capped
                // against *this* query's advertised size — a patch in place
                // on the memcpy'd bytes, still alloc-free.
                let truncated = truncate_in_place(reply, limit);
                stages.outcome = TraceOutcome::CacheHit;
                if stages.timed {
                    stages.cache_ns = now.elapsed().as_nanos() as u64;
                }
                return ServeOutcome::Replied {
                    cache_hit: true,
                    truncated,
                };
            }
            if stages.timed {
                stages.cache_ns = now.elapsed().as_nanos() as u64;
            }
            stages.outcome = TraceOutcome::Computed;
        }
        // The compute path — a cache miss or an uncacheable shape — is the
        // expensive class. Admission prices it here: an empty bucket sheds
        // the query as REFUSED before any routing work, which is exactly
        // the cheapest-first priority (a cache-busting flood is all
        // misses; cached legit hits never reach this point).
        if let Some(b) = self.admission.as_mut() {
            if !b.try_take(now) {
                stages.outcome = TraceOutcome::Shed;
                return if refused_into(payload, reply) {
                    ServeOutcome::Shed
                } else {
                    ServeOutcome::Dropped
                };
            }
        }

        let t_route = stages.timed.then(Instant::now);
        let decision = map.decide_reply(server_ip, query, &ctx);
        stages.route_ns = elapsed_ns(t_route);
        let t_encode = stages.timed.then(Instant::now);
        // A miss is a fill plus a hit: the decision is rendered once,
        // straight into the entry that will serve the replays — or into
        // the shard's scratch entry when it is not to be kept — and the
        // reply comes off that template like any later one.
        let fill = |entry: &mut CachedAnswer| {
            entry.fill(decision.scope, decision.ttl_s, now, |wire| {
                decision.render_into(query, wire)
            })
        };
        // Cache only clean answers with a real TTL.
        let cacheable = decision.rcode == Rcode::NoError && decision.ttl_s > 0;
        let stored = memo
            .filter(|_| cacheable)
            .and_then(|(cache, asked, resolver_key)| {
                let key = match (eu_ecs, decision.scope) {
                    // End-user answer with a real scope: valid for the whole
                    // scope block.
                    (Some(e), Some(scope)) if scope > 0 => asked.scoped(Prefix::of(e.addr, scope)),
                    // Scope-0 answer to an ECS query (unknown block fallback):
                    // not cached. It must not enter the scoped table (a /0
                    // entry would shadow real blocks) and the resolver table
                    // is for queries that will probe it again — ECS queries
                    // never do.
                    (Some(_), _) => return None,
                    // NS path (no ECS, policy ignores it, or top-level
                    // delegation): per-resolver at this serving IP.
                    (None, _) => resolver_key,
                };
                cache.insert_with(key, asked, now, fill)
            });
        let entry = match stored {
            Some(entry) => entry,
            None => {
                fill(uncached);
                uncached
            }
        };
        let echo = ecs.as_ref().filter(|_| decision.scope.is_some());
        entry.replay_into(query.id, query.flags.rd, echo, now, reply);
        let truncated = truncate_in_place(reply, limit);
        stages.encode_ns = elapsed_ns(t_encode);
        ServeOutcome::Replied {
            cache_hit: false,
            truncated,
        }
    }

    /// The bytes to send for the last [`ShardState::serve`] that returned
    /// [`ServeOutcome::Replied`] or [`ServeOutcome::FormErr`].
    pub fn reply(&self) -> &[u8] {
        &self.scratch.reply
    }

    /// The last successfully decoded query (valid after a
    /// [`ServeOutcome::Replied`]; used for trace fields).
    pub fn last_query(&self) -> &Message {
        &self.scratch.query
    }

    /// The shard's answer cache, when enabled.
    pub fn cache(&self) -> Option<&AnswerCache> {
        self.cache.as_ref()
    }

    /// How many snapshot generations this shard has observed.
    pub fn generations_seen(&self) -> u64 {
        self.generations_seen
    }
}

fn elapsed_ns(since: Option<Instant>) -> u64 {
    since.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0)
}

/// Batch-of-one adapter: drives a single-datagram [`ServerTransport`]
/// (channel, TCP) through the batched shard loop. `recv_batch` is one
/// `recv` into slot 0 and `stage_reply` sends at once — there is nothing
/// to coalesce, and sending there keeps the reply ahead of the shard's
/// telemetry bookkeeping — so `flush` has nothing left to do.
struct BatchOfOne<T: ServerTransport> {
    inner: T,
    slot: Option<Datagram<T::Peer>>,
}

impl<T: ServerTransport> BatchServerTransport for BatchOfOne<T> {
    fn recv_batch(&mut self, timeout: Duration) -> io::Result<usize> {
        self.slot = self.inner.recv(timeout)?;
        Ok(usize::from(self.slot.is_some()))
    }

    fn datagram(&self, _i: usize) -> BatchDatagram<'_> {
        // lint: allow(serve-panic) — trait contract: `i` is below the last
        // recv_batch count, which is 1 exactly when the slot is filled
        let dg = self.slot.as_ref().expect("datagram() after recv_batch");
        BatchDatagram {
            payload: &dg.payload,
            resolver_ip: dg.resolver_ip,
            server_ip: dg.server_ip,
            stream: dg.stream,
        }
    }

    fn stage_reply(&mut self, _i: usize, reply: &[u8]) {
        if let Some(dg) = &self.slot {
            let _ = self.inner.send(&dg.peer, reply);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The shard loop: one `recv_batch` feeds the per-query serve path, all
/// replies are staged by slot, and one `flush` sends them — so a warm
/// kernel-batched shard makes two syscalls per *batch* instead of two
/// per query, and a [`BatchOfOne`] shard degenerates to receive → serve
/// → send.
fn run_shard<T: BatchServerTransport>(
    shard: usize,
    shards: usize,
    mut transport: T,
    snapshots: SnapshotHandle,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
    counters: Arc<ShardCounters>,
) -> ShardReport {
    transport.on_thread_start();
    let mut state = ShardState::new(cfg.cache);
    let admission_on = cfg.admission.is_some();
    if let Some(a) = &cfg.admission {
        state = state.with_admission(a, Instant::now());
    }
    // The shard's snapshot view: steady-state revalidation is one atomic
    // load — no lock, no Arc clone per batch.
    let mut reader = snapshots.reader();
    let mut tel = cfg
        .telemetry
        .as_ref()
        .map(|t| ShardInstruments::register(&t.registry, shard, shards));
    let trace = cfg.telemetry.as_ref().and_then(|t| t.trace.clone());
    let mut dropped = 0u64;
    let mut malformed = 0u64;
    let mut admitted = 0u64;
    let mut received = 0u64;
    // The query bytes are copied out of the transport's receive slot so
    // the slot can be restaged with the reply while `serve` runs.
    // lint: allow(serve-alloc) — one-time setup before the serve loop; the
    // capacity covers every datagram the transport can hand us
    let mut qbuf: Vec<u8> = Vec::with_capacity(MAX_DATAGRAM);
    // relaxed-ok: per-shard monotonic counters; readers only sum
    let bump = |c: &AtomicU64| c.fetch_add(1, Ordering::Relaxed);
    // relaxed-ok: the stop flag carries no data; shards only need to see
    // it eventually, and stop_join's SeqCst store plus thread join gives
    // the final synchronization
    while !stop.load(Ordering::Relaxed) {
        let n = match transport.recv_batch(cfg.recv_timeout) {
            Ok(0) => continue,
            Ok(n) => n,
            Err(_) => continue,
        };
        // One snapshot revalidation serves the whole batch: every
        // datagram in it was received before this instant, so none can
        // require a newer generation than the one we pin here.
        let snap = reader.snapshot();
        if state.observe(snap) {
            if let Some(t) = tel.as_ref() {
                t.generation.set(snap.generation as f64);
            }
        }
        for i in 0..n {
            received += 1;
            // The rate lives on the ring so operators can retune it mid-run.
            let sampled = trace
                .as_ref()
                .is_some_and(|ring| ring.should_sample(received));
            let timed = tel.is_some();
            let t_start = timed.then(Instant::now);
            let (resolver_ip, server_ip, stream) = {
                let dg = transport.datagram(i);
                qbuf.clear();
                qbuf.extend_from_slice(dg.payload);
                (dg.resolver_ip, dg.server_ip, dg.stream)
            };
            let server_ip = server_ip.unwrap_or(cfg.default_server_ip);
            let cap = if stream {
                ReplyCap::Stream
            } else {
                ReplyCap::Datagram {
                    transport_max: cfg.max_udp_reply,
                }
            };
            let mut stages = QueryStages::new(timed);
            let outcome = state.serve(&snap.map, server_ip, resolver_ip, &qbuf, cap, &mut stages);
            let total_ns = elapsed_ns(t_start);

            // What the outcome means for the books: FORMERR and REFUSED
            // are answers; only a query that decoded has an id and an ECS
            // scope to trace; only a computed full reply was admitted.
            let (cache_hit, truncated) = match outcome {
                ServeOutcome::Replied {
                    cache_hit,
                    truncated,
                } => (cache_hit, truncated),
                _ => (false, false),
            };
            let answered = outcome != ServeOutcome::Dropped;
            let decoded = !matches!(outcome, ServeOutcome::FormErr | ServeOutcome::Dropped);
            let admitted_now =
                admission_on && !cache_hit && matches!(outcome, ServeOutcome::Replied { .. });
            if answered {
                bump(&counters.queries);
            } else {
                dropped += 1;
            }
            if !decoded {
                bump(&counters.malformed);
                malformed += 1;
            }
            if cache_hit {
                bump(&counters.cache_hits);
            }
            if truncated {
                bump(&counters.truncated);
            }
            if outcome == ServeOutcome::Shed {
                bump(&counters.shed);
            }
            admitted += u64::from(admitted_now);
            if answered {
                transport.stage_reply(i, state.reply());
            }
            if let Some(t) = tel.as_mut() {
                if answered {
                    t.queries.inc();
                }
                match outcome {
                    ServeOutcome::Replied { .. } => {
                        if truncated {
                            t.truncated.inc();
                        }
                        if admitted_now {
                            t.admitted.inc();
                        }
                        t.record_stages(
                            stages.decode_ns,
                            stages.cache_ns,
                            stages.route_ns,
                            stages.encode_ns,
                            total_ns,
                        );
                        if let Some(c) = state.cache() {
                            t.sync_cache(c.stats(), c.len());
                        }
                    }
                    ServeOutcome::FormErr => t.formerr.inc(),
                    ServeOutcome::Shed => t.shed.inc(),
                    ServeOutcome::Dropped => t.dropped.inc(),
                }
            }
            if sampled {
                if let Some(ring) = trace.as_ref() {
                    if decoded {
                        push_query_trace(
                            ring,
                            shard,
                            snap.generation,
                            &state,
                            truncated,
                            &stages,
                            total_ns,
                        );
                    } else {
                        push_malformed_trace(ring, shard, snap.generation, &stages, total_ns);
                    }
                }
            }
        }
        let _ = transport.flush();
    }
    ShardReport {
        shard,
        // relaxed-ok: the shard thread itself wrote every increment
        queries: counters.queries.load(Ordering::Relaxed),
        dropped,
        malformed,
        // relaxed-ok: the shard thread itself wrote every increment
        truncated: counters.truncated.load(Ordering::Relaxed),
        // relaxed-ok: the shard thread itself wrote every increment
        shed: counters.shed.load(Ordering::Relaxed),
        admitted,
        cache: state.cache().map(|c| c.stats()).unwrap_or_default(),
        generations_seen: state.generations_seen(),
    }
}

fn sat32(v: u64) -> u32 {
    v.min(u32::MAX as u64) as u32
}

/// Stamps one served query into the trace ring. The 16-bit wire id the
/// query arrived with is the only identity the authoritative ever sees,
/// so it becomes the record's trace id; span stitching joins it to the
/// resolver's ring through the low 16 bits of the full propagated id.
/// Alloc-free (a `TraceRing::push` of packed words).
fn push_query_trace(
    ring: &TraceRing,
    shard: usize,
    generation: u64,
    state: &ShardState,
    truncated: bool,
    stages: &QueryStages,
    total_ns: u64,
) {
    let q = state.last_query();
    ring.push(&QueryTrace {
        seq: 0,
        trace_id: q.id as u32,
        hop: TraceHop::Authd,
        shard: shard as u16,
        generation,
        ecs_scope: q.ecs().map(|e| e.source_prefix),
        outcome: stages.outcome,
        truncated,
        decode_ns: sat32(stages.decode_ns),
        cache_ns: sat32(stages.cache_ns),
        route_ns: sat32(stages.route_ns),
        encode_ns: sat32(stages.encode_ns),
        total_ns: sat32(total_ns),
    });
}

/// The malformed sibling: no decoded query to pull a wire id or ECS
/// scope from, so the record stays unattributable (trace id 0).
fn push_malformed_trace(
    ring: &TraceRing,
    shard: usize,
    generation: u64,
    stages: &QueryStages,
    total_ns: u64,
) {
    ring.push(&QueryTrace {
        shard: shard as u16,
        generation,
        outcome: TraceOutcome::Malformed,
        decode_ns: sat32(stages.decode_ns),
        total_ns: sat32(total_ns),
        ..QueryTrace::blank(0, TraceHop::Authd)
    });
}

/// Stamps a minimal FORMERR into `out` when at least the 12-byte header
/// survived: the two ID bytes are echoed, QR is set, the RCODE is
/// FORMERR, and every count is zero. No `Message` is built and nothing
/// allocates once `out` has capacity.
fn formerr_into(payload: &[u8], out: &mut Vec<u8>) -> bool {
    if payload.len() < 12 {
        return false;
    }
    out.clear();
    // lint: allow(serve-index) — payload.len() ≥ 12 checked above
    out.extend_from_slice(&payload[..2]);
    out.extend_from_slice(&[0x80, 0x01]); // QR=1, opcode 0, RCODE=FORMERR
    out.extend_from_slice(&[0; 8]); // QD/AN/NS/AR counts all zero
    true
}

/// The shed sibling of [`formerr_into`]: a minimal REFUSED (RCODE 5)
/// echoing the query ID, stamped when admission control rejects a
/// compute-path query. Same twelve bytes, no encode, no allocation once
/// `out` has capacity — shedding must stay cheaper than the cached hit
/// it protects.
fn refused_into(payload: &[u8], out: &mut Vec<u8>) -> bool {
    if payload.len() < 12 {
        return false;
    }
    out.clear();
    // lint: allow(serve-index) — payload.len() ≥ 12 checked above
    out.extend_from_slice(&payload[..2]);
    out.extend_from_slice(&[0x80, 0x05]); // QR=1, opcode 0, RCODE=REFUSED
    out.extend_from_slice(&[0; 8]); // QD/AN/NS/AR counts all zero
    true
}
