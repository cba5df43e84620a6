//! The workspace API that the end-to-end benchmark (`bench/`, a
//! workspace of its own that the root `cargo build`/`cargo test` never
//! compiles) builds against, pinned at tier 1. The benchmark's sources
//! are frozen between benchmark changes, so a rename, an arity change, a
//! removed field or a field added to a struct it builds by literal would
//! only surface when the benchmark is next run; here it fails the root
//! build instead.
//!
//! Each item `bench/src` uses appears once: a fn-pointer coercion with
//! the exact signature, a struct literal for the structs it builds field
//! by field, a destructuring pattern for the fields it reads, and a
//! stand-in impl for each trait it implements. Regenerate the list with
//!
//! ```text
//! grep -rhozE 'use eum_[a-z_:]+::(\{[^}]*\}|[A-Za-z_]+)|eum_[a-z_]+::[a-z_]+::[a-z_]+\(' bench/src |
//!     tr '\0\n' '  ' | sed 's/use /\nuse /g'
//! grep -rhoE '\b[A-Z][A-Za-z0-9]+::[a-z_][a-z0-9_]*|\b[A-Z][A-Za-z]+ \{' bench/src | sort -u
//! comm -12 <(grep -rhoE '\.[a-z_][a-z0-9_]*\(' bench/src | tr -d '.(' | sort -u) \
//!          <(grep -rhoE 'pub fn [a-z_][a-z0-9_]*' crates/*/src | cut -d' ' -f3 | sort -u)
//! ```
//!
//! (imports, associated fns and literals, then the method names the
//! benchmark calls that some crate defines; keep the crate-owned ones).

// Spelling out whole signatures, and reading many structs in one place,
// is what this file is for.
#![allow(clippy::too_many_arguments, clippy::type_complexity)]

use eum_authd::{
    channel_transports, AnswerCache, AnswerCacheStats, AuthServer, BatchDatagram,
    BatchServerTransport, CacheConfig, CachedAnswer, ChannelClient, ChannelConnector,
    ChannelTransport, ClientTransport, Datagram, QueryStages, ReplyCap, ServeOutcome, ServerConfig,
    ServerTransport, ShardCounters, ShardReport, ShardState, Snapshot, SnapshotHandle,
    SnapshotReader, TelemetryConfig,
};
use eum_cdn::{
    deployment_universe, CatalogConfig, CdnPlatform, ClusterId, ContentCatalog, DeployConfig,
    DeploymentSite,
};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{
    decode_message, decode_message_into, encode_message, encode_message_into, DnsName, Message,
    QueryContext, Question, Rcode, RrType, WireError,
};
use eum_geo::{GeoPoint, Prefix};
use eum_ldns::{
    AnswerBody, CacheEntry, EcsPolicy, FleetReport, Ldns, LdnsCacheConfig, LdnsConfig, Resolved,
    ResolverCache, ResolverFleet, TimerWheel,
};
use eum_mapping::{
    MapDelta, MapUnitInfo, MapUnits, MappingConfig, MappingPolicy, MappingSystem, RescoreHints,
};
use eum_net::sys::MmsgBatch;
use eum_net::{BatchConfig, ReuseportUdpTransport, SocketClient, TcpServerTransport};
use eum_netmodel::{
    BlockId, ClientBlock, Internet, InternetConfig, PublicProvider, QueryOrigin, QueryPopulation,
    Resolver, ResolverId, ResolverKind,
};
use eum_telemetry::{
    Histogram, QueryTrace, Registry, SampleValue, SeriesSample, TraceHop, TraceRing,
};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `bench/src/world.rs` builds the deployment config field by field: a
/// new field would not compile there.
#[allow(dead_code)]
fn deploy_config() -> DeployConfig {
    DeployConfig {
        servers_per_cluster: 6,
        cache_objects_per_server: 1024,
        cluster_capacity: 0.0,
    }
}

/// The oracle and the replays build the query context by literal.
#[allow(dead_code)]
fn query_context(resolver_ip: Ipv4Addr) -> QueryContext {
    QueryContext {
        resolver_ip,
        now_ms: 0,
    }
}

/// Configs built from their defaults with a few fields set.
#[allow(dead_code)]
fn partial_configs(max_ping_targets: usize) -> (MappingConfig, BatchConfig) {
    (
        MappingConfig {
            policy: MappingPolicy::end_user_default(),
            max_ping_targets,
            ..MappingConfig::default()
        },
        BatchConfig {
            pin_cpus: true,
            ..BatchConfig::default()
        },
    )
}

/// The fields the benchmark reads off results, reports and world parts.
#[allow(dead_code)]
fn fields_read(
    shard: ShardReport,
    counters: &ShardCounters,
    resolved: Resolved,
    fleet: FleetReport,
    snap: &Snapshot,
    sample: SeriesSample,
    units: &MapUnits,
    (resolver, provider, block): (&Resolver, &PublicProvider, &ClientBlock),
    (origin, ecs): (QueryOrigin, EcsOption),
    (datagram, batched): (Datagram<()>, BatchDatagram<'_>),
) {
    let Datagram { payload, .. } = datagram;
    let BatchDatagram {
        payload: borrowed, ..
    } = batched;
    let _: (Vec<u8>, &[u8]) = (payload, borrowed);
    let ShardReport { cache, .. } = shard;
    let AnswerCacheStats {
        hits,
        misses,
        generation_clears,
        keyed_invalidations,
        ..
    } = cache;
    let _ = (hits, misses, generation_clears, keyed_invalidations);
    let ShardCounters {
        queries,
        cache_hits,
        ..
    } = counters;
    let _ = (queries, cache_hits);
    let Resolved {
        ips,
        rcode,
        from_cache,
        upstream_queries,
        ..
    } = resolved;
    let _: (Vec<Ipv4Addr>, Rcode, bool, u32) = (ips, rcode, from_cache, upstream_queries);
    let FleetReport {
        downstream_queries,
        downstream_cache_hits,
        upstream_queries,
        upstream_timeouts,
        upstream_servfails,
        expired_churn,
        cache_entries,
        ..
    } = fleet;
    let _: ([u64; 6], usize) = (
        [
            downstream_queries,
            downstream_cache_hits,
            upstream_queries,
            upstream_timeouts,
            upstream_servfails,
            expired_churn,
        ],
        cache_entries,
    );
    let Snapshot {
        generation, map, ..
    } = snap;
    let _: (&u64, &MappingSystem) = (generation, map);
    let SeriesSample { name, value, .. } = sample;
    let _ = (name, matches!(value, SampleValue::Counter(_)));
    let MapUnits { units, .. } = units;
    let _: Option<&MapUnitInfo> = units.first().filter(|u| !u.members.is_empty());
    let Resolver { ip, kind, .. } = resolver;
    let _ = (
        ip,
        matches!(kind, ResolverKind::PublicSite { provider, .. } if provider.index() == 0),
    );
    let _: bool = provider.supports_ecs;
    let _: (Prefix, f64) = (block.prefix, block.demand);
    let QueryOrigin {
        block, resolver, ..
    } = origin;
    let _: (BlockId, ResolverId) = (block, resolver);
    let EcsOption {
        addr,
        source_prefix,
        scope_prefix,
        ..
    } = ecs;
    let _: (Ipv4Addr, u8, u8) = (addr, source_prefix, scope_prefix);
}

/// A served outcome the replay matches on.
#[allow(dead_code)]
fn replied_from_cache(out: ServeOutcome) -> bool {
    matches!(
        out,
        ServeOutcome::Replied {
            cache_hit: true,
            ..
        }
    )
}

/// The traits the benchmark implements (its traced wrappers and its
/// in-process loopback), with exactly the methods it provides.
struct Stub;

impl ClientTransport for Stub {
    fn exchange(
        &mut self,
        _shard: usize,
        _server_ip: Ipv4Addr,
        _resolver_ip: Ipv4Addr,
        _payload: &[u8],
        _timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        Ok(Vec::new())
    }

    fn num_shards(&self) -> usize {
        1
    }
}

impl ServerTransport for Stub {
    type Peer = ();

    fn recv(&mut self, _timeout: Duration) -> io::Result<Option<Datagram<()>>> {
        Ok(None)
    }

    fn send(&mut self, _peer: &(), _payload: &[u8]) -> io::Result<()> {
        Ok(())
    }
}

impl BatchServerTransport for Stub {
    fn on_thread_start(&mut self) {}

    fn recv_batch(&mut self, _timeout: Duration) -> io::Result<usize> {
        Ok(0)
    }

    fn datagram(&self, _i: usize) -> BatchDatagram<'_> {
        unreachable!("the stub never receives a batch")
    }

    fn stage_reply(&mut self, _i: usize, _reply: &[u8]) {}

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Generic calls the benchmark makes with its own RNG.
#[allow(dead_code)]
fn sample_origin<R: rand::RngCore>(pop: &QueryPopulation, rng: &mut R) -> QueryOrigin {
    pop.sample(rng)
}

#[test]
fn bench_surface_keeps_its_signatures() {
    // eum-authd
    let _: fn(CacheConfig) -> AnswerCache = AnswerCache::new;
    let _: for<'a> fn(
        &'a mut AnswerCache,
        &DnsName,
        RrType,
        Ipv4Addr,
        u8,
        Instant,
    ) -> Option<&'a CachedAnswer> = AnswerCache::lookup_scoped;
    let _: for<'a> fn(
        &'a mut AnswerCache,
        &DnsName,
        RrType,
        Ipv4Addr,
        Ipv4Addr,
        Instant,
    ) -> Option<&'a CachedAnswer> = AnswerCache::lookup_resolver;
    let _: fn(&mut AnswerCache, DnsName, RrType, Prefix, CachedAnswer) = AnswerCache::insert_scoped;
    let _: fn(&mut AnswerCache, DnsName, RrType, Ipv4Addr, Ipv4Addr, CachedAnswer) =
        AnswerCache::insert_resolver;
    let _: fn(&AnswerCache) -> AnswerCacheStats = AnswerCache::stats;
    let _: fn() -> CacheConfig = CacheConfig::default;
    let _: fn(&Message, u32, Instant) -> CachedAnswer = CachedAnswer::from_response;
    let _: fn(Vec<Stub>, SnapshotHandle, ServerConfig) -> AuthServer = AuthServer::spawn::<Stub>;
    let _: fn(Vec<ChannelTransport>, SnapshotHandle, ServerConfig) -> AuthServer =
        AuthServer::spawn::<ChannelTransport>;
    let _: fn(Vec<ReuseportUdpTransport>, SnapshotHandle, ServerConfig) -> AuthServer =
        AuthServer::spawn_batched::<ReuseportUdpTransport>;
    let _: fn(Vec<Stub>, SnapshotHandle, ServerConfig) -> AuthServer =
        AuthServer::spawn_batched::<Stub>;
    let _: fn(&AuthServer) -> &[Arc<ShardCounters>] = AuthServer::counters;
    let _: fn(AuthServer) -> Vec<ShardReport> = AuthServer::stop_join;
    let _: fn(usize) -> (Vec<ChannelTransport>, ChannelConnector) = channel_transports;
    let _: fn(ChannelConnector) -> ChannelClient = ChannelClient::new;
    let _: fn(bool) -> QueryStages = QueryStages::new;
    let _: fn() -> ReplyCap = ReplyCap::udp;
    let _: fn(Ipv4Addr) -> ServerConfig = ServerConfig::new;
    let _: fn(ServerConfig, TelemetryConfig) -> ServerConfig = ServerConfig::with_telemetry;
    let _: fn(Arc<Registry>) -> TelemetryConfig = TelemetryConfig::metrics;
    let _: fn(TelemetryConfig, Arc<TraceRing>, u64) -> TelemetryConfig =
        TelemetryConfig::with_trace;
    let _: fn(Option<CacheConfig>) -> ShardState = ShardState::new;
    let _: fn(
        &mut ShardState,
        &MappingSystem,
        Ipv4Addr,
        Ipv4Addr,
        &[u8],
        ReplyCap,
        &mut QueryStages,
    ) -> ServeOutcome = ShardState::serve;
    let _: fn(&mut ShardState, &Snapshot) -> bool = ShardState::observe;
    let _: fn(&ShardState) -> &[u8] = ShardState::reply;
    let _: fn(&ShardState) -> Option<&AnswerCache> = ShardState::cache;
    let _: fn(MappingSystem) -> SnapshotHandle = SnapshotHandle::new;
    let _: fn(&SnapshotHandle) -> Arc<Snapshot> = SnapshotHandle::current;
    let _: fn(&SnapshotHandle) -> SnapshotReader = SnapshotHandle::reader;
    let _: fn(&SnapshotHandle, MappingSystem) -> u64 = SnapshotHandle::publish;
    let _: fn(&SnapshotHandle, MappingSystem, Arc<MapDelta>) -> u64 = SnapshotHandle::publish_delta;
    let _: fn(&mut SnapshotReader) -> &Arc<Snapshot> = SnapshotReader::snapshot;

    // eum-cdn
    let _: fn(&CatalogConfig) -> ContentCatalog = ContentCatalog::generate;
    let _: fn(&ContentCatalog) -> Vec<f64> = ContentCatalog::popularity_weights;
    let _: fn(u64) -> CatalogConfig = CatalogConfig::paper;
    let _: fn(u64) -> CatalogConfig = CatalogConfig::tiny;
    let _: fn(u64, usize) -> Vec<DeploymentSite> = deployment_universe;
    let _: fn(&mut Internet, &[DeploymentSite], &DeployConfig) -> CdnPlatform = CdnPlatform::deploy;
    let _: fn(&CdnPlatform) -> usize = CdnPlatform::cluster_count;
    let _: fn(&mut CdnPlatform, ClusterId, bool) = CdnPlatform::set_cluster_alive;

    // eum-dns
    let _: fn(&[u8]) -> Result<Message, WireError> = decode_message;
    let _: fn(&[u8], &mut Message) -> Result<(), WireError> = decode_message_into;
    let _: fn(&Message) -> Vec<u8> = encode_message;
    let _: fn(&Message, &mut Vec<u8>) = encode_message_into;
    let _: fn() -> Message = Message::empty;
    let _: fn(u16, Question, Option<OptData>) -> Message = Message::query;
    let _: fn(&Message) -> Vec<Ipv4Addr> = Message::answer_ips;
    let _: fn(&Message) -> Option<&EcsOption> = Message::ecs;
    let _: fn(&Message) -> Option<u32> = Message::min_answer_ttl;
    let _: fn(DnsName) -> Question = Question::a;
    let _: fn(Ipv4Addr, u8) -> EcsOption = EcsOption::query;
    let _: fn(EcsOption) -> OptData = OptData::with_ecs;
    let _: (Rcode, RrType) = (Rcode::NoError, RrType::A);

    // eum-geo
    let _: fn(Ipv4Addr, u8) -> Prefix = Prefix::of;
    let _: fn(&GeoPoint, &GeoPoint) -> f64 = GeoPoint::distance_miles;

    // eum-ldns
    let _: fn(AnswerBody, u8, u32, Instant) -> CacheEntry = CacheEntry::new;
    let _: fn(Vec<Ipv4Addr>) -> AnswerBody = AnswerBody::Addresses;
    let _: fn() -> LdnsCacheConfig = LdnsCacheConfig::default;
    let _: fn(LdnsCacheConfig, Instant) -> ResolverCache = ResolverCache::new;
    let _: fn(&mut ResolverCache, DnsName, RrType, Option<Prefix>, CacheEntry) =
        ResolverCache::insert;
    let _: for<'a> fn(
        &'a mut ResolverCache,
        &DnsName,
        RrType,
        Ipv4Addr,
        u8,
        Instant,
    ) -> Option<&'a CacheEntry> = ResolverCache::lookup;
    let _: fn(&mut ResolverCache, Instant) -> u64 = ResolverCache::advance;
    let _: fn(Instant) -> TimerWheel<u32> = TimerWheel::new;
    let _: fn(&mut TimerWheel<u32>, Instant, u32) = TimerWheel::insert;
    let _: fn(&mut TimerWheel<u32>, Instant, &mut Vec<u32>) -> usize = TimerWheel::advance;
    let _: fn(Ipv4Addr, EcsPolicy) -> LdnsConfig = LdnsConfig::new;
    let _: fn(LdnsConfig, Instant) -> Ldns = Ldns::new;
    let _: fn(&mut Ldns, &mut Stub, usize, Ipv4Addr, &DnsName, Ipv4Addr, Instant) -> Resolved =
        Ldns::resolve::<Stub>;
    let _: fn(&Ldns) -> &EcsPolicy = Ldns::policy;
    let _: fn(&EcsPolicy, &DnsName) -> bool = EcsPolicy::sends_for;
    let _: (EcsPolicy, EcsPolicy) = (EcsPolicy::Always, EcsPolicy::Off);
    let _: fn(&Internet, Instant) -> ResolverFleet = |net, now| {
        ResolverFleet::new(net, now, |r: &Resolver| {
            LdnsConfig::new(r.ip, EcsPolicy::Off)
        })
    };
    let _: fn(&mut ResolverFleet, ResolverId) -> &mut Ldns = ResolverFleet::resolver_mut;
    let _: fn(&ResolverFleet) -> FleetReport = ResolverFleet::report;

    // eum-mapping
    let _: fn(
        &mut Internet,
        &CdnPlatform,
        &ContentCatalog,
        DnsName,
        MappingConfig,
    ) -> MappingSystem = MappingSystem::build;
    let _: fn(&MappingSystem, Ipv4Addr, &Message, &QueryContext) -> Message = MappingSystem::answer;
    let _: fn(&MappingSystem) -> MappingSystem = MappingSystem::clone_for_publish;
    let _: fn(&mut MappingSystem, &Internet, &CdnPlatform) = MappingSystem::rebuild;
    let _: fn(&mut MappingSystem, &Internet, &CdnPlatform, &RescoreHints) -> Arc<MapDelta> =
        MappingSystem::rebuild_incremental;
    let _: fn(&MappingSystem) -> Ipv4Addr = MappingSystem::top_level_ip;
    let _: fn(&MappingSystem) -> Vec<Ipv4Addr> = MappingSystem::ns_ips;
    let _: fn(&MappingSystem, Prefix) -> Option<ClusterId> =
        MappingSystem::assigned_cluster_for_block;
    let _: fn(&MappingSystem) -> usize = MappingSystem::total_units;
    let _: fn(&MappingSystem) -> Option<&MapUnits> = MappingSystem::eu_units;
    let _: fn(&MapDelta) -> usize = MapDelta::units_changed;
    let _: fn() -> MappingPolicy = MappingPolicy::end_user_default;
    let _: fn() -> RescoreHints = RescoreHints::default;

    // eum-net
    let _: fn(usize, &BatchConfig) -> io::Result<(Vec<ReuseportUdpTransport>, Vec<SocketAddr>)> =
        ReuseportUdpTransport::bind_shards;
    let _: fn(&mut ReuseportUdpTransport, &Registry, usize) = ReuseportUdpTransport::attach_metrics;
    let _: fn(Vec<SocketAddr>, Vec<SocketAddr>) -> io::Result<SocketClient> = SocketClient::connect;
    let _: fn() -> io::Result<TcpServerTransport> = TcpServerTransport::bind;
    let _: fn(&TcpServerTransport) -> io::Result<SocketAddr> = TcpServerTransport::local_addr;
    let _: fn(usize) -> MmsgBatch = MmsgBatch::new;
    let _: fn(
        &mut MmsgBatch,
        &UdpSocket,
        &mut [u8],
        usize,
        &mut [usize],
        &mut [SocketAddrV4],
    ) -> io::Result<usize> = MmsgBatch::recv;
    let _: fn(usize) -> io::Result<()> = eum_net::sys::pin_current_thread;

    // eum-netmodel
    let _: fn(InternetConfig) -> Internet = Internet::generate;
    let _: fn(u64) -> InternetConfig = InternetConfig::paper;
    let _: fn(u64) -> InternetConfig = InternetConfig::tiny;
    let _: fn(&Internet, BlockId) -> &ClientBlock = Internet::block;
    let _: fn(&Internet, ResolverId) -> &Resolver = Internet::resolver;
    let _: fn(&Internet) -> f64 = Internet::total_demand;
    let _: fn(&ClientBlock) -> Ipv4Addr = ClientBlock::client_ip;
    let _: fn(&ClientBlock) -> ResolverId = ClientBlock::primary_ldns;
    let _: fn(&Internet) -> QueryPopulation = QueryPopulation::build;

    // eum-telemetry
    let _: fn() -> Histogram = Histogram::new;
    let _: fn(&Histogram, u64) = Histogram::record;
    let _: fn(u32, TraceHop) -> QueryTrace = QueryTrace::blank;
    let _: fn(usize) -> TraceRing = TraceRing::new;
    let _: fn(&TraceRing, &QueryTrace) = TraceRing::push;
    let _: fn() -> Registry = Registry::new;
    let _: fn(&Registry) -> Vec<SeriesSample> = Registry::sample;
    let _ = TraceHop::Authd;

    // The literals above build and say what they were given.
    assert_eq!(deploy_config().cache_objects_per_server, 1024);
    assert_eq!(query_context(Ipv4Addr::LOCALHOST).now_ms, 0);
    assert!(partial_configs(50).1.pin_cpus);
    assert_eq!(<Stub as ClientTransport>::num_shards(&Stub), 1);
}
