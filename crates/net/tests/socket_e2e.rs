//! End-to-end over real kernel sockets: SO_REUSEPORT shard sockets
//! served by the batched (`recvmmsg`/`sendmmsg`) shard loop, the
//! DNS-over-TCP fallback completing answers the UDP path had to
//! truncate, a generation swap under load, and the differential proof
//! that channel, batch-of-one and full-batch serving are one behaviour.
//!
//! On Linux every shard socket shares one port and the *kernel* picks
//! the shard per client 4-tuple — so these tests use several client
//! sockets and assert on totals, never on which shard got which query.

use eum_authd::{AuthServer, ClientTransport, ServerConfig, SnapshotHandle};
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{decode_message, encode_message, Message, QueryContext, Question, Rcode};
use eum_mapping::{MappingConfig, MappingSystem};
use eum_net::{BatchConfig, ReuseportUdpTransport, SocketClient, TcpServerTransport};
use eum_netmodel::{Internet, InternetConfig};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 0x50C3;

fn world() -> (Internet, CdnPlatform, MappingSystem) {
    let mut net = Internet::generate(InternetConfig::tiny(SEED));
    let sites = deployment_universe(SEED, 16);
    let cdn = CdnPlatform::deploy(
        &mut net,
        &sites,
        &DeployConfig {
            servers_per_cluster: 4,
            cache_objects_per_server: 256,
            cluster_capacity: f64::INFINITY,
        },
    );
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(SEED));
    let map = MappingSystem::build(
        &mut net,
        &cdn,
        &catalog,
        "cdn.example".parse().unwrap(),
        MappingConfig {
            max_ping_targets: 50,
            ..MappingConfig::default()
        },
    );
    (net, cdn, map)
}

/// The answer the mapping computes for `query` as seen from loopback
/// (the kernel peer address every socket query reports).
fn expected_ips(map: &MappingSystem, server: Ipv4Addr, query: &Message) -> Vec<Ipv4Addr> {
    let ctx = QueryContext {
        resolver_ip: Ipv4Addr::LOCALHOST,
        now_ms: 0,
    };
    let resp = map.answer(server, query, &ctx);
    assert_eq!(resp.flags.rcode, Rcode::NoError);
    let mut ips = resp.answer_ips();
    ips.sort_unstable();
    ips
}

#[test]
fn reuseport_batched_shards_answer_correctly() {
    let (net, _cdn, map) = world();
    let low = map.ns_ips()[1];

    // Fixed probe set: ECS queries for several client blocks plus one
    // plain query.
    let mut probes: Vec<(Vec<u8>, u16, Vec<Ipv4Addr>)> = Vec::new();
    for (i, block) in net.blocks.iter().take(6).enumerate() {
        let id = 0x6000 + i as u16;
        let q = Message::query(
            id,
            Question::a("e0.cdn.example".parse().unwrap()),
            Some(OptData::with_ecs(EcsOption::query(block.client_ip(), 24))),
        );
        probes.push((encode_message(&q), id, expected_ips(&map, low, &q)));
    }
    let plain = Message::query(0x7000, Question::a("e1.cdn.example".parse().unwrap()), None);
    probes.push((
        encode_message(&plain),
        0x7000,
        expected_ips(&map, low, &plain),
    ));
    let probes = Arc::new(probes);

    let shards = 2;
    let (transports, addrs) =
        ReuseportUdpTransport::bind_shards(shards, &BatchConfig::default()).expect("bind shards");
    #[cfg(target_os = "linux")]
    assert!(
        addrs.windows(2).all(|w| w[0] == w[1]),
        "SO_REUSEPORT shards must share one address"
    );
    let server =
        AuthServer::spawn_batched(transports, SnapshotHandle::new(map), ServerConfig::new(low));

    // Several client sockets: distinct 4-tuples, so the kernel spreads
    // them over the shard sockets.
    const ROUNDS: usize = 30;
    let mut clients = Vec::new();
    for t in 0..4usize {
        let probes = probes.clone();
        let addrs = addrs.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = SocketClient::connect(addrs, Vec::new()).expect("bind client");
            for round in 0..ROUNDS {
                for (i, (payload, id, expect)) in probes.iter().enumerate() {
                    let shard = (t + round + i) % 2;
                    let bytes = client
                        .exchange(
                            shard,
                            Ipv4Addr::UNSPECIFIED,
                            Ipv4Addr::UNSPECIFIED,
                            payload,
                            Duration::from_secs(5),
                        )
                        .expect("exchange");
                    let resp = decode_message(&bytes).expect("response decodes");
                    assert_eq!(resp.id, *id);
                    assert!(resp.flags.qr);
                    assert!(!resp.flags.tc, "nothing here exceeds the payload limit");
                    assert_eq!(resp.flags.rcode, Rcode::NoError);
                    let mut ips = resp.answer_ips();
                    ips.sort_unstable();
                    assert_eq!(&ips, expect);
                }
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }

    let reports = server.stop_join();
    let total: u64 = reports.iter().map(|r| r.queries).sum();
    assert_eq!(total, (4 * ROUNDS * probes.len()) as u64);
    for r in &reports {
        assert_eq!(r.dropped, 0, "shard {} dropped datagrams", r.shard);
        assert_eq!(r.malformed, 0, "shard {} saw malformed queries", r.shard);
        assert_eq!(r.truncated, 0, "shard {} truncated replies", r.shard);
    }
}

#[test]
fn truncated_reply_completes_over_tcp() {
    let (net, _cdn, map) = world();
    let low = map.ns_ips()[1];
    let client_block = net.blocks[0].client_ip();

    let q = Message::query(
        0x4242,
        Question::a("e0.cdn.example".parse().unwrap()),
        Some(OptData::with_ecs(EcsOption::query(client_block, 24))),
    );
    let payload = encode_message(&q);
    let expect = expected_ips(&map, low, &q);

    // A UDP reply cap far below any real answer forces TC=1 on the
    // datagram path; the TCP listener shares the same snapshot handle, so
    // the stream retry gets the same generation's full answer.
    let cfg = ServerConfig::new(low).with_max_udp_reply(40);
    let snapshots = SnapshotHandle::new(map);
    let (udp_transports, udp_addrs) =
        ReuseportUdpTransport::bind_shards(2, &BatchConfig::default()).expect("bind shards");
    let tcp = TcpServerTransport::bind().expect("bind tcp");
    let tcp_addr = tcp.local_addr().expect("tcp addr");
    let udp_server = AuthServer::spawn_batched(udp_transports, snapshots.clone(), cfg.clone());
    let tcp_server = AuthServer::spawn(vec![tcp], snapshots, cfg);

    let mut client = SocketClient::connect(udp_addrs, vec![tcp_addr]).expect("bind client");

    // UDP leg: truncated, TC set, no usable answer records.
    let udp_bytes = client
        .exchange(
            0,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED,
            &payload,
            Duration::from_secs(5),
        )
        .expect("udp exchange");
    assert!(udp_bytes.len() <= 40, "reply must respect the UDP cap");
    let udp_resp = decode_message(&udp_bytes).expect("truncated reply decodes");
    assert_eq!(udp_resp.id, 0x4242);
    assert!(udp_resp.flags.tc, "over-limit reply must carry TC=1");
    assert!(
        udp_resp.answer_ips().is_empty(),
        "a 40-byte budget cannot carry answer records"
    );

    // TCP leg: the same query completes, un-truncated and uncapped.
    let tcp_bytes = client
        .exchange_stream(
            0,
            Ipv4Addr::UNSPECIFIED,
            Ipv4Addr::UNSPECIFIED,
            &payload,
            Duration::from_secs(5),
        )
        .expect("tcp exchange");
    assert!(tcp_bytes.len() > 40, "stream reply is not size-capped");
    let tcp_resp = decode_message(&tcp_bytes).expect("stream reply decodes");
    assert_eq!(tcp_resp.id, 0x4242);
    assert!(!tcp_resp.flags.tc, "stream replies are never truncated");
    assert_eq!(tcp_resp.flags.rcode, Rcode::NoError);
    let mut ips = tcp_resp.answer_ips();
    ips.sort_unstable();
    assert_eq!(ips, expect, "TCP answer must match the mapping's answer");
    let echo = tcp_resp.ecs().expect("ECS echo survives the stream path");
    assert_eq!(echo.addr, EcsOption::query(client_block, 24).addr);

    let udp_reports = udp_server.stop_join();
    assert_eq!(
        udp_reports.iter().map(|r| r.truncated).sum::<u64>(),
        1,
        "exactly the one UDP exchange was truncated"
    );
    let tcp_reports = tcp_server.stop_join();
    assert_eq!(tcp_reports.iter().map(|r| r.queries).sum::<u64>(), 1);
    assert_eq!(tcp_reports.iter().map(|r| r.truncated).sum::<u64>(), 0);
}

/// The portable single-datagram path (the non-Linux fallback) serves
/// the same answers.
#[test]
fn portable_fallback_round_trips() {
    let (_net, _cdn, map) = world();
    let low = map.ns_ips()[1];
    let plain = Message::query(0x1111, Question::a("e0.cdn.example".parse().unwrap()), None);
    let payload = encode_message(&plain);
    let expect = expected_ips(&map, low, &plain);

    let cfg = BatchConfig {
        force_portable: true,
        ..BatchConfig::default()
    };
    let (transports, addrs) = ReuseportUdpTransport::bind_shards(1, &cfg).expect("bind");
    assert!(transports[0].is_portable());
    let server =
        AuthServer::spawn_batched(transports, SnapshotHandle::new(map), ServerConfig::new(low));
    let mut client = SocketClient::connect(addrs, Vec::new()).expect("client");
    for _ in 0..10 {
        let bytes = client
            .exchange(
                0,
                Ipv4Addr::UNSPECIFIED,
                Ipv4Addr::UNSPECIFIED,
                &payload,
                Duration::from_secs(5),
            )
            .expect("exchange");
        let resp = decode_message(&bytes).expect("decodes");
        let mut ips = resp.answer_ips();
        ips.sort_unstable();
        assert_eq!(ips, expect);
    }
    let reports = server.stop_join();
    assert_eq!(reports.iter().map(|r| r.queries).sum::<u64>(), 10);
}

// ------------------------------------------------ differential: one loop

/// How long the differential clients wait for a reply that will come,
/// and for one that must not (the runt).
const DIFF_WAIT: Duration = Duration::from_secs(5);
const DIFF_SILENCE: Duration = Duration::from_millis(150);

/// The differential query list, in send order.
struct DiffList {
    /// Datagram-leg payloads (32 of them: one full kernel batch), each
    /// with whether the server answers it at all.
    datagrams: Vec<(Vec<u8>, bool)>,
    /// The oversized answer's query again, for the stream leg.
    stream: Vec<u8>,
    /// A UDP reply ceiling one byte under the oversized answer and at or
    /// above every other, so exactly that name truncates.
    udp_cap: u16,
}

/// SplitMix64: the list's order is a pure function of [`SEED`].
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn diff_list(net: &Internet, map: &MappingSystem) -> DiffList {
    let low = map.ns_ips()[1];
    let name = |n: &str| -> eum_dns::DnsName { n.parse().unwrap() };
    let ecs_query = |id: u16, n: &str, ip: Ipv4Addr, prefix: u8| {
        Message::query(
            id,
            Question::a(name(n)),
            Some(OptData::with_ecs(EcsOption::query(ip, prefix))),
        )
    };
    let mut valid: Vec<Message> = Vec::new();
    // Ten ECS blocks twice over (second pass replays from the cache),
    // two more on another name, plain A twice, whoami twice, and a
    // two-question query (decodes, but is not a cacheable shape).
    for pass in 0..2u16 {
        for (i, block) in net.blocks.iter().step_by(3).take(10).enumerate() {
            let id = 0x1000 + pass * 0x100 + i as u16;
            valid.push(ecs_query(id, "e0.cdn.example", block.client_ip(), 24));
        }
        let other = net.blocks[1].client_ip();
        valid.push(ecs_query(0x2000 + pass, "e1.cdn.example", other, 24));
        valid.push(Message::query(
            0x3000 + pass,
            Question::a(name("e2.cdn.example")),
            None,
        ));
        valid.push(Message::query(
            0x4000 + pass,
            Question::a(map.whoami_name()),
            None,
        ));
    }
    let mut two = Message::query(0x5000, Question::a(name("e0.cdn.example")), None);
    two.questions.push(Question::a(name("e1.cdn.example")));
    valid.push(two);

    // The oversized answer: a /32 source makes the ECS echo one address
    // byte longer than any /24 query's. Sent twice so both the computed
    // and the replayed reply go through truncation.
    let big_block = net.blocks[2].client_ip();
    let big = ecs_query(0x6000, "e0.cdn.example", big_block, 32);
    let ctx = QueryContext {
        resolver_ip: Ipv4Addr::LOCALHOST,
        now_ms: 0,
    };
    let reply_len = |q: &Message| encode_message(&map.answer(low, q, &ctx)).len();
    let big_len = reply_len(&big);
    assert!(
        valid.iter().all(|q| reply_len(q) < big_len),
        "the /32 answer must be the strictly largest reply in the list"
    );
    let udp_cap = (big_len - 1) as u16;
    assert!(udp_cap >= 12, "the cap must still carry a truncated header");

    let mut datagrams: Vec<(Vec<u8>, bool)> =
        valid.iter().map(|q| (encode_message(q), true)).collect();
    datagrams.push((encode_message(&big), true));
    datagrams.push((
        encode_message(&ecs_query(0x6001, "e0.cdn.example", big_block, 32)),
        true,
    ));
    // Garbage with an intact header (FORMERR echoing the ID): a bare
    // header claiming a question that is not there, and 40 bytes of 0xFF.
    datagrams.push((
        vec![0x70, 0x01, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0],
        true,
    ));
    let mut junk = vec![0xFF; 40];
    junk[..2].copy_from_slice(&[0x70, 0x02]);
    datagrams.push((junk, true));
    // A runt: no usable header, dropped without a reply.
    datagrams.push((vec![0x70, 0x03, 0x01, 0x00, 0x00], false));

    // Seeded order: whichever of two queries for one block lands first
    // computes, the other replays.
    let mut state = SEED;
    let mut keyed: Vec<(u64, (Vec<u8>, bool))> = datagrams
        .into_iter()
        .map(|d| (splitmix(&mut state), d))
        .collect();
    keyed.sort_by_key(|(k, _)| *k);
    let datagrams: Vec<_> = keyed.into_iter().map(|(_, d)| d).collect();
    assert_eq!(datagrams.len(), 32, "one full batch");

    DiffList {
        datagrams,
        stream: encode_message(&big),
        udp_cap,
    }
}

/// What one variant produced: a reply (or silence) per datagram, the
/// stream-leg reply, and its servers' counters.
#[derive(Default)]
struct DiffOutcome {
    replies: Vec<Option<Vec<u8>>>,
    stream_reply: Vec<u8>,
    /// Cache hits on the datagram leg (read before the stream leg: the
    /// TCP listener is its own shard with its own cold cache, while the
    /// channel shard answers its stream query out of the warm one).
    datagram_cache_hits: u64,
    /// Summed over the variant's shards (UDP + TCP for sockets).
    queries: u64,
    malformed: u64,
    dropped: u64,
    truncated: u64,
}

fn cache_hits(server: &AuthServer) -> u64 {
    server
        .counters()
        .iter()
        .map(|c| c.cache_hits.load(Ordering::SeqCst))
        .sum()
}

fn tally(out: &mut DiffOutcome, reports: &[eum_authd::ShardReport]) {
    for r in reports {
        out.queries += r.queries;
        out.malformed += r.malformed;
        out.dropped += r.dropped;
        out.truncated += r.truncated;
    }
}

/// How long to wait on a datagram, given whether the server answers it.
fn diff_wait(answered: bool) -> Duration {
    if answered {
        DIFF_WAIT
    } else {
        DIFF_SILENCE
    }
}

/// The reply to a datagram the server answers, silence for the runt.
fn expect_reply(got: std::io::Result<Vec<u8>>, answered: bool) -> Option<Vec<u8>> {
    match (got, answered) {
        (Ok(bytes), true) => Some(bytes),
        (Err(_), false) => None,
        (Ok(_), false) => panic!("a runt must not be answered"),
        (Err(e), true) => panic!("no reply: {e}"),
    }
}

/// Sends the list one exchange at a time through any client transport.
fn exchange_in_turn(
    client: &mut dyn ClientTransport,
    low: Ipv4Addr,
    datagrams: &[(Vec<u8>, bool)],
) -> Vec<Option<Vec<u8>>> {
    datagrams
        .iter()
        .map(|(payload, answered)| {
            let wait = diff_wait(*answered);
            let got = client.exchange(0, low, Ipv4Addr::LOCALHOST, payload, wait);
            expect_reply(got, *answered)
        })
        .collect()
}

/// (a) channel transports through `spawn`.
fn diff_over_channel() -> DiffOutcome {
    let (net, _cdn, map) = world();
    let list = diff_list(&net, &map);
    let low = map.ns_ips()[1];
    let (transports, connector) = eum_authd::channel_transports(1);
    let server = AuthServer::spawn(
        transports,
        SnapshotHandle::new(map),
        ServerConfig::new(low).with_max_udp_reply(list.udp_cap),
    );
    let mut client = eum_authd::ChannelClient::new(connector);
    let replies = exchange_in_turn(&mut client, low, &list.datagrams);
    let datagram_cache_hits = cache_hits(&server);
    let stream_reply = client
        .exchange_stream(0, low, Ipv4Addr::LOCALHOST, &list.stream, DIFF_WAIT)
        .expect("channel stream exchange");
    let mut out = DiffOutcome {
        replies,
        stream_reply,
        datagram_cache_hits,
        ..DiffOutcome::default()
    };
    tally(&mut out, &server.stop_join());
    out
}

/// (b) and (c): one `ReuseportUdpTransport` shard through
/// `spawn_batched`, plus the TCP listener for the stream leg. With
/// `batch == 1` the list goes one exchange at a time; otherwise every
/// datagram is queued on the bound socket *before* the shard thread
/// starts, so the first `recv_batch` harvests all of them at once.
fn diff_over_sockets(batch: usize) -> DiffOutcome {
    let (net, _cdn, map) = world();
    let list = diff_list(&net, &map);
    let low = map.ns_ips()[1];
    let cfg = ServerConfig::new(low).with_max_udp_reply(list.udp_cap);
    let snapshots = SnapshotHandle::new(map);
    let registry = eum_telemetry::Registry::new();
    let (mut transports, udp_addrs) = ReuseportUdpTransport::bind_shards(
        1,
        &BatchConfig {
            batch,
            ..BatchConfig::default()
        },
    )
    .expect("bind shard");
    transports[0].attach_metrics(&registry, 0);
    let tcp = TcpServerTransport::bind().expect("bind tcp");
    let tcp_addr = tcp.local_addr().expect("tcp addr");
    let tcp_server = AuthServer::spawn(vec![tcp], snapshots.clone(), cfg.clone());
    let mut client = SocketClient::connect(udp_addrs.clone(), vec![tcp_addr]).expect("client");

    let (udp_server, replies) = if batch == 1 {
        let server = AuthServer::spawn_batched(transports, snapshots, cfg);
        let replies = exchange_in_turn(&mut client, low, &list.datagrams);
        (server, replies)
    } else {
        // One socket per datagram: each gets back exactly its own reply.
        let sockets: Vec<std::net::UdpSocket> = list
            .datagrams
            .iter()
            .map(|(payload, _)| {
                let s = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
                s.connect(udp_addrs[0]).expect("connect");
                s.send(payload).expect("send");
                s
            })
            .collect();
        let server = AuthServer::spawn_batched(transports, snapshots, cfg);
        let mut buf = [0u8; 4096];
        let replies = sockets
            .iter()
            .zip(&list.datagrams)
            .map(|(s, (_, answered))| {
                s.set_read_timeout(Some(diff_wait(*answered)))
                    .expect("timeout");
                expect_reply(s.recv(&mut buf).map(|n| buf[..n].to_vec()), *answered)
            })
            .collect();
        let fill = registry
            .histogram("eum_net_recv_batch_fill", "", &[("shard", "0")])
            .snapshot();
        assert_eq!(
            (fill.count(), fill.sum()),
            (1, list.datagrams.len() as u64),
            "all 32 queued datagrams must arrive as one batch"
        );
        (server, replies)
    };
    let datagram_cache_hits = cache_hits(&udp_server);
    let stream_reply = client
        .exchange_stream(0, low, Ipv4Addr::LOCALHOST, &list.stream, DIFF_WAIT)
        .expect("tcp exchange");
    let mut out = DiffOutcome {
        replies,
        stream_reply,
        datagram_cache_hits,
        ..DiffOutcome::default()
    };
    tally(&mut out, &udp_server.stop_join());
    tally(&mut out, &tcp_server.stop_join());
    out
}

/// `a` and `b` are the same reply: byte-identical, or — when a cache
/// replay aged across a wall-clock second in one variant only — the same
/// length and identical once record TTLs are masked.
fn assert_same_reply(what: &str, i: usize, a: &[u8], b: &[u8]) {
    if a == b {
        return;
    }
    let masked = |bytes: &[u8]| {
        let mut m = decode_message(bytes).expect("differing replies must at least decode");
        for r in m
            .answers
            .iter_mut()
            .chain(m.authorities.iter_mut())
            .chain(m.additionals.iter_mut())
        {
            // An OPT's TTL field is its extended rcode and flags.
            if !matches!(r.rdata, eum_dns::RData::Opt(_)) {
                r.ttl = 0;
            }
        }
        encode_message(&m)
    };
    assert_eq!(a.len(), b.len(), "{what}: reply {i} differs in length");
    assert_eq!(masked(a), masked(b), "{what}: reply {i} differs");
}

/// ROADMAP gate (b): batched ≡ single, channel ≡ socket. One seeded
/// query list through the three ways a shard can be driven must give
/// the same bytes and the same counters.
#[test]
fn channel_single_and_batched_serving_agree() {
    let channel = diff_over_channel();
    let single = diff_over_sockets(1);
    let batched = diff_over_sockets(32);

    // The list does what it says: FORMERRs, one silent drop, truncation
    // on the datagram leg only, cache replays.
    assert_eq!(channel.replies.iter().filter(|r| r.is_none()).count(), 1);
    assert_eq!((channel.malformed, channel.dropped), (3, 1));
    assert_eq!(
        channel.truncated, 2,
        "the /32 answer, computed and replayed"
    );
    assert_eq!(
        channel.queries,
        32 - 1 + 1,
        "every datagram but the runt, plus the stream query"
    );
    assert!(channel.datagram_cache_hits >= 10, "second pass must replay");
    let tc = |bytes: &[u8]| bytes[2] & 0x02 != 0;
    assert_eq!(
        channel.replies.iter().flatten().filter(|r| tc(r)).count(),
        2
    );
    assert!(!tc(&channel.stream_reply), "stream replies never truncate");
    assert!(
        channel.stream_reply.len()
            > channel
                .replies
                .iter()
                .flatten()
                .map(Vec::len)
                .max()
                .unwrap()
    );

    for (what, other) in [
        ("single vs channel", &single),
        ("batched vs channel", &batched),
    ] {
        assert_eq!(other.replies.len(), channel.replies.len());
        for (i, (a, b)) in channel.replies.iter().zip(&other.replies).enumerate() {
            match (a, b) {
                (Some(a), Some(b)) => assert_same_reply(what, i, a, b),
                (None, None) => {}
                _ => panic!("{what}: datagram {i} answered in one variant only"),
            }
        }
        assert_same_reply(what, usize::MAX, &channel.stream_reply, &other.stream_reply);
        assert_eq!(
            (
                other.queries,
                other.malformed,
                other.dropped,
                other.truncated
            ),
            (
                channel.queries,
                channel.malformed,
                channel.dropped,
                channel.truncated
            ),
            "{what}: shard reports differ"
        );
        assert_eq!(
            other.datagram_cache_hits, channel.datagram_cache_hits,
            "{what}: cache hits differ"
        );
    }
}

// ------------------------------------------- generation swap under load

/// One fixed probe and the answers generation 1 / generation 2 compute
/// for it.
struct SwapProbe {
    payload: Vec<u8>,
    id: u16,
    sent_ecs: Option<EcsOption>,
    expect1: Vec<Ipv4Addr>,
    expect2: Vec<Ipv4Addr>,
}

/// Well-formedness plus generation consistency for one response.
fn check_swap_response(probe: &SwapProbe, bytes: &[u8], sent_after_publish: bool) {
    let resp = decode_message(bytes).expect("response must decode");
    assert_eq!(resp.id, probe.id);
    assert!(resp.flags.qr);
    assert_eq!(resp.flags.rcode, Rcode::NoError);
    if let Some(sent) = &probe.sent_ecs {
        let echo = resp.ecs().expect("ECS query must get an ECS echo");
        assert_eq!(echo.addr, sent.addr);
        assert!(
            echo.scope_prefix <= sent.source_prefix,
            "scope /{} wider-than-source /{} violates RFC 7871",
            echo.scope_prefix,
            sent.source_prefix
        );
    }
    let mut ips = resp.answer_ips();
    ips.sort_unstable();
    assert!(!ips.is_empty(), "A answer must carry addresses");
    if sent_after_publish {
        assert_eq!(
            ips, probe.expect2,
            "query sent after publish must be answered by generation 2"
        );
    } else {
        assert!(
            ips == probe.expect1 || ips == probe.expect2,
            "answer {ips:?} matches neither generation ({:?} / {:?})",
            probe.expect1,
            probe.expect2
        );
    }
}

/// Client threads hammer fixed probes over real UDP while the main
/// thread publishes a second map generation (one cluster failed). Every
/// response must match the answer one of the two generations computes —
/// never a mix — and once the publish has completed, every later
/// response must come from the new generation. The batched loop pins one
/// snapshot per batch, so this is the test that would catch a batch
/// served across two generations.
#[test]
fn socket_serving_survives_generation_swap() {
    let (net, _cdn, map1) = world();
    let (_net2, mut cdn2, mut map2) = world();
    let low = map1.ns_ips()[1];

    // Generation 2: the first cluster that actually serves one of our
    // probe blocks goes down, so its units move elsewhere.
    let probe_blocks: Vec<_> = net.blocks.iter().take(24).map(|b| b.client_ip()).collect();
    let victim = probe_blocks
        .iter()
        .find_map(|ip| map1.assigned_cluster_for_block(eum_geo::Prefix::of(*ip, 24)))
        .expect("some probe block maps to a cluster");
    cdn2.set_cluster_alive(victim, false);
    map2.refresh_liveness(&cdn2);

    // Fixed probe set: ECS queries for a handful of client blocks plus
    // one plain (resolver-path) query.
    let mut probes = Vec::new();
    for (i, client) in probe_blocks.iter().take(8).enumerate() {
        let id = 0x4000 + i as u16;
        let ecs = EcsOption::query(*client, 24);
        let q = Message::query(
            id,
            Question::a("e0.cdn.example".parse().unwrap()),
            Some(OptData::with_ecs(ecs)),
        );
        probes.push(SwapProbe {
            payload: encode_message(&q),
            id,
            sent_ecs: Some(ecs),
            expect1: expected_ips(&map1, low, &q),
            expect2: expected_ips(&map2, low, &q),
        });
    }
    let plain = Message::query(0x5000, Question::a("e1.cdn.example".parse().unwrap()), None);
    probes.push(SwapProbe {
        payload: encode_message(&plain),
        id: 0x5000,
        sent_ecs: None,
        expect1: expected_ips(&map1, low, &plain),
        expect2: expected_ips(&map2, low, &plain),
    });
    assert!(
        probes.iter().any(|p| p.expect1 != p.expect2),
        "the killed cluster must change at least one probe's answer"
    );
    let probes = Arc::new(probes);

    let (transports, addrs) =
        ReuseportUdpTransport::bind_shards(2, &BatchConfig::default()).expect("bind shards");
    let snapshots = SnapshotHandle::new(map1);
    let server = AuthServer::spawn_batched(transports, snapshots.clone(), ServerConfig::new(low));

    // Client threads: keep cycling the probes; after `published` flips,
    // run three more full passes that must see only generation 2.
    let published = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..3usize {
        let probes = probes.clone();
        let published = published.clone();
        let addrs = addrs.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = SocketClient::connect(addrs, Vec::new()).expect("bind client");
            let mut rounds_after_publish = 0u32;
            let mut round = 0u32;
            while rounds_after_publish < 3 {
                let after = published.load(Ordering::SeqCst);
                for (i, probe) in probes.iter().enumerate() {
                    let bytes = client
                        .exchange(
                            t + i,
                            Ipv4Addr::UNSPECIFIED,
                            Ipv4Addr::UNSPECIFIED,
                            &probe.payload,
                            Duration::from_secs(5),
                        )
                        .expect("query timed out");
                    check_swap_response(probe, &bytes, after);
                }
                round += 1;
                if after {
                    rounds_after_publish += 1;
                }
            }
            round
        }));
    }

    // Let generation 1 serve some full rounds, then swap mid-run.
    std::thread::sleep(Duration::from_millis(50));
    let generation = snapshots.publish(map2);
    assert_eq!(generation, 2);
    published.store(true, Ordering::SeqCst);

    for c in clients {
        let rounds = c.join().expect("client thread");
        assert!(rounds >= 3, "each client should complete several rounds");
    }
    let reports = server.stop_join();
    let total: u64 = reports.iter().map(|r| r.queries).sum();
    assert!(total > 0, "server answered nothing");
    for r in &reports {
        assert_eq!(r.dropped, 0, "shard {} dropped datagrams", r.shard);
        assert_eq!(r.malformed, 0, "shard {} saw malformed queries", r.shard);
        // The kernel picks the shard per client socket: a shard no
        // client hashed to never derives generation state.
        assert!(
            r.queries == 0 || r.generations_seen >= 1,
            "shard {} served without deriving generation state",
            r.shard
        );
    }
}
