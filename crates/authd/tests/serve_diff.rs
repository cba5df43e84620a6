//! Differential safety net for the authoritative miss path: what
//! [`ShardState::serve`] puts on the wire, pinned three ways.
//!
//! 1. **Against the recorded parent.** `PINNED` holds, per named query
//!    shape, the reply bytes the commit before the in-place miss path
//!    produced (captured by running this file there with
//!    `SERVE_DIFF_PRINT=1`), and `STREAM_DIGEST` an FNV-1a digest over
//!    the replies to a 600-query seeded stream. Byte-identical is the
//!    expectation; `DECODE_EQUAL_ONLY` lists the shapes that are allowed
//!    to differ in bytes (never in meaning), with the cause.
//! 2. **Miss ≡ hit.** Every shape is served twice; the second reply (a
//!    cache replay when the shape is cacheable) must equal the first but
//!    for the transaction ID.
//! 3. **Wire ≡ `Message`.** Every untruncated reply decodes to exactly
//!    the [`Message`] `MappingSystem::answer` builds for the same query.

use eum_authd::{CacheConfig, QueryStages, ReplyCap, ServeOutcome, ShardState, SnapshotHandle};
use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{
    decode_message, encode_message, DnsName, Message, QueryContext, Question, Rcode, RrType,
};
use eum_mapping::{MappingConfig, MappingSystem};
use eum_netmodel::{Internet, InternetConfig};
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::net::Ipv4Addr;

const SEED: u64 = 0x5E2D1FF;

/// An address no generated block or resolver owns.
const STRANGER: Ipv4Addr = Ipv4Addr::new(240, 9, 8, 7);

struct World {
    net: Internet,
    cdn: CdnPlatform,
    map: MappingSystem,
}

fn world() -> World {
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
    World { net, cdn, map }
}

fn name(s: &str) -> DnsName {
    s.parse().unwrap()
}

fn query(id: u16, qname: &str, ecs: Option<(Ipv4Addr, u8)>) -> Message {
    Message::query(
        id,
        Question::a(name(qname)),
        ecs.map(|(c, len)| OptData::with_ecs(EcsOption::query(c, len))),
    )
}

/// Which authoritative address a case's query arrives on.
#[derive(Clone, Copy)]
enum Server {
    Top,
    Low,
    /// An IP that is not one of the map's name servers.
    Foreign,
}

struct Case {
    label: &'static str,
    server: Server,
    query: Message,
    cap: ReplyCap,
    /// Whether the second serve is expected to replay from the cache.
    cacheable: bool,
}

fn case(label: &'static str, server: Server, query: Message, cacheable: bool) -> Case {
    Case {
        label,
        server,
        query,
        cap: ReplyCap::udp(),
        cacheable,
    }
}

/// The named shapes, in serve order. IDs are distinct so a reply can
/// never pass by echoing a neighbour's.
fn cases(w: &World) -> Vec<Case> {
    let client = w.net.blocks[3].client_ip();
    let e0 = "e0.cdn.example";
    let mut out = vec![
        case(
            "low_ecs24",
            Server::Low,
            query(0x1001, e0, Some((client, 24))),
            true,
        ),
        case("low_plain", Server::Low, query(0x1002, e0, None), true),
        case(
            "top_ecs24",
            Server::Top,
            query(0x1003, e0, Some((client, 24))),
            true,
        ),
        case(
            "top_plain",
            Server::Top,
            query(0x1004, "e6.cdn.example", None),
            true,
        ),
        case(
            "low_ecs32",
            Server::Low,
            query(0x1005, "e1.cdn.example", Some((client, 32))),
            true,
        ),
        // A source shorter than /24 names no client block: NS fallback,
        // scope 0, uncached.
        case(
            "low_ecs16",
            Server::Low,
            query(0x1006, "e2.cdn.example", Some((client, 16))),
            false,
        ),
        // A block the map has no unit for: NS fallback, scope 0, uncached.
        case(
            "low_ecs_unknown_block",
            Server::Low,
            query(0x1007, e0, Some((STRANGER, 24))),
            false,
        ),
        case(
            "whoami_plain",
            Server::Low,
            query(0x1008, "whoami.cdn.example", None),
            false,
        ),
        case(
            "whoami_ecs",
            Server::Low,
            query(0x1009, "whoami.cdn.example", Some((client, 24))),
            false,
        ),
        case(
            "out_of_zone",
            Server::Low,
            query(0x100A, "www.example.org", None),
            false,
        ),
        case(
            "nxdomain_plain",
            Server::Low,
            query(0x100B, "nope.cdn.example", None),
            false,
        ),
        case(
            "nxdomain_ecs",
            Server::Low,
            query(0x100C, "nope.cdn.example", Some((client, 24))),
            false,
        ),
        case(
            "foreign_server",
            Server::Foreign,
            query(0x100D, e0, None),
            false,
        ),
    ];
    // RD clear (resolvers normally set it; the template stores it clear).
    let mut no_rd = query(0x100E, "e3.cdn.example", Some((client, 24)));
    no_rd.flags.rd = false;
    out.push(case("low_ecs24_no_rd", Server::Low, no_rd, true));
    // EDNS without a client subnet: no OPT comes back.
    let mut bare_opt = query(0x100F, "e4.cdn.example", None);
    bare_opt.set_opt(OptData {
        udp_payload_size: 1232,
        ..OptData::default()
    });
    out.push(case("low_edns_no_ecs", Server::Low, bare_opt, true));
    // A delegation (NS + glue + OPT) against a 64-byte transport ceiling:
    // whole records are dropped and TC is set.
    out.push(Case {
        label: "top_ecs24_truncated",
        server: Server::Top,
        query: query(0x1010, "e5.cdn.example", Some((client, 24))),
        cap: ReplyCap::Datagram { transport_max: 64 },
        cacheable: true,
    });
    // Question-count corner cases: never cached.
    let mut none = query(0x1011, e0, None);
    none.questions.clear();
    out.push(case("no_question", Server::Low, none, false));
    let mut two = query(0x1012, e0, Some((client, 24)));
    two.questions.push(Question {
        name: name("e1.cdn.example"),
        rtype: RrType::A,
    });
    out.push(case("two_questions", Server::Low, two, false));
    out
}

/// Shapes whose bytes may differ from the parent's while decoding equal.
const DECODE_EQUAL_ONLY: &[(&str, &str)] = &[(
    "two_questions",
    "the in-place renderer echoes extra questions uncompressed; the Message \
     encoder compressed the second name against the first",
)];

/// `(label, hex of the first reply)` as the parent commit served it.
#[rustfmt::skip]
const PINNED: &[(&str, &str)] = &[
    ("dead_low_ecs24", "2001850200010000000000000265300363646e076578616d706c650000010001"),
    ("dead_low_plain", "2002850200010000000000000265300363646e076578616d706c650000010001"),
    ("dead_top_plain", "2003850200010000000000000265300363646e076578616d706c650000010001"),
    ("low_ecs24", "1001850000010002000000010265300363646e076578616d706c650000010001c00c00010001000038400004c000320dc00c00010001000038400004c000320c000029100000000000000b00080007000118180b0003"),
    ("low_plain", "1002850000010002000000000265300363646e076578616d706c650000010001c00c00010001000038400004c000380cc00c00010001000038400004c000380b"),
    ("top_ecs24", "1003810000010000000100020265300363646e076578616d706c650000010001c00c00020001000054600005026e38c00cc02c00010001000054600004c0003802000029100000000000000b00080007000118000b0003"),
    ("top_plain", "1004810000010000000100010265360363646e076578616d706c650000010001c00c00020001000054600005026e38c00cc02c00010001000054600004c0003802"),
    ("low_ecs32", "1005850000010002000000010265310363646e076578616d706c650000010001c00c00010001000038400004c000320dc00c00010001000038400004c000320c000029100000000000000c00080008000120180b000301"),
    ("low_ecs16", "1006850000010002000000010265320363646e076578616d706c650000010001c00c00010001000038400004c000380dc00c00010001000038400004c000380a000029100000000000000a00080006000110000b00"),
    ("low_ecs_unknown_block", "1007850000010002000000010265300363646e076578616d706c650000010001c00c00010001000038400004c000380cc00c00010001000038400004c000380b000029100000000000000b0008000700011800f00908"),
    ("whoami_plain", "1008850000010002000000000677686f616d690363646e076578616d706c650000010001c00c00010001000000000004c0000035c00c00100001000000000014137265736f6c7665723d3139322e302e302e3533"),
    ("whoami_ecs", "1009850000010002000000000677686f616d690363646e076578616d706c650000010001c00c00010001000000000004c0000035c00c00100001000000000014137265736f6c7665723d3139322e302e302e3533"),
    ("out_of_zone", "100a8505000100000000000003777777076578616d706c65036f72670000010001"),
    ("nxdomain_plain", "100b85030001000000000000046e6f70650363646e076578616d706c650000010001"),
    ("nxdomain_ecs", "100c85030001000000000001046e6f70650363646e076578616d706c650000010001000029100000000000000b00080007000118000b0003"),
    ("foreign_server", "100d850500010000000000000265300363646e076578616d706c650000010001"),
    ("low_ecs24_no_rd", "100e840000010002000000010265330363646e076578616d706c650000010001c00c0001000100001c200004c000320bc00c0001000100001c200004c000320c000029100000000000000b00080007000118180b0003"),
    ("low_edns_no_ecs", "100f850000010002000000000265340363646e076578616d706c650000010001c00c00010001000070800004c000380ac00c00010001000070800004c000380d"),
    ("top_ecs24_truncated", "1010830000010000000000010265350363646e076578616d706c650000010001000029100000000000000b00080007000118000b0003"),
    ("no_question", "101185010000000000000000"),
    ("two_questions", "1012850000020002000000010265300363646e076578616d706c650000010001026531c00f00010001c00c00010001000038400004c000320dc00c00010001000038400004c000320c000029100000000000000b00080007000118180b0003"),
];

/// FNV-1a over every reply of [`seeded_stream`] at the parent commit.
const STREAM_DIGEST: u64 = 0xfde9_4dd1_d68f_2114;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn printing() -> bool {
    std::env::var_os("SERVE_DIFF_PRINT").is_some()
}

struct Harness {
    state: ShardState,
    snap: std::sync::Arc<eum_authd::Snapshot>,
    top: Ipv4Addr,
    low: Ipv4Addr,
    resolver: Ipv4Addr,
}

impl Harness {
    fn new(map: MappingSystem, resolver: Ipv4Addr) -> Harness {
        let top = map.top_level_ip();
        let low = map.ns_ips()[1];
        let snap = SnapshotHandle::new(map).current();
        let mut state = ShardState::new(Some(CacheConfig::default()));
        state.observe(&snap);
        Harness {
            state,
            snap,
            top,
            low,
            resolver,
        }
    }

    fn ip(&self, server: Server) -> Ipv4Addr {
        match server {
            Server::Top => self.top,
            Server::Low => self.low,
            Server::Foreign => Ipv4Addr::new(198, 51, 100, 77),
        }
    }

    /// Serves `query` once; returns the reply and whether it was a replay.
    fn serve(&mut self, server: Server, query: &Message, cap: ReplyCap) -> (Vec<u8>, bool, bool) {
        let mut stages = QueryStages::new(false);
        let out = self.state.serve(
            &self.snap.map,
            self.ip(server),
            self.resolver,
            &encode_message(query),
            cap,
            &mut stages,
        );
        match out {
            ServeOutcome::Replied {
                cache_hit,
                truncated,
            } => (self.state.reply().to_vec(), cache_hit, truncated),
            other => panic!("serve did not reply: {other:?}"),
        }
    }

    /// Serves `query` as a miss and again under another ID; checks the
    /// two replies agree but for the ID, that caching happened exactly
    /// when expected, and that the untruncated reply is the wire form of
    /// `MappingSystem::answer`. Returns the first reply.
    fn serve_twice(&mut self, c: &Case) -> Vec<u8> {
        let (first, hit1, trunc1) = self.serve(c.server, &c.query, c.cap);
        let mut again = c.query.clone();
        again.id ^= 0x5A5A;
        let (mut second, hit2, trunc2) = self.serve(c.server, &again, c.cap);
        assert!(!hit1, "{}: first serve must compute", c.label);
        assert_eq!(hit2, c.cacheable, "{}: second-serve cache use", c.label);
        assert_eq!(trunc1, trunc2, "{}: truncation", c.label);
        assert_eq!(
            &second[..2],
            &again.id.to_be_bytes(),
            "{}: echoed id",
            c.label
        );
        second[..2].copy_from_slice(&c.query.id.to_be_bytes());
        assert_eq!(
            hex(&first),
            hex(&second),
            "{}: second serve differs from the first beyond the id",
            c.label
        );
        let decoded = decode_message(&first).expect("reply decodes");
        if trunc1 {
            assert!(decoded.flags.tc, "{}: TC set on truncation", c.label);
        } else {
            let ctx = QueryContext {
                resolver_ip: self.resolver,
                now_ms: 0,
            };
            let fresh = self.snap.map.answer(self.ip(c.server), &c.query, &ctx);
            assert_eq!(decoded, fresh, "{}: wire reply vs answer()", c.label);
        }
        first
    }
}

/// Checks `got` against the parent's recorded bytes for `label` (or
/// prints the line to paste into [`PINNED`]).
fn check_pinned(label: &str, got: &[u8]) {
    if printing() {
        println!("    (\"{label}\", \"{}\"),", hex(got));
        return;
    }
    let want = PINNED
        .iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("{label}: no parent bytes recorded"))
        .1;
    if DECODE_EQUAL_ONLY.iter().any(|(l, _)| *l == label) {
        let want: Vec<u8> = (0..want.len() / 2)
            .map(|i| u8::from_str_radix(&want[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            decode_message(got).expect("reply decodes"),
            decode_message(&want).expect("recorded reply decodes"),
            "{label}: reply no longer decodes equal to the parent's"
        );
    } else {
        assert_eq!(
            hex(got),
            want,
            "{label}: reply bytes moved from the parent's"
        );
    }
}

#[test]
fn named_shapes_match_the_parent_and_replay_identically() {
    let w = world();
    let resolver = w.net.resolvers[0].ip;
    let cases = cases(&w);
    let mut h = Harness::new(w.map, resolver);
    for c in &cases {
        let reply = h.serve_twice(c);
        check_pinned(c.label, &reply);
    }
    // Spot checks that the labels mean what they say.
    let rcode = |h: &mut Harness, label: &str| {
        let c = cases.iter().find(|c| c.label == label).unwrap();
        decode_message(&h.serve(c.server, &c.query, c.cap).0)
            .unwrap()
            .flags
            .rcode
    };
    assert_eq!(rcode(&mut h, "out_of_zone"), Rcode::Refused);
    assert_eq!(rcode(&mut h, "foreign_server"), Rcode::Refused);
    assert_eq!(rcode(&mut h, "nxdomain_ecs"), Rcode::NxDomain);
    assert_eq!(rcode(&mut h, "no_question"), Rcode::FormErr);
    assert_eq!(rcode(&mut h, "low_ecs24"), Rcode::NoError);
}

#[test]
fn dead_platform_servfails_identically() {
    let mut w = world();
    let ids: Vec<_> = w.cdn.clusters.iter().map(|c| c.id).collect();
    for id in ids {
        w.cdn.set_cluster_alive(id, false);
    }
    w.map.refresh_liveness(&w.cdn);
    let client = w.net.blocks[3].client_ip();
    let resolver = w.net.resolvers[0].ip;
    let mut h = Harness::new(w.map, resolver);
    let e0 = "e0.cdn.example";
    for c in [
        case(
            "dead_low_ecs24",
            Server::Low,
            query(0x2001, e0, Some((client, 24))),
            false,
        ),
        case(
            "dead_low_plain",
            Server::Low,
            query(0x2002, e0, None),
            false,
        ),
        case(
            "dead_top_plain",
            Server::Top,
            query(0x2003, e0, None),
            false,
        ),
    ] {
        let reply = h.serve_twice(&c);
        assert_eq!(
            decode_message(&reply).unwrap().flags.rcode,
            Rcode::ServFail,
            "{}",
            c.label
        );
        check_pinned(c.label, &reply);
    }
}

/// 600 seeded queries mixing every axis the named shapes cover, against
/// one shard whose cache fills as the stream runs (so later queries
/// replay earlier ones' entries).
#[test]
fn seeded_stream_matches_the_parent_digest() {
    let w = world();
    let resolvers: Vec<Ipv4Addr> = w.net.resolvers.iter().take(3).map(|r| r.ip).collect();
    let clients: Vec<Ipv4Addr> = w
        .net
        .blocks
        .iter()
        .step_by(7)
        .take(12)
        .map(|b| b.host_ip(9))
        .chain([STRANGER])
        .collect();
    let names = [
        "e0.cdn.example",
        "e1.cdn.example",
        "e7.cdn.example",
        "whoami.cdn.example",
        "nope.cdn.example",
        "www.example.org",
    ];
    let mut h = Harness::new(w.map, resolvers[0]);
    let mut rng = ChaCha12Rng::seed_from_u64(SEED);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut replays = 0usize;
    for i in 0..600u16 {
        let qname = names[rng.random_range(0..names.len())];
        let ecs = rng.random_bool(0.6).then(|| {
            let c = clients[rng.random_range(0..clients.len())];
            (c, [16u8, 24, 32][rng.random_range(0..3usize)])
        });
        let server = if rng.random_bool(0.25) {
            Server::Top
        } else {
            Server::Low
        };
        h.resolver = resolvers[rng.random_range(0..resolvers.len())];
        let mut q = query(0x4000 + i, qname, ecs);
        q.flags.rd = rng.random_bool(0.8);
        let (reply, hit, truncated) = h.serve(server, &q, ReplyCap::udp());
        assert!(!truncated);
        replays += usize::from(hit);
        let ctx = QueryContext {
            resolver_ip: h.resolver,
            now_ms: 0,
        };
        let fresh = h.snap.map.answer(h.ip(server), &q, &ctx);
        assert_eq!(
            decode_message(&reply).expect("reply decodes"),
            fresh,
            "query {i} ({qname}, ecs {ecs:?}, hit {hit})"
        );
        fnv1a(&mut digest, &reply);
    }
    assert!(replays > 100, "stream exercised only {replays} replays");
    if printing() {
        println!("const STREAM_DIGEST: u64 = {digest:#018x};");
    } else {
        assert_eq!(
            digest, STREAM_DIGEST,
            "stream replies moved from the parent's"
        );
    }
}
