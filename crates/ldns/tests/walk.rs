//! The iterative walk, one reply shape at a time: CNAME restarts and
//! their bound, referrals and their bound, zone-cut reuse and expiry,
//! referral vs NODATA, scope clamping, failure retry and caching. Each
//! test drives one [`Ldns`] over a scripted authority and counts the
//! exchanges it costs.

use eum_authd::ClientTransport;
use eum_dns::name::name;
use eum_dns::{
    decode_message, encode_message, Authority, EcsOption, Message, OptData, QueryContext, RData,
    Rcode, Record, RrType, SoaData, StaticAuthority,
};
use eum_ldns::{EcsPolicy, Ldns, LdnsConfig};
use std::collections::HashMap;
use std::io;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

const RESOLVER: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 53);
const ROOT: Ipv4Addr = Ipv4Addr::new(198, 18, 0, 1);
const SHOP_NS: Ipv4Addr = Ipv4Addr::new(198, 18, 1, 1);
const CDN_TOP: Ipv4Addr = Ipv4Addr::new(198, 18, 2, 1);
const CDN_LOW: Ipv4Addr = Ipv4Addr::new(198, 18, 3, 1);

/// A network whose every server is the closure `answer(server, query)`;
/// counts the exchanges.
struct Net<F> {
    answer: F,
    queries: u32,
}

fn net<F: FnMut(Ipv4Addr, &Message) -> Message + Send>(answer: F) -> Net<F> {
    Net { answer, queries: 0 }
}

impl<F: FnMut(Ipv4Addr, &Message) -> Message + Send> ClientTransport for Net<F> {
    fn exchange(
        &mut self,
        _shard: usize,
        server_ip: Ipv4Addr,
        _resolver_ip: Ipv4Addr,
        payload: &[u8],
        _timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        self.queries += 1;
        let query = decode_message(payload).expect("the resolver sends well-formed queries");
        Ok(encode_message(&(self.answer)(server_ip, &query)))
    }

    fn num_shards(&self) -> usize {
        1
    }
}

/// The paper's topology as static zones: the root delegates
/// `shop.example` and `cdn.example`; `www.shop.example` CNAMEs into the
/// CDN, whose top level delegates `e1.cdn.example` on its own to a
/// low-level server answering A (TTL 20 s). A server that does not exist
/// answers SERVFAIL.
fn paper_net() -> Net<impl FnMut(Ipv4Addr, &Message) -> Message + Send> {
    let mut root = StaticAuthority::new();
    root.delegate(
        name("shop.example"),
        name("ns.shop.example"),
        SHOP_NS,
        86_400,
    );
    root.delegate(
        name("cdn.example"),
        name("top.cdn.example"),
        CDN_TOP,
        86_400,
    );
    let mut shop = StaticAuthority::new();
    shop.add(Record::cname(
        name("www.shop.example"),
        300,
        name("e1.cdn.example"),
    ));
    let mut top = StaticAuthority::new();
    top.delegate(
        name("e1.cdn.example"),
        name("n0.e1.cdn.example"),
        CDN_LOW,
        1800,
    );
    let mut low = StaticAuthority::new();
    for host in [1, 2] {
        low.add(Record::a(
            name("e1.cdn.example"),
            20,
            Ipv4Addr::new(96, 7, 1, host),
        ));
    }
    let servers: HashMap<Ipv4Addr, StaticAuthority> = [
        (ROOT, root),
        (SHOP_NS, shop),
        (CDN_TOP, top),
        (CDN_LOW, low),
    ]
    .into();
    let ctx = QueryContext {
        resolver_ip: RESOLVER,
        now_ms: 0,
    };
    net(move |server, query| match servers.get(&server) {
        Some(auth) => auth.handle(query, &ctx),
        None => Message::response_to(query, Rcode::ServFail),
    })
}

fn resolver(ecs: EcsPolicy, t0: Instant) -> Ldns {
    Ldns::new(LdnsConfig::new(RESOLVER, ecs), t0)
}

fn client(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, last)
}

#[test]
fn cname_chain_walks_root_provider_root_top_low_then_serves_from_cache() {
    let t0 = Instant::now();
    let mut net = paper_net();
    let mut r = resolver(EcsPolicy::Off, t0);
    let www = name("www.shop.example");

    let cold = r.resolve(&mut net, 0, ROOT, &www, client(1), t0);
    assert_eq!(cold.rcode, Rcode::NoError);
    assert_eq!(cold.ips.len(), 2);
    assert!(!cold.from_cache);
    // root (referral) → shop (CNAME) → root (referral) → top (referral)
    // → low (A).
    assert_eq!((cold.upstream_queries, net.queries), (5, 5));
    assert_eq!(cold.ttl_s, 20, "the chain's smallest TTL");

    // Another client, a second later: ECS is off, the entries are global.
    let warm = r.resolve(
        &mut net,
        0,
        ROOT,
        &www,
        Ipv4Addr::new(172, 16, 0, 1),
        t0 + Duration::from_secs(1),
    );
    assert!(warm.from_cache);
    assert_eq!((warm.upstream_queries, net.queries), (0, 5));
    assert_eq!(warm.ips, cold.ips);
    assert_eq!(warm.ttl_s, 19);

    let s = r.stats();
    assert_eq!(
        (
            s.downstream_queries,
            s.downstream_cache_hits,
            s.upstream_queries
        ),
        (2, 1, 5)
    );
}

#[test]
fn scope_zero_answers_are_shared_with_ecs_on() {
    // Static zones echo scope 0, so even an ECS-sending resolver caches
    // them for every client.
    let t0 = Instant::now();
    let mut net = paper_net();
    let mut r = resolver(EcsPolicy::Always, t0);
    let www = name("www.shop.example");
    r.resolve(&mut net, 0, ROOT, &www, client(1), t0);
    let other = r.resolve(&mut net, 0, ROOT, &www, Ipv4Addr::new(172, 16, 0, 1), t0);
    assert!(other.from_cache);
    assert_eq!(net.queries, 5);
}

#[test]
fn an_expired_answer_is_refetched_from_the_cached_zone_cut() {
    let t0 = Instant::now();
    let mut net = paper_net();
    let mut r = resolver(EcsPolicy::Off, t0);
    r.resolve(&mut net, 0, ROOT, &name("www.shop.example"), client(1), t0);

    // 25 s on the 20 s A records are gone; the CNAME (300 s) and the
    // delegation of e1.cdn.example (1800 s) are not: one exchange.
    let later = t0 + Duration::from_secs(25);
    let again = r.resolve(
        &mut net,
        0,
        ROOT,
        &name("www.shop.example"),
        client(1),
        later,
    );
    assert!(!again.from_cache);
    assert_eq!((again.upstream_queries, again.ips.len()), (1, 2));

    // The CDN name asked for directly finds what the chase cached.
    let direct = r.resolve(&mut net, 0, ROOT, &name("e1.cdn.example"), client(1), later);
    assert!(direct.from_cache);
}

#[test]
fn a_zone_cut_serves_every_name_below_it_until_it_expires() {
    let t0 = Instant::now();
    let mut net = paper_net();
    let mut r = resolver(EcsPolicy::Off, t0);
    r.resolve(&mut net, 0, ROOT, &name("www.shop.example"), client(1), t0);

    // A sibling name goes straight to shop.example's server, skipping
    // the root…
    let sibling = r.resolve(&mut net, 0, ROOT, &name("img.shop.example"), client(1), t0);
    assert_eq!(
        (sibling.rcode, sibling.upstream_queries),
        (Rcode::NxDomain, 1)
    );
    // …and so does an uncached CDN name, through the cdn.example cut to
    // the top level (which denies it).
    let uncached = r.resolve(&mut net, 0, ROOT, &name("e9.cdn.example"), client(1), t0);
    assert_eq!(
        (uncached.rcode, uncached.upstream_queries),
        (Rcode::NxDomain, 1)
    );

    // The root's delegations last a day; past it the walk starts over.
    let next_day = t0 + Duration::from_secs(86_400);
    let sibling = r.resolve(
        &mut net,
        0,
        ROOT,
        &name("pix.shop.example"),
        client(1),
        next_day,
    );
    assert_eq!(
        (sibling.rcode, sibling.upstream_queries),
        (Rcode::NxDomain, 2)
    );
}

#[test]
fn negative_answers_and_their_repeat() {
    let t0 = Instant::now();
    let mut net = paper_net();
    let mut r = resolver(EcsPolicy::Off, t0);
    let missing = name("missing.example");
    let first = r.resolve(&mut net, 0, ROOT, &missing, client(1), t0);
    assert_eq!((first.rcode, first.upstream_queries), (Rcode::NxDomain, 1));
    let repeat = r.resolve(&mut net, 0, ROOT, &missing, client(2), t0);
    assert_eq!(repeat.rcode, Rcode::NxDomain);
    assert!(repeat.from_cache);
    assert_eq!(net.queries, 1);
    assert_eq!(r.stats().negative_answers, 2);
}

#[test]
fn a_cname_chase_ends_at_its_bound() {
    // c0 → c1 → c2 → …, one CNAME per reply, without end.
    let mut net = net(|_, query: &Message| {
        let q = &query.questions[0].name;
        let n: u32 = q.labels().next().unwrap()[1..].parse().unwrap();
        let mut resp = Message::response_to(query, Rcode::NoError);
        resp.answers.push(Record::cname(
            q.clone(),
            300,
            name(&format!("c{}.example", n + 1)),
        ));
        resp
    });
    let t0 = Instant::now();
    let mut r = resolver(EcsPolicy::Off, t0);
    let res = r.resolve(&mut net, 0, ROOT, &name("c0.example"), client(1), t0);
    assert_eq!(res.rcode, Rcode::ServFail);
    // The name asked for and eight restarts.
    assert_eq!((res.upstream_queries, net.queries), (9, 9));
    assert_eq!(r.stats().failures, 1);
}

#[test]
fn a_cname_loop_ends_in_servfail() {
    let mut net = net(|_, query: &Message| {
        let q = &query.questions[0].name;
        let target = if *q == name("a.example") {
            "b.example"
        } else {
            "a.example"
        };
        let mut resp = Message::response_to(query, Rcode::NoError);
        resp.answers
            .push(Record::cname(q.clone(), 300, name(target)));
        resp
    });
    let t0 = Instant::now();
    let mut r = resolver(EcsPolicy::Off, t0);
    let res = r.resolve(&mut net, 0, ROOT, &name("a.example"), client(1), t0);
    assert_eq!(res.rcode, Rcode::ServFail);
    // Both aliases were fetched once; the rest of the loop ran in cache.
    assert_eq!(net.queries, 2);
}

#[test]
fn a_cname_chain_inside_one_reply_is_followed_to_its_end() {
    let mut net = net(|_, query: &Message| {
        let q = &query.questions[0].name;
        let mut resp = Message::response_to(query, Rcode::NoError);
        if *q == name("www.shop.example") {
            // Out of order on purpose.
            resp.answers.push(Record::cname(
                name("mid.shop.example"),
                300,
                name("e1.cdn.example"),
            ));
            resp.answers
                .push(Record::cname(q.clone(), 300, name("mid.shop.example")));
        } else {
            resp.answers
                .push(Record::a(q.clone(), 20, Ipv4Addr::new(96, 7, 1, 1)));
        }
        resp
    });
    let t0 = Instant::now();
    let mut r = resolver(EcsPolicy::Off, t0);
    let res = r.resolve(&mut net, 0, ROOT, &name("www.shop.example"), client(1), t0);
    assert_eq!(res.ips, vec![Ipv4Addr::new(96, 7, 1, 1)]);
    assert_eq!(net.queries, 2, "the alias, then its final target");
}

#[test]
fn a_referral_chain_ends_at_its_bound() {
    // Every server refers the name one more zone cut down… to itself.
    let mut net = net(|_, query: &Message| {
        let q = &query.questions[0].name;
        let mut resp = Message::response_to(query, Rcode::NoError);
        resp.authorities
            .push(Record::ns(q.clone(), 60, name("ns.example")));
        resp.additionals
            .push(Record::a(name("ns.example"), 60, ROOT));
        resp
    });
    let t0 = Instant::now();
    let mut r = resolver(EcsPolicy::Off, t0);
    let res = r.resolve(&mut net, 0, ROOT, &name("deep.example"), client(1), t0);
    assert_eq!(res.rcode, Rcode::ServFail);
    assert_eq!((res.upstream_queries, net.queries), (8, 8));
}

#[test]
fn a_referral_must_cover_the_name_and_carry_glue() {
    for (zone, glue) in [("other.example", true), ("shop.example", false)] {
        let mut net = net(move |_, query: &Message| {
            let mut resp = Message::response_to(query, Rcode::NoError);
            resp.authorities
                .push(Record::ns(name(zone), 60, name("ns.example")));
            if glue {
                resp.additionals
                    .push(Record::a(name("ns.example"), 60, SHOP_NS));
            }
            resp
        });
        let t0 = Instant::now();
        let mut r = resolver(EcsPolicy::Off, t0);
        let res = r.resolve(&mut net, 0, ROOT, &name("www.shop.example"), client(1), t0);
        assert_eq!(res.rcode, Rcode::ServFail, "{zone}, glue {glue}");
        assert_eq!(net.queries, 1, "{zone}, glue {glue}");
    }
}

#[test]
fn an_empty_noerror_is_nodata_unless_an_ns_record_makes_it_a_referral() {
    // RFC 2308 §2.2: the root refers; shop.example's own server answers
    // NOERROR with only an SOA — the name exists, the type does not.
    let mut net = net(|server, query: &Message| {
        let mut resp = Message::response_to(query, Rcode::NoError);
        if server == ROOT {
            resp.authorities.push(Record::ns(
                name("shop.example"),
                3600,
                name("ns.shop.example"),
            ));
            resp.additionals
                .push(Record::a(name("ns.shop.example"), 3600, SHOP_NS));
        } else {
            resp.authorities.push(Record {
                name: name("shop.example"),
                ttl: 600,
                rdata: RData::Soa(SoaData {
                    mname: name("ns.shop.example"),
                    rname: name("admin.shop.example"),
                    serial: 1,
                    refresh: 3600,
                    retry: 600,
                    expire: 86_400,
                    minimum: 120,
                }),
            });
        }
        resp
    });
    let t0 = Instant::now();
    let mut r = resolver(EcsPolicy::Off, t0);
    let www = name("www.shop.example");
    let res = r.resolve(&mut net, 0, ROOT, &www, client(1), t0);
    assert_eq!(res.rcode, Rcode::NoError);
    assert!(res.ips.is_empty());
    assert_eq!(
        (res.upstream_queries, res.ttl_s),
        (2, 120),
        "followed, then SOA minimum"
    );
    let repeat = r.resolve(&mut net, 0, ROOT, &www, client(1), t0);
    assert!(repeat.from_cache && repeat.ips.is_empty());
    assert_eq!(net.queries, 2);
}

/// Answers per /24 (the third octet shows in the address) and announces
/// `scope` whatever the source was.
fn scoped_net(scope: u8) -> Net<impl FnMut(Ipv4Addr, &Message) -> Message + Send> {
    net(move |_, query: &Message| {
        let mut resp = Message::response_to(query, Rcode::NoError);
        let ecs: EcsOption = *query.ecs().expect("the resolver sends ECS");
        resp.answers.push(Record::a(
            query.questions[0].name.clone(),
            60,
            Ipv4Addr::new(96, 0, ecs.addr.octets()[2], 1),
        ));
        resp.set_opt(OptData::with_ecs(EcsOption::response(&ecs, scope)));
        resp
    })
}

#[test]
fn scoped_answers_are_cached_per_block() {
    let t0 = Instant::now();
    let mut net = scoped_net(24);
    let mut r = resolver(EcsPolicy::Always, t0);
    let d = name("d.example");
    let a = r.resolve(&mut net, 0, ROOT, &d, Ipv4Addr::new(10, 0, 1, 5), t0);
    let b = r.resolve(&mut net, 0, ROOT, &d, Ipv4Addr::new(10, 0, 2, 5), t0);
    assert_ne!(a.ips, b.ips, "different blocks, different answers");
    let c = r.resolve(&mut net, 0, ROOT, &d, Ipv4Addr::new(10, 0, 1, 200), t0);
    assert!(c.from_cache);
    assert_eq!(c.ips, a.ips);
    assert_eq!(net.queries, 2);
    // The §5.2 fan-out: one entry per block under one name.
    assert_eq!(r.cache().entries_for(&d, RrType::A), 2);
    assert_eq!(r.cache().entries_for(&d, RrType::Ns), 0);
}

#[test]
fn a_scope_longer_than_the_source_is_clamped_to_the_source() {
    // The resolver asked about a /24; an answer claiming /28 still covers
    // the whole /24 it was asked about.
    let t0 = Instant::now();
    let mut net = scoped_net(28);
    let mut r = resolver(EcsPolicy::Always, t0);
    let d = name("d.example");
    r.resolve(&mut net, 0, ROOT, &d, Ipv4Addr::new(10, 0, 1, 5), t0);
    let far_end = r.resolve(&mut net, 0, ROOT, &d, Ipv4Addr::new(10, 0, 1, 250), t0);
    assert!(far_end.from_cache);
    assert_eq!(net.queries, 1);
    assert_eq!(r.cache().stats().hits_by_scope[24], 1);
}

#[test]
fn servfail_is_retried_then_cached_briefly() {
    let t0 = Instant::now();
    let mut net = net(|_, query: &Message| Message::response_to(query, Rcode::ServFail));
    let mut r = resolver(EcsPolicy::Off, t0);
    let x = name("x.example");
    let res = r.resolve(&mut net, 0, ROOT, &x, client(1), t0);
    assert_eq!(res.rcode, Rcode::ServFail);
    assert_eq!((res.upstream_queries, net.queries), (3, 3));
    assert_eq!((r.stats().failures, r.stats().upstream_servfails), (1, 3));

    // RFC 2308 §7.1: the failure is held for 30 s, not hammered.
    let held = r.resolve(
        &mut net,
        0,
        ROOT,
        &x,
        client(1),
        t0 + Duration::from_secs(29),
    );
    assert_eq!(held.rcode, Rcode::ServFail);
    assert!(held.from_cache);
    assert_eq!(net.queries, 3);
    r.resolve(
        &mut net,
        0,
        ROOT,
        &x,
        client(1),
        t0 + Duration::from_secs(30),
    );
    assert_eq!(net.queries, 6);
}
