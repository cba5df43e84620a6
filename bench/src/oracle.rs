//! Answer verification. Every reply gets the cheap wire checks; one in
//! [`FULL_CHECK_EVERY`] is fully decoded and compared with what
//! `MappingSystem::answer` says for the generation in force — the same
//! pure function the serving path computes, reached without the cache,
//! the codec fast paths or the transport in between.

use eum_dns::{decode_message, Message, QueryContext, Rcode};
use eum_mapping::MappingSystem;
use std::net::Ipv4Addr;

/// One reply in this many is decoded and compared with the oracle.
pub const FULL_CHECK_EVERY: u64 = 16;

/// The parts of a response the oracle compares: the decision (which
/// servers, what scope), not TTL counters or section order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub rcode: Rcode,
    pub ips: Vec<Ipv4Addr>,
    /// Echoed ECS: (address, source prefix, scope prefix).
    pub ecs: Option<(Ipv4Addr, u8, u8)>,
}

impl Answer {
    pub fn of(msg: &Message) -> Answer {
        Answer {
            rcode: msg.flags.rcode,
            ips: msg.answer_ips(),
            ecs: msg.ecs().map(|e| (e.addr, e.source_prefix, e.scope_prefix)),
        }
    }
}

/// What `map` answers to `query` arriving at `server_ip` from
/// `resolver_ip`.
pub fn expected(
    map: &MappingSystem,
    server_ip: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    query: &Message,
) -> Answer {
    let ctx = QueryContext {
        resolver_ip,
        now_ms: 0,
    };
    Answer::of(&map.answer(server_ip, query, &ctx))
}

/// Length of the question section of a single-question message (name +
/// type + class), or `None` when the name does not end inside `msg`.
fn question_len(msg: &[u8]) -> Option<usize> {
    let mut i = 12;
    loop {
        let l = *msg.get(i)? as usize;
        if l == 0 {
            return Some(i + 1 + 4 - 12).filter(|n| 12 + n <= msg.len());
        }
        if l & 0xC0 != 0 {
            return None; // queries we generate never compress
        }
        i += 1 + l;
    }
}

/// The checks cheap enough for every reply: long enough, our id, QR set,
/// NOERROR, not truncated, exactly one question and it echoes ours.
#[inline]
pub fn wire_ok(query: &[u8], reply: &[u8]) -> bool {
    if reply.len() < 12 || query.len() < 12 {
        return false;
    }
    let header_ok = reply[..2] == query[..2]
        && reply[2] & 0x80 != 0
        && reply[2] & 0x02 == 0
        && reply[3] & 0x0F == 0
        && reply[4..6] == [0, 1];
    if !header_ok {
        return false;
    }
    match question_len(query) {
        Some(n) => reply.len() >= 12 + n && reply[12..12 + n] == query[12..12 + n],
        None => false,
    }
}

/// Cheap ECS-echo check for a low-level answer to a /24 ECS query: the
/// reply ends in an OPT record whose only option is ECS, so its last
/// seven bytes are FAMILY(2) SOURCE(1) SCOPE(1) ADDRESS(3) — RFC 7871
/// §7.1.3 obliges the server to echo family, source length and address.
#[inline]
pub fn ecs_echo_ok(reply: &[u8], block: [u8; 3]) -> bool {
    let n = reply.len();
    n >= 7 && reply[n - 3..] == block && reply[n - 5] == 24 && reply[n - 7..n - 5] == [0, 1]
}

/// Full decode of `reply` compared with `want`. A reply that does not
/// decode, or decides anything differently, is a wrong answer.
pub fn full_ok(reply: &[u8], want: &Answer) -> bool {
    decode_message(reply).is_ok_and(|m| Answer::of(&m) == *want)
}

/// Decodes `query` and asks `map` what the right answer is. `None` when
/// the query bytes do not decode (a generator bug, never expected).
pub fn expected_for_bytes(
    map: &MappingSystem,
    server_ip: Ipv4Addr,
    resolver_ip: Ipv4Addr,
    query: &[u8],
) -> Option<Answer> {
    decode_message(query)
        .ok()
        .map(|q| expected(map, server_ip, resolver_ip, &q))
}
