//! Boundary spans, recorded from outside the crates.
//!
//! The wrappers in [`crate::wrap`] and the generators stamp the moments a
//! sampled request crosses a layer boundary — one process, one clock
//! ([`crate::stats::now_ns`]), request identity = DNS message id — into
//! preallocated per-thread buffers. After the run [`assemble`] joins the
//! client-side and server-side stamps of each request into a span tree
//! `{name, start_ns, end_ns, parent, request}`, [`self_times`] subtracts
//! from every span what its children cover, and [`write_jsonl`] dumps the
//! tree. Nothing here runs while a request is being timed.

use std::collections::HashMap;
use std::io::{self, Write};

/// One node of the assembled tree. `parent` indexes the same vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation this span belongs to (the generator's sequence
    /// number; the DNS id is its low 16 bits).
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What the client side knows about one sampled exchange.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStamp {
    pub request: u32,
    /// DNS message id on the wire.
    pub id: u16,
    /// When the operation was due (open loop) or started (closed loop).
    pub due_ns: u64,
    /// Around the send call; equal when the client cannot see inside its
    /// exchange (`ClientTransport::exchange`).
    pub send_start_ns: u64,
    pub send_end_ns: u64,
    /// When the receive call returned with the reply.
    pub recv_ns: u64,
    /// When the reply had been checked.
    pub done_ns: u64,
}

/// What the server-side transport wrapper knows about one datagram.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStamp {
    pub id: u16,
    /// `recv_batch`/`recv` returned.
    pub recv_ns: u64,
    /// The shard loop asked for this datagram (`datagram(i)`); equals
    /// `recv_ns` on single-datagram transports.
    pub serve_start_ns: u64,
    /// The shard loop handed back the reply (`stage_reply(i)`/`send`).
    pub serve_end_ns: u64,
    /// Around `flush` (or the single `send`).
    pub flush_start_ns: u64,
    pub flush_end_ns: u64,
}

/// A bounded stamp buffer: allocated once, never grown while measuring.
pub struct StampBuf<T> {
    items: Vec<T>,
    dropped: u64,
}

impl<T> StampBuf<T> {
    pub fn with_capacity(capacity: usize) -> StampBuf<T> {
        StampBuf {
            items: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.items.capacity() {
            self.items.push(item);
        } else {
            self.dropped += 1;
        }
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn into_vec(self) -> Vec<T> {
        self.items
    }
}

/// Names of the spans [`assemble`] emits under each operation root.
pub mod names {
    pub const PACE: &str = "gen.pace";
    pub const SEND: &str = "gen.send";
    pub const RECV_WAIT: &str = "net.recv_wait";
    pub const BATCH_WAIT: &str = "net.batch_wait";
    pub const SERVE: &str = "authd.serve_insitu";
    pub const REPLY_WAIT: &str = "net.reply_wait";
    pub const FLUSH: &str = "net.flush";
    pub const VERIFY: &str = "gen.verify";
}

fn push_span(
    out: &mut Vec<Span>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    request: u32,
) -> Option<usize> {
    if end_ns <= start_ns {
        return None;
    }
    out.push(Span {
        name,
        start_ns,
        end_ns,
        parent: Some(parent),
        request,
    });
    Some(out.len() - 1)
}

/// Appends one subtree per client stamp to `out`: a root named `root`
/// spanning due → done (parented at `parent_of(stamp)` when given), and
/// under it the segments the two sides' stamps delimit. The server stamp
/// of an exchange is the one with the same DNS id received while the
/// exchange was in flight; an exchange without one keeps a bare root —
/// its whole duration stays unexplained. Returns how many joined.
pub fn assemble(
    root: &'static str,
    clients: &[ClientStamp],
    servers: &[ServerStamp],
    parent_of: impl Fn(&ClientStamp) -> Option<usize>,
    out: &mut Vec<Span>,
) -> usize {
    let mut by_id: HashMap<u16, Vec<&ServerStamp>> = HashMap::new();
    for s in servers {
        by_id.entry(s.id).or_default().push(s);
    }
    for v in by_id.values_mut() {
        v.sort_by_key(|s| s.recv_ns);
    }
    let mut joined = 0;
    for c in clients {
        out.push(Span {
            name: root,
            start_ns: c.due_ns,
            end_ns: c.done_ns.max(c.due_ns),
            parent: parent_of(c),
            request: c.request,
        });
        let r = out.len() - 1;
        push_span(out, names::PACE, c.due_ns, c.send_start_ns, r, c.request);
        push_span(
            out,
            names::SEND,
            c.send_start_ns,
            c.send_end_ns,
            r,
            c.request,
        );
        push_span(out, names::VERIFY, c.recv_ns, c.done_ns, r, c.request);
        let server = by_id.get(&c.id).and_then(|v| {
            let i = v.partition_point(|s| s.recv_ns < c.send_start_ns);
            v.get(i).filter(|s| s.recv_ns <= c.recv_ns)
        });
        let Some(s) = server else { continue };
        joined += 1;
        push_span(
            out,
            names::RECV_WAIT,
            c.send_end_ns,
            s.recv_ns,
            r,
            c.request,
        );
        push_span(
            out,
            names::BATCH_WAIT,
            s.recv_ns,
            s.serve_start_ns,
            r,
            c.request,
        );
        push_span(
            out,
            names::SERVE,
            s.serve_start_ns,
            s.serve_end_ns,
            r,
            c.request,
        );
        let reply = push_span(
            out,
            names::REPLY_WAIT,
            s.serve_end_ns,
            c.recv_ns,
            r,
            c.request,
        );
        if let Some(reply) = reply {
            // The flush can outlast the client's receive (the reply is on
            // the wire before `sendmmsg` returns): clip it to its parent.
            let end = s.flush_end_ns.min(c.recv_ns);
            push_span(out, names::FLUSH, s.flush_start_ns, end, reply, c.request);
        }
    }
    joined
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover. Children may overlap each other and may
/// stick out of the parent; the union is taken and clipped first.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Share of the root spans' time that no descendant explains: the sum of
/// the roots' self times over the sum of their durations.
pub fn unexplained_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (s, own_ns) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            own += own_ns;
            total += s.duration_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// One JSON object per line; a span's id is its line number.
pub fn write_jsonl(spans: &[Span], mut w: impl Write) -> io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
            s.name, s.start_ns, s.end_ns, parent, s.request
        )?;
    }
    w.flush()
}
