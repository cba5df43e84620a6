//! Transport wrappers: how the traced run sees inside the serving loop
//! without a line changed in any crate. Each wraps one of authd's public
//! transport traits, forwards every call, counts calls, and stamps the
//! moments a *sampled* datagram (DNS id masked by the tap's sample mask)
//! crosses the boundary. The untraced run does not use them at all.

use crate::oracle;
use crate::spans::{ClientStamp, ServerStamp, StampBuf};
use crate::stats::now_ns;
use eum_authd::{BatchDatagram, BatchServerTransport, ClientTransport, Datagram, ServerTransport};
use eum_net::SocketClient;
use std::cell::Cell;
use std::io;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What a server-side wrapper shares with the harness. Counters are
/// written by the one shard thread that owns the wrapper; stamps arrive
/// when the wrapper is dropped (the shard thread has been joined).
pub struct ServerTap {
    /// Stamp datagrams whose DNS id has none of these bits set.
    sample_mask: u16,
    /// Receive calls that returned at least one datagram.
    pub recv_calls: AtomicU64,
    pub datagrams: AtomicU64,
    /// Flush (or single send) calls.
    pub send_calls: AtomicU64,
    stamps: Mutex<Vec<ServerStamp>>,
    dropped: AtomicU64,
}

impl ServerTap {
    pub fn new(sample_mask: u16) -> Arc<ServerTap> {
        Arc::new(ServerTap {
            sample_mask,
            recv_calls: AtomicU64::new(0),
            datagrams: AtomicU64::new(0),
            send_calls: AtomicU64::new(0),
            stamps: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    #[inline]
    fn sampled(&self, payload: &[u8]) -> Option<u16> {
        let id = u16::from_be_bytes([*payload.first()?, *payload.get(1)?]);
        (id & self.sample_mask == 0).then_some(id)
    }

    /// (receive calls, datagrams, send calls) so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        // relaxed-ok: statistics, read between phases or after the join
        (
            self.recv_calls.load(Ordering::Relaxed),
            self.datagrams.load(Ordering::Relaxed),
            self.send_calls.load(Ordering::Relaxed),
        )
    }

    /// The stamps handed over so far (complete once the server stopped).
    pub fn take_stamps(&self) -> Vec<ServerStamp> {
        std::mem::take(&mut *self.stamps.lock().expect("no stamp holder panics"))
    }

    /// Stamps lost to a full buffer.
    pub fn dropped(&self) -> u64 {
        // relaxed-ok: statistic read after the join
        self.dropped.load(Ordering::Relaxed)
    }

    fn hand_over(&self, buf: StampBuf<ServerStamp>) {
        // relaxed-ok: statistic
        self.dropped.fetch_add(buf.dropped(), Ordering::Relaxed);
        // Runs in Drop: a poisoned lock loses the stamps, never panics.
        if let Ok(mut g) = self.stamps.lock() {
            g.extend(buf.into_vec());
        }
    }
}

/// Stamps one server thread may hold before it starts dropping them.
const SERVER_STAMPS: usize = 1 << 20;

/// [`BatchServerTransport`] wrapper for the socket workloads.
pub struct TracedBatch<T> {
    inner: T,
    tap: Arc<ServerTap>,
    buf: Option<StampBuf<ServerStamp>>,
    recv_ns: u64,
    batch: usize,
    /// Per slot of the current batch: DNS id and `datagram(i)` time of a
    /// sampled datagram (time 0 = not sampled). `datagram` takes `&self`,
    /// hence the cells.
    ids: Box<[Cell<u16>]>,
    serve_start: Box<[Cell<u64>]>,
    serve_end: Box<[u64]>,
}

impl<T: BatchServerTransport> TracedBatch<T> {
    /// Wraps `inner`, whose batches hold at most `max_batch` datagrams.
    pub fn new(inner: T, max_batch: usize, tap: Arc<ServerTap>) -> TracedBatch<T> {
        TracedBatch {
            inner,
            tap,
            buf: Some(StampBuf::with_capacity(SERVER_STAMPS)),
            recv_ns: 0,
            batch: 0,
            ids: (0..max_batch).map(|_| Cell::new(0)).collect(),
            serve_start: (0..max_batch).map(|_| Cell::new(0)).collect(),
            serve_end: vec![0; max_batch].into_boxed_slice(),
        }
    }
}

impl<T: BatchServerTransport> BatchServerTransport for TracedBatch<T> {
    fn on_thread_start(&mut self) {
        self.inner.on_thread_start();
    }

    fn recv_batch(&mut self, timeout: Duration) -> io::Result<usize> {
        let n = self.inner.recv_batch(timeout)?;
        if n > 0 {
            self.recv_ns = now_ns();
            self.batch = n.min(self.ids.len());
            for c in self.serve_start.iter().take(self.batch) {
                c.set(0);
            }
            // relaxed-ok: statistics owned by this thread
            self.tap.recv_calls.fetch_add(1, Ordering::Relaxed);
            self.tap.datagrams.fetch_add(n as u64, Ordering::Relaxed);
        } else {
            self.batch = 0;
        }
        Ok(n)
    }

    fn datagram(&self, i: usize) -> BatchDatagram<'_> {
        let d = self.inner.datagram(i);
        if let (Some(id), Some(slot)) = (self.tap.sampled(d.payload), self.serve_start.get(i)) {
            self.ids[i].set(id);
            slot.set(now_ns());
        }
        d
    }

    fn stage_reply(&mut self, i: usize, reply: &[u8]) {
        if self.serve_start.get(i).is_some_and(|c| c.get() != 0) {
            self.serve_end[i] = now_ns();
        }
        self.inner.stage_reply(i, reply);
    }

    fn flush(&mut self) -> io::Result<()> {
        let any = self.serve_start[..self.batch].iter().any(|c| c.get() != 0);
        let t0 = if any { now_ns() } else { 0 };
        let r = self.inner.flush();
        if self.batch > 0 {
            // relaxed-ok: statistic owned by this thread
            self.tap.send_calls.fetch_add(1, Ordering::Relaxed);
        }
        if any {
            let t1 = now_ns();
            if let Some(buf) = self.buf.as_mut() {
                for i in 0..self.batch {
                    let start = self.serve_start[i].get();
                    if start != 0 {
                        buf.push(ServerStamp {
                            id: self.ids[i].get(),
                            recv_ns: self.recv_ns,
                            serve_start_ns: start,
                            serve_end_ns: self.serve_end[i].max(start),
                            flush_start_ns: t0,
                            flush_end_ns: t1,
                        });
                    }
                }
            }
        }
        self.batch = 0;
        r
    }
}

impl<T> Drop for TracedBatch<T> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.tap.hand_over(buf);
        }
    }
}

/// [`ServerTransport`] wrapper for the channel workload (`run_shard`, the
/// single-datagram loop): `recv` → serve → `send`, strictly in turn, so
/// the datagram being answered is always the last one received.
pub struct TracedServer<T> {
    inner: T,
    tap: Arc<ServerTap>,
    buf: Option<StampBuf<ServerStamp>>,
    /// Id, `recv` return time and hand-over time of the datagram in
    /// service, when sampled.
    current: Option<(u16, u64, u64)>,
}

impl<T: ServerTransport> TracedServer<T> {
    pub fn new(inner: T, tap: Arc<ServerTap>) -> TracedServer<T> {
        TracedServer {
            inner,
            tap,
            buf: Some(StampBuf::with_capacity(SERVER_STAMPS)),
            current: None,
        }
    }
}

impl<T: ServerTransport> ServerTransport for TracedServer<T> {
    type Peer = T::Peer;

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Datagram<Self::Peer>>> {
        let got = self.inner.recv(timeout)?;
        if let Some(d) = &got {
            // Two clock reads: the loop's own gap between getting a datagram
            // and starting on it is this wrapper's bookkeeping, measured.
            self.current = self.tap.sampled(&d.payload).map(|id| (id, now_ns(), 0));
            // relaxed-ok: statistics owned by this thread
            self.tap.recv_calls.fetch_add(1, Ordering::Relaxed);
            self.tap.datagrams.fetch_add(1, Ordering::Relaxed);
            if let Some(c) = self.current.as_mut() {
                c.2 = now_ns();
            }
        }
        Ok(got)
    }

    fn send(&mut self, peer: &Self::Peer, payload: &[u8]) -> io::Result<()> {
        // relaxed-ok: statistic owned by this thread
        self.tap.send_calls.fetch_add(1, Ordering::Relaxed);
        let Some((id, recv_ns, serve_start_ns)) = self.current.take() else {
            return self.inner.send(peer, payload);
        };
        let t0 = now_ns();
        let r = self.inner.send(peer, payload);
        let t1 = now_ns();
        if let Some(buf) = self.buf.as_mut() {
            buf.push(ServerStamp {
                id,
                recv_ns,
                serve_start_ns,
                serve_end_ns: t0,
                flush_start_ns: t0,
                flush_end_ns: t1,
            });
        }
        r
    }
}

impl<T> Drop for TracedServer<T> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.tap.hand_over(buf);
        }
    }
}

/// The client leg of `fleet_e2e`: two [`SocketClient`]s — loopback
/// sockets carry no server IP, so the top-level and the low-level
/// authoritative are two servers and this routes each exchange by the
/// `server_ip` the resolver asked for. Every reply gets the cheap wire
/// checks; while armed, every exchange is stamped.
pub struct RoutedClient {
    top_ip: Ipv4Addr,
    top: SocketClient,
    low: SocketClient,
    pub exchanges: u64,
    /// Replies that failed the wire checks.
    pub wire_failures: u64,
    /// Exchanges that returned an error (timeouts included).
    pub errors: u64,
    armed: Option<u32>,
    stamps: Option<StampBuf<ClientStamp>>,
}

impl RoutedClient {
    /// `stamp_capacity` > 0 enables stamping (the traced run).
    pub fn new(
        top_ip: Ipv4Addr,
        top: SocketClient,
        low: SocketClient,
        stamp_capacity: usize,
    ) -> RoutedClient {
        RoutedClient {
            top_ip,
            top,
            low,
            exchanges: 0,
            wire_failures: 0,
            errors: 0,
            armed: None,
            stamps: (stamp_capacity > 0).then(|| StampBuf::with_capacity(stamp_capacity)),
        }
    }

    /// Stamp the exchanges of operation `request` until [`Self::disarm`].
    #[inline]
    pub fn arm(&mut self, request: u32) {
        if self.stamps.is_some() {
            self.armed = Some(request);
        }
    }

    #[inline]
    pub fn disarm(&mut self) {
        self.armed = None;
    }

    pub fn take_stamps(&mut self) -> Vec<ClientStamp> {
        self.stamps
            .take()
            .map(StampBuf::into_vec)
            .unwrap_or_default()
    }
}

impl ClientTransport for RoutedClient {
    fn exchange(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let t0 = self.armed.map(|_| now_ns());
        let target = if server_ip == self.top_ip {
            &mut self.top
        } else {
            &mut self.low
        };
        let r = target.exchange(shard, server_ip, resolver_ip, payload, timeout);
        self.exchanges += 1;
        match &r {
            Ok(reply) if !oracle::wire_ok(payload, reply) => self.wire_failures += 1,
            Ok(_) => {}
            Err(_) => self.errors += 1,
        }
        if let (Some(t0), Some(request), Some(buf)) = (t0, self.armed, self.stamps.as_mut()) {
            let t1 = now_ns();
            buf.push(ClientStamp {
                request,
                id: match payload {
                    [hi, lo, ..] => u16::from_be_bytes([*hi, *lo]),
                    _ => 0,
                },
                due_ns: t0,
                send_start_ns: t0,
                send_end_ns: t0,
                recv_ns: t1,
                done_ns: t1,
            });
        }
        r
    }

    fn num_shards(&self) -> usize {
        1
    }
}
