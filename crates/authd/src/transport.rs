//! Pluggable datagram transports for the serving loop.
//!
//! The shard loop is written against [`BatchServerTransport`] — receive
//! a batch, serve each slot, stage its reply, flush — and the kernel
//! socket transport (eum-net's `ReuseportUdpTransport`, the only UDP
//! stack in the workspace) implements it directly. Substrates that hand
//! over one query at a time implement the smaller [`ServerTransport`]
//! and run the same loop as batches of one. The one such substrate in
//! this crate:
//!
//! * [`ChannelTransport`] — in-process `std::sync::mpsc` queues. Fully
//!   deterministic (no kernel scheduling, no socket buffers), so offline
//!   tests and benches exercise decode → route → encode without network
//!   noise. Each datagram carries the resolver IP the sender claims and
//!   the authoritative server IP it targets, which lets one logical
//!   server answer for its whole NS set (top-level + every cluster NS),
//!   and a `stream` flag that models the DNS-over-TCP retry leg.
//!
//! (eum-net's TCP listener is the other.) Socket peers carry neither
//! address: the resolver is the kernel's peer address and the server's
//! identity is the socket itself (each shard serves the server IP it was
//! spawned with).
//!
//! `recv` returns `Ok(None)` on timeout so shards can poll their shutdown
//! flag without busy-waiting.

use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::io;
use std::net::Ipv4Addr;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// How long channel endpoints poll `try_recv` (yielding the CPU
/// between probes) before parking in a blocking receive. An mpsc
/// park/unpark round costs 3–10 µs of futex wake latency — an order
/// of magnitude over the serve path itself — so a closed-loop
/// client/shard pair that parked between every query would measure
/// the scheduler, not the server. `yield_now` is the probe that works
/// at every core count: on a loaded single-CPU host it hands the core
/// straight to the peer thread (a busy spin would deadlock the pair
/// for its whole budget), and on idle multi-core hosts it returns
/// immediately, degrading to a plain spin. Idle endpoints still park
/// after one budget's worth of polling.
const CHANNEL_SPIN: Duration = Duration::from_micros(50);

/// Largest datagram either side will read. EDNS0 advertises up to 4096
/// in practice; our messages are far smaller.
pub const MAX_DATAGRAM: usize = 4096;

/// One received query, addressed for reply.
pub struct Datagram<P> {
    /// Raw RFC 1035 message bytes.
    pub payload: Vec<u8>,
    /// The recursive resolver the query came from (NS-based mapping keys
    /// on this). Loopback for UDP peers, declared for channel peers.
    pub resolver_ip: Ipv4Addr,
    /// Which of the server's authoritative IPs the query targets; `None`
    /// means the shard's configured default.
    pub server_ip: Option<Ipv4Addr>,
    /// True when the query arrived over a stream substrate (DNS-over-TCP,
    /// RFC 1035 §4.2.2): the reply is never size-capped or truncated.
    pub stream: bool,
    /// Opaque reply address.
    pub peer: P,
}

/// A shard-side endpoint that hands over one query at a time. The shard
/// loop drives it as a [`BatchServerTransport`] of batch size one.
pub trait ServerTransport: Send + 'static {
    /// Reply-address type.
    type Peer: Send;
    /// Waits up to `timeout` for one datagram. `Ok(None)` means timeout.
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Datagram<Self::Peer>>>;
    /// Sends a response back to `peer`.
    fn send(&mut self, peer: &Self::Peer, payload: &[u8]) -> io::Result<()>;
}

/// One query borrowed out of a [`BatchServerTransport`]'s receive batch.
pub struct BatchDatagram<'a> {
    /// Raw RFC 1035 message bytes, borrowed from the transport's buffer.
    pub payload: &'a [u8],
    /// The recursive resolver the query came from.
    pub resolver_ip: Ipv4Addr,
    /// Targeted authoritative IP; `None` means the shard's default.
    pub server_ip: Option<Ipv4Addr>,
    /// True when the query arrived over a stream substrate (see
    /// [`Datagram::stream`]); kernel UDP batches are always `false`.
    pub stream: bool,
}

/// The shard loop's transport: an endpoint that moves datagrams in
/// batches (kernel `recvmmsg`/`sendmmsg` on the socket transport). The
/// loop drives it strictly as: `recv_batch` → for each index `datagram` /
/// `stage_reply` → `flush`. Replies are staged by batch index, so the
/// transport pairs each one with the peer it received that slot from;
/// indices are only valid until the next `recv_batch`. Implementations
/// keep all buffers across calls — a warm batch cycle must not allocate.
pub trait BatchServerTransport: Send + 'static {
    /// Called once on the serving thread before the first batch (CPU
    /// pinning, thread-local setup). The default does nothing.
    fn on_thread_start(&mut self) {}
    /// Waits up to `timeout` for at least one datagram, then drains
    /// whatever else the kernel already has, up to the batch size.
    /// Returns how many arrived; `Ok(0)` means timeout.
    fn recv_batch(&mut self, timeout: Duration) -> io::Result<usize>;
    /// Borrows datagram `i` of the last batch (`i < recv_batch`'s return).
    fn datagram(&self, i: usize) -> BatchDatagram<'_>;
    /// Stages a reply to the peer datagram `i` came from.
    fn stage_reply(&mut self, i: usize, reply: &[u8]);
    /// Sends every staged reply in one (or few) kernel calls.
    fn flush(&mut self) -> io::Result<()>;
}

/// A client-side endpoint the load generator drives: one blocking
/// query/response exchange per call (the closed loop).
pub trait ClientTransport: Send {
    /// Sends `payload` to shard `shard` as `resolver_ip` targeting
    /// `server_ip`, and waits for the response. Transports that cannot
    /// carry the addressing (sockets) ignore it — the server's configured
    /// default applies and the kernel supplies the source.
    fn exchange(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>>;
    /// Like [`ClientTransport::exchange`], but over the transport's
    /// stream substrate (DNS-over-TCP, RFC 1035 §4.2.2) — the leg a
    /// resolver retries on after a TC=1 answer. Transports without a
    /// stream leg return `ErrorKind::Unsupported`; callers count that as
    /// a failed attempt.
    fn exchange_stream(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let _ = (shard, server_ip, resolver_ip, payload, timeout);
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "transport has no stream substrate",
        ))
    }
    /// How many shards this client can address.
    fn num_shards(&self) -> usize;
}

// ---------------------------------------------------------------------
// In-process channel transport.
// ---------------------------------------------------------------------

/// What travels client → shard over the channel substrate.
struct ChannelQuery {
    payload: Vec<u8>,
    resolver_ip: Ipv4Addr,
    server_ip: Ipv4Addr,
    /// Models a DNS-over-TCP exchange in-process: the server sees an
    /// uncapped stream query, so fleet truncation tests stay
    /// deterministic without sockets.
    stream: bool,
    reply: Sender<Vec<u8>>,
}

/// Shard-side receiver for the in-process substrate.
pub struct ChannelTransport {
    rx: Receiver<ChannelQuery>,
}

/// Cloneable client-side sender set addressing every shard.
#[derive(Clone)]
pub struct ChannelConnector {
    txs: Vec<Sender<ChannelQuery>>,
}

/// Builds `shards` paired channel endpoints: the transports go to the
/// server, the connector is cloned into each load-generator client.
pub fn channel_transports(shards: usize) -> (Vec<ChannelTransport>, ChannelConnector) {
    let mut transports = Vec::with_capacity(shards);
    let mut txs = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = channel();
        txs.push(tx);
        transports.push(ChannelTransport { rx });
    }
    (transports, ChannelConnector { txs })
}

/// Every client hung up: a quiet socket, so wait like one. A
/// disconnected channel reports at once instead of blocking; returning
/// that straight to the shard loop would spin it on a whole core until
/// its stop flag is set.
fn hung_up<T>(timeout: Duration) -> io::Result<Option<T>> {
    std::thread::sleep(timeout);
    Ok(None)
}

impl ServerTransport for ChannelTransport {
    type Peer = Sender<Vec<u8>>;

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Datagram<Self::Peer>>> {
        let deadline = Instant::now() + CHANNEL_SPIN;
        let q = loop {
            match self.rx.try_recv() {
                Ok(q) => break q,
                Err(TryRecvError::Empty) => {
                    if Instant::now() >= deadline {
                        // Spin budget exhausted: park in the blocking
                        // receive until traffic resumes.
                        match self.rx.recv_timeout(timeout) {
                            Ok(q) => break q,
                            Err(RecvTimeoutError::Timeout) => return Ok(None),
                            Err(RecvTimeoutError::Disconnected) => return hung_up(timeout),
                        }
                    }
                    std::thread::yield_now();
                }
                Err(TryRecvError::Disconnected) => return hung_up(timeout),
            }
        };
        Ok(Some(Datagram {
            payload: q.payload,
            resolver_ip: q.resolver_ip,
            server_ip: Some(q.server_ip),
            stream: q.stream,
            peer: q.reply,
        }))
    }

    fn send(&mut self, peer: &Self::Peer, payload: &[u8]) -> io::Result<()> {
        // A client that timed out and dropped its receiver is not a
        // server error (matches UDP fire-and-forget semantics).
        let _ = peer.send(payload.to_vec());
        Ok(())
    }
}

/// One load-generator client's view of the channel substrate.
pub struct ChannelClient {
    connector: ChannelConnector,
    reply_tx: Sender<Vec<u8>>,
    reply_rx: Receiver<Vec<u8>>,
}

impl ChannelClient {
    /// A client endpoint with its own reply queue.
    pub fn new(connector: ChannelConnector) -> ChannelClient {
        let (reply_tx, reply_rx) = channel();
        ChannelClient {
            connector,
            reply_tx,
            reply_rx,
        }
    }
}

impl ChannelClient {
    fn exchange_inner(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
        stream: bool,
    ) -> io::Result<Vec<u8>> {
        // Drain any stale reply from a previously timed-out exchange so
        // responses cannot ever pair with the wrong query.
        while self.reply_rx.try_recv().is_ok() {}
        let tx = &self.connector.txs[shard % self.connector.txs.len()];
        tx.send(ChannelQuery {
            payload: payload.to_vec(),
            resolver_ip,
            server_ip,
            stream,
            reply: self.reply_tx.clone(),
        })
        .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "shard gone"))?;
        // Spin for the reply before parking: under load the shard
        // answers well inside the spin budget, so the wake-latency tax
        // is paid only on genuinely slow (or timed-out) exchanges.
        let deadline = Instant::now() + CHANNEL_SPIN;
        loop {
            match self.reply_rx.try_recv() {
                Ok(bytes) => return Ok(bytes),
                Err(TryRecvError::Empty) => {
                    if Instant::now() >= deadline {
                        return self
                            .reply_rx
                            .recv_timeout(timeout)
                            .map_err(|_| io::Error::new(io::ErrorKind::TimedOut, "no response"));
                    }
                    std::thread::yield_now();
                }
                Err(TryRecvError::Disconnected) => {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "shard gone"))
                }
            }
        }
    }
}

impl ClientTransport for ChannelClient {
    fn exchange(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        self.exchange_inner(shard, server_ip, resolver_ip, payload, timeout, false)
    }

    fn exchange_stream(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        self.exchange_inner(shard, server_ip, resolver_ip, payload, timeout, true)
    }

    fn num_shards(&self) -> usize {
        self.connector.txs.len()
    }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// Failure rates for [`FaultInjector`], all in `[0, 1]`. Rates are
/// evaluated per exchange in order: first the timeout draw, then the
/// SERVFAIL draw on the remainder.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability an exchange times out (the query is dropped without
    /// reaching the server and `ErrorKind::TimedOut` is returned).
    pub timeout_rate: f64,
    /// Probability an exchange is answered with a synthesized SERVFAIL
    /// (RFC 1035 RCODE 2) echoing the query's ID and question, without
    /// reaching the server.
    pub servfail_rate: f64,
    /// RNG seed; the fault sequence is a pure function of this.
    pub seed: u64,
}

impl FaultConfig {
    /// A fault-free configuration (useful as a baseline).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            timeout_rate: 0.0,
            servfail_rate: 0.0,
            seed,
        }
    }
}

/// Wraps any [`ClientTransport`] with seeded, rate-configured upstream
/// failures so resolver retry/backoff and negative-cache paths are
/// exercisable deterministically: a drawn *timeout* swallows the query
/// and returns `ErrorKind::TimedOut`; a drawn *SERVFAIL* flips the
/// query bytes into a server-failure response (QR set, RCODE 2, counts
/// untouched so the question section still echoes back).
pub struct FaultInjector<C> {
    inner: C,
    cfg: FaultConfig,
    rng: ChaCha12Rng,
    injected_timeouts: u64,
    injected_servfails: u64,
}

impl<C: ClientTransport> FaultInjector<C> {
    /// Wraps `inner`, drawing faults from a ChaCha12 stream seeded with
    /// `cfg.seed`.
    pub fn new(inner: C, cfg: FaultConfig) -> FaultInjector<C> {
        FaultInjector {
            inner,
            cfg,
            rng: ChaCha12Rng::seed_from_u64(cfg.seed),
            injected_timeouts: 0,
            injected_servfails: 0,
        }
    }

    /// How many exchanges were failed as timeouts so far.
    pub fn injected_timeouts(&self) -> u64 {
        self.injected_timeouts
    }

    /// How many exchanges were answered with a synthesized SERVFAIL.
    pub fn injected_servfails(&self) -> u64 {
        self.injected_servfails
    }

    /// Consumes the wrapper, returning the inner transport.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: ClientTransport> ClientTransport for FaultInjector<C> {
    fn exchange(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        if self.rng.random_bool(self.cfg.timeout_rate) {
            self.injected_timeouts += 1;
            return Err(io::Error::new(io::ErrorKind::TimedOut, "injected timeout"));
        }
        if self.rng.random_bool(self.cfg.servfail_rate) {
            self.injected_servfails += 1;
            let mut resp = payload.to_vec();
            if resp.len() >= 4 {
                resp[2] |= 0x80; // QR: this is a response
                resp[2] &= !0x02; // TC clear
                resp[3] = (resp[3] & 0xF0) | 0x02; // RCODE 2: SERVFAIL
            }
            return Ok(resp);
        }
        self.inner
            .exchange(shard, server_ip, resolver_ip, payload, timeout)
    }

    fn exchange_stream(
        &mut self,
        shard: usize,
        server_ip: Ipv4Addr,
        resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        // Fault draws model lossy datagram paths; the TCP retry leg is
        // forwarded unfaulted so truncation recovery stays observable.
        self.inner
            .exchange_stream(shard, server_ip, resolver_ip, payload, timeout)
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_round_trip() {
        let (mut transports, connector) = channel_transports(2);
        let mut client = ChannelClient::new(connector);
        let payload = vec![1, 2, 3];
        let h = std::thread::spawn({
            let p = payload.clone();
            move || {
                let t = &mut transports[1];
                let dg = t.recv(Duration::from_secs(1)).unwrap().unwrap();
                assert_eq!(dg.payload, p);
                assert_eq!(dg.resolver_ip, Ipv4Addr::new(9, 8, 7, 6));
                assert_eq!(dg.server_ip, Some(Ipv4Addr::new(1, 2, 3, 4)));
                t.send(&dg.peer, &[4, 5]).unwrap();
            }
        });
        let resp = client
            .exchange(
                1,
                Ipv4Addr::new(1, 2, 3, 4),
                Ipv4Addr::new(9, 8, 7, 6),
                &payload,
                Duration::from_secs(1),
            )
            .unwrap();
        assert_eq!(resp, vec![4, 5]);
        h.join().unwrap();
    }

    #[test]
    fn channel_recv_times_out_quietly() {
        let (mut transports, _connector) = channel_transports(1);
        let got = transports[0].recv(Duration::from_millis(10)).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn channel_recv_after_hangup_waits_out_the_timeout() {
        let (mut transports, connector) = channel_transports(1);
        drop(connector);
        let timeout = Duration::from_millis(50);
        let start = Instant::now();
        let got = transports[0].recv(timeout).unwrap();
        assert!(got.is_none());
        assert!(
            start.elapsed() >= timeout,
            "a hung-up channel must not return early: {:?}",
            start.elapsed()
        );
    }

    /// A loopback ClientTransport answering every exchange with `[0xAA]`.
    struct EchoOk;

    impl ClientTransport for EchoOk {
        fn exchange(
            &mut self,
            _shard: usize,
            _server_ip: Ipv4Addr,
            _resolver_ip: Ipv4Addr,
            _payload: &[u8],
            _timeout: Duration,
        ) -> io::Result<Vec<u8>> {
            Ok(vec![0xAA])
        }

        fn num_shards(&self) -> usize {
            1
        }
    }

    fn drive(cfg: FaultConfig, n: usize) -> (Vec<u8>, u64, u64) {
        // A syntactically valid query header: ID 0x1234, RD set, QDCOUNT 1.
        let query = [
            0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ];
        let mut t = FaultInjector::new(EchoOk, cfg);
        let mut outcomes = Vec::with_capacity(n);
        for _ in 0..n {
            outcomes.push(
                match t.exchange(
                    0,
                    Ipv4Addr::UNSPECIFIED,
                    Ipv4Addr::UNSPECIFIED,
                    &query,
                    Duration::from_millis(1),
                ) {
                    Ok(resp) if resp == [0xAA] => 0u8,
                    Ok(resp) => {
                        // Synthesized SERVFAIL: same ID, QR set, RCODE 2.
                        assert_eq!(&resp[..2], &query[..2]);
                        assert_eq!(resp[2] & 0x80, 0x80);
                        assert_eq!(resp[3] & 0x0F, 0x02);
                        1
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::TimedOut);
                        2
                    }
                },
            );
        }
        (outcomes, t.injected_timeouts(), t.injected_servfails())
    }

    #[test]
    fn fault_injector_respects_rates_and_seed() {
        let cfg = FaultConfig {
            timeout_rate: 0.25,
            servfail_rate: 0.25,
            seed: 0xFA17,
        };
        let (a, timeouts, servfails) = drive(cfg, 2000);
        let (b, ..) = drive(cfg, 2000);
        assert_eq!(a, b, "same seed must give the same fault sequence");
        // 25% timeout, then 25% of the remainder SERVFAIL ≈ 18.75%.
        assert!((400..600).contains(&(timeouts as usize)), "{timeouts}");
        assert!((275..475).contains(&(servfails as usize)), "{servfails}");
        let (c, ..) = drive(
            FaultConfig {
                seed: 0xFA18,
                ..cfg
            },
            2000,
        );
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn fault_free_injector_is_transparent() {
        let (outcomes, timeouts, servfails) = drive(FaultConfig::none(7), 200);
        assert!(outcomes.iter().all(|&o| o == 0));
        assert_eq!((timeouts, servfails), (0, 0));
    }
}
