//! The SO_REUSEPORT sharded, kernel-batched UDP transport.
//!
//! [`ReuseportUdpTransport`] implements authd's
//! [`BatchServerTransport`]: all shard sockets share **one** port and
//! the kernel 4-tuple-hashes incoming datagrams across them, so clients
//! need no shard-picking logic and adding a shard is invisible on the
//! wire. Each `recv_batch` → `serve` → `flush` cycle moves up to
//! [`BatchConfig::batch`] datagrams with two syscalls (`recvmmsg` +
//! `sendmmsg`) instead of `2 × batch`, and every buffer — receive slots,
//! reply slots, peer addresses, scatter-gather headers — is allocated
//! once at bind time, so a warm cycle allocates nothing (asserted by
//! `tests/batch_zero_alloc.rs`).
//!
//! A portable path (`recv_from`/`send_to` per datagram, first receive
//! blocking with `SO_RCVTIMEO`, the rest drained nonblocking) serves
//! non-Linux targets; [`BatchConfig::force_portable`] selects it on
//! Linux too, so the gate exercises the path other platforms run.

use eum_authd::{BatchDatagram, BatchServerTransport, MAX_DATAGRAM};
use eum_telemetry::{Counter, Histogram, Registry};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

#[cfg(target_os = "linux")]
use crate::sys;

/// Tuning for [`ReuseportUdpTransport`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Most datagrams moved per kernel call (and per serve cycle).
    pub batch: usize,
    /// Pin shard `i`'s serving thread to CPU `i % available_parallelism`.
    pub pin_cpus: bool,
    /// Use the portable single-datagram path even where
    /// `recvmmsg`/`sendmmsg` exist (how a Linux gate tests it).
    pub force_portable: bool,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            batch: 32,
            pin_cpus: false,
            force_portable: false,
        }
    }
}

/// Per-shard transport instruments, registered once by
/// [`ReuseportUdpTransport::attach_metrics`] and touched with `&self`
/// atomics on the batch cycle (no allocation, no locks).
struct BatchMetrics {
    /// Datagrams returned per `recv_batch` call — how full the kernel
    /// batches actually run (1 = no batching benefit, `batch` = ceiling).
    fill: Arc<Histogram>,
    /// `sendmmsg` calls that accepted fewer datagrams than staged.
    partial_sends: Arc<Counter>,
}

/// One shard's socket plus every buffer its batch cycle touches.
pub struct ReuseportUdpTransport {
    socket: UdpSocket,
    batch: usize,
    portable: bool,
    pin_cpu: Option<usize>,
    /// Last read timeout applied to the socket, so the steady state skips
    /// the `setsockopt` (the server loop passes a constant timeout).
    read_timeout: Option<Duration>,
    /// `batch` receive slots of MAX_DATAGRAM bytes each.
    rbufs: Box<[u8]>,
    rlens: Box<[usize]>,
    /// Source address per receive slot; replies go back to it.
    peers: Box<[SocketAddrV4]>,
    /// `batch` reply slots of MAX_DATAGRAM bytes each.
    sbufs: Box<[u8]>,
    /// Staged reply length per slot; 0 = no reply for that datagram.
    slens: Box<[usize]>,
    /// Registered instrument handles (`None`: unobserved).
    metrics: Option<BatchMetrics>,
    #[cfg(target_os = "linux")]
    mm: sys::MmsgBatch,
}

impl ReuseportUdpTransport {
    /// Binds one shard socket on `addr` (port 0 = ephemeral). On Linux
    /// the socket carries `SO_REUSEPORT` so more shards can join the
    /// same port; elsewhere it is a plain std socket.
    pub fn bind(
        addr: SocketAddrV4,
        cfg: &BatchConfig,
        pin_cpu: Option<usize>,
    ) -> io::Result<ReuseportUdpTransport> {
        #[cfg(target_os = "linux")]
        let socket = sys::bind_reuseport(addr)?;
        #[cfg(not(target_os = "linux"))]
        let socket = UdpSocket::bind(addr)?;
        Ok(Self::from_socket(socket, cfg, pin_cpu))
    }

    fn from_socket(
        socket: UdpSocket,
        cfg: &BatchConfig,
        pin_cpu: Option<usize>,
    ) -> ReuseportUdpTransport {
        let batch = cfg.batch.max(1);
        ReuseportUdpTransport {
            socket,
            batch,
            portable: cfg.force_portable || cfg!(not(target_os = "linux")),
            pin_cpu,
            read_timeout: None,
            rbufs: vec![0u8; batch * MAX_DATAGRAM].into_boxed_slice(),
            rlens: vec![0usize; batch].into_boxed_slice(),
            peers: vec![SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0); batch].into_boxed_slice(),
            sbufs: vec![0u8; batch * MAX_DATAGRAM].into_boxed_slice(),
            slens: vec![0usize; batch].into_boxed_slice(),
            metrics: None,
            #[cfg(target_os = "linux")]
            mm: sys::MmsgBatch::new(batch),
        }
    }

    /// Registers this shard's batch instruments in `registry` (labeled
    /// `shard="<shard>"`): the `eum_net_recv_batch_fill` histogram of
    /// datagrams returned per `recvmmsg` batch and the
    /// `eum_net_sendmmsg_partial_total` counter of partial `sendmmsg`
    /// calls. Registration allocates; the per-cycle recording is
    /// atomics only, so the warm batch cycle stays allocation-free.
    pub fn attach_metrics(&mut self, registry: &Registry, shard: usize) {
        let s = shard.to_string();
        let l: &[(&str, &str)] = &[("shard", &s)];
        self.metrics = Some(BatchMetrics {
            fill: registry.histogram(
                "eum_net_recv_batch_fill",
                "Datagrams returned per recvmmsg batch",
                l,
            ),
            partial_sends: registry.counter(
                "eum_net_sendmmsg_partial_total",
                "sendmmsg calls that sent fewer datagrams than staged",
                l,
            ),
        });
    }

    /// Where clients should send for this shard.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Binds `shards` sockets for one server. On Linux they all share
    /// one `SO_REUSEPORT` port (the returned addresses are identical and
    /// the kernel spreads load); elsewhere each shard gets its own
    /// ephemeral port and the returned addresses differ. Either way the
    /// address list is what a [`crate::SocketClient`] takes.
    pub fn bind_shards(
        shards: usize,
        cfg: &BatchConfig,
    ) -> io::Result<(Vec<ReuseportUdpTransport>, Vec<SocketAddr>)> {
        assert!(shards > 0, "need at least one shard");
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let pin = |i: usize| cfg.pin_cpus.then_some(i % cpus);
        let mut transports = Vec::with_capacity(shards);
        let mut addrs = Vec::with_capacity(shards);
        #[cfg(target_os = "linux")]
        {
            let first = ReuseportUdpTransport::bind(
                SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
                cfg,
                pin(0),
            )?;
            let shared = first.local_addr()?;
            let port = match shared {
                SocketAddr::V4(a) => a.port(),
                SocketAddr::V6(_) => unreachable!("bound a V4 socket"),
            };
            addrs.push(shared);
            transports.push(first);
            for i in 1..shards {
                transports.push(ReuseportUdpTransport::bind(
                    SocketAddrV4::new(Ipv4Addr::LOCALHOST, port),
                    cfg,
                    pin(i),
                )?);
                addrs.push(shared);
            }
        }
        #[cfg(not(target_os = "linux"))]
        {
            for i in 0..shards {
                let t = ReuseportUdpTransport::bind(
                    SocketAddrV4::new(Ipv4Addr::LOCALHOST, 0),
                    cfg,
                    pin(i),
                )?;
                addrs.push(t.local_addr()?);
                transports.push(t);
            }
        }
        Ok((transports, addrs))
    }

    /// True when this transport uses the single-datagram fallback.
    pub fn is_portable(&self) -> bool {
        self.portable
    }

    // lint: allow(serve-index) — every index below is a batch slot
    // `count < self.batch`, and rlens/peers hold `batch` entries while
    // rbufs holds `batch * MAX_DATAGRAM` bytes, all sized at bind.
    fn recv_batch_portable(&mut self) -> io::Result<usize> {
        // First receive blocks (bounded by SO_RCVTIMEO set by the
        // caller); V6 peers cannot occur on our V4 sockets but are
        // dropped defensively rather than unwrapped.
        let mut count = match self.socket.recv_from(&mut self.rbufs[..MAX_DATAGRAM]) {
            Ok((n, SocketAddr::V4(p))) => {
                self.rlens[0] = n;
                self.peers[0] = p;
                1usize
            }
            Ok((_, SocketAddr::V6(_))) => return Ok(0),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                return Ok(0)
            }
            Err(e) => return Err(e),
        };
        // Drain whatever else is already queued, without blocking.
        self.socket.set_nonblocking(true)?;
        while count < self.batch {
            let start = count * MAX_DATAGRAM;
            match self
                .socket
                .recv_from(&mut self.rbufs[start..start + MAX_DATAGRAM])
            {
                Ok((n, SocketAddr::V4(p))) => {
                    self.rlens[count] = n;
                    self.peers[count] = p;
                    count += 1;
                }
                Ok((_, SocketAddr::V6(_))) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    self.socket.set_nonblocking(false)?;
                    return Err(e);
                }
            }
        }
        self.socket.set_nonblocking(false)?;
        Ok(count)
    }
}

impl BatchServerTransport for ReuseportUdpTransport {
    fn on_thread_start(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(cpu) = self.pin_cpu {
            // Best-effort: a restricted affinity mask (containers, taskset)
            // must not kill the shard.
            let _ = sys::pin_current_thread(cpu);
        }
        #[cfg(not(target_os = "linux"))]
        let _ = self.pin_cpu;
    }

    fn recv_batch(&mut self, timeout: Duration) -> io::Result<usize> {
        if self.read_timeout != Some(timeout) {
            self.socket.set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        for l in self.slens.iter_mut() {
            *l = 0;
        }
        let n = if self.portable {
            self.recv_batch_portable()?
        } else {
            #[cfg(target_os = "linux")]
            {
                self.mm.recv(
                    &self.socket,
                    &mut self.rbufs,
                    MAX_DATAGRAM,
                    &mut self.rlens,
                    &mut self.peers,
                )?
            }
            #[cfg(not(target_os = "linux"))]
            // Unreachable: `portable` is always true off Linux.
            0
        };
        if n > 0 {
            if let Some(m) = self.metrics.as_ref() {
                m.fill.record(n as u64);
            }
        }
        Ok(n)
    }

    // lint: allow(serve-index) — `i` is a slot index below the last
    // recv_batch count per the trait contract; buffers are batch-sized.
    fn datagram(&self, i: usize) -> BatchDatagram<'_> {
        let start = i * MAX_DATAGRAM;
        BatchDatagram {
            payload: &self.rbufs[start..start + self.rlens[i]],
            resolver_ip: *self.peers[i].ip(),
            server_ip: None,
            stream: false,
        }
    }

    // lint: allow(serve-index) — `i` is a slot index below the last
    // recv_batch count; the copy length is capped at the slot size.
    fn stage_reply(&mut self, i: usize, reply: &[u8]) {
        let n = reply.len().min(MAX_DATAGRAM);
        let start = i * MAX_DATAGRAM;
        self.sbufs[start..start + n].copy_from_slice(&reply[..n]);
        self.slens[i] = n;
    }

    // lint: allow(serve-index) — slot arithmetic over bind-time-sized
    // buffers, indices below self.batch.
    fn flush(&mut self) -> io::Result<()> {
        if self.portable {
            for i in 0..self.batch {
                let len = self.slens[i];
                if len == 0 {
                    continue;
                }
                let start = i * MAX_DATAGRAM;
                self.socket
                    .send_to(&self.sbufs[start..start + len], self.peers[i])?;
                self.slens[i] = 0;
            }
            return Ok(());
        }
        #[cfg(target_os = "linux")]
        {
            let (_sent, partial_calls) = self.mm.send(
                &self.socket,
                &self.sbufs,
                MAX_DATAGRAM,
                &self.slens,
                &self.peers,
            )?;
            if partial_calls > 0 {
                if let Some(m) = self.metrics.as_ref() {
                    m.partial_sends.add(partial_calls as u64);
                }
            }
            for l in self.slens.iter_mut() {
                *l = 0;
            }
        }
        Ok(())
    }
}
