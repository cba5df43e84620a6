//! DNS-over-TCP fallback listener (RFC 1035 §4.2.2).
//!
//! When an authd reply exceeds the requester's advertised UDP payload
//! size, the UDP path truncates it and stamps TC=1; the resolver then
//! retries over TCP, where messages are framed by a two-byte big-endian
//! length prefix and never size-capped. This listener implements
//! authd's single-datagram [`ServerTransport`] so one extra shard thread
//! (the same shard loop, fed batches of one) serves the (rare, by
//! design) oversized answers: it accepts nonblocking
//! connections, accumulates bytes per connection until a full frame
//! arrives, and surfaces each frame as a `stream` datagram — which
//! makes the server's [`eum_authd::ReplyCap`] logic skip truncation.
//!
//! Throughput is a non-goal here: the TCP leg exists for correctness
//! (completing the answer the datagram path could not carry), so the
//! implementation favors simplicity — a poll loop with a short sleep —
//! over epoll machinery.

use eum_authd::transport::{Datagram, ServerTransport};
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// How long `send` keeps retrying a nonblocking write before declaring
/// the client gone.
const SEND_PATIENCE: Duration = Duration::from_secs(2);

/// One accepted connection with its partial-frame buffer.
struct Conn {
    stream: TcpStream,
    peer: Ipv4Addr,
    buf: Vec<u8>,
}

/// A nonblocking TCP listener serving length-prefixed DNS messages.
pub struct TcpServerTransport {
    listener: TcpListener,
    /// Slot-addressed connections; `Datagram::peer` is the slot index.
    conns: Vec<Option<Conn>>,
}

impl TcpServerTransport {
    /// Binds an ephemeral loopback listener.
    pub fn bind() -> io::Result<TcpServerTransport> {
        TcpServerTransport::bind_addr(SocketAddr::from((Ipv4Addr::LOCALHOST, 0)))
    }

    /// Binds a listener on `addr`.
    pub fn bind_addr(addr: SocketAddr) -> io::Result<TcpServerTransport> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpServerTransport {
            listener,
            conns: Vec::new(),
        })
    }

    /// Where clients should connect.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts every connection the kernel has queued.
    fn accept_pending(&mut self) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    stream.set_nonblocking(true)?;
                    let _ = stream.set_nodelay(true);
                    let ip = match peer.ip() {
                        IpAddr::V4(v4) => v4,
                        IpAddr::V6(_) => Ipv4Addr::LOCALHOST,
                    };
                    let conn = Conn {
                        stream,
                        peer: ip,
                        buf: Vec::with_capacity(512),
                    };
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads available bytes on every connection; returns the first
    /// complete frame found, if any.
    fn poll_frames(&mut self) -> Option<Datagram<usize>> {
        let mut tmp = [0u8; 4096];
        for slot in 0..self.conns.len() {
            let mut dead = false;
            if let Some(conn) = self.conns[slot].as_mut() {
                loop {
                    match conn.stream.read(&mut tmp) {
                        Ok(0) => {
                            dead = true;
                            break;
                        }
                        Ok(n) => conn.buf.extend_from_slice(&tmp[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            dead = true;
                            break;
                        }
                    }
                }
            }
            if dead {
                self.conns[slot] = None;
                continue;
            }
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.buf.len() < 2 {
                continue;
            }
            let need = u16::from_be_bytes([conn.buf[0], conn.buf[1]]) as usize;
            if conn.buf.len() < 2 + need {
                continue;
            }
            let payload = conn.buf[2..2 + need].to_vec();
            conn.buf.drain(..2 + need);
            return Some(Datagram {
                payload,
                resolver_ip: conn.peer,
                server_ip: None,
                stream: true,
                peer: slot,
            });
        }
        None
    }
}

impl ServerTransport for TcpServerTransport {
    type Peer = usize;

    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Datagram<usize>>> {
        let deadline = Instant::now() + timeout;
        loop {
            self.accept_pending()?;
            if let Some(dg) = self.poll_frames() {
                return Ok(Some(dg));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn send(&mut self, peer: &usize, payload: &[u8]) -> io::Result<()> {
        let Some(conn) = self.conns.get_mut(*peer).and_then(Option::as_mut) else {
            return Ok(()); // client hung up: fire-and-forget, like UDP
        };
        let len = payload.len().min(u16::MAX as usize);
        let mut frame = Vec::with_capacity(2 + len);
        frame.extend_from_slice(&(len as u16).to_be_bytes());
        frame.extend_from_slice(&payload[..len]);
        if write_all_patiently(&mut conn.stream, &frame).is_err() {
            self.conns[*peer] = None;
        }
        Ok(())
    }
}

/// `write_all` over a nonblocking stream: spins (with a short sleep) on
/// `WouldBlock` up to [`SEND_PATIENCE`], then gives up.
fn write_all_patiently(stream: &mut TcpStream, mut data: &[u8]) -> io::Result<()> {
    let deadline = Instant::now() + SEND_PATIENCE;
    while !data.is_empty() {
        match stream.write(data) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer gone")),
            Ok(n) => data = &data[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "send stalled"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
