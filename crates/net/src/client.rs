//! The socket-backed client: UDP exchanges with a DNS-over-TCP retry
//! leg, implementing authd's [`ClientTransport`] so the load generator
//! and the eum-ldns resolver fleet drive real sockets unchanged.

use eum_authd::{ClientTransport, MAX_DATAGRAM};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

/// One client's sockets: a UDP socket for the datagram path and the
/// address list of the server's TCP fallback listeners.
pub struct SocketClient {
    socket: UdpSocket,
    udp_addrs: Vec<SocketAddr>,
    tcp_addrs: Vec<SocketAddr>,
    buf: Box<[u8; MAX_DATAGRAM]>,
    /// The receive timeout the socket currently carries, so an exchange
    /// pays the `setsockopt` only when its timeout differs from the last.
    read_timeout: Option<Duration>,
}

impl SocketClient {
    /// Binds an ephemeral loopback client socket. `udp_addrs` is the
    /// shard address list from
    /// [`crate::ReuseportUdpTransport::bind_shards`]; `tcp_addrs` may be
    /// empty, in which case `exchange_stream` reports `Unsupported`.
    pub fn connect(
        udp_addrs: Vec<SocketAddr>,
        tcp_addrs: Vec<SocketAddr>,
    ) -> io::Result<SocketClient> {
        assert!(!udp_addrs.is_empty(), "need at least one shard address");
        let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
        Ok(SocketClient {
            socket,
            udp_addrs,
            tcp_addrs,
            buf: Box::new([0; MAX_DATAGRAM]),
            read_timeout: None,
        })
    }
}

impl ClientTransport for SocketClient {
    fn exchange(
        &mut self,
        shard: usize,
        _server_ip: Ipv4Addr,
        _resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let dest = self.udp_addrs[shard % self.udp_addrs.len()];
        self.socket.send_to(payload, dest)?;
        if self.read_timeout != Some(timeout) {
            self.socket.set_read_timeout(Some(timeout))?;
            self.read_timeout = Some(timeout);
        }
        loop {
            let (n, from) = self.socket.recv_from(&mut self.buf[..]).map_err(|e| {
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) {
                    io::Error::new(io::ErrorKind::TimedOut, "no response")
                } else {
                    e
                }
            })?;
            // A straggler from an earlier timed-out exchange may arrive
            // from another address; only accept the queried peer. With
            // SO_REUSEPORT every shard shares one address, so this only
            // filters cross-server noise.
            if from == dest {
                return Ok(self.buf[..n].to_vec());
            }
        }
    }

    fn exchange_stream(
        &mut self,
        shard: usize,
        _server_ip: Ipv4Addr,
        _resolver_ip: Ipv4Addr,
        payload: &[u8],
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        if self.tcp_addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "no TCP fallback address configured",
            ));
        }
        let dest = self.tcp_addrs[shard % self.tcp_addrs.len()];
        // One connection per exchange, like a resolver retrying a single
        // truncated answer (RFC 1035 §4.2.2 framing).
        let mut stream = TcpStream::connect_timeout(&dest, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let _ = stream.set_nodelay(true);
        let len = payload.len().min(u16::MAX as usize);
        stream.write_all(&(len as u16).to_be_bytes())?;
        stream.write_all(&payload[..len])?;
        let mut lenb = [0u8; 2];
        stream.read_exact(&mut lenb)?;
        let need = u16::from_be_bytes(lenb) as usize;
        let mut resp = vec![0u8; need];
        stream.read_exact(&mut resp)?;
        Ok(resp)
    }

    fn num_shards(&self) -> usize {
        self.udp_addrs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// How long one exchange against `peer` waits before timing out.
    fn silent_wait(client: &mut SocketClient, timeout: Duration) -> Duration {
        let start = Instant::now();
        let err = client
            .exchange(
                0,
                Ipv4Addr::LOCALHOST,
                Ipv4Addr::LOCALHOST,
                b"ping",
                timeout,
            )
            .expect_err("a silent peer never answers");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        start.elapsed()
    }

    #[test]
    fn changed_timeout_takes_effect_against_a_silent_peer() {
        // Bound, never read, never answered.
        let peer = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut client =
            SocketClient::connect(vec![peer.local_addr().unwrap()], Vec::new()).unwrap();
        let long = Duration::from_millis(400);
        let short = Duration::from_millis(20);
        assert!(silent_wait(&mut client, long) >= long);
        // Shorter than the one the socket carries: must be re-issued.
        assert!(silent_wait(&mut client, short) < long / 2);
        // Unchanged: the remembered value still applies.
        assert!(silent_wait(&mut client, short) < long / 2);
        // And longer again.
        assert!(silent_wait(&mut client, long) >= long);
    }
}
