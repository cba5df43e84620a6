//! eum-net: the kernel-batched socket transport for the authoritative
//! serving stack — the workspace's only socket code.
//!
//! `eum_authd::transport` defines the traits the shard loop is written
//! against and an in-process channel substrate; everything that touches
//! a kernel socket lives here, shaped by how the paper's authoritative
//! infrastructure actually meets its load (§3, §5.3: answering the full
//! resolver population within tight latency budgets):
//!
//! * [`udp::ReuseportUdpTransport`] — all shards share **one** UDP port
//!   via `SO_REUSEPORT`; the kernel hashes each resolver's 4-tuple to a
//!   shard, and each shard moves datagrams in `recvmmsg`/`sendmmsg`
//!   batches with zero warm-path allocations, optionally pinned to a
//!   core. Plugs into [`eum_authd::AuthServer::spawn_batched`].
//! * [`tcp::TcpServerTransport`] — the DNS-over-TCP fallback (RFC 1035
//!   §4.2.2): answers the server had to truncate (TC=1) under the
//!   requester's UDP payload limit complete over a length-prefixed
//!   stream. Plugs into [`eum_authd::AuthServer::spawn`], which runs it
//!   through the same shard loop as batches of one.
//! * [`client::SocketClient`] — the matching
//!   [`eum_authd::ClientTransport`]: UDP exchange plus the TCP retry
//!   leg, so the load generator and the eum-ldns fleet drive real
//!   sockets unchanged.
//! * [`http::ScrapeServer`] — a minimal HTTP/1.0 scrape endpoint
//!   exposing `GET /metrics` (Prometheus text), `/timeseries.jsonl`
//!   (the windowed time-series ring) and `/healthz` while a socket
//!   server runs — live observability over the same loopback stack.
//! * [`sys`] (Linux only) — the crate's entire `unsafe` surface: safe
//!   wrappers over a minimal vendored `libc` stub
//!   (`socket`/`setsockopt`/`bind`, `recvmmsg`/`sendmmsg`,
//!   `sched_setaffinity`), each call site carrying a SAFETY comment and
//!   the whole crate pinned by the eum-lint unsafe budget.
//!
//! On non-Linux targets (and under
//! [`udp::BatchConfig::force_portable`]) everything degrades to portable
//! std socket calls with the same interfaces.

pub mod client;
pub mod http;
#[cfg(target_os = "linux")]
pub mod sys;
pub mod tcp;
pub mod udp;

pub use client::SocketClient;
pub use http::ScrapeServer;
pub use tcp::TcpServerTransport;
pub use udp::{BatchConfig, ReuseportUdpTransport};
