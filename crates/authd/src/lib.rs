//! eum-authd: a concurrent authoritative DNS serving subsystem.
//!
//! This crate puts the repo's mapping system behind a real serving loop,
//! the shape §3 of the paper describes for Akamai's authoritative
//! infrastructure: sharded worker threads answering RFC 1035 wire-format
//! queries, a read-mostly snapshot layer so the control plane can publish
//! new map generations without stalling answers, an ECS-scope-aware
//! answer cache honoring RFC 7871 §7.3.1 reuse rules, and a closed-loop
//! load generator that replays the netmodel's resolver/client population.
//!
//! Layers, bottom up:
//!
//! - [`transport`] — the transport traits the shard loop is written
//!   against, plus the in-process channel pair for deterministic
//!   tests/benches. Kernel sockets (UDP and the TCP fallback) live in
//!   eum-net, which implements the same traits.
//! - [`snapshot`] — atomically swappable `Arc<MappingSystem>` with
//!   generation numbers.
//! - [`cache`] — bounded per-shard answer cache keyed by
//!   `(qname, qtype, ECS scope block)` with `/y ≤ /x` narrowing.
//! - [`server`] — the sharded worker-pool loop tying the above
//!   together: one batched shard loop for every transport.
//! - [`loadgen`] — multi-threaded closed-loop clients with latency
//!   percentiles and verification of every response.
//! - [`telemetry`] — observability wiring: per-shard counters and stage
//!   histograms in a shared `eum_telemetry::Registry`, plus sampled
//!   per-query traces, with zero locks added to the serve path.

#![forbid(unsafe_code)]

/// Atomics import surface for this crate's audited lock-free files
/// (`epoch.rs`): the eum-mcheck virtual-atomics facade — a verbatim
/// `std::sync` re-export in production builds, the modeled checker
/// primitives under `--cfg eum_mcheck`. Model tests re-bind the same
/// source file against `eum_mcheck::modeled` by `#[path]`-including it
/// next to a local `msync` alias (see `tests/snapshot_stress.rs`).
pub(crate) mod msync {
    pub use eum_mcheck::sync::atomic::{AtomicU64, Ordering};
    pub use eum_mcheck::sync::Mutex;
}

pub mod admission;
pub mod cache;
pub mod epoch;
pub mod loadgen;
pub mod server;
pub mod snapshot;
pub mod telemetry;
pub mod transport;
mod truncate;

pub use admission::{AdmissionConfig, TokenBucket};
pub use cache::{AnswerCache, AnswerCacheStats, CacheConfig, CachedAnswer};
pub use epoch::{EpochCell, EpochReader};
pub use loadgen::{LoadGenConfig, LoadReport};
pub use server::{
    AuthServer, QueryStages, ReplyCap, ScratchBuffers, ServeOutcome, ServerConfig, ShardCounters,
    ShardReport, ShardState,
};
pub use snapshot::{Snapshot, SnapshotHandle, SnapshotReader};
pub use telemetry::TelemetryConfig;
pub use transport::{
    channel_transports, BatchDatagram, BatchServerTransport, ChannelClient, ChannelConnector,
    ChannelTransport, ClientTransport, Datagram, FaultConfig, FaultInjector, ServerTransport,
    MAX_DATAGRAM,
};
