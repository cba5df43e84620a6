//! `eum-ldns` — a recursive-resolver fleet closing the
//! client→LDNS→authoritative loop.
//!
//! The analytic simulator (`eum-dns`'s `RecursiveResolver`, `eum-sim`'s
//! roll-out scenario) *estimates* what the world's LDNS population does
//! to the CDN's authoritative load. This crate *measures* it: real
//! resolver instances with real caches exchange RFC 1035 wire bytes with
//! a live `eum-authd` over the same pluggable transports the load
//! generator uses.
//!
//! The pieces:
//!
//! * [`TimerWheel`] — hierarchical TTL expiry (O(elapsed + expired), no
//!   full-cache scans).
//! * [`ResolverCache`] — the ECS-partitioned answer cache: entries keyed
//!   by qname + scope-truncated client prefix per RFC 7871 §7.3, with
//!   scope-0 entries global, longest-containing-scope reuse, negative
//!   (RFC 2308) and failure caching, FIFO capacity bound, and hit
//!   accounting split by scope length.
//! * [`Ldns`] — one resolver: per-resolver [`EcsPolicy`] (off /
//!   whitelist / always — the paper's staged public-resolver roll-out),
//!   bounded upstream retries with timeouts, the two-level
//!   delegation walk.
//! * [`ResolverFleet`] — one [`Ldns`] per `eum-netmodel` resolver site,
//!   replaying demand-weighted [`QueryPlan`]s across worker threads,
//!   reporting measured amplification and scope-split hit ratios.
//! * [`FleetMetrics`] — the fleet's counters bridged into an
//!   `eum-telemetry` [`Registry`](eum_telemetry::Registry).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod fleet;
pub mod resolver;
pub mod telemetry;
pub mod wheel;

pub use cache::{AnswerBody, CacheEntry, LdnsCacheConfig, LdnsCacheStats, ResolverCache};
pub use fleet::{FleetReport, PlannedQuery, QueryPlan, ResolverFleet, RunConfig};
pub use resolver::{EcsPolicy, Ldns, LdnsConfig, LdnsStats, Resolved};
pub use telemetry::FleetMetrics;
pub use wheel::TimerWheel;
