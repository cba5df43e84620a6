//! `eum-ldns` — the recursive resolver, and a fleet of them closing the
//! client→LDNS→authoritative loop.
//!
//! One resolver implementation serves both ends of the reproduction:
//! `eum-sim`'s roll-out scenario drives one [`Ldns`] per LDNS over its
//! modelled network on a virtual clock (the paper's figures), and the
//! fleet here drives the same [`Ldns`] against a live `eum-authd` over
//! the pluggable transports the load generator uses (measured
//! amplification).
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
//!   bounded upstream retries with timeouts, the iterative walk
//!   (referrals, CNAME restarts, negative answers).
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
