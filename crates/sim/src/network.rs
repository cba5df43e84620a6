//! The simulated authoritative-DNS network.
//!
//! [`AuthNet`] is the transport ([`ClientTransport`]) the simulator's
//! resolvers exchange over: it carries wire-encoded queries from an LDNS
//! to the authoritative server at a given IP — the mapping system's
//! two-level name servers or a static authority (the root stand-in and
//! content providers' own DNS) — charges each exchange one LDNS↔server
//! RTT from the latency model, and meters per-day query counts at the
//! mapping system's servers (the data behind Figures 2 and 23).

use eum_authd::ClientTransport;
use eum_dns::{decode_message, encode_message, Message, QueryContext, Rcode};
use eum_dns::{Authority, StaticAuthority};
use eum_mapping::MappingSystem;
use eum_netmodel::{Endpoint, LatencyModel};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::Ipv4Addr;
use std::time::Duration;

/// Per-day query counters at the mapping system's name servers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryCounters {
    /// `(total, from public resolvers)` per day index.
    days: Vec<(u64, u64)>,
    /// Simulated client requests (page views) per day.
    views: Vec<u64>,
}

impl QueryCounters {
    /// Creates empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, day: u32) {
        if self.days.len() <= day as usize {
            self.days.resize(day as usize + 1, (0, 0));
        }
        if self.views.len() <= day as usize {
            self.views.resize(day as usize + 1, 0);
        }
    }

    /// Records one mapping-DNS query.
    pub fn add_query(&mut self, day: u32, from_public: bool) {
        self.ensure(day);
        self.days[day as usize].0 += 1;
        if from_public {
            self.days[day as usize].1 += 1;
        }
    }

    /// Records one client page view.
    pub fn add_view(&mut self, day: u32) {
        self.ensure(day);
        self.views[day as usize] += 1;
    }

    /// `(day, total queries, public queries, client views)` rows.
    pub fn rows(&self) -> Vec<(u32, u64, u64, u64)> {
        (0..self.days.len())
            .map(|d| {
                let (t, p) = self.days[d];
                (d as u32, t, p, self.views.get(d).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Mean daily totals over an inclusive day window:
    /// `(total, public, views)`.
    pub fn window_means(&self, from_day: u32, to_day: u32) -> (f64, f64, f64) {
        let rows: Vec<_> = self
            .rows()
            .into_iter()
            .filter(|(d, _, _, _)| *d >= from_day && *d <= to_day)
            .collect();
        if rows.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let n = rows.len() as f64;
        (
            rows.iter().map(|(_, t, _, _)| *t as f64).sum::<f64>() / n,
            rows.iter().map(|(_, _, p, _)| *p as f64).sum::<f64>() / n,
            rows.iter().map(|(_, _, _, v)| *v as f64).sum::<f64>() / n,
        )
    }
}

/// One LDNS's view of the authoritative network for the duration of a
/// resolution. Borrows the scenario's shared state.
pub struct AuthNet<'a> {
    /// The mapping system (handles its own server IPs).
    pub mapping: &'a mut MappingSystem,
    /// Static authorities by server IP (root + provider DNS).
    pub static_auths: &'a HashMap<Ipv4Addr, StaticAuthority>,
    /// Endpoint of every authoritative server IP.
    pub endpoints: &'a HashMap<Ipv4Addr, Endpoint>,
    /// The latency model.
    pub latency: &'a LatencyModel,
    /// The querying LDNS's endpoint.
    pub resolver_ep: Endpoint,
    /// Whether the querying LDNS is a public resolver (for metering).
    pub resolver_is_public: bool,
    /// Shared query counters.
    pub counters: &'a mut QueryCounters,
    /// Current day (for metering).
    pub day: u32,
    /// Virtual time the resolution started at, milliseconds.
    pub now_ms: u64,
    /// Modelled round-trip time of the exchanges carried so far,
    /// milliseconds — what the resolution cost the waiting client.
    pub elapsed_ms: f64,
}

impl ClientTransport for AuthNet<'_> {
    fn exchange(
        &mut self,
        _shard: usize,
        server: Ipv4Addr,
        _resolver_ip: Ipv4Addr,
        query: &[u8],
        _timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        let sent_ms = self.now_ms + self.elapsed_ms as u64;
        self.elapsed_ms += match self.endpoints.get(&server) {
            Some(sep) => self.latency.rtt_ms(&self.resolver_ep, sep),
            None => 100.0, // unroutable: timeout-ish flat cost
        };
        let msg =
            decode_message(query).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let ctx = QueryContext {
            resolver_ip: self.resolver_ep.ip,
            now_ms: sent_ms,
        };
        let resp = if self.mapping.is_mapping_server(server) {
            self.counters.add_query(self.day, self.resolver_is_public);
            self.mapping.handle(server, &msg, &ctx)
        } else {
            match self.static_auths.get(&server) {
                Some(auth) => auth.handle(&msg, &ctx),
                None => Message::response_to(&msg, Rcode::ServFail),
            }
        };
        Ok(encode_message(&resp))
    }

    fn num_shards(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_window() {
        let mut c = QueryCounters::new();
        c.add_query(0, true);
        c.add_query(0, false);
        c.add_query(2, true);
        c.add_view(0);
        c.add_view(2);
        c.add_view(2);
        let rows = c.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], (0, 2, 1, 1));
        assert_eq!(rows[1], (1, 0, 0, 0));
        assert_eq!(rows[2], (2, 1, 1, 2));
        let (t, p, v) = c.window_means(0, 2);
        assert!((t - 1.0).abs() < 1e-9);
        assert!((p - 2.0 / 3.0).abs() < 1e-9);
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_window_is_zero() {
        let c = QueryCounters::new();
        assert_eq!(c.window_means(5, 9), (0.0, 0.0, 0.0));
    }
}
