//! Fleet observability through `eum-telemetry`.
//!
//! The fleet's counters live as plain `u64`s inside each single-owner
//! [`crate::Ldns`] — the resolve path never touches an atomic. This
//! module bridges them into a shared [`Registry`] by delta, exactly like
//! `eum-authd` bridges its answer-cache stats: [`FleetMetrics::publish`]
//! takes the current [`FleetReport`], adds the change since the previous
//! publish to the exported counters, and refreshes the gauges. Metric
//! names keep the upstream/downstream split explicit (`downstream` =
//! client-facing resolutions, `upstream` = authoritative-facing
//! queries) so amplification is readable straight off a scrape.

use crate::fleet::FleetReport;
use eum_telemetry::{Counter, Gauge, Registry};
use std::sync::Arc;

/// Exported fleet-level instruments plus the last published report for
/// delta bridging.
pub struct FleetMetrics {
    downstream_queries: Arc<Counter>,
    downstream_cache_hits: Arc<Counter>,
    upstream_queries: Arc<Counter>,
    upstream_timeouts: Arc<Counter>,
    upstream_servfails: Arc<Counter>,
    upstream_tcp_retries: Arc<Counter>,
    failures: Arc<Counter>,
    negative_answers: Arc<Counter>,
    expirations: Arc<Counter>,
    hits_by_scope: Vec<Arc<Counter>>,
    cache_entries: Arc<Gauge>,
    cache_bytes: Arc<Gauge>,
    amplification: Arc<Gauge>,
    hit_ratio: Arc<Gauge>,
    prev: FleetReport,
}

impl FleetMetrics {
    /// Registers the fleet's instruments in `reg`.
    pub fn register(reg: &Registry) -> FleetMetrics {
        let hits_by_scope = (0u8..=32)
            .map(|s| {
                let v = s.to_string();
                reg.counter(
                    "eum_ldns_downstream_cache_hits_by_scope_total",
                    "Resolver-cache hits by the serving entry's ECS scope length (0: global)",
                    &[("scope", &v)],
                )
            })
            .collect();
        FleetMetrics {
            downstream_queries: reg.counter(
                "eum_ldns_downstream_queries_total",
                "Client-facing resolutions served by the fleet",
                &[],
            ),
            downstream_cache_hits: reg.counter(
                "eum_ldns_downstream_cache_hits_total",
                "Client-facing resolutions answered from resolver caches",
                &[],
            ),
            upstream_queries: reg.counter(
                "eum_ldns_upstream_queries_total",
                "Authoritative-facing queries sent, retries included",
                &[],
            ),
            upstream_timeouts: reg.counter(
                "eum_ldns_upstream_timeouts_total",
                "Authoritative-facing attempts that timed out",
                &[],
            ),
            upstream_servfails: reg.counter(
                "eum_ldns_upstream_servfails_total",
                "SERVFAIL responses received from the authoritative",
                &[],
            ),
            upstream_tcp_retries: reg.counter(
                "eum_ldns_upstream_tcp_retries_total",
                "Truncated (TC=1) answers retried over the TCP leg",
                &[],
            ),
            failures: reg.counter(
                "eum_ldns_failures_total",
                "Resolutions that ended in SERVFAIL toward the client",
                &[],
            ),
            negative_answers: reg.counter(
                "eum_ldns_negative_answers_total",
                "NXDOMAIN/NODATA answers served, cached or fresh",
                &[],
            ),
            expirations: reg.counter(
                "eum_ldns_cache_expirations_total",
                "Cache entries reaped by timer-wheel TTL expiry",
                &[],
            ),
            hits_by_scope,
            cache_entries: reg.gauge(
                "eum_ldns_cache_entries",
                "Live resolver-cache entries across the fleet",
                &[],
            ),
            cache_bytes: reg.gauge(
                "eum_ldns_cache_bytes",
                "Heap bytes of the resolver-cache tables across the fleet",
                &[],
            ),
            amplification: reg.gauge(
                "eum_ldns_amplification",
                "Measured upstream queries per downstream query",
                &[],
            ),
            hit_ratio: reg.gauge(
                "eum_ldns_downstream_hit_ratio",
                "Fraction of downstream queries served from cache",
                &[],
            ),
            prev: FleetReport {
                resolvers: 0,
                downstream_queries: 0,
                downstream_cache_hits: 0,
                upstream_queries: 0,
                upstream_timeouts: 0,
                upstream_servfails: 0,
                upstream_tcp_retries: 0,
                failures: 0,
                negative_answers: 0,
                expired_churn: 0,
                cache_entries: 0,
                cache_bytes: 0,
                hits_by_scope: [0; 33],
            },
        }
    }

    /// Publishes `report` (a cumulative fleet report): counters advance
    /// by the delta since the previous publish, gauges snap to the
    /// report's current values.
    pub fn publish(&mut self, report: &FleetReport) {
        let p = &self.prev;
        self.downstream_queries.add(
            report
                .downstream_queries
                .saturating_sub(p.downstream_queries),
        );
        self.downstream_cache_hits.add(
            report
                .downstream_cache_hits
                .saturating_sub(p.downstream_cache_hits),
        );
        self.upstream_queries
            .add(report.upstream_queries.saturating_sub(p.upstream_queries));
        self.upstream_timeouts
            .add(report.upstream_timeouts.saturating_sub(p.upstream_timeouts));
        self.upstream_servfails.add(
            report
                .upstream_servfails
                .saturating_sub(p.upstream_servfails),
        );
        self.upstream_tcp_retries.add(
            report
                .upstream_tcp_retries
                .saturating_sub(p.upstream_tcp_retries),
        );
        self.failures
            .add(report.failures.saturating_sub(p.failures));
        self.negative_answers
            .add(report.negative_answers.saturating_sub(p.negative_answers));
        self.expirations
            .add(report.expired_churn.saturating_sub(p.expired_churn));
        for (i, c) in self.hits_by_scope.iter().enumerate() {
            c.add(report.hits_by_scope[i].saturating_sub(p.hits_by_scope[i]));
        }
        self.cache_entries.set(report.cache_entries as f64);
        self.cache_bytes.set(report.cache_bytes as f64);
        self.amplification.set(report.amplification());
        self.hit_ratio.set(report.hit_ratio());
        self.prev = report.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(down: u64, hits: u64, up: u64) -> FleetReport {
        let mut r = FleetReport {
            resolvers: 4,
            downstream_queries: down,
            downstream_cache_hits: hits,
            upstream_queries: up,
            upstream_timeouts: 1,
            upstream_servfails: 2,
            upstream_tcp_retries: 0,
            failures: 0,
            negative_answers: 3,
            expired_churn: 5,
            cache_entries: 17,
            cache_bytes: 2_176,
            hits_by_scope: [0; 33],
        };
        r.hits_by_scope[0] = hits / 2;
        r.hits_by_scope[24] = hits - hits / 2;
        r
    }

    #[test]
    fn publish_bridges_cumulative_reports_by_delta() {
        let reg = Registry::new();
        let mut m = FleetMetrics::register(&reg);
        m.publish(&report(100, 40, 130));
        m.publish(&report(250, 90, 300));
        let text = reg.render_text();
        assert!(text.contains("eum_ldns_downstream_queries_total 250"));
        assert!(text.contains("eum_ldns_upstream_queries_total 300"));
        assert!(text.contains("eum_ldns_downstream_cache_hits_total 90"));
        // Gauges snap to the latest report, not a sum.
        assert!(text.contains("eum_ldns_cache_entries 17"));
        assert!(text.contains("eum_ldns_cache_bytes 2176"));
    }

    #[test]
    fn scope_split_is_labeled() {
        let reg = Registry::new();
        let mut m = FleetMetrics::register(&reg);
        m.publish(&report(10, 8, 4));
        let text = reg.render_text();
        assert!(text.contains(r#"eum_ldns_downstream_cache_hits_by_scope_total{scope="0"} 4"#));
        assert!(text.contains(r#"eum_ldns_downstream_cache_hits_by_scope_total{scope="24"} 4"#));
    }
}
