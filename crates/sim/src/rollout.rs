//! The end-user-mapping roll-out scenario (§4) and its report.
//!
//! Recreates the paper's measurement window: simulated days 0–180 map to
//! January 1 – June 30, 2014; ECS turns on for the ECS-capable public
//! resolver providers between day 86 (March 28) and day 104 (April 15) on
//! a linear ramp. The report holds everything the §4 and §5 figures read:
//! the RUM stream, daily authoritative query counts, the NetSession pair
//! dataset, and per-(domain, LDNS) query counts in matched windows before
//! and after the roll-out.

use crate::netsession::PairDataset;
use crate::network::QueryCounters;
use crate::rum::{Metric, RumCollector};
use crate::workload::WorkloadConfig;
use eum_geo::Country;
use eum_telemetry::Registry;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// Roll-out timeline and workload parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RolloutConfig {
    /// Total simulated days (paper window: 181 = Jan 1 – Jun 30).
    pub days: u32,
    /// First day of the ECS ramp (paper: day 86 = March 28).
    pub start_day: u32,
    /// Day the ramp completes (paper: day 104 = April 15).
    pub end_day: u32,
    /// ECS source prefix public resolvers send (paper: /24).
    pub ecs_source_prefix: u8,
    /// Workload parameters.
    #[serde(skip)]
    pub workload: WorkloadConfig,
    /// Length of the before/after comparison windows, days.
    pub window_days: u32,
    /// The §8 extension scenario: from this day on, *every* resolver —
    /// ISP and enterprise included — forwards ECS, modeling the broad
    /// adoption the paper argues for ("more ISPs would need to support
    /// the EDNS0 extension"). `None` replays the paper's actual roll-out.
    pub isp_ecs_day: Option<u32>,
}

impl RolloutConfig {
    /// The paper's timeline.
    pub fn paper() -> RolloutConfig {
        RolloutConfig {
            days: 181,
            start_day: 86,
            end_day: 104,
            ecs_source_prefix: 24,
            workload: WorkloadConfig::default(),
            window_days: 30,
            isp_ecs_day: None,
        }
    }

    /// A short timeline for tests.
    pub fn quick() -> RolloutConfig {
        RolloutConfig {
            days: 40,
            start_day: 16,
            end_day: 22,
            ecs_source_prefix: 24,
            workload: WorkloadConfig {
                views_per_day: 1_200.0,
                ..WorkloadConfig::default()
            },
            window_days: 12,
            isp_ecs_day: None,
        }
    }

    /// Fraction of eligible public resolvers with ECS enabled on `day`.
    pub fn ramp_fraction(&self, day: u32) -> f64 {
        if day < self.start_day {
            0.0
        } else if day >= self.end_day {
            1.0
        } else {
            (day - self.start_day) as f64 / (self.end_day - self.start_day) as f64
        }
    }

    /// The before-roll-out comparison window `[from, to)`.
    pub fn pre_window(&self) -> (u32, u32) {
        (
            self.start_day.saturating_sub(self.window_days),
            self.start_day,
        )
    }

    /// The after-roll-out comparison window `[from, to)`.
    pub fn post_window(&self) -> (u32, u32) {
        (
            self.end_day,
            (self.end_day + self.window_days).min(self.days),
        )
    }
}

/// One Figure-24 bucket: (domain, LDNS) pairs grouped by pre-roll-out
/// popularity in queries per TTL.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AmplificationBucket {
    /// Bucket upper edge in queries per TTL (buckets of width 0.1).
    pub popularity: f64,
    /// Geometric-mean factor increase in query rate post-roll-out.
    pub factor: f64,
    /// Pairs in the bucket.
    pub pairs: usize,
    /// Share of total pre-roll-out queries contributed by this bucket.
    pub pre_query_share: f64,
}

/// Measured-vs-analytic DNS amplification from the live resolver fleet.
///
/// After the roll-out timeline completes, the scenario replays one
/// seeded demand-weighted query plan through a real `eum-ldns`
/// [`ResolverFleet`](eum_ldns::ResolverFleet) against a live `eum-authd`
/// serving the final map — once with every resolver's ECS off, once with
/// the post-roll-out policy (ECS-capable public sites on). The upstream
/// query counts are *measured*; the `analytic_*` fields are the
/// cache-key set-counting estimate (delegations + distinct answer-cache
/// keys) the analytic simulator reasons with. The two must agree — the
/// `rollout_behaviour` integration test pins them within 25%.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetMeasurement {
    /// Resolver sites in the fleet.
    pub resolvers: usize,
    /// Downstream queries replayed in each run.
    pub downstream_queries: u64,
    /// Measured upstream queries with ECS off everywhere.
    pub upstream_ecs_off: u64,
    /// Measured upstream queries with the post-roll-out ECS policy.
    pub upstream_ecs_on: u64,
    /// Analytic estimate for the ECS-off run.
    pub analytic_ecs_off: u64,
    /// Analytic estimate for the ECS-on run.
    pub analytic_ecs_on: u64,
}

impl FleetMeasurement {
    /// An empty measurement (used when the fleet replay is skipped).
    pub fn empty() -> FleetMeasurement {
        FleetMeasurement {
            resolvers: 0,
            downstream_queries: 0,
            upstream_ecs_off: 0,
            upstream_ecs_on: 0,
            analytic_ecs_off: 0,
            analytic_ecs_on: 0,
        }
    }

    fn ratio(num: u64, den: u64) -> f64 {
        if den == 0 {
            return 0.0;
        }
        num as f64 / den as f64
    }

    /// Measured amplification (upstream per downstream), ECS off.
    pub fn measured_amplification_off(&self) -> f64 {
        Self::ratio(self.upstream_ecs_off, self.downstream_queries)
    }

    /// Measured amplification (upstream per downstream), ECS on.
    pub fn measured_amplification_on(&self) -> f64 {
        Self::ratio(self.upstream_ecs_on, self.downstream_queries)
    }

    /// Analytic amplification estimate, ECS off.
    pub fn analytic_amplification_off(&self) -> f64 {
        Self::ratio(self.analytic_ecs_off, self.downstream_queries)
    }

    /// Analytic amplification estimate, ECS on.
    pub fn analytic_amplification_on(&self) -> f64 {
        Self::ratio(self.analytic_ecs_on, self.downstream_queries)
    }

    /// Measured ECS scaling factor: upstream queries with the roll-out's
    /// policy over the ECS-off baseline (the paper's §6.3 concern).
    pub fn measured_scaling(&self) -> f64 {
        Self::ratio(self.upstream_ecs_on, self.upstream_ecs_off)
    }

    /// Analytic ECS scaling estimate.
    pub fn analytic_scaling(&self) -> f64 {
        Self::ratio(self.analytic_ecs_on, self.analytic_ecs_off)
    }
}

/// One window of the fleet flip replay — **deltas** over the window,
/// not cumulative totals, so each window stands alone on a plot.
#[derive(Debug, Clone, Copy)]
pub struct FleetWindowStats {
    /// Window index (0-based).
    pub window: u32,
    /// Downstream queries the fleet served this window.
    pub queries: u64,
    /// Downstream queries answered from resolver caches this window.
    pub cache_hits: u64,
    /// Queries sent upstream (toward the authoritative) this window.
    pub upstream: u64,
    /// Truncated answers retried over TCP this window (fleet side).
    pub tcp_retries: u64,
    /// Replies the live authoritative truncated this window (TC=1).
    pub truncations: u64,
}

impl FleetWindowStats {
    /// Downstream cache-hit ratio inside the window.
    pub fn hit_ratio(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.queries as f64
    }

    /// Query amplification (upstream per downstream) inside the window.
    pub fn amplification(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.upstream as f64 / self.queries as f64
    }
}

/// Per-window series from the fleet flip replay: the fleet runs a warm
/// steady state, the ECS policy flips mid-run for the eligible public
/// resolvers (the config deploy flushes their caches, as a production
/// restart does), and the windows after the flip show the cache-hit-rate
/// dip and recovery — the figure a rollout operator watches live.
#[derive(Debug, Clone, Default)]
pub struct FleetTimeline {
    /// Window series in time order.
    pub windows: Vec<FleetWindowStats>,
    /// Index of the first window run with the flipped policy (`None`:
    /// no flip — the timeline replay was skipped).
    pub flip_window: Option<u32>,
}

impl FleetTimeline {
    /// An empty timeline (used when the fleet replay is skipped).
    pub fn empty() -> FleetTimeline {
        FleetTimeline::default()
    }

    /// Hit ratio of window `w`, if it exists.
    pub fn hit_ratio_at(&self, w: u32) -> Option<f64> {
        self.windows
            .iter()
            .find(|s| s.window == w)
            .map(|s| s.hit_ratio())
    }

    /// Hit ratio of the last warm window before the flip.
    pub fn pre_flip_hit_ratio(&self) -> f64 {
        self.flip_window
            .and_then(|f| f.checked_sub(1))
            .and_then(|w| self.hit_ratio_at(w))
            .unwrap_or(0.0)
    }

    /// Hit ratio of the flip window itself (the dip).
    pub fn flip_hit_ratio(&self) -> f64 {
        self.flip_window
            .and_then(|w| self.hit_ratio_at(w))
            .unwrap_or(0.0)
    }

    /// Hit ratio of the final window (the recovery).
    pub fn final_hit_ratio(&self) -> f64 {
        self.windows.last().map(|s| s.hit_ratio()).unwrap_or(0.0)
    }

    /// One JSON object per window, one line each — the figure-grade
    /// series `public_resolver_rollout` writes under `results/`.
    /// Hand-rendered: every value is a number or boolean, so the offline
    /// serde stub is not needed and the output stays exact.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.windows {
            out.push_str(&format!(
                concat!(
                    "{{\"window\": {}, \"flip\": {}, \"queries\": {}, ",
                    "\"cache_hits\": {}, \"hit_ratio\": {:.6}, ",
                    "\"upstream\": {}, \"amplification\": {:.6}, ",
                    "\"tcp_retries\": {}, \"truncations\": {}}}\n"
                ),
                s.window,
                self.flip_window == Some(s.window),
                s.queries,
                s.cache_hits,
                s.hit_ratio(),
                s.upstream,
                s.amplification(),
                s.tcp_retries,
                s.truncations,
            ));
        }
        out
    }
}

/// Everything the §4/§5 analyses read.
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// The roll-out configuration that produced this report.
    pub cfg: RolloutConfig,
    /// Client-side measurements.
    pub rum: RumCollector,
    /// Authoritative-side daily query counts.
    pub counters: QueryCounters,
    /// The NetSession client–LDNS dataset.
    pub netsession: PairDataset,
    /// High-expectation countries (§4.1.1).
    pub high_expectation: BTreeSet<Country>,
    /// Per-(domain, LDNS IP) A-query counts inside the pre window.
    pub pair_pre: HashMap<(u32, Ipv4Addr), u64>,
    /// Per-(domain, LDNS IP) A-query counts inside the post window.
    pub pair_post: HashMap<(u32, Ipv4Addr), u64>,
    /// LDNS IPs that are public resolver sites.
    pub public_ldns_ips: BTreeSet<Ipv4Addr>,
    /// Authoritative A-record TTL per catalog domain, seconds.
    pub domain_ttls: Vec<u32>,
    /// Views that failed (no live server / resolution failure).
    pub failed_views: u64,
    /// NS (per-LDNS) mapping units in the final map.
    pub ns_unit_count: usize,
    /// End-user mapping units in the final map (0 until the roll-out
    /// builds them).
    pub eu_unit_count: usize,
    /// Measured-vs-analytic amplification from the live resolver fleet.
    pub fleet: FleetMeasurement,
    /// Per-window series from the fleet flip replay (dip and recovery).
    pub timeline: FleetTimeline,
}

impl RolloutReport {
    /// Mean of a RUM metric over the pre and post windows for one
    /// expectation group — the headline before/after numbers of §4.3.
    ///
    /// Like the paper, only "qualified clients" are counted: loads that
    /// went through a public resolver the roll-out reached — an
    /// ECS-capable provider (§4.2: "we identified such clients using our
    /// client-LDNS pairing data and extracted RUM data from only those
    /// qualified clients"; the roll-out targeted Google Public DNS and
    /// OpenDNS, both ECS-capable).
    pub fn before_after(&self, metric: Metric, high_expectation: bool) -> (f64, f64) {
        let series = self.rum.daily_series(metric, |r| {
            r.ecs_capable_resolver && r.high_expectation == high_expectation
        });
        let (pre_from, pre_to) = self.cfg.pre_window();
        let (post_from, post_to) = self.cfg.post_window();
        (
            series
                .window_mean(pre_from, pre_to.saturating_sub(1))
                .unwrap_or(f64::NAN),
            series
                .window_mean(post_from, post_to.saturating_sub(1))
                .unwrap_or(f64::NAN),
        )
    }

    /// Mean daily mapping-DNS queries (total, from public resolvers) in
    /// the pre and post windows — Figure 23's step.
    pub fn query_rate_change(&self) -> ((f64, f64), (f64, f64)) {
        let (pre_from, pre_to) = self.cfg.pre_window();
        let (post_from, post_to) = self.cfg.post_window();
        let pre = self
            .counters
            .window_means(pre_from, pre_to.saturating_sub(1));
        let post = self
            .counters
            .window_means(post_from, post_to.saturating_sub(1));
        ((pre.0, pre.1), (post.0, post.1))
    }

    /// Figure 24: buckets (domain, LDNS) pairs by pre-roll-out popularity
    /// (queries per TTL) and reports the factor increase in query rate.
    /// Only pairs whose LDNS is a public resolver are affected by the
    /// roll-out, so only those are bucketed.
    pub fn amplification_buckets(&self) -> Vec<AmplificationBucket> {
        let pre_days = {
            let (f, t) = self.cfg.pre_window();
            (t - f) as f64
        };
        let post_days = {
            let (f, t) = self.cfg.post_window();
            (t - f) as f64
        };
        if pre_days <= 0.0 || post_days <= 0.0 {
            return Vec::new();
        }
        let total_pre: f64 = self
            .pair_pre
            .iter()
            .filter(|((_, ip), _)| self.public_ldns_ips.contains(ip))
            .map(|(_, c)| *c as f64)
            .sum();
        // Buckets of 0.1 queries/TTL; popularity is capped at 1 (an LDNS
        // cannot usefully exceed one query per TTL before the roll-out).
        let mut logsum = [0.0f64; 10];
        let mut counts = [0usize; 10];
        let mut pre_share = [0.0f64; 10];
        for ((domain, ip), pre) in &self.pair_pre {
            if !self.public_ldns_ips.contains(ip) || *pre == 0 {
                continue;
            }
            let ttl = self.domain_ttls[*domain as usize] as f64;
            let ttl_slots = pre_days * 86_400.0 / ttl;
            let popularity = (*pre as f64 / ttl_slots).min(1.0);
            let post = self.pair_post.get(&(*domain, *ip)).copied().unwrap_or(0);
            if post == 0 {
                continue;
            }
            let pre_rate = *pre as f64 / pre_days;
            let post_rate = post as f64 / post_days;
            let factor = post_rate / pre_rate;
            let bucket = ((popularity * 10.0).ceil() as usize).clamp(1, 10) - 1;
            logsum[bucket] += factor.ln();
            counts[bucket] += 1;
            pre_share[bucket] += *pre as f64;
        }
        (0..10)
            .filter(|b| counts[*b] > 0)
            .map(|b| AmplificationBucket {
                popularity: (b as f64 + 1.0) / 10.0,
                factor: (logsum[b] / counts[b] as f64).exp(),
                pairs: counts[b],
                pre_query_share: if total_pre > 0.0 {
                    pre_share[b] / total_pre
                } else {
                    0.0
                },
            })
            .collect()
    }

    /// Exports the report's headline numbers into a telemetry registry —
    /// the same instrument set the serving path uses, so one scrape of a
    /// long run shows the §4 story: the public-resolver query-rate step
    /// and its amplification factor (Figures 23/24) plus the mapping-unit
    /// growth the end-user tables bring (§5.1).
    pub fn record_metrics(&self, registry: &Registry) {
        let ((qt_pre, qp_pre), (qt_post, qp_post)) = self.query_rate_change();
        let rate = |window: &str, source: &str, v: f64| {
            registry
                .gauge(
                    "eum_sim_rollout_queries_per_day",
                    "Mean daily mapping-DNS queries in the matched windows",
                    &[("window", window), ("source", source)],
                )
                .set(v);
        };
        rate("pre", "total", qt_pre);
        rate("pre", "public", qp_pre);
        rate("post", "total", qt_post);
        rate("post", "public", qp_post);
        registry
            .gauge(
                "eum_sim_rollout_query_amplification",
                "Public-resolver query-rate factor, post window over pre",
                &[],
            )
            .set(if qp_pre > 0.0 { qp_post / qp_pre } else { 0.0 });
        for (kind, n) in [("ns", self.ns_unit_count), ("eu", self.eu_unit_count)] {
            registry
                .gauge(
                    "eum_sim_rollout_mapping_units",
                    "Mapping units in the final map, by kind",
                    &[("kind", kind)],
                )
                .set(n as f64);
        }
        for (mode, off, on) in [
            (
                "measured",
                self.fleet.measured_amplification_off(),
                self.fleet.measured_amplification_on(),
            ),
            (
                "analytic",
                self.fleet.analytic_amplification_off(),
                self.fleet.analytic_amplification_on(),
            ),
        ] {
            for (ecs, v) in [("off", off), ("on", on)] {
                registry
                    .gauge(
                        "eum_sim_rollout_fleet_amplification",
                        "Resolver-fleet upstream queries per downstream query",
                        &[("mode", mode), ("ecs", ecs)],
                    )
                    .set(v);
            }
        }
        for (mode, v) in [
            ("measured", self.fleet.measured_scaling()),
            ("analytic", self.fleet.analytic_scaling()),
        ] {
            registry
                .gauge(
                    "eum_sim_rollout_fleet_scaling",
                    "Resolver-fleet ECS query-scaling factor, ECS-on over ECS-off",
                    &[("mode", mode)],
                )
                .set(v);
        }
        registry
            .counter(
                "eum_sim_rollout_rum_samples_total",
                "RUM samples collected across recorded roll-outs",
                &[],
            )
            .add(self.rum.len() as u64);
        registry
            .counter(
                "eum_sim_rollout_failed_views_total",
                "Page views that failed (no live server / resolution failure)",
                &[],
            )
            .add(self.failed_views);
    }

    /// The headline numbers as a machine-readable JSON object (what
    /// `reproduce_all` writes to `results/summary.json`).
    pub fn summary_json(&self) -> String {
        fn pair((a, b): (f64, f64)) -> String {
            format!("[{a}, {b}]")
        }
        let ((qt_pre, qp_pre), (qt_post, qp_post)) = self.query_rate_change();
        let countries = self
            .high_expectation
            .iter()
            .map(|c| format!("\"{}\"", c.code()))
            .collect::<Vec<_>>()
            .join(", ");
        // Hand-rendered (the offline serde stub cannot serialize); every
        // value is a number, string literal, or pair, so this stays exact.
        format!(
            concat!(
                "{{\n",
                "  \"rum_samples\": {},\n",
                "  \"days\": {},\n",
                "  \"failed_views\": {},\n",
                "  \"high_expectation_countries\": [{}],\n",
                "  \"mapping_distance_high_before_after\": {},\n",
                "  \"rtt_high_before_after\": {},\n",
                "  \"ttfb_high_before_after\": {},\n",
                "  \"download_high_before_after\": {},\n",
                "  \"queries_total_before_after\": {},\n",
                "  \"queries_public_before_after\": {},\n",
                "  \"fleet_amplification_measured\": {},\n",
                "  \"fleet_amplification_analytic\": {},\n",
                "  \"fleet_scaling_measured\": {},\n",
                "  \"fleet_scaling_analytic\": {},\n",
                "  \"timeline_hit_ratio_pre_dip_final\": [{:.6}, {:.6}, {:.6}]\n",
                "}}"
            ),
            self.rum.len(),
            self.cfg.days,
            self.failed_views,
            countries,
            pair(self.before_after(Metric::MappingDistance, true)),
            pair(self.before_after(Metric::Rtt, true)),
            pair(self.before_after(Metric::Ttfb, true)),
            pair(self.before_after(Metric::Download, true)),
            pair((qt_pre, qt_post)),
            pair((qp_pre, qp_post)),
            pair((
                self.fleet.measured_amplification_off(),
                self.fleet.measured_amplification_on(),
            )),
            pair((
                self.fleet.analytic_amplification_off(),
                self.fleet.analytic_amplification_on(),
            )),
            self.fleet.measured_scaling(),
            self.fleet.analytic_scaling(),
            self.timeline.pre_flip_hit_ratio(),
            self.timeline.flip_hit_ratio(),
            self.timeline.final_hit_ratio(),
        )
    }

    /// A human-readable digest of the run.
    pub fn summary(&self) -> String {
        let (dist_pre, dist_post) = self.before_after(Metric::MappingDistance, true);
        let (rtt_pre, rtt_post) = self.before_after(Metric::Rtt, true);
        let (ttfb_pre, ttfb_post) = self.before_after(Metric::Ttfb, true);
        let (dl_pre, dl_post) = self.before_after(Metric::Download, true);
        let ((q_pre, qp_pre), (q_post, qp_post)) = self.query_rate_change();
        let mut s = String::new();
        s.push_str(&format!(
            "roll-out report: {} RUM samples over {} days ({} failed views)\n",
            self.rum.len(),
            self.cfg.days,
            self.failed_views
        ));
        s.push_str(&format!(
            "high-expectation countries ({}): {}\n",
            self.high_expectation.len(),
            self.high_expectation
                .iter()
                .map(|c| c.code())
                .collect::<Vec<_>>()
                .join(" ")
        ));
        s.push_str(&format!(
            "mapping distance (high): {dist_pre:.0} -> {dist_post:.0} miles ({:.1}x)\n",
            dist_pre / dist_post.max(1e-9)
        ));
        s.push_str(&format!(
            "RTT (high): {rtt_pre:.0} -> {rtt_post:.0} ms ({:.1}x)\n",
            rtt_pre / rtt_post.max(1e-9)
        ));
        s.push_str(&format!(
            "TTFB (high): {ttfb_pre:.0} -> {ttfb_post:.0} ms ({:.0}% better)\n",
            100.0 * (ttfb_pre - ttfb_post) / ttfb_pre.max(1e-9)
        ));
        s.push_str(&format!(
            "download (high): {dl_pre:.0} -> {dl_post:.0} ms ({:.1}x)\n",
            dl_pre / dl_post.max(1e-9)
        ));
        s.push_str(&format!(
            "mapping DNS queries/day: total {q_pre:.0} -> {q_post:.0}, public {qp_pre:.0} -> {qp_post:.0} ({:.1}x)\n",
            qp_post / qp_pre.max(1e-9)
        ));
        let f = &self.fleet;
        if f.downstream_queries > 0 {
            s.push_str(&format!(
                "LDNS fleet ({} resolvers, {} queries): amplification \
                 measured {:.3} -> {:.3} ({:.2}x), analytic {:.3} -> {:.3} ({:.2}x)\n",
                f.resolvers,
                f.downstream_queries,
                f.measured_amplification_off(),
                f.measured_amplification_on(),
                f.measured_scaling(),
                f.analytic_amplification_off(),
                f.analytic_amplification_on(),
                f.analytic_scaling(),
            ));
        }
        let t = &self.timeline;
        if let Some(flip) = t.flip_window {
            s.push_str(&format!(
                "flip timeline ({} windows, flip at {flip}): hit rate {:.2} -> {:.2} (dip) -> {:.2} (recovered)\n",
                t.windows.len(),
                t.pre_flip_hit_ratio(),
                t.flip_hit_ratio(),
                t.final_hit_ratio(),
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_is_zero_one_and_monotone() {
        let cfg = RolloutConfig::paper();
        assert_eq!(cfg.ramp_fraction(0), 0.0);
        assert_eq!(cfg.ramp_fraction(85), 0.0);
        assert_eq!(cfg.ramp_fraction(104), 1.0);
        assert_eq!(cfg.ramp_fraction(180), 1.0);
        let mut prev = 0.0;
        for d in 80..110 {
            let f = cfg.ramp_fraction(d);
            assert!(f >= prev);
            prev = f;
        }
    }

    #[test]
    fn windows_do_not_overlap_the_ramp() {
        let cfg = RolloutConfig::paper();
        let (pre_from, pre_to) = cfg.pre_window();
        let (post_from, post_to) = cfg.post_window();
        assert!(pre_to <= cfg.start_day);
        assert!(post_from >= cfg.end_day);
        assert!(pre_from < pre_to);
        assert!(post_from < post_to);
        assert!(post_to <= cfg.days);
    }

    #[test]
    fn paper_timeline_matches_calendar() {
        // March 28 is day 86 (0-based: 31 Jan + 28 Feb + 27) and April 15
        // is day 104 (31 + 28 + 31 + 14) in 2014.
        let cfg = RolloutConfig::paper();
        assert_eq!(cfg.start_day, 31 + 28 + 27);
        assert_eq!(cfg.end_day, 31 + 28 + 31 + 14);
        assert_eq!(cfg.days, 181);
    }
}
