//! Instrumentation for the serving side of the mapping system.
//!
//! [`MappingTelemetry`] is attached to a [`crate::MappingSystem`] with
//! [`crate::MappingSystem::attach_telemetry`]. The lock-free
//! [`crate::MappingSystem::answer`] path then records, through `&self`
//! atomics only:
//!
//! * which answer path each query took (`eum_mapping_answers_total`,
//!   labeled by path — end-user, NS, top-level delegation, whoami, error);
//! * how deep into a unit's ranked candidate list health fallback had
//!   to walk (`eum_mapping_fallback_depth_total` — `primary` means the
//!   load balancer's assignment was healthy, `ranked` a lower-ranked
//!   healthy candidate, `overloaded` that every healthy candidate was
//!   filtered and a ranked-but-overloaded cluster answered, `any_live`
//!   that every candidate was down and the nearest live cluster
//!   answered);
//! * round-robin answer rotations (`eum_mapping_rr_rotations_total`);
//! * rebuild wall time (`eum_mapping_rebuild_ns{mode}`), and a full
//!   rebuild's split into `targets`, `matrix`, `score` and `solve` phases
//!   (`eum_mapping_rebuild_phase_ns{phase}`);
//! * rows the load balancer read past the stored ranks and had to
//!   recompute (`eum_mapping_rank_spills_total{class}`; `class="all"`
//!   when one scoring serves every class), and the heap bytes of the
//!   solver's ranking tables (`eum_mapping_solver_bytes`);
//! * per-mapping-unit query counts, kept in plain atomic arrays because
//!   unit indices are unbounded-cardinality and must never become label
//!   values; [`MappingTelemetry::publish_unit_stats`] folds them into
//!   bounded gauges (units configured / units queried / hottest unit).
//!
//! [`crate::MappingSystem::rebuild`] re-attaches automatically: counter
//! handles are re-fetched idempotently from the registry (totals keep
//! accumulating) while the per-unit arrays are re-sized for the new map.

use eum_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which serving path produced an answer.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AnswerPath {
    /// Low-level A answer through the end-user (ECS) tables.
    EndUser,
    /// Low-level A answer through the NS (per-LDNS) tables.
    Ns,
    /// Top-level delegation.
    TopLevel,
    /// The `whoami.<suffix>` discovery answer.
    Whoami,
    /// Any error response (FORMERR, REFUSED, NXDOMAIN, SERVFAIL).
    Error,
}

/// Registered handles plus per-unit atomic query counts.
pub struct MappingTelemetry {
    registry: Arc<Registry>,
    answers_eu: Arc<Counter>,
    answers_ns: Arc<Counter>,
    answers_top: Arc<Counter>,
    answers_whoami: Arc<Counter>,
    answers_error: Arc<Counter>,
    fallback_primary: Arc<Counter>,
    fallback_ranked: Arc<Counter>,
    fallback_overloaded: Arc<Counter>,
    fallback_any_live: Arc<Counter>,
    rr_rotations: Arc<Counter>,
    rebuild_full_ns: Arc<Histogram>,
    rebuild_incremental_ns: Arc<Histogram>,
    /// Per-phase wall time of a full rebuild: targets, matrix, score,
    /// solve.
    rebuild_phase_ns: [Arc<Histogram>; 4],
    units_changed: Arc<Counter>,
    /// Spilled rows: web, video, download, then a shared scoring.
    rank_spills: [Arc<Counter>; 4],
    solver_bytes: Arc<Gauge>,
    /// Queries attributed to each end-user unit (empty without EU units).
    eu_unit_queries: Box<[AtomicU64]>,
    /// Queries attributed to each NS (LDNS) unit.
    ns_unit_queries: Box<[AtomicU64]>,
}

impl std::fmt::Debug for MappingTelemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingTelemetry")
            .field("eu_units", &self.eu_unit_queries.len())
            .field("ns_units", &self.ns_unit_queries.len())
            .finish()
    }
}

fn counts(n: usize) -> Box<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

impl MappingTelemetry {
    /// Registers (idempotently) every mapping instrument and sizes the
    /// per-unit arrays for a map with `ns_units`/`eu_units` units.
    pub(crate) fn new(
        registry: Arc<Registry>,
        ns_units: usize,
        eu_units: usize,
    ) -> MappingTelemetry {
        let answers = |path: &str| {
            registry.counter(
                "eum_mapping_answers_total",
                "Answers produced, by serving path",
                &[("path", path)],
            )
        };
        let fallback = |rank: &str| {
            registry.counter(
                "eum_mapping_fallback_depth_total",
                "Liveness fallback depth per answered query",
                &[("rank", rank)],
            )
        };
        let t = MappingTelemetry {
            answers_eu: answers("eu"),
            answers_ns: answers("ns"),
            answers_top: answers("top"),
            answers_whoami: answers("whoami"),
            answers_error: answers("error"),
            fallback_primary: fallback("primary"),
            fallback_ranked: fallback("ranked"),
            fallback_overloaded: fallback("overloaded"),
            fallback_any_live: fallback("any_live"),
            rr_rotations: registry.counter(
                "eum_mapping_rr_rotations_total",
                "Round-robin local-LB answer rotations",
                &[],
            ),
            rebuild_full_ns: registry.histogram(
                "eum_mapping_rebuild_ns",
                "Map rebuild wall time, nanoseconds",
                &[("mode", "full")],
            ),
            rebuild_incremental_ns: registry.histogram(
                "eum_mapping_rebuild_ns",
                "Map rebuild wall time, nanoseconds",
                &[("mode", "incremental")],
            ),
            rebuild_phase_ns: ["targets", "matrix", "score", "solve"].map(|phase| {
                registry.histogram(
                    "eum_mapping_rebuild_phase_ns",
                    "Full map rebuild wall time per phase, nanoseconds",
                    &[("phase", phase)],
                )
            }),
            units_changed: registry.counter(
                "eum_mapping_units_changed_total",
                "Mapping units republished across map generations",
                &[],
            ),
            rank_spills: ["web", "video", "download", "all"].map(|class| {
                registry.counter(
                    "eum_mapping_rank_spills_total",
                    "Unit rows the load balancer read past the stored ranks",
                    &[("class", class)],
                )
            }),
            solver_bytes: registry.gauge(
                "eum_mapping_solver_bytes",
                "Heap bytes of the solver's per-class ranking tables",
                &[],
            ),
            eu_unit_queries: counts(eu_units),
            ns_unit_queries: counts(ns_units),
            registry,
        };
        t.unit_gauge("configured", "ns").set(ns_units as f64);
        t.unit_gauge("configured", "eu").set(eu_units as f64);
        t
    }

    fn unit_gauge(&self, what: &str, kind: &str) -> Arc<Gauge> {
        let (name, help) = match what {
            "configured" => ("eum_mapping_units", "Mapping units in the current map"),
            "queried" => (
                "eum_mapping_units_queried",
                "Mapping units that answered at least one query",
            ),
            _ => (
                "eum_mapping_unit_queries_max",
                "Queries answered by the hottest mapping unit",
            ),
        };
        self.registry.gauge(name, help, &[("kind", kind)])
    }

    pub(crate) fn count_answer(&self, path: AnswerPath) {
        match path {
            AnswerPath::EndUser => self.answers_eu.inc(),
            AnswerPath::Ns => self.answers_ns.inc(),
            AnswerPath::TopLevel => self.answers_top.inc(),
            AnswerPath::Whoami => self.answers_whoami.inc(),
            AnswerPath::Error => self.answers_error.inc(),
        }
    }

    /// Records how deep [`crate::MappingSystem`]'s health walk went:
    /// `Some(0)` primary, `Some(_)` a ranked alternate, `None` the
    /// any-live escape hatch.
    pub(crate) fn count_fallback(&self, depth: Option<usize>) {
        match depth {
            Some(0) => self.fallback_primary.inc(),
            Some(_) => self.fallback_ranked.inc(),
            None => self.fallback_any_live.inc(),
        }
    }

    /// Records an answer that had to serve a ranked-but-overloaded
    /// cluster because the health filter emptied the candidate row.
    pub(crate) fn count_fallback_overloaded(&self) {
        self.fallback_overloaded.inc();
    }

    pub(crate) fn count_rr_rotation(&self) {
        self.rr_rotations.inc();
    }

    /// Records one map rebuild: wall time into the mode-labeled
    /// `eum_mapping_rebuild_ns` histogram and how many units the new
    /// generation republished (all of them, for a full rebuild).
    pub fn record_rebuild(&self, full: bool, elapsed_ns: u64, units_changed: u64) {
        if full {
            self.rebuild_full_ns.record(elapsed_ns);
        } else {
            self.rebuild_incremental_ns.record(elapsed_ns);
        }
        self.units_changed.add(units_changed);
    }

    /// Records one full rebuild's phase split (targets, matrix, score,
    /// solve), nanoseconds each.
    pub(crate) fn record_rebuild_phases(&self, phase_ns: [u64; 4]) {
        for (h, ns) in self.rebuild_phase_ns.iter().zip(phase_ns) {
            h.record(ns);
        }
    }

    /// Records one rebuild's spilled rows (per class slot, then shared
    /// scoring) and the ranking tables' size.
    pub(crate) fn record_solve(&self, spills: &[usize; 4], solver_bytes: usize) {
        for (c, n) in self.rank_spills.iter().zip(spills) {
            c.add(*n as u64);
        }
        self.solver_bytes.set(solver_bytes as f64);
    }

    pub(crate) fn count_eu_unit(&self, unit: usize) {
        if let Some(c) = self.eu_unit_queries.get(unit) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_ns_unit(&self, unit: usize) {
        if let Some(c) = self.ns_unit_queries.get(unit) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-end-user-unit query counts since attach (index = unit index).
    pub fn eu_unit_queries(&self) -> Vec<u64> {
        self.eu_unit_queries
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-NS-unit query counts since attach (index = unit index).
    pub fn ns_unit_queries(&self) -> Vec<u64> {
        self.ns_unit_queries
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Folds the unbounded per-unit arrays into bounded gauges: how many
    /// units answered at least one query and how hot the hottest unit is,
    /// per unit kind. Call from a reporter tick.
    pub fn publish_unit_stats(&self) {
        for (kind, counts) in [("ns", &self.ns_unit_queries), ("eu", &self.eu_unit_queries)] {
            let mut queried = 0u64;
            let mut max = 0u64;
            for c in counts.iter() {
                let v = c.load(Ordering::Relaxed);
                if v > 0 {
                    queried += 1;
                }
                max = max.max(v);
            }
            self.unit_gauge("queried", kind).set(queried as f64);
            self.unit_gauge("max", kind).set(max as f64);
        }
    }

    /// The registry this telemetry is attached to.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}
