//! The mapping system: measurement → scoring → load balancing → DNS.
//!
//! [`MappingSystem`] is the paper's central artifact (Figure 3): it builds
//! the topology view from the measurement component, scores every mapping
//! unit against every cluster, runs the global load balancer, builds a
//! consistent-hash ring per cluster for local load balancing, and then
//! *serves DNS* through the two-level authoritative hierarchy:
//!
//! * the **top-level** name server answers queries for CDN domains with an
//!   NS delegation toward a low-level name server in a cluster close to
//!   the querying LDNS ("This delegation step implements the global load
//!   balancer choice of cluster for the client's LDNS", §2.2);
//! * a **low-level** name server in each cluster answers `A` queries with
//!   two server IPs chosen by the local load balancer. Under end-user
//!   mapping, an incoming ECS option selects the client-block mapping
//!   unit, and the response's ECS scope is the unit's prefix length —
//!   exactly the `/y ≤ /x` narrowing of Figure 4.

use crate::delta::MapDelta;
use crate::global_lb::{solve, Assignment, LbAlgorithm, Ranking};
use crate::local_lb::{domain_key, ConsistentRing};
use crate::measure::{PingMatrix, PingTargets};
use crate::policy::MappingPolicy;
use crate::score::{
    build_classes, rescore_classes, ClassTables, ScoreBasis, ScoreInputs, ScoringWeights,
};
use crate::telemetry::{AnswerPath, MappingTelemetry};
use crate::units::{MapUnitInfo, MapUnits, UnitId, UnitKey};
use eum_cdn::{CdnPlatform, ClusterId, ContentCatalog, HostedDomain, ServerId, TrafficClass};
use eum_dns::edns::{EcsOption, OptData};
use eum_dns::{DnsName, Message, QueryContext, Rcode, Record, RrType};
use eum_geo::{GeoInfo, Prefix};
use eum_netmodel::{Endpoint, Internet};
use eum_telemetry::Registry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How servers are picked within the chosen cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalLbPolicy {
    /// Bounded-load consistent hashing: a domain's content sticks to the
    /// same servers, maximizing cache hit rate (the production design).
    ConsistentHash,
    /// Rotate over the cluster's servers per query — the ablation
    /// baseline that spreads load perfectly but shreds cache locality.
    RoundRobin,
}

/// Mapping-system configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MappingConfig {
    /// Request-routing policy.
    pub policy: MappingPolicy,
    /// Server selection within a cluster.
    pub local_lb: LocalLbPolicy,
    /// Global load-balancing algorithm.
    pub algorithm: LbAlgorithm,
    /// Scoring weights.
    pub weights: ScoringWeights,
    /// Delegation (NS) TTL, seconds.
    pub ns_ttl_s: u32,
    /// Maximum ping targets for the measurement component.
    pub max_ping_targets: usize,
    /// Target covering radius, miles.
    pub target_cover_miles: f64,
    /// Ranked fallback clusters kept per unit (liveness failover).
    pub candidates_per_unit: usize,
    /// Server IPs per A answer ("two or more … as a precaution against
    /// transient failures", §1 fn. 2).
    pub servers_per_answer: usize,
    /// Member-block cap for client-aware scoring.
    pub member_cap: usize,
    /// Virtual nodes per server on local-LB rings.
    pub ring_vnodes: usize,
    /// Finest scope granularity answered regardless of unit coarseness.
    /// The paper's Figure-4 example answers a /24 query with a /20 scope:
    /// even when the internal mapping unit is a coarse BGP CIDR, the
    /// answer's scope is clamped no coarser than this, bounding how widely
    /// one answer is reused.
    pub scope_floor: u8,
    /// Score each traffic class with its own weights (§2.2). When false,
    /// `weights` applies to every class (the ablation baseline).
    pub per_class_scoring: bool,
    /// Worker threads for the per-unit scoring passes (full build and
    /// incremental rescore). `0` means "one per available core".
    pub rebuild_workers: usize,
}

impl Default for MappingConfig {
    fn default() -> Self {
        MappingConfig {
            policy: MappingPolicy::end_user_default(),
            local_lb: LocalLbPolicy::ConsistentHash,
            algorithm: LbAlgorithm::Stable,
            weights: ScoringWeights::default(),
            ns_ttl_s: 21_600,
            max_ping_targets: 2000,
            target_cover_miles: 100.0,
            candidates_per_unit: 4,
            servers_per_answer: 2,
            member_cap: 50,
            ring_vnodes: 64,
            scope_floor: 20,
            per_class_scoring: true,
            rebuild_workers: 0,
        }
    }
}

impl MappingConfig {
    /// Resolved scoring-worker count: the configured value, or the
    /// machine's available parallelism when `rebuild_workers` is 0.
    pub fn worker_count(&self) -> usize {
        if self.rebuild_workers > 0 {
            self.rebuild_workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Authoritative-side query counters — the raw data behind Figures 2, 23
/// and 24.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MappingStats {
    /// All queries handled (top-level + low-level).
    pub queries: u64,
    /// Top-level (delegation) queries.
    pub top_level_queries: u64,
    /// Low-level A queries.
    pub a_queries: u64,
    /// Queries that carried an ECS option.
    pub ecs_queries: u64,
    /// A-queries per (domain index, LDNS IP) — Figure 24's unit of
    /// analysis.
    pub per_domain_ldns: HashMap<(u32, Ipv4Addr), u64>,
}

/// A cluster as the mapping system sees it.
#[derive(Debug, Clone)]
struct ClusterView {
    id: ClusterId,
    endpoint: Endpoint,
    ns_ip: Ipv4Addr,
    capacity: f64,
    alive: bool,
    /// Load-feedback health mark: an overloaded cluster is filtered from
    /// candidate rows at serve time like a dead one, but the widening
    /// fallback still prefers it over leaving the ranking (overload
    /// beats outage). Set through
    /// [`MappingSystem::set_cluster_overloaded`], carried across
    /// incremental rebuilds, reset by a full rebuild.
    overloaded: bool,
    servers: Vec<(ServerId, Ipv4Addr, bool)>,
    /// Shared across generations: ring membership depends on the server
    /// set, not liveness (dead servers are filtered at pick time).
    ring: Arc<ConsistentRing>,
}

/// Flat ranked-candidate rows: row `u` holds unit `u`'s clusters best
/// first (the LB assignment, then remaining clusters in score order),
/// padded with [`NO_CANDIDATE`] to a fixed stride. Flat storage makes
/// generation-over-generation comparison (for `Arc` sharing and delta
/// extraction) one `Vec` equality check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CandidateTable {
    stride: usize,
    flat: Vec<u32>,
}

/// Row padding sentinel for [`CandidateTable`].
const NO_CANDIDATE: u32 = u32::MAX;

impl CandidateTable {
    /// A table with no rows (policies without EU units).
    fn empty() -> CandidateTable {
        CandidateTable {
            stride: 1,
            flat: Vec::new(),
        }
    }

    /// Ranks every unit: the LB assignment first, then the remaining
    /// clusters in preference order, deduped, up to `k` per unit.
    fn build(
        units: &MapUnits,
        ranks: &mut Ranking,
        assignment: &Assignment,
        k: usize,
    ) -> CandidateTable {
        let stride = k.max(1);
        let mut flat = vec![NO_CANDIDATE; units.len() * stride];
        for u in 0..units.len() {
            let uid = UnitId(u as u32);
            let row = &mut flat[u * stride..(u + 1) * stride];
            let mut n = 0usize;
            if let Some(c) = assignment.cluster(uid) {
                row[n] = c as u32;
                n += 1;
            }
            let mut p = 0;
            while n < stride {
                let Some((c, _)) = ranks.at(u, p) else {
                    break;
                };
                p += 1;
                let c = c as u32;
                if !row[..n].contains(&c) {
                    row[n] = c;
                    n += 1;
                }
            }
        }
        CandidateTable { stride, flat }
    }

    /// A unit's ranked candidates, trimmed of padding.
    fn row(&self, u: usize) -> &[u32] {
        let row = self
            .flat
            .get(u * self.stride..(u + 1) * self.stride)
            .unwrap_or_default();
        let n = row
            .iter()
            .position(|c| *c == NO_CANDIDATE)
            .unwrap_or(row.len());
        row.get(..n).unwrap_or_default()
    }
}

/// Three per-class candidate tables (indexed by [`class_slot`]); the
/// same `Arc` fills all three slots when per-class scoring is off, or
/// when a class's table did not change across an incremental rebuild.
type Candidates = [Arc<CandidateTable>; 3];

fn empty_candidates() -> Candidates {
    let e = Arc::new(CandidateTable::empty());
    [e.clone(), e.clone(), e]
}

/// Everything [`MappingSystem::rebuild_incremental`] reuses between
/// generations: the measurement artifacts, the per-class ranking tables
/// (each unit's best clusters with their scores), and the previous
/// solve's inputs (for change detection). Control-plane only — never
/// published to shards.
#[derive(Default)]
struct SolverState {
    targets: PingTargets,
    matrix: PingMatrix,
    cluster_eps: Vec<Endpoint>,
    capacity: Vec<f64>,
    usable: Vec<bool>,
    ns_basis: ScoreBasis,
    ns_vantages: Vec<Endpoint>,
    eu_vantages: Vec<Endpoint>,
    /// Per-class tables (one shared entry when per-class scoring is
    /// off), indexed by [`class_slot`].
    ns: Vec<ClassTables>,
    eu: Vec<ClassTables>,
    /// Sorted block indices of the ping-target blocks: a rescore hint
    /// touching one of these invalidates the shared ping matrix and
    /// forces a full rebuild.
    target_block_idx: Vec<usize>,
    /// Topology cardinalities the cached unit partitions were built
    /// from; a mismatch means the units themselves are stale.
    n_blocks: usize,
    n_resolvers: usize,
}

/// Units [`MappingSystem::rebuild_incremental`] must re-score because
/// their *measurement inputs* changed (member access latencies, vantage
/// position). Liveness and capacity changes are detected automatically
/// and need no hint; demand or topology changes require a full
/// [`MappingSystem::rebuild`].
#[derive(Debug, Clone, Default)]
pub struct RescoreHints {
    /// NS (resolver) units to re-score.
    pub ns: Vec<UnitId>,
    /// End-user units to re-score.
    pub eu: Vec<UnitId>,
}

impl RescoreHints {
    /// True when no unit is hinted.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty() && self.eu.is_empty()
    }
}

/// The mapping system.
pub struct MappingSystem {
    cfg: MappingConfig,
    /// The CDN's domain suffix (e.g. `cdn.example`).
    suffix: DnsName,
    /// `whoami.<suffix>`, the LDNS-discovery name.
    whoami: DnsName,
    /// Top-level authoritative server IP.
    top_ip: Ipv4Addr,
    catalog: Arc<ContentCatalog>,
    /// Name → index into `catalog`, built with it.
    names: Arc<DomainIndex>,
    clusters: Vec<ClusterView>,
    ns_by_ip: Arc<HashMap<Ipv4Addr, usize>>,
    /// NS-based (or client-aware) units and their ranked cluster choices,
    /// one candidate table per traffic class (indexed by
    /// [`class_slot`]). `Arc`-shared so [`MappingSystem::clone_for_publish`]
    /// is cheap and unchanged tables are structurally shared across
    /// generations.
    ns_units: Arc<MapUnits>,
    ns_candidates: Candidates,
    ldns_by_ip: Arc<HashMap<Ipv4Addr, UnitId>>,
    /// End-user units (only under `MappingPolicy::EndUser`).
    eu_units: Option<Arc<MapUnits>>,
    eu_candidates: Candidates,
    /// Round-robin rotation for [`LocalLbPolicy::RoundRobin`]. Atomic so
    /// the lock-free [`MappingSystem::answer`] path can rotate while the
    /// system is shared immutably across serving shards.
    rr_counter: AtomicU64,
    /// Runtime counters.
    pub stats: MappingStats,
    /// Registered instruments (None until
    /// [`MappingSystem::attach_telemetry`]); all recording goes through
    /// `&self` atomics, keeping [`MappingSystem::answer`] lock-free.
    telemetry: Option<MappingTelemetry>,
    /// Incremental-rebuild cache (None on publish clones and before the
    /// first build completes).
    solver: Option<Box<SolverState>>,
}

/// The output of one measurement → scoring → load-balancing pass.
struct ComputedMap {
    clusters: Vec<ClusterView>,
    ns_by_ip: Arc<HashMap<Ipv4Addr, usize>>,
    ns_units: Arc<MapUnits>,
    ns_candidates: Candidates,
    ldns_by_ip: Arc<HashMap<Ipv4Addr, UnitId>>,
    eu_units: Option<Arc<MapUnits>>,
    eu_candidates: Candidates,
    solver: Box<SolverState>,
    /// Wall time of each [`PhaseClock`] phase, ns.
    phase_ns: [u64; 4],
    /// Rows the solves recomputed past the stored ranks.
    spills: Spills,
}

/// Phases of a full map computation, indexing [`PhaseClock`] and the
/// `phase` label of `eum_mapping_rebuild_phase_ns`: ping-target selection,
/// the ping matrix, scoring (with the ranking selects), and the solve
/// (assignment and candidate rows).
const PHASE_TARGETS: usize = 0;
const PHASE_MATRIX: usize = 1;
const PHASE_SCORE: usize = 2;
const PHASE_SOLVE: usize = 3;

/// Accumulated wall time per phase of one map computation, ns.
#[derive(Default)]
struct PhaseClock([u64; 4]);

impl PhaseClock {
    fn time<T>(&mut self, phase: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.0[phase] += start.elapsed().as_nanos() as u64;
        out
    }
}

/// Index of a traffic class in the per-class candidate tables.
fn class_slot(class: TrafficClass) -> usize {
    match class {
        TrafficClass::Web => 0,
        TrafficClass::Video => 1,
        TrafficClass::Download => 2,
    }
}

impl MappingSystem {
    /// Builds the full pipeline: ping targets, ping matrix, scoring,
    /// global load balancing, and per-cluster rings. Allocates the
    /// top-level name server's address block inside `net`.
    pub fn build(
        net: &mut Internet,
        cdn: &CdnPlatform,
        catalog: &ContentCatalog,
        suffix: DnsName,
        cfg: MappingConfig,
    ) -> MappingSystem {
        assert!(!cdn.clusters.is_empty(), "cannot map onto an empty CDN");
        // Top-level NS placed at the CDN's first cluster location (the
        // paper's top-levels are themselves distributed; one logical
        // endpoint suffices for the model).
        let first = &cdn.clusters[0];
        let top_prefix = net.alloc_infra_block(GeoInfo {
            point: first.loc,
            country: first.country,
            asn: eum_cdn::CDN_ASN,
        });
        let top_ip = Ipv4Addr::from(top_prefix.addr() | 2);
        let computed = Self::compute(net, cdn, &cfg, &[], None);
        MappingSystem {
            cfg,
            whoami: suffix.child("whoami").expect("valid literal label"),
            suffix,
            top_ip,
            catalog: Arc::new(catalog.clone()),
            names: Arc::new(DomainIndex::build(catalog, fnv1a)),
            clusters: computed.clusters,
            ns_by_ip: computed.ns_by_ip,
            ns_units: computed.ns_units,
            ns_candidates: computed.ns_candidates,
            ldns_by_ip: computed.ldns_by_ip,
            eu_units: computed.eu_units,
            eu_candidates: computed.eu_candidates,
            rr_counter: AtomicU64::new(0),
            stats: MappingStats::default(),
            telemetry: None,
            solver: Some(computed.solver),
        }
    }

    /// Attaches (or re-attaches) instrumentation backed by `registry`.
    /// Registration is idempotent, so repeated attaches — including the
    /// automatic one in [`MappingSystem::rebuild`] — keep accumulating
    /// into the same counters while the per-unit arrays are sized for the
    /// current map.
    pub fn attach_telemetry(&mut self, registry: Arc<Registry>) {
        let t = MappingTelemetry::new(
            registry,
            self.ns_units.len(),
            self.eu_units.as_ref().map(|u| u.len()).unwrap_or(0),
        );
        if self.solver.is_some() {
            t.record_solve(&Spills::default(), self.solver_bytes());
        }
        self.telemetry = Some(t);
    }

    /// Heap bytes of the solver's per-class ranking tables.
    fn solver_bytes(&self) -> usize {
        self.solver.as_ref().map_or(0, |s| {
            s.ns.iter().chain(&s.eu).map(|t| t.prefs.bytes()).sum()
        })
    }

    /// The attached instrumentation, if any.
    pub fn telemetry(&self) -> Option<&MappingTelemetry> {
        self.telemetry.as_ref()
    }

    /// Recomputes the whole map against the CDN's *current* state — the
    /// paper's periodic map refresh: liveness, capacity, and deployment
    /// changes feed back into scoring and load balancing while runtime
    /// counters and the name-server identity are preserved.
    ///
    /// Every unit is rescored into the solver state this generation owns
    /// (the tables whose shape fits, the buffers, the rings of unchanged
    /// server sets), bit-identical to a fresh [`build`](Self::build).
    pub fn rebuild(&mut self, net: &Internet, cdn: &CdnPlatform) {
        assert!(!cdn.clusters.is_empty(), "cannot map onto an empty CDN");
        let start = Instant::now();
        let computed = Self::compute(net, cdn, &self.cfg, &self.clusters, self.solver.take());
        self.clusters = computed.clusters;
        self.ns_by_ip = computed.ns_by_ip;
        self.ns_units = computed.ns_units;
        self.ns_candidates = computed.ns_candidates;
        self.ldns_by_ip = computed.ldns_by_ip;
        self.eu_units = computed.eu_units;
        self.eu_candidates = computed.eu_candidates;
        self.solver = Some(computed.solver);
        // Unit counts may have changed shape; re-attach so the per-unit
        // arrays match while the registry counters keep accumulating.
        if let Some(t) = self.telemetry.take() {
            self.attach_telemetry(t.registry().clone());
        }
        if let Some(t) = &self.telemetry {
            t.record_rebuild(
                true,
                start.elapsed().as_nanos() as u64,
                self.total_units() as u64,
            );
            t.record_rebuild_phases(computed.phase_ns);
            t.record_solve(&computed.spills, self.solver_bytes());
        }
    }

    /// Total mapping units (NS + EU) in the current map.
    pub fn total_units(&self) -> usize {
        self.ns_units.len() + self.eu_units.as_ref().map(|u| u.len()).unwrap_or(0)
    }

    /// Incrementally refreshes the map against the CDN's current state,
    /// returning the delta of units whose answers may have changed.
    ///
    /// Cost is proportional to what changed, not to world size: the
    /// previous generation's measurement artifacts (ping targets, ping
    /// matrix) and per-class rankings are reused; only liveness/capacity
    /// inputs and explicitly `hints`-ed units are
    /// recomputed before the solver re-runs over the cached tables (see
    /// `stable_allocation` for why its repair queue is seeded with every
    /// unit — the result is bit-identical to a from-scratch rebuild).
    /// Candidate tables that come out unchanged keep their previous
    /// `Arc`, so publication shares structure across generations.
    ///
    /// Falls back to a full [`rebuild`](Self::rebuild) — returning a
    /// full delta — when the deployment or topology changed shape, or a
    /// hinted unit overlaps a ping-target block (the shared matrix would
    /// be stale). When the global escape cluster (the fallback for
    /// unknown resolvers and fully-dead candidate rows) moves, the new
    /// map is still built incrementally but the delta is promoted to
    /// full, because that change's blast radius is unbounded.
    pub fn rebuild_incremental(
        &mut self,
        net: &Internet,
        cdn: &CdnPlatform,
        hints: &RescoreHints,
    ) -> Arc<MapDelta> {
        assert!(!cdn.clusters.is_empty(), "cannot map onto an empty CDN");
        let start = Instant::now();
        if !self.can_rebuild_incrementally(net, cdn, hints) {
            self.rebuild(net, cdn);
            return Arc::new(MapDelta::full(self.total_units()));
        }
        let mut solver = self
            .solver
            .take()
            .expect("checked by can_rebuild_incrementally");

        // Refresh cluster views (rings shared — membership is by server
        // set, which compatible_shape pinned) and find serving-visible
        // cluster changes: a liveness flip or any server (ip, alive)
        // change alters answers for every unit routed there.
        let mut new_clusters = Vec::with_capacity(cdn.clusters.len());
        let mut changed_cluster = vec![false; self.clusters.len()];
        for (i, c) in cdn.clusters.iter().enumerate() {
            let old = &self.clusters[i];
            let servers: Vec<(ServerId, Ipv4Addr, bool)> = c
                .server_ids()
                .map(|s| (s, cdn.server(s).ip, cdn.server(s).alive))
                .collect();
            changed_cluster[i] = c.alive != old.alive || servers != old.servers;
            new_clusters.push(ClusterView {
                id: c.id,
                endpoint: cdn.cluster_endpoint(c.id),
                ns_ip: old.ns_ip,
                capacity: c.capacity,
                alive: c.alive,
                overloaded: old.overloaded,
                servers,
                ring: old.ring.clone(),
            });
        }
        let capacity: Vec<f64> = new_clusters.iter().map(|c| c.capacity).collect();
        let usable: Vec<bool> = new_clusters.iter().map(|c| c.alive).collect();

        // Escape-cluster move: unknown-resolver answers and fully-dead
        // candidate rows fall back to the first live cluster, so its
        // identity changing (or its contents changing) invalidates
        // answers no per-unit delta can name.
        let old_escape = self.clusters.iter().position(|c| c.alive);
        let new_escape = new_clusters.iter().position(|c| c.alive);
        let escape_dirty =
            old_escape != new_escape || new_escape.is_some_and(|c| changed_cluster[c]);

        let workers = self.cfg.worker_count();

        // Rescore hinted rows: refresh their cached vantages, then
        // recompute every class's ranking rows for them.
        let ns_rows = normalize_hints(&hints.ns, self.ns_units.len());
        for uid in &ns_rows {
            solver.ns_vantages[uid.index()] = match self.ns_units.units[uid.index()].key {
                UnitKey::Ldns(r) => net.resolver(r).endpoint(),
                UnitKey::Block(_) => unreachable!("NS units are resolver-keyed"),
            };
        }
        let eu_rows = match &self.eu_units {
            Some(units) => normalize_hints(&hints.eu, units.len()),
            None => Vec::new(),
        };
        if let Some(units) = &self.eu_units {
            for uid in &eu_rows {
                solver.eu_vantages[uid.index()] = eu_unit_vantage(net, &units.units[uid.index()]);
            }
        }
        let ns_inputs = ScoreInputs {
            net,
            units: &self.ns_units,
            vantages: &solver.ns_vantages,
            clusters: &solver.cluster_eps,
            targets: &solver.targets,
            matrix: &solver.matrix,
            basis: solver.ns_basis,
            member_cap: self.cfg.member_cap,
        };
        rescore_classes(&ns_inputs, &mut solver.ns, &ns_rows, workers);
        let eu_inputs = self.eu_units.as_ref().map(|units| ScoreInputs {
            units,
            vantages: &solver.eu_vantages,
            basis: ScoreBasis::UnitVantage,
            ..ns_inputs
        });
        if let Some(inputs) = &eu_inputs {
            rescore_classes(inputs, &mut solver.eu, &eu_rows, workers);
        }

        // Re-solve over the cached tables; skip kinds whose inputs are
        // untouched (candidate tables then keep their exact Arcs).
        let lb_changed = capacity != solver.capacity || usable != solver.usable;
        let old_ns_candidates = self.ns_candidates.clone();
        let old_eu_candidates = self.eu_candidates.clone();
        let mut spills = Spills::default();
        let ns_candidates = if lb_changed || !ns_rows.is_empty() {
            solve_candidates(
                &self.cfg,
                &self.ns_units,
                &ns_inputs,
                &solver.ns,
                &capacity,
                &usable,
                &old_ns_candidates,
                &mut spills,
            )
        } else {
            old_ns_candidates.clone()
        };
        let eu_candidates = match (&self.eu_units, &eu_inputs) {
            (Some(units), Some(inputs)) if lb_changed || !eu_rows.is_empty() => solve_candidates(
                &self.cfg,
                units,
                inputs,
                &solver.eu,
                &capacity,
                &usable,
                &old_eu_candidates,
                &mut spills,
            ),
            _ => old_eu_candidates.clone(),
        };

        // Delta extraction: a unit is dirty when its candidate row
        // changed or any cluster on its (unchanged) row is itself
        // serving-visibly changed.
        let delta = if escape_dirty {
            MapDelta::full(self.total_units())
        } else {
            let ns_dirty = dirty_units(
                &old_ns_candidates,
                &ns_candidates,
                self.ns_units.len(),
                &changed_cluster,
            );
            let eu_dirty = match &self.eu_units {
                Some(units) => dirty_units(
                    &old_eu_candidates,
                    &eu_candidates,
                    units.len(),
                    &changed_cluster,
                ),
                None => Vec::new(),
            };
            let mut eu_prefixes = Vec::new();
            if let Some(units) = &self.eu_units {
                for (u, dirty) in eu_dirty.iter().enumerate() {
                    if *dirty {
                        if let UnitKey::Block(p) = units.units[u].key {
                            eu_prefixes.push(p);
                        }
                    }
                }
            }
            let mut ns_ips = Vec::new();
            for (u, dirty) in ns_dirty.iter().enumerate() {
                if *dirty {
                    if let UnitKey::Ldns(r) = self.ns_units.units[u].key {
                        ns_ips.push(net.resolver(r).ip);
                    }
                }
            }
            MapDelta::from_dirty(&eu_prefixes, &ns_ips)
        };

        // Publish the new state into self.
        self.clusters = new_clusters;
        self.ns_candidates = ns_candidates;
        self.eu_candidates = eu_candidates;
        solver.capacity = capacity;
        solver.usable = usable;
        self.solver = Some(solver);

        if let Some(t) = &self.telemetry {
            t.record_rebuild(
                false,
                start.elapsed().as_nanos() as u64,
                delta.units_changed() as u64,
            );
            t.record_solve(&spills, self.solver_bytes());
        }
        Arc::new(delta)
    }

    /// Whether the cached solver state is still valid for an incremental
    /// pass: present, same deployment shape (cluster ids/addresses and
    /// server ids/ips — liveness and capacity may differ), same topology
    /// cardinalities, and no hinted unit touching a ping-target block
    /// (whose access latency feeds the shared matrix).
    fn can_rebuild_incrementally(
        &self,
        net: &Internet,
        cdn: &CdnPlatform,
        hints: &RescoreHints,
    ) -> bool {
        let Some(solver) = &self.solver else {
            return false;
        };
        if solver.n_blocks != net.blocks.len() || solver.n_resolvers != net.resolvers.len() {
            return false;
        }
        if cdn.clusters.len() != self.clusters.len() {
            return false;
        }
        for (view, c) in self.clusters.iter().zip(&cdn.clusters) {
            if view.id != c.id || view.ns_ip != Ipv4Addr::from(c.prefix.addr() | 2) {
                return false;
            }
            let same_servers = view.servers.len() == c.server_ids().count()
                && view
                    .servers
                    .iter()
                    .zip(c.server_ids())
                    .all(|((sid, ip, _), s)| *sid == s && *ip == cdn.server(s).ip);
            if !same_servers {
                return false;
            }
        }
        if let Some(units) = &self.eu_units {
            let hits_target = hints.eu.iter().any(|uid| {
                units.units.get(uid.index()).is_some_and(|info| {
                    info.members
                        .iter()
                        .any(|b| solver.target_block_idx.binary_search(&b.index()).is_ok())
                })
            });
            if hits_target {
                return false;
            }
        }
        true
    }

    /// A serve-plane copy for snapshot publication: every heavy table
    /// (units, candidate tables, rings, catalog, lookup maps) is
    /// `Arc`-shared with `self`, so the control plane keeps rebuilding
    /// its original — solver cache included — while shards serve this
    /// clone. Runtime counters start fresh; telemetry re-attaches to the
    /// same registry (registration is idempotent and cumulative).
    pub fn clone_for_publish(&self) -> MappingSystem {
        MappingSystem {
            cfg: self.cfg.clone(),
            suffix: self.suffix.clone(),
            whoami: self.whoami.clone(),
            top_ip: self.top_ip,
            catalog: self.catalog.clone(),
            names: self.names.clone(),
            clusters: self.clusters.clone(),
            ns_by_ip: self.ns_by_ip.clone(),
            ns_units: self.ns_units.clone(),
            ns_candidates: self.ns_candidates.clone(),
            ldns_by_ip: self.ldns_by_ip.clone(),
            eu_units: self.eu_units.clone(),
            eu_candidates: self.eu_candidates.clone(),
            rr_counter: AtomicU64::new(0),
            stats: self.stats.clone(),
            telemetry: self.telemetry.as_ref().map(|t| {
                MappingTelemetry::new(
                    t.registry().clone(),
                    self.ns_units.len(),
                    self.eu_units.as_ref().map(|u| u.len()).unwrap_or(0),
                )
            }),
            solver: None,
        }
    }

    /// Runs measurement → scoring → load balancing and returns the
    /// computed tables plus the solver cache the incremental path reuses.
    /// `prev` and `recycled`, the previous generation's cluster views and
    /// solver state, are reused as [`MappingSystem::rebuild`] says.
    fn compute(
        net: &Internet,
        cdn: &CdnPlatform,
        cfg: &MappingConfig,
        prev: &[ClusterView],
        recycled: Option<Box<SolverState>>,
    ) -> ComputedMap {
        // Cluster views with local-LB rings.
        let mut clusters = Vec::with_capacity(cdn.clusters.len());
        let mut ns_by_ip = HashMap::new();
        for (i, c) in cdn.clusters.iter().enumerate() {
            let ns_ip = Ipv4Addr::from(c.prefix.addr() | 2);
            let server_ids: Vec<ServerId> = c.server_ids().collect();
            let servers: Vec<(ServerId, Ipv4Addr, bool)> = server_ids
                .iter()
                .map(|s| (*s, cdn.server(*s).ip, cdn.server(*s).alive))
                .collect();
            let ring = match prev.get(i) {
                // A ring is a function of the server ids alone.
                Some(v) if v.servers.iter().map(|s| s.0).eq(server_ids.iter().copied()) => {
                    v.ring.clone()
                }
                _ => Arc::new(ConsistentRing::new(&server_ids, cfg.ring_vnodes)),
            };
            ns_by_ip.insert(ns_ip, clusters.len());
            clusters.push(ClusterView {
                id: c.id,
                endpoint: cdn.cluster_endpoint(c.id),
                ns_ip,
                capacity: c.capacity,
                alive: c.alive,
                overloaded: false,
                servers,
                ring,
            });
        }

        // Measurement component.
        let mut s = recycled.unwrap_or_default();
        let mut clock = PhaseClock::default();
        clock.time(PHASE_TARGETS, || {
            s.targets
                .reselect(net, cfg.max_ping_targets, cfg.target_cover_miles)
        });
        s.cluster_eps.clear();
        s.cluster_eps.extend(clusters.iter().map(|c| c.endpoint));
        clock.time(PHASE_MATRIX, || {
            s.matrix.remeasure(net, &s.cluster_eps, &s.targets)
        });
        s.capacity.clear();
        s.capacity.extend(clusters.iter().map(|c| c.capacity));
        s.usable.clear();
        s.usable.extend(clusters.iter().map(|c| c.alive));
        let workers = cfg.worker_count();
        let (ns_old, eu_old) = (std::mem::take(&mut s.ns), std::mem::take(&mut s.eu));

        // Per-class ranking tables from one measurement pass, then each
        // class's solve and candidate rows. One class with
        // `cfg.weights` serves every slot when the ablation disables
        // per-class scoring (§2.2).
        let weights: Vec<ScoringWeights> = if cfg.per_class_scoring {
            debug_assert_eq!(TrafficClass::ALL.map(class_slot), [0, 1, 2], "slot order");
            TrafficClass::ALL.map(ScoringWeights::for_class).to_vec()
        } else {
            vec![cfg.weights]
        };
        let mut spills = Spills::default();
        let mut build_tables = |units: &MapUnits,
                                vantages: &[Endpoint],
                                basis: ScoreBasis,
                                recycled: Vec<ClassTables>|
         -> (Vec<ClassTables>, Candidates) {
            let inputs = ScoreInputs {
                net,
                units,
                vantages,
                clusters: &s.cluster_eps,
                targets: &s.targets,
                matrix: &s.matrix,
                basis,
                member_cap: cfg.member_cap,
            };
            let tables = clock.time(PHASE_SCORE, || {
                build_classes(&inputs, &weights, workers, recycled)
            });
            let candidates = clock.time(PHASE_SOLVE, || {
                solve_candidates(
                    cfg,
                    units,
                    &inputs,
                    &tables,
                    &s.capacity,
                    &s.usable,
                    &empty_candidates(),
                    &mut spills,
                )
            });
            (tables, candidates)
        };

        // NS-side units (always present: non-ECS queries need them).
        let ns_units = Arc::new(MapUnits::ldns_units(net));
        s.ns_vantages.clear();
        s.ns_vantages
            .extend(ns_units.units.iter().map(|u| match u.key {
                UnitKey::Ldns(r) => net.resolver(r).endpoint(),
                UnitKey::Block(_) => unreachable!("ldns_units yields Ldns keys"),
            }));
        s.ns_basis = match cfg.policy {
            MappingPolicy::ClientAwareNs => ScoreBasis::MemberClients,
            _ => ScoreBasis::UnitVantage,
        };
        let (ns_tables, ns_candidates) =
            build_tables(&ns_units, &s.ns_vantages, s.ns_basis, ns_old);
        let ldns_by_ip: HashMap<Ipv4Addr, UnitId> = ns_units
            .units
            .iter()
            .enumerate()
            .map(|(i, u)| match u.key {
                UnitKey::Ldns(r) => (net.resolver(r).ip, UnitId(i as u32)),
                UnitKey::Block(_) => unreachable!(),
            })
            .collect();

        // End-user units when the policy calls for them.
        s.eu_vantages.clear();
        let (eu_units, eu_tables, eu_candidates) = match cfg.policy {
            MappingPolicy::EndUser {
                prefix_len,
                bgp_aggregate,
            } => {
                let units = Arc::new(MapUnits::block_units(net, prefix_len, bgp_aggregate));
                s.eu_vantages
                    .extend(units.units.iter().map(|u| eu_unit_vantage(net, u)));
                let basis = ScoreBasis::UnitVantage;
                let (tables, candidates) = build_tables(&units, &s.eu_vantages, basis, eu_old);
                (Some(units), tables, candidates)
            }
            _ => (None, Vec::new(), empty_candidates()),
        };

        s.ns = ns_tables;
        s.eu = eu_tables;
        s.target_block_idx.clear();
        s.target_block_idx
            .extend(s.targets.target_blocks.iter().map(|b| b.index()));
        s.target_block_idx.sort_unstable();
        s.n_blocks = net.blocks.len();
        s.n_resolvers = net.resolvers.len();

        ComputedMap {
            clusters,
            ns_by_ip: Arc::new(ns_by_ip),
            ns_units,
            ns_candidates,
            ldns_by_ip: Arc::new(ldns_by_ip),
            eu_units,
            eu_candidates,
            solver: s,
            phase_ns: clock.0,
            spills,
        }
    }

    /// The top-level authoritative server's IP.
    pub fn top_level_ip(&self) -> Ipv4Addr {
        self.top_ip
    }

    /// The LDNS-discovery name (`whoami.<suffix>`, §3.1's
    /// `whoami.akamai.net` analogue).
    pub fn whoami_name(&self) -> DnsName {
        self.whoami.clone()
    }

    /// The NS-based mapping units (always present).
    pub fn ns_units(&self) -> &MapUnits {
        &self.ns_units
    }

    /// The end-user mapping units, when the policy builds them.
    pub fn eu_units(&self) -> Option<&MapUnits> {
        self.eu_units.as_deref()
    }

    /// The configured policy.
    pub fn policy(&self) -> MappingPolicy {
        self.cfg.policy
    }

    /// Every authoritative IP this system answers on.
    pub fn ns_ips(&self) -> Vec<Ipv4Addr> {
        let mut out = vec![self.top_ip];
        out.extend(self.clusters.iter().map(|c| c.ns_ip));
        out
    }

    /// True when `ip` is one of this system's name servers.
    pub fn is_mapping_server(&self, ip: Ipv4Addr) -> bool {
        ip == self.top_ip || self.ns_by_ip.contains_key(&ip)
    }

    /// Re-reads liveness from the CDN platform (the paper's real-time
    /// liveness feed into load balancing).
    pub fn refresh_liveness(&mut self, cdn: &CdnPlatform) {
        for view in &mut self.clusters {
            let c = cdn.cluster(view.id);
            view.alive = c.alive;
            for (sid, _, alive) in &mut view.servers {
                *alive = cdn.server(*sid).alive;
            }
        }
    }

    /// Marks a cluster overloaded (or clears the mark) — the load
    /// feedback half of the health filter. An overloaded cluster is
    /// removed from candidate rows at serve time exactly like a dead
    /// one, except the widening fallback prefers a ranked overloaded
    /// cluster over leaving the ranking entirely. Returns false when
    /// `id` is not in this map. Like a liveness flip, the change only
    /// reaches cached authoritative answers once a new snapshot is
    /// published.
    pub fn set_cluster_overloaded(&mut self, id: ClusterId, overloaded: bool) -> bool {
        match self.clusters.iter_mut().find(|c| c.id == id) {
            Some(c) => {
                c.overloaded = overloaded;
                true
            }
            None => false,
        }
    }

    /// True when `id` is currently marked overloaded.
    pub fn cluster_overloaded(&self, id: ClusterId) -> bool {
        self.clusters.iter().any(|c| c.id == id && c.overloaded)
    }

    /// The ranked candidates that are actually servable — alive and not
    /// overloaded — in rank order, with their walk depth. Scoring and
    /// ranking happened at map-build time; this is the serve-time half
    /// of filter-then-score, and when every cluster is healthy it is the
    /// identity on the row.
    fn filter_candidates<'a>(
        &'a self,
        candidates: &'a [u32],
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        candidates.iter().enumerate().filter_map(|(depth, c)| {
            self.clusters
                .get(*c as usize)
                .filter(|v| v.alive && !v.overloaded)
                .map(|_| (depth, *c as usize))
        })
    }

    /// Filter-then-score serving pick: the first healthy cluster from a
    /// unit's ranked candidates, then a widening fallback chain when the
    /// filter empties the row — a ranked-but-overloaded cluster before
    /// abandoning the ranking, then any healthy cluster, finally any
    /// live one (overload beats outage, matching the local LB's
    /// server-level rule). The walk depth (primary / ranked alternate /
    /// overloaded / any-live escape) is recorded when telemetry is
    /// attached.
    fn pick_live(&self, candidates: &[u32]) -> Option<usize> {
        if let Some((depth, c)) = self.filter_candidates(candidates).next() {
            if let Some(t) = &self.telemetry {
                t.count_fallback(Some(depth));
            }
            return Some(c);
        }
        // Every healthy candidate was filtered away; a ranked overloaded
        // cluster still beats an off-ranking answer.
        if let Some(c) = candidates
            .iter()
            .map(|c| *c as usize)
            .find(|c| self.clusters.get(*c).is_some_and(|v| v.alive))
        {
            if let Some(t) = &self.telemetry {
                t.count_fallback_overloaded();
            }
            return Some(c);
        }
        let escape = self.escape_cluster();
        if let (Some(t), Some(_)) = (&self.telemetry, escape) {
            t.count_fallback(None);
        }
        escape
    }

    /// The escape cluster for answers with no usable ranking: the first
    /// healthy cluster, or the first live one when every live cluster is
    /// overloaded.
    fn escape_cluster(&self) -> Option<usize> {
        self.clusters
            .iter()
            .position(|c| c.alive && !c.overloaded)
            .or_else(|| self.clusters.iter().position(|c| c.alive))
    }

    /// The cluster index for an LDNS (NS-based path), under the scoring
    /// of the given traffic class.
    fn cluster_for_ldns(&self, ldns_ip: Ipv4Addr, class: TrafficClass) -> Option<usize> {
        match self.ldns_by_ip.get(&ldns_ip) {
            Some(u) => {
                if let Some(t) = &self.telemetry {
                    t.count_ns_unit(u.index());
                }
                self.pick_live(self.ns_candidates.get(class_slot(class))?.row(u.index()))
            }
            None => self.escape_cluster(),
        }
    }

    /// The cluster index for a client block (end-user path), with the
    /// scope length the answer is valid for.
    fn cluster_for_block(&self, client_block: Prefix, class: TrafficClass) -> Option<(usize, u8)> {
        let units = self.eu_units.as_ref()?;
        let unit = units.unit_for_block24(client_block)?;
        if let Some(t) = &self.telemetry {
            t.count_eu_unit(unit.index());
        }
        let table = self.eu_candidates.get(class_slot(class))?;
        let cluster = self.pick_live(table.row(unit.index()))?;
        let unit_len = match units.units.get(unit.index())?.key {
            UnitKey::Block(p) => p.len(),
            UnitKey::Ldns(_) => 24,
        };
        // Answer at unit granularity, but never coarser than the scope
        // floor (Fig 4's /20) and never finer than the /24 the query
        // carries.
        Some((cluster, unit_len.clamp(self.cfg.scope_floor.min(24), 24)))
    }

    /// Public inspection helper: a /24 client block's ranked candidate
    /// clusters, best first, *before* any serve-time health filtering
    /// (None when the block is unknown or the policy has no EU units).
    /// Equivalence tests walk this row themselves to model unfiltered
    /// selection.
    pub fn candidate_clusters_for_block(
        &self,
        block: Prefix,
        class: TrafficClass,
    ) -> Option<Vec<ClusterId>> {
        let units = self.eu_units.as_ref()?;
        let unit = units.unit_for_block24(block.truncate(24))?;
        Some(
            self.eu_candidates[class_slot(class)]
                .row(unit.index())
                .iter()
                .map(|c| self.clusters[*c as usize].id)
                .collect(),
        )
    }

    /// Public inspection helper: an LDNS's ranked candidate clusters,
    /// best first, before any serve-time health filtering (None when the
    /// resolver is unknown).
    pub fn candidate_clusters_for_ldns(
        &self,
        ldns_ip: Ipv4Addr,
        class: TrafficClass,
    ) -> Option<Vec<ClusterId>> {
        let u = self.ldns_by_ip.get(&ldns_ip)?;
        Some(
            self.ns_candidates[class_slot(class)]
                .row(u.index())
                .iter()
                .map(|c| self.clusters[*c as usize].id)
                .collect(),
        )
    }

    /// Public inspection helper: the cluster end-user mapping would pick
    /// for a /24 client block (None when the block is unknown or the
    /// policy has no EU units).
    pub fn assigned_cluster_for_block(&self, block: Prefix) -> Option<ClusterId> {
        self.assigned_cluster_for_block_class(block, TrafficClass::Web)
    }

    /// Like [`Self::assigned_cluster_for_block`] for a specific traffic
    /// class.
    pub fn assigned_cluster_for_block_class(
        &self,
        block: Prefix,
        class: TrafficClass,
    ) -> Option<ClusterId> {
        self.cluster_for_block(block.truncate(24), class)
            .map(|(c, _)| self.clusters[c].id)
    }

    /// Public inspection helper: the cluster NS-based mapping picks for an
    /// LDNS.
    pub fn assigned_cluster_for_ldns(&self, ldns_ip: Ipv4Addr) -> Option<ClusterId> {
        self.assigned_cluster_for_ldns_class(ldns_ip, TrafficClass::Web)
    }

    /// Like [`Self::assigned_cluster_for_ldns`] for a specific traffic
    /// class.
    pub fn assigned_cluster_for_ldns_class(
        &self,
        ldns_ip: Ipv4Addr,
        class: TrafficClass,
    ) -> Option<ClusterId> {
        self.cluster_for_ldns(ldns_ip, class)
            .map(|c| self.clusters[c].id)
    }

    /// Handles one authoritative query arriving at `server_ip`, updating
    /// the runtime counters. Single-owner entry point; the serving shards
    /// use the lock-free [`MappingSystem::decide_reply`] instead and keep their
    /// own statistics.
    pub fn handle(&mut self, server_ip: Ipv4Addr, query: &Message, ctx: &QueryContext) -> Message {
        let decision = self.decide_reply(server_ip, query, ctx);
        self.stats.queries += 1;
        if query.ecs().is_some() {
            self.stats.ecs_queries += 1;
        }
        if let Some(idx) = decision.domain {
            if server_ip == self.top_ip {
                self.stats.top_level_queries += 1;
            } else if self.ns_by_ip.contains_key(&server_ip) {
                self.stats.a_queries += 1;
                *self
                    .stats
                    .per_domain_ldns
                    .entry((idx, ctx.resolver_ip))
                    .or_insert(0) += 1;
            }
        }
        decision.to_message(query)
    }

    /// Answers one authoritative query arriving at `server_ip` without
    /// touching any counters: [`MappingSystem::decide_reply`] rendered as a
    /// [`Message`]. Callable through a shared reference from many
    /// threads at once.
    pub fn answer(&self, server_ip: Ipv4Addr, query: &Message, ctx: &QueryContext) -> Message {
        self.decide_reply(server_ip, query, ctx).to_message(query)
    }

    /// Decides the reply to one authoritative query arriving at
    /// `server_ip`: name → domain, cluster, servers, TTL, scope, rcode —
    /// and nothing else. The pure serving path: reads only in-memory map
    /// state, allocates nothing, and is callable through a shared
    /// reference from many threads at once (the only interior mutation is
    /// the relaxed round-robin rotation). Render the result with
    /// [`Decision::to_message`] or [`Decision::render_into`].
    pub fn decide_reply(
        &self,
        server_ip: Ipv4Addr,
        query: &Message,
        ctx: &QueryContext,
    ) -> Decision {
        let Some(question) = query.questions.first() else {
            return self.error(Rcode::FormErr);
        };
        if !question.name.is_within(&self.suffix) {
            return self.error(Rcode::Refused);
        }
        // The NetSession LDNS-discovery probe (§3.1): `whoami.<suffix>`
        // answers with the unicast IP of the querying resolver, letting a
        // client learn which LDNS serves it. TTL 0: never cacheable.
        if question.name == self.whoami {
            self.note(AnswerPath::Whoami);
            return Decision {
                body: ReplyBody::Whoami(ctx.resolver_ip),
                ..Decision::EMPTY
            };
        }
        let Some((idx, domain)) = self.names.get(&self.catalog, &question.name) else {
            return Decision {
                scope: query.ecs().map(|_| 0),
                ..self.error(Rcode::NxDomain)
            };
        };
        let decision = if server_ip == self.top_ip {
            self.decide_top_level(query, domain.class, ctx)
        } else if self.ns_by_ip.contains_key(&server_ip) {
            self.decide_low_level(query, idx, domain, ctx)
        } else {
            self.error(Rcode::Refused)
        };
        Decision {
            domain: Some(idx),
            ..decision
        }
    }

    /// An error decision, counted.
    fn error(&self, rcode: Rcode) -> Decision {
        self.note(AnswerPath::Error);
        Decision {
            rcode,
            ..Decision::EMPTY
        }
    }

    /// Records an answer-path count when telemetry is attached.
    fn note(&self, path: AnswerPath) {
        if let Some(t) = &self.telemetry {
            t.count_answer(path);
        }
    }

    /// Top-level: delegate the domain toward a cluster close to the LDNS.
    fn decide_top_level(
        &self,
        query: &Message,
        class: TrafficClass,
        ctx: &QueryContext,
    ) -> Decision {
        let cluster = self
            .cluster_for_ldns(ctx.resolver_ip, class)
            .and_then(|c| self.clusters.get(c));
        let Some(view) = cluster else {
            return self.error(Rcode::ServFail);
        };
        self.note(AnswerPath::TopLevel);
        Decision {
            body: ReplyBody::Delegation {
                cluster: view.id,
                ns_ip: view.ns_ip,
            },
            ttl_s: self.cfg.ns_ttl_s,
            // Delegations are per-LDNS; if ECS was present, scope 0 keeps
            // the referral cacheable for all the LDNS's clients.
            scope: query.ecs().map(|_| 0),
            ..Decision::EMPTY
        }
    }

    /// Low-level: answer A with local-LB-chosen servers of the unit's
    /// assigned cluster.
    fn decide_low_level(
        &self,
        query: &Message,
        domain_idx: u32,
        domain: &HostedDomain,
        ctx: &QueryContext,
    ) -> Decision {
        // End-user path: ECS present and policy consumes it.
        let ecs_path = match (self.cfg.policy.uses_ecs(), query.ecs()) {
            (true, Some(ecs)) => {
                let block = ecs.source_block().truncate(24);
                self.cluster_for_block(block, domain.class)
                    .map(|(c, scope)| (c, scope.min(ecs.source_prefix)))
            }
            _ => None,
        };
        let (cluster, scope) = match ecs_path {
            Some((c, scope)) => {
                self.note(AnswerPath::EndUser);
                (c, Some(scope))
            }
            None => {
                let Some(c) = self.cluster_for_ldns(ctx.resolver_ip, domain.class) else {
                    return self.error(Rcode::ServFail);
                };
                self.note(AnswerPath::Ns);
                // NS-derived answers are client-independent: scope 0.
                (c, query.ecs().map(|_| 0))
            }
        };
        let servfail = Decision {
            rcode: Rcode::ServFail,
            ..Decision::EMPTY
        };
        let Some(view) = self.clusters.get(cluster) else {
            return servfail;
        };
        let member = |s: ServerId| view.servers.iter().find(|(sid, _, _)| *sid == s);
        let alive = |s: ServerId| member(s).is_some_and(|(_, _, alive)| *alive);
        let key = match self.cfg.local_lb {
            LocalLbPolicy::ConsistentHash => domain_key(domain_idx),
            LocalLbPolicy::RoundRobin => {
                // Per-query rotation keyed by an atomic tick: load is
                // spread evenly but each domain touches every server.
                if let Some(t) = &self.telemetry {
                    t.count_rr_rotation();
                }
                let tick = self
                    .rr_counter
                    // relaxed-ok: round-robin tick; only uniqueness of the
                    // draw matters, not ordering against other memory
                    .fetch_add(1, Ordering::Relaxed)
                    .wrapping_add(1);
                domain_key(domain_idx) ^ tick.wrapping_mul(0x9E37_79B9)
            }
        };
        let mut picked = [ServerId(0); MAX_ANSWER_SERVERS];
        let want = self.cfg.servers_per_answer.min(MAX_ANSWER_SERVERS);
        let n_picked = picked
            .get_mut(..want)
            .map_or(0, |out| view.ring.pick_into(key, out, alive));
        let mut ips = [Ipv4Addr::UNSPECIFIED; MAX_ANSWER_SERVERS];
        let mut n = 0u8;
        let found = picked.iter().take(n_picked).filter_map(|s| member(*s));
        for (slot, (_, ip, _)) in ips.iter_mut().zip(found) {
            *slot = *ip;
            n += 1;
        }
        if n == 0 {
            return servfail;
        }
        Decision {
            body: ReplyBody::Addresses { ips, n },
            ttl_s: domain.ttl_s,
            scope,
            ..Decision::EMPTY
        }
    }
}

/// Most server IPs one A answer carries: a [`Decision`] holds them in a
/// fixed array, so [`MappingConfig::servers_per_answer`] is clamped here.
pub const MAX_ANSWER_SERVERS: usize = 8;

/// The records a reply carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyBody {
    /// None: every error reply.
    Empty,
    /// The LDNS-discovery probe: an A and a TXT record, both naming the
    /// querying resolver.
    Whoami(Ipv4Addr),
    /// A top-level referral to `n<cluster>.<qname>`, with its glue.
    Delegation {
        /// The cluster delegated to (names the NS record's target).
        cluster: ClusterId,
        /// That cluster's name-server address (the glue record).
        ns_ip: Ipv4Addr,
    },
    /// A low-level answer: one A record per address.
    Addresses {
        /// The chosen servers; only the first `n` are meaningful.
        ips: [Ipv4Addr; MAX_ANSWER_SERVERS],
        /// How many of `ips` the answer carries.
        n: u8,
    },
}

/// What [`MappingSystem::decide_reply`] decided for one query: everything the
/// reply says, before it is rendered either as a [`Message`]
/// ([`Decision::to_message`] — the simulator, tests) or as wire bytes
/// ([`Decision::render_into`] — the authoritative serve path). Both
/// renderers read only this value and the query, so they cannot disagree
/// about the answer, only about its encoding — and
/// `crates/authd/tests/serve_diff.rs` pins that they do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The response code.
    pub rcode: Rcode,
    /// Catalog index of the queried name, when it is a hosted domain
    /// (set on SERVFAIL and REFUSED-by-server-IP replies too).
    pub domain: Option<u32>,
    /// The reply's records.
    pub body: ReplyBody,
    /// The TTL every record of `body` carries (0 for an empty body).
    pub ttl_s: u32,
    /// The ECS scope the reply announces. `None` when the reply carries
    /// no ECS option: the query had none, or the shape never echoes one
    /// (whoami, FORMERR, REFUSED, SERVFAIL).
    pub scope: Option<u8>,
}

impl Decision {
    /// NOERROR with no records, domain, TTL or scope: the base every
    /// decision is spelled as a difference from.
    const EMPTY: Decision = Decision {
        rcode: Rcode::NoError,
        domain: None,
        body: ReplyBody::Empty,
        ttl_s: 0,
        scope: None,
    };

    /// Renders the decision as the response [`Message`] to `query`.
    pub fn to_message(&self, query: &Message) -> Message {
        let mut resp = Message::response_to(query, self.rcode);
        let Some(qname) = query.questions.first().map(|q| &q.name) else {
            return resp;
        };
        match self.body {
            ReplyBody::Empty => {}
            ReplyBody::Whoami(resolver) => {
                resp.answers.push(Record::a(qname.clone(), 0, resolver));
                resp.answers.push(Record {
                    name: qname.clone(),
                    ttl: 0,
                    rdata: eum_dns::RData::Txt(format!("resolver={resolver}")),
                });
            }
            ReplyBody::Delegation { cluster, ns_ip } => {
                resp.flags.aa = false;
                let ns_name = qname
                    .child(&format!("n{}", cluster.0))
                    .expect("valid generated label");
                resp.authorities
                    .push(Record::ns(qname.clone(), self.ttl_s, ns_name.clone()));
                resp.additionals.push(Record::a(ns_name, self.ttl_s, ns_ip));
            }
            ReplyBody::Addresses { ips, n } => {
                for ip in ips.iter().take(usize::from(n)) {
                    resp.answers.push(Record::a(qname.clone(), self.ttl_s, *ip));
                }
            }
        }
        if let (Some(scope), Some(ecs)) = (self.scope, query.ecs()) {
            resp.set_opt(OptData::with_ecs(EcsOption::response(ecs, scope)));
        }
        resp
    }

    /// Renders the decision into `out` as the wire *template* of the
    /// response to `query`: transaction ID 0, RD clear and no OPT record
    /// — the three per-query parts the authoritative cache patches in on
    /// every replay, so one encode serves the miss and every later hit.
    /// Clears `out` first; allocation-free once `out` has capacity.
    ///
    /// For a single-question query the bytes equal
    /// `encode_message(&self.to_message(query))` with those three parts
    /// normalised: record owners are compression pointers to the question
    /// name at offset 12, and a delegation's glue owner points at the NS
    /// record's target. Extra questions are echoed uncompressed.
    pub fn render_into(&self, query: &Message, out: &mut Vec<u8>) {
        /// Compression pointer to the first question's name.
        const QNAME: u16 = 0xC000 | 12;
        out.clear();
        let (an, ns, ar) = match self.body {
            ReplyBody::Empty => (0, 0, 0),
            ReplyBody::Whoami(_) => (2, 0, 0),
            ReplyBody::Delegation { .. } => (0, 1, 1),
            ReplyBody::Addresses { n, .. } => (u16::from(n), 0, 0),
        };
        // Delegations are not authoritative data.
        let aa = !matches!(self.body, ReplyBody::Delegation { .. });
        let flags = 0x8000 | u16::from(aa) << 10 | u16::from(self.rcode.code());
        for word in [0, flags, query.questions.len() as u16, an, ns, ar] {
            out.extend_from_slice(&word.to_be_bytes());
        }
        for q in &query.questions {
            out.extend_from_slice(q.name.wire());
            out.push(0);
            out.extend_from_slice(&q.rtype.code().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // IN
        }
        match self.body {
            ReplyBody::Empty => {}
            ReplyBody::Whoami(resolver) => {
                put_rr_head(out, QNAME, RrType::A, 0, 4);
                out.extend_from_slice(&resolver.octets());
                let mut text = [0u8; 32];
                let len = write_to(&mut text, format_args!("resolver={resolver}"));
                put_rr_head(out, QNAME, RrType::Txt, 0, 1 + len as u16);
                out.push(len as u8);
                out.extend_from_slice(text.get(..len).unwrap_or_default());
            }
            ReplyBody::Delegation { cluster, ns_ip } => {
                let mut label = [0u8; 16];
                let len = write_to(&mut label, format_args!("n{}", cluster.0));
                put_rr_head(out, QNAME, RrType::Ns, self.ttl_s, 1 + len as u16 + 2);
                // A pointer reaches only the first 16 KiB of a message.
                let target = u16::try_from(out.len()).ok().filter(|at| *at < 0x4000);
                out.push(len as u8);
                out.extend_from_slice(label.get(..len).unwrap_or_default());
                out.extend_from_slice(&QNAME.to_be_bytes());
                // The glue's owner is the NS target, just written.
                put_rr_head(
                    out,
                    target.map_or(QNAME, |at| 0xC000 | at),
                    RrType::A,
                    self.ttl_s,
                    4,
                );
                out.extend_from_slice(&ns_ip.octets());
            }
            ReplyBody::Addresses { ips, n } => {
                for ip in ips.iter().take(usize::from(n)) {
                    put_rr_head(out, QNAME, RrType::A, self.ttl_s, 4);
                    out.extend_from_slice(&ip.octets());
                }
            }
        }
    }
}

/// Appends one record up to its RDATA: owner (a compression pointer),
/// TYPE, CLASS IN, TTL, RDLENGTH.
fn put_rr_head(out: &mut Vec<u8>, owner: u16, rtype: RrType, ttl_s: u32, rdlen: u16) {
    out.extend_from_slice(&owner.to_be_bytes());
    out.extend_from_slice(&rtype.code().to_be_bytes());
    out.extend_from_slice(&1u16.to_be_bytes());
    out.extend_from_slice(&ttl_s.to_be_bytes());
    out.extend_from_slice(&rdlen.to_be_bytes());
}

/// Formats `args` into `buf` without touching the heap; returns the
/// bytes written (what fits — callers size `buf` for their longest text).
fn write_to(buf: &mut [u8], args: std::fmt::Arguments<'_>) -> usize {
    use std::io::Write;
    let mut rest = &mut *buf;
    let _ = rest.write_fmt(args);
    let left = rest.len();
    buf.len() - left
}

/// Name → catalog index, built once per [`MappingSystem`] (the catalog is
/// immutable from then on, so the table cannot go stale): open-addressed
/// slots of domain indices, [`NO_CANDIDATE`] when empty, keyed by a hash
/// of the name's wire form — a power-of-two count at least twice the
/// catalog's, so probe chains stay short. A probe is verified against
/// `domains[i].cdn_name` itself: colliding names cost a comparison, and
/// no name is stored twice.
struct DomainIndex {
    slots: Vec<u32>,
    hash: fn(&[u8]) -> u64,
}

/// FNV-1a. The table's keys are the operator's own catalog, not traffic:
/// a querier can choose which chain it probes, not lengthen one.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl DomainIndex {
    fn build(catalog: &ContentCatalog, hash: fn(&[u8]) -> u64) -> DomainIndex {
        let mut slots = vec![NO_CANDIDATE; (catalog.len() * 2).next_power_of_two()];
        let mask = slots.len() - 1;
        for (i, d) in catalog.domains.iter().enumerate() {
            let mut at = hash(d.cdn_name.wire()) as usize & mask;
            while slots[at] != NO_CANDIDATE {
                at = (at + 1) & mask;
            }
            slots[at] = i as u32;
        }
        DomainIndex { slots, hash }
    }

    /// The hosted domain named `name`, with its catalog index.
    fn get<'c>(
        &self,
        catalog: &'c ContentCatalog,
        name: &DnsName,
    ) -> Option<(u32, &'c HostedDomain)> {
        let mask = self.slots.len() - 1;
        let home = (self.hash)(name.wire()) as usize;
        for step in 0..=mask {
            let idx = *self.slots.get(home.wrapping_add(step) & mask)?;
            // An empty slot ends the chain: the name is not hosted.
            let domain = catalog.domains.get(idx as usize)?;
            if domain.cdn_name == *name {
                return Some((idx, domain));
            }
        }
        None
    }
}

/// Deduped, ascending, in-range rescore rows from a (possibly messy)
/// hint list.
fn normalize_hints(hints: &[UnitId], n_units: usize) -> Vec<UnitId> {
    let mut rows: Vec<UnitId> = hints
        .iter()
        .copied()
        .filter(|u| u.index() < n_units)
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

/// An end-user unit's scoring vantage: its centroid with the mean member
/// access latency, carrying the first member's addressing/AS identity.
fn eu_unit_vantage(net: &Internet, u: &MapUnitInfo) -> Endpoint {
    let access = u
        .members
        .iter()
        .map(|b| net.block(*b).access_ms)
        .sum::<f64>()
        / u.members.len().max(1) as f64;
    let b0 = net.block(u.members[0]);
    Endpoint::client(b0.client_ip(), u.centroid, b0.country, b0.asn, access)
}

/// Rows the solves recomputed past the stored ranks: one count per
/// class slot, then one for a scoring shared by every class.
type Spills = [usize; 4];

/// Re-solves every class over its cached ranking tables and rebuilds the
/// candidate rows, keeping the previous `Arc` whenever the contents come
/// out identical (generation-over-generation structural sharing, and the
/// cheap "nothing changed" signal for delta extraction). Reads past a
/// table's stored ranks recompute the unit's row from `inputs`.
#[allow(clippy::too_many_arguments)] // one solve's inputs, spelled out
fn solve_candidates(
    cfg: &MappingConfig,
    units: &MapUnits,
    inputs: &ScoreInputs,
    tables: &[ClassTables],
    capacity: &[f64],
    usable: &[bool],
    old: &Candidates,
    spills: &mut Spills,
) -> Candidates {
    let mut solve_one = |t: &ClassTables, slot: usize| -> Arc<CandidateTable> {
        let whole_row = |u: usize| inputs.whole_row(u, &t.weights);
        let mut ranks = Ranking::new(&t.prefs, Some(&whole_row));
        let assignment = solve(cfg.algorithm, units, &mut ranks, capacity, usable);
        let built = CandidateTable::build(units, &mut ranks, &assignment, cfg.candidates_per_unit);
        spills[slot] += ranks.spills();
        let prev = &old[slot % 3];
        if built == **prev {
            prev.clone()
        } else {
            Arc::new(built)
        }
    };
    match tables {
        // Per-class scoring off: one table serves every slot.
        [t] => {
            let arc = solve_one(t, 3);
            [arc.clone(), arc.clone(), arc]
        }
        [w, v, d] => [solve_one(w, 0), solve_one(v, 1), solve_one(d, 2)],
        _ => unreachable!("class tables come in sets of 1 or 3"),
    }
}

/// Per-unit dirty flags across a candidate-table swap: a unit is dirty
/// when any class's candidate row changed, or any cluster on its row is
/// itself serving-visibly changed (liveness/server churn).
fn dirty_units(
    old: &Candidates,
    new: &Candidates,
    n_units: usize,
    changed_cluster: &[bool],
) -> Vec<bool> {
    let mut dirty = vec![false; n_units];
    for (o, n) in old.iter().zip(new.iter()) {
        let rows_equal = Arc::ptr_eq(o, n);
        for (u, d) in dirty.iter_mut().enumerate() {
            if *d {
                continue;
            }
            let row = n.row(u);
            if (!rows_equal && o.row(u) != row) || row.iter().any(|c| changed_cluster[*c as usize])
            {
                *d = true;
            }
        }
    }
    dirty
}

#[cfg(test)]
mod tests {
    use super::*;
    use eum_cdn::{deployment_universe, CatalogConfig, DeployConfig};
    use eum_dns::message::Question;
    use eum_dns::name::name;
    use eum_netmodel::InternetConfig;

    struct World {
        net: Internet,
        cdn: CdnPlatform,
        catalog: ContentCatalog,
        map: MappingSystem,
    }

    fn world(policy: MappingPolicy) -> World {
        let mut net = Internet::generate(InternetConfig::tiny(0xAB));
        let sites = deployment_universe(0xAB, 16);
        let cdn = CdnPlatform::deploy(
            &mut net,
            &sites,
            &DeployConfig {
                servers_per_cluster: 4,
                cache_objects_per_server: 256,
                cluster_capacity: f64::INFINITY,
            },
        );
        let catalog = ContentCatalog::generate(&CatalogConfig::tiny(0xAB));
        let map = MappingSystem::build(
            &mut net,
            &cdn,
            &catalog,
            name("cdn.example"),
            MappingConfig {
                policy,
                max_ping_targets: 50,
                ..MappingConfig::default()
            },
        );
        World {
            net,
            cdn,
            catalog,
            map,
        }
    }

    fn ctx(resolver_ip: Ipv4Addr) -> QueryContext {
        QueryContext {
            resolver_ip,
            now_ms: 0,
        }
    }

    #[test]
    fn top_level_delegates_with_glue() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[0].ip;
        let q = Message::query(1, Question::a(name("e0.cdn.example")), None);
        let top = w.map.top_level_ip();
        let resp = w.map.handle(top, &q, &ctx(ldns));
        assert_eq!(resp.flags.rcode, Rcode::NoError);
        assert_eq!(resp.authorities.len(), 1);
        assert_eq!(resp.additionals.len(), 1);
        assert!(w.map.stats.top_level_queries == 1);
    }

    #[test]
    fn low_level_answers_two_servers_of_one_cluster() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[0].ip;
        let low_ip = w.map.ns_ips()[1];
        let q = Message::query(2, Question::a(name("e0.cdn.example")), None);
        let resp = w.map.handle(low_ip, &q, &ctx(ldns));
        let ips = resp.answer_ips();
        assert_eq!(ips.len(), 2);
        // Both servers belong to the same cluster.
        let c0 = w.cdn.server(w.cdn.server_by_ip(ips[0]).unwrap()).cluster;
        let c1 = w.cdn.server(w.cdn.server_by_ip(ips[1]).unwrap()).cluster;
        assert_eq!(c0, c1);
        assert_eq!(resp.answers[0].ttl, w.catalog.domains[0].ttl_s);
    }

    #[test]
    fn same_domain_same_cluster_hits_same_servers() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[0].ip;
        let low_ip = w.map.ns_ips()[1];
        let q = Message::query(3, Question::a(name("e1.cdn.example")), None);
        let a = w.map.handle(low_ip, &q, &ctx(ldns)).answer_ips();
        let b = w.map.handle(low_ip, &q, &ctx(ldns)).answer_ips();
        assert_eq!(a, b, "local LB must be stable for cache locality");
    }

    #[test]
    fn ns_based_ignores_ecs_and_answers_scope_zero() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[0].ip;
        let low_ip = w.map.ns_ips()[1];
        let client = w.net.blocks[0].client_ip();
        let ecs = EcsOption::query(client, 24);
        let q = Message::query(
            4,
            Question::a(name("e0.cdn.example")),
            Some(OptData::with_ecs(ecs)),
        );
        let resp = w.map.handle(low_ip, &q, &ctx(ldns));
        assert_eq!(resp.ecs().unwrap().scope_prefix, 0);
    }

    #[test]
    fn end_user_uses_ecs_with_narrowed_scope() {
        let mut w = world(MappingPolicy::end_user_default());
        let ldns = w.net.resolvers[0].ip;
        let low_ip = w.map.ns_ips()[1];
        let block = &w.net.blocks[0];
        let ecs = EcsOption::query(block.client_ip(), 24);
        let q = Message::query(
            5,
            Question::a(name("e0.cdn.example")),
            Some(OptData::with_ecs(ecs)),
        );
        let resp = w.map.handle(low_ip, &q, &ctx(ldns));
        let out = resp.ecs().unwrap();
        assert!(out.scope_prefix > 0, "EU answers must be scoped");
        assert!(out.scope_prefix <= 24, "y ≤ x per §2.1");
        assert!(!resp.answer_ips().is_empty());
        // The answer matches the mapping system's own EU assignment.
        let expect = w.map.assigned_cluster_for_block(block.prefix).unwrap();
        let got = w
            .cdn
            .server(w.cdn.server_by_ip(resp.answer_ips()[0]).unwrap())
            .cluster;
        assert_eq!(got, expect);
    }

    #[test]
    fn end_user_beats_ns_for_distant_public_ldns() {
        // Find a block far from its (public) LDNS; EU must map it closer.
        let w = world(MappingPolicy::end_user_default());
        let candidate = w
            .net
            .blocks
            .iter()
            .filter(|b| {
                let (r, _) = b.ldns[b.ldns.len() - 1];
                w.net.is_public_resolver(r) && b.loc.distance_miles(&w.net.resolver(r).loc) > 2000.0
            })
            .max_by(|a, b| a.demand.partial_cmp(&b.demand).unwrap())
            .cloned();
        let Some(block) = candidate else {
            // Universe too small to contain the pattern — regenerate with
            // another seed rather than asserting vacuously.
            panic!("tiny universe lacks a distant public-resolver client");
        };
        let (rid, _) = block.ldns[block.ldns.len() - 1];
        let ldns_ip = w.net.resolver(rid).ip;
        let eu_cluster = w.map.assigned_cluster_for_block(block.prefix).unwrap();
        let ns_cluster = w.map.assigned_cluster_for_ldns(ldns_ip).unwrap();
        let d_eu = w.cdn.cluster(eu_cluster).loc.distance_miles(&block.loc);
        let d_ns = w.cdn.cluster(ns_cluster).loc.distance_miles(&block.loc);
        assert!(
            d_eu <= d_ns + 1.0,
            "EU mapped {} miles away, NS {} miles",
            d_eu,
            d_ns
        );
    }

    #[test]
    fn unknown_domain_is_nxdomain_and_foreign_zone_refused() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[0].ip;
        let top = w.map.top_level_ip();
        let q = Message::query(6, Question::a(name("nope.cdn.example")), None);
        assert_eq!(
            w.map.handle(top, &q, &ctx(ldns)).flags.rcode,
            Rcode::NxDomain
        );
        let q = Message::query(7, Question::a(name("www.other.example")), None);
        assert_eq!(
            w.map.handle(top, &q, &ctx(ldns)).flags.rcode,
            Rcode::Refused
        );
    }

    #[test]
    fn every_catalog_name_resolves_to_its_own_index() {
        let w = world(MappingPolicy::NsBased);
        for (i, d) in w.catalog.domains.iter().enumerate() {
            let (idx, found) = w
                .map
                .names
                .get(&w.catalog, &d.cdn_name)
                .expect("hosted name");
            assert_eq!(idx as usize, i);
            assert_eq!(found.cdn_name, d.cdn_name);
            // The index and the catalog's own scan agree.
            assert_eq!(
                w.catalog.by_cdn_name(&d.cdn_name).map(|(i, _)| i),
                Some(idx)
            );
            // `handle` counts under the decision's index, not a second lookup.
            let q = Message::query(1, Question::a(d.cdn_name.clone()), None);
            assert_eq!(
                w.map
                    .decide_reply(w.map.top_level_ip(), &q, &ctx(Ipv4Addr::LOCALHOST))
                    .domain,
                Some(idx)
            );
        }
        for stranger in ["nope.cdn.example", "e0.e0.cdn.example", "cdn.example"] {
            assert!(w.map.names.get(&w.catalog, &name(stranger)).is_none());
            let q = Message::query(2, Question::a(name(stranger)), None);
            let d = w
                .map
                .decide_reply(w.map.top_level_ip(), &q, &ctx(Ipv4Addr::LOCALHOST));
            assert_eq!((d.rcode, d.domain), (Rcode::NxDomain, None), "{stranger}");
        }
    }

    #[test]
    fn names_sharing_a_hash_bucket_all_resolve() {
        let w = world(MappingPolicy::NsBased);
        // Every name hashes to slot 7: the whole catalog is one chain.
        let crowded = DomainIndex::build(&w.catalog, |_| 7);
        for (i, d) in w.catalog.domains.iter().enumerate() {
            let (idx, _) = crowded.get(&w.catalog, &d.cdn_name).expect("hosted name");
            assert_eq!(idx as usize, i);
        }
        assert!(crowded.get(&w.catalog, &name("nope.cdn.example")).is_none());
    }

    /// `render_into` writes exactly what encoding `to_message` would,
    /// minus the three per-query parts the cache patches back in.
    #[test]
    fn wire_template_equals_encoded_message_sans_per_query_parts() {
        let mut w = world(MappingPolicy::end_user_default());
        let ldns = w.net.resolvers[0].ip;
        let client = w.net.blocks[0].client_ip();
        let low = w.map.ns_ips()[1];
        let ecs = || Some(OptData::with_ecs(EcsOption::query(client, 24)));
        let shapes = |map: &MappingSystem| {
            let mut wire = Vec::new();
            for (server, qname, opt) in [
                (low, "e0.cdn.example", ecs()),
                (low, "e1.cdn.example", None),
                (map.top_level_ip(), "e2.cdn.example", ecs()),
                (low, "whoami.cdn.example", ecs()),
                (low, "nope.cdn.example", ecs()),
                (low, "www.example.org", None),
            ] {
                let q = Message::query(77, Question::a(name(qname)), opt);
                let d = map.decide_reply(server, &q, &ctx(ldns));
                let mut template = d.to_message(&q);
                template.id = 0;
                template.flags.rd = false;
                template
                    .additionals
                    .retain(|r| !matches!(r.rdata, eum_dns::RData::Opt(_)));
                d.render_into(&q, &mut wire);
                assert_eq!(
                    wire,
                    eum_dns::encode_message(&template),
                    "{qname} at {server}"
                );
            }
        };
        shapes(&w.map);
        // …and the SERVFAIL shapes of a platform with nothing alive.
        for id in w.cdn.clusters.iter().map(|c| c.id).collect::<Vec<_>>() {
            w.cdn.set_cluster_alive(id, false);
        }
        w.map.refresh_liveness(&w.cdn);
        shapes(&w.map);
    }

    #[test]
    fn dead_cluster_is_avoided_after_refresh() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[0].ip;
        let assigned = w.map.assigned_cluster_for_ldns(ldns).unwrap();
        w.cdn.set_cluster_alive(assigned, false);
        w.map.refresh_liveness(&w.cdn);
        let now = w.map.assigned_cluster_for_ldns(ldns).unwrap();
        assert_ne!(now, assigned, "mapping must fail over from a dead cluster");
        // Revive: assignment returns.
        w.cdn.set_cluster_alive(assigned, true);
        w.map.refresh_liveness(&w.cdn);
        assert_eq!(w.map.assigned_cluster_for_ldns(ldns).unwrap(), assigned);
    }

    #[test]
    fn dead_server_is_not_answered() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[0].ip;
        let low_ip = w.map.ns_ips()[1];
        let q = Message::query(8, Question::a(name("e0.cdn.example")), None);
        let first = w.map.handle(low_ip, &q, &ctx(ldns)).answer_ips();
        // Kill the primary server.
        let dead = w.cdn.server_by_ip(first[0]).unwrap();
        w.cdn.servers[dead.index()].alive = false;
        w.map.refresh_liveness(&w.cdn);
        let second = w.map.handle(low_ip, &q, &ctx(ldns)).answer_ips();
        assert!(!second.contains(&first[0]), "dead server still answered");
        assert_eq!(second.len(), 2);
    }

    #[test]
    fn round_robin_local_lb_spreads_across_servers() {
        let mut net = Internet::generate(InternetConfig::tiny(0xAB));
        let sites = deployment_universe(0xAB, 16);
        let cdn = CdnPlatform::deploy(
            &mut net,
            &sites,
            &DeployConfig {
                servers_per_cluster: 4,
                cache_objects_per_server: 256,
                cluster_capacity: f64::INFINITY,
            },
        );
        let catalog = ContentCatalog::generate(&CatalogConfig::tiny(0xAB));
        let mut map = MappingSystem::build(
            &mut net,
            &cdn,
            &catalog,
            name("cdn.example"),
            MappingConfig {
                policy: MappingPolicy::NsBased,
                local_lb: LocalLbPolicy::RoundRobin,
                max_ping_targets: 50,
                ..MappingConfig::default()
            },
        );
        let ldns = net.resolvers[0].ip;
        let low_ip = map.ns_ips()[1];
        let mut primaries = std::collections::BTreeSet::new();
        for i in 0..12u16 {
            let q = Message::query(i, Question::a(name("e0.cdn.example")), None);
            let resp = map.handle(low_ip, &q, &ctx(ldns));
            primaries.insert(resp.answer_ips()[0]);
        }
        assert!(
            primaries.len() >= 3,
            "round robin used only {} distinct primaries",
            primaries.len()
        );
    }

    #[test]
    fn per_domain_ldns_counters_accumulate() {
        let mut w = world(MappingPolicy::end_user_default());
        let ldns = w.net.resolvers[0].ip;
        let low_ip = w.map.ns_ips()[1];
        for i in 0..5u16 {
            let q = Message::query(10 + i, Question::a(name("e0.cdn.example")), None);
            let _ = w.map.handle(low_ip, &q, &ctx(ldns));
        }
        assert_eq!(w.map.stats.a_queries, 5);
        assert_eq!(w.map.stats.per_domain_ldns[&(0, ldns)], 5);
    }

    #[test]
    fn rebuild_reacts_to_capacity_changes_and_keeps_stats() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[0].ip;
        // Serve one query so stats are non-zero.
        let q = Message::query(1, Question::a(name("e0.cdn.example")), None);
        let top = w.map.top_level_ip();
        let _ = w.map.handle(top, &q, &ctx(ldns));
        let queries_before = w.map.stats.queries;
        let assigned = w.map.assigned_cluster_for_ldns(ldns).unwrap();

        // Starve the assigned cluster's capacity and refresh the map.
        let total = w.net.total_demand();
        for c in &mut w.cdn.clusters {
            c.capacity = if c.id == assigned {
                total * 1e-6
            } else {
                total
            };
        }
        w.map.rebuild(&w.net, &w.cdn);
        let after = w.map.assigned_cluster_for_ldns(ldns).unwrap();
        assert_ne!(after, assigned, "map refresh must honor new capacities");
        assert_eq!(w.map.stats.queries, queries_before, "stats survive rebuild");
        assert_eq!(w.map.top_level_ip(), top, "NS identity survives rebuild");

        // And the system still answers queries after the refresh.
        let resp = w.map.handle(top, &q, &ctx(ldns));
        assert_eq!(resp.flags.rcode, Rcode::NoError);
    }

    #[test]
    fn traffic_classes_can_map_differently() {
        // §2.2: per-class scoring functions. Video scoring weighs loss
        // far more than latency, so some units land on different clusters
        // than under web scoring.
        let w = world(MappingPolicy::end_user_default());
        let mut differ = 0usize;
        let mut total = 0usize;
        for b in &w.net.blocks {
            let web = w
                .map
                .assigned_cluster_for_block_class(b.prefix, TrafficClass::Web);
            let video = w
                .map
                .assigned_cluster_for_block_class(b.prefix, TrafficClass::Video);
            if let (Some(web), Some(video)) = (web, video) {
                total += 1;
                if web != video {
                    differ += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            differ > 0,
            "video scoring never changed an assignment over {total} blocks"
        );
        // But the classes must not disagree wildly — latency still matters.
        assert!(
            differ * 2 < total,
            "{differ}/{total} blocks differ — scoring looks unstable"
        );
    }

    #[test]
    fn disabling_per_class_scoring_unifies_assignments() {
        let mut net = Internet::generate(InternetConfig::tiny(0xAB));
        let sites = deployment_universe(0xAB, 16);
        let cdn = CdnPlatform::deploy(
            &mut net,
            &sites,
            &DeployConfig {
                servers_per_cluster: 4,
                cache_objects_per_server: 256,
                cluster_capacity: f64::INFINITY,
            },
        );
        let catalog = ContentCatalog::generate(&CatalogConfig::tiny(0xAB));
        let map = MappingSystem::build(
            &mut net,
            &cdn,
            &catalog,
            name("cdn.example"),
            MappingConfig {
                per_class_scoring: false,
                max_ping_targets: 50,
                ..MappingConfig::default()
            },
        );
        for b in net.blocks.iter().take(40) {
            let web = map.assigned_cluster_for_block_class(b.prefix, TrafficClass::Web);
            let video = map.assigned_cluster_for_block_class(b.prefix, TrafficClass::Video);
            let dl = map.assigned_cluster_for_block_class(b.prefix, TrafficClass::Download);
            assert_eq!(web, video);
            assert_eq!(web, dl);
        }
    }

    #[test]
    fn whoami_reveals_the_querying_resolver() {
        let mut w = world(MappingPolicy::NsBased);
        let ldns = w.net.resolvers[3].ip;
        let q = Message::query(1, Question::a(w.map.whoami_name()), None);
        for server in [w.map.top_level_ip(), w.map.ns_ips()[1]] {
            let resp = w.map.handle(server, &q, &ctx(ldns));
            assert_eq!(resp.flags.rcode, Rcode::NoError);
            assert_eq!(resp.answer_ips(), vec![ldns]);
            assert_eq!(resp.answers[0].ttl, 0, "whoami must not be cacheable");
        }
    }

    #[test]
    fn unknown_ecs_block_falls_back_to_ns_mapping() {
        let mut w = world(MappingPolicy::end_user_default());
        let ldns = w.net.resolvers[0].ip;
        let low_ip = w.map.ns_ips()[1];
        // A client block that does not exist in the universe.
        let ecs = EcsOption::query("203.0.113.7".parse().unwrap(), 24);
        let q = Message::query(
            9,
            Question::a(name("e0.cdn.example")),
            Some(OptData::with_ecs(ecs)),
        );
        let resp = w.map.handle(low_ip, &q, &ctx(ldns));
        assert!(!resp.answer_ips().is_empty());
        assert_eq!(
            resp.ecs().unwrap().scope_prefix,
            0,
            "fallback answers are global"
        );
    }

    /// Assignments for every block and resolver across all classes — the
    /// full externally-visible mapping surface.
    fn all_assignments(w: &World) -> Vec<Option<ClusterId>> {
        let mut out = Vec::new();
        for class in TrafficClass::ALL {
            for b in &w.net.blocks {
                out.push(w.map.assigned_cluster_for_block_class(b.prefix, class));
            }
            for r in &w.net.resolvers {
                out.push(w.map.assigned_cluster_for_ldns_class(r.ip, class));
            }
        }
        out
    }

    #[test]
    fn incremental_rebuild_matches_full_and_delta_covers_changes() {
        let mut w = world(MappingPolicy::end_user_default());
        let before: Vec<(Prefix, Option<ClusterId>)> = w
            .net
            .blocks
            .iter()
            .map(|b| (b.prefix, w.map.assigned_cluster_for_block(b.prefix)))
            .collect();
        // Kill an assigned cluster that is not the escape (first) cluster,
        // so the delta stays keyed rather than promoting to full.
        let escape = w.cdn.clusters[0].id;
        let victim = before
            .iter()
            .filter_map(|(_, c)| *c)
            .find(|c| *c != escape)
            .expect("some block maps beyond the escape cluster");
        w.cdn.set_cluster_alive(victim, false);

        let delta = w
            .map
            .rebuild_incremental(&w.net, &w.cdn, &RescoreHints::default());
        assert!(!delta.is_full(), "non-escape churn must stay keyed");
        assert!(
            delta.units_changed() > 0,
            "killing an assigned cluster changes units"
        );

        // Bit-identical to a from-scratch rebuild of the same world.
        let incremental = all_assignments(&w);
        let mut reference = w.map.clone_for_publish();
        reference.rebuild(&w.net, &w.cdn);
        std::mem::swap(&mut w.map, &mut reference);
        let full = all_assignments(&w);
        std::mem::swap(&mut w.map, &mut reference);
        assert_eq!(incremental, full, "incremental diverged from full rebuild");

        // Delta soundness: every block whose answer changed is covered.
        for (prefix, old) in &before {
            let now = w.map.assigned_cluster_for_block(*prefix);
            if now != *old {
                assert!(
                    delta.affects_scoped(prefix.truncate(24)),
                    "changed block {prefix} missing from delta"
                );
            }
        }

        // Reviving the escape cluster's competitor via the same path
        // converges back: a second incremental pass equals full again.
        w.cdn.set_cluster_alive(victim, true);
        let delta2 = w
            .map
            .rebuild_incremental(&w.net, &w.cdn, &RescoreHints::default());
        assert!(!delta2.is_full());
        let incremental2 = all_assignments(&w);
        reference.rebuild(&w.net, &w.cdn);
        std::mem::swap(&mut w.map, &mut reference);
        let full2 = all_assignments(&w);
        std::mem::swap(&mut w.map, &mut reference);
        assert_eq!(incremental2, full2);
    }

    #[test]
    fn escape_cluster_churn_promotes_delta_to_full() {
        let mut w = world(MappingPolicy::end_user_default());
        let escape = w.cdn.clusters[0].id;
        w.cdn.set_cluster_alive(escape, false);
        let delta = w
            .map
            .rebuild_incremental(&w.net, &w.cdn, &RescoreHints::default());
        assert!(delta.is_full(), "escape move has unbounded blast radius");
        assert_eq!(delta.units_changed(), w.map.total_units());
    }

    #[test]
    fn shape_change_falls_back_to_full_rebuild() {
        let mut w = world(MappingPolicy::end_user_default());
        // Capacity starvation alone stays incremental…
        let total = w.net.total_demand();
        w.cdn.clusters[3].capacity = total * 1e-6;
        let delta = w
            .map
            .rebuild_incremental(&w.net, &w.cdn, &RescoreHints::default());
        assert!(!delta.is_full());
        let incremental = all_assignments(&w);
        let mut reference = w.map.clone_for_publish();
        reference.rebuild(&w.net, &w.cdn);
        std::mem::swap(&mut w.map, &mut reference);
        let full = all_assignments(&w);
        std::mem::swap(&mut w.map, &mut reference);
        assert_eq!(incremental, full);
        // …but a publish clone (no solver cache) must fall back to full.
        let mut clone = w.map.clone_for_publish();
        let delta = clone.rebuild_incremental(&w.net, &w.cdn, &RescoreHints::default());
        assert!(
            delta.is_full(),
            "missing solver cache requires full rebuild"
        );
    }

    #[test]
    fn telemetry_counts_answer_paths_and_survives_rebuild() {
        use crate::global_lb::RANK_DEPTH;
        let mut w = world(MappingPolicy::end_user_default());
        let registry = Arc::new(Registry::new());
        w.map.attach_telemetry(registry.clone());
        let ldns = w.net.resolvers[0].ip;
        let top = w.map.top_level_ip();
        let low = w.map.ns_ips()[1];

        // One query down each serving path.
        let plain = Message::query(1, Question::a(name("e0.cdn.example")), None);
        let _ = w.map.handle(top, &plain, &ctx(ldns));
        let _ = w.map.handle(low, &plain, &ctx(ldns));
        let ecs = EcsOption::query(w.net.blocks[0].client_ip(), 24);
        let scoped = Message::query(
            2,
            Question::a(name("e0.cdn.example")),
            Some(OptData::with_ecs(ecs)),
        );
        let _ = w.map.handle(low, &scoped, &ctx(ldns));
        let _ = w.map.handle(
            low,
            &Message::query(3, Question::a(w.map.whoami_name()), None),
            &ctx(ldns),
        );
        let _ = w.map.handle(
            top,
            &Message::query(4, Question::a(name("nope.cdn.example")), None),
            &ctx(ldns),
        );

        let by_path = |path: &str| {
            registry
                .counter("eum_mapping_answers_total", "", &[("path", path)])
                .get()
        };
        assert_eq!(by_path("top"), 1);
        assert_eq!(by_path("ns"), 1);
        assert_eq!(by_path("eu"), 1);
        assert_eq!(by_path("whoami"), 1);
        assert_eq!(by_path("error"), 1);

        // Every delegation and A answer walked the liveness ranking once:
        // the top-level referral plus the NS and EU low-level answers.
        let fallbacks: u64 = ["primary", "ranked", "any_live"]
            .iter()
            .map(|r| {
                registry
                    .counter("eum_mapping_fallback_depth_total", "", &[("rank", r)])
                    .get()
            })
            .sum();
        assert_eq!(fallbacks, 3, "top-level referral + NS and EU answers");

        let t = w.map.telemetry().unwrap();
        assert_eq!(t.ns_unit_queries().iter().sum::<u64>(), 2);
        assert_eq!(t.eu_unit_queries().iter().sum::<u64>(), 1);
        t.publish_unit_stats();
        assert_eq!(
            registry
                .gauge("eum_mapping_units_queried", "", &[("kind", "ns")])
                .get(),
            1.0
        );
        assert_eq!(
            registry
                .gauge("eum_mapping_unit_queries_max", "", &[("kind", "eu")])
                .get(),
            1.0
        );

        // Rebuild re-attaches to the same registry; totals keep accumulating.
        w.map.rebuild(&w.net, &w.cdn);
        assert!(w.map.telemetry().is_some(), "rebuild must re-attach");
        let _ = w.map.handle(low, &plain, &ctx(ldns));
        assert_eq!(by_path("ns"), 2, "counters are cumulative across rebuilds");

        // The rebuild's phase split: all four series, within its total.
        let hist = |label: (&str, &str)| {
            let name = match label.0 {
                "mode" => "eum_mapping_rebuild_ns",
                _ => "eum_mapping_rebuild_phase_ns",
            };
            registry.histogram(name, "", &[label]).snapshot()
        };
        let total = hist(("mode", "full"));
        assert_eq!(total.count(), 1);
        let scrape = registry.render_text();
        let mut phases = 0;
        for phase in ["targets", "matrix", "score", "solve"] {
            assert!(
                scrape.contains(&format!(
                    "eum_mapping_rebuild_phase_ns_count{{phase=\"{phase}\"}} 1"
                )),
                "{phase} missing from the scrape"
            );
            phases += hist(("phase", phase)).sum();
        }
        assert!(
            phases <= total.sum(),
            "phases {phases} ns > rebuild {} ns",
            total.sum()
        );

        // The solver's ranking tables: 16 `(u16, f32)` ranks per unit and
        // class. This world has 16 clusters, so no read goes past them.
        let bytes = registry.gauge("eum_mapping_solver_bytes", "", &[]).get();
        assert_eq!(bytes, (w.map.total_units() * 3 * RANK_DEPTH * 6) as f64);
        let spills = |class: &str| {
            registry
                .counter("eum_mapping_rank_spills_total", "", &[("class", class)])
                .get()
        };
        for class in ["web", "video", "download", "all"] {
            assert_eq!(spills(class), 0, "{class}");
            assert!(scrape.contains(&format!(
                "eum_mapping_rank_spills_total{{class=\"{class}\"}}"
            )));
        }

        // Over 48 clusters with 5 % spare capacity some units are pushed
        // past rank 16: their rows are recomputed and counted per class.
        let sites = deployment_universe(0xAB, 48);
        let mut net = Internet::generate(InternetConfig::tiny(0xAB));
        let mut cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
        let per_cluster = net.total_demand() * 1.05 / 48.0;
        for c in &mut cdn.clusters {
            c.capacity = per_cluster;
        }
        let mut deep = MappingSystem::build(
            &mut net,
            &cdn,
            &w.catalog,
            name("cdn.example"),
            MappingConfig::default(),
        );
        let registry = Arc::new(Registry::new());
        deep.attach_telemetry(registry.clone());
        deep.rebuild(&net, &cdn);
        let spills = |class: &str| {
            registry
                .counter("eum_mapping_rank_spills_total", "", &[("class", class)])
                .get()
        };
        assert!(spills("web") + spills("video") + spills("download") > 0);
        assert_eq!(spills("all"), 0, "per-class scoring is on");
    }
}
