//! Scoring: how good would cluster C be for mapping unit U?
//!
//! §2.2: "The topological map is then used to evaluate what performance
//! clients of each LDNS is likely to see if they are assigned to each
//! Akamai server cluster, a process called scoring. Different scoring
//! functions that incorporate bandwidth, latency, packet loss, etc can be
//! used for different traffic classes."
//!
//! A score is "expected badness in milliseconds": measured ping latency
//! plus a loss penalty expressed in equivalent milliseconds. Lower wins.
//!
//! One measurement serves every traffic class, as in the paper: the
//! topological map is class-independent and only the scoring function
//! differs. The kernel ([`build_classes`], [`rescore_classes`]) finds a
//! unit's ping target once and reads its `(rtt, loss)` toward each
//! cluster once (per member and cluster under
//! [`ScoreBasis::MemberClients`]), then weighs that one measurement with
//! each class's [`ScoringWeights`] into a score row and keeps the row's
//! best [`RANK_DEPTH`] `(cluster, score)` pairs in the class's
//! [`PreferenceTable`]. The load balancer rarely reads deeper; when it
//! does, [`ScoreInputs::whole_row`] reruns the same kernel for that one
//! unit. [`ScoreTable::build`] and [`PreferenceTable::build`] are its
//! dense one-class forms.

use crate::global_lb::{sort_row, PreferenceTable, RANK_DEPTH};
use crate::measure::{PingMatrix, PingTargets};
use crate::units::{MapUnits, UnitId};
use eum_netmodel::{BlockId, Endpoint, Internet};
use serde::{Deserialize, Serialize};

/// Weights of the scoring function (traffic-class dependent; the defaults
/// model the web traffic class the paper's RUM metrics measure).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ScoringWeights {
    /// Multiplier on measured latency.
    pub latency: f64,
    /// Milliseconds of penalty per 1% packet loss (loss devastates
    /// short web transfers via retransmission stalls).
    pub loss_ms_per_pct: f64,
}

impl Default for ScoringWeights {
    fn default() -> Self {
        ScoringWeights {
            latency: 1.0,
            loss_ms_per_pct: 15.0,
        }
    }
}

impl ScoringWeights {
    /// Combines a latency measurement and loss rate into a score.
    pub fn combine(&self, rtt_ms: f64, loss_rate: f64) -> f64 {
        self.latency * rtt_ms + self.loss_ms_per_pct * (loss_rate * 100.0)
    }

    /// The scoring function for a traffic class (§2.2): web is
    /// latency-dominated; video and downloads are throughput-bound, where
    /// loss (which caps TCP throughput) dwarfs propagation delay.
    pub fn for_class(class: eum_cdn::TrafficClass) -> ScoringWeights {
        match class {
            eum_cdn::TrafficClass::Web => ScoringWeights {
                latency: 1.0,
                loss_ms_per_pct: 15.0,
            },
            eum_cdn::TrafficClass::Video => ScoringWeights {
                latency: 0.4,
                loss_ms_per_pct: 45.0,
            },
            eum_cdn::TrafficClass::Download => ScoringWeights {
                latency: 0.15,
                loss_ms_per_pct: 60.0,
            },
        }
    }
}

/// How a unit's network position is represented for scoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoreBasis {
    /// Score latency from the unit's own vantage (NS-based: the LDNS
    /// endpoint; end-user: the client block centroid) via its ping target.
    #[default]
    UnitVantage,
    /// Score the demand-weighted latency over the unit's member client
    /// blocks — Client-Aware NS-based mapping (§6, "CANS").
    MemberClients,
}

/// The dense unit × cluster score table the global load balancer consumes.
#[derive(Debug, Clone)]
pub struct ScoreTable {
    n_clusters: usize,
    /// Row-major: `scores[unit * n_clusters + cluster]`.
    scores: Vec<f32>,
}

impl ScoreTable {
    /// Scores every unit against every cluster.
    ///
    /// `cluster_endpoints[i]` must be the endpoint of cluster `i` in the
    /// same order the load balancer uses. Latency is read from the ping
    /// matrix via each unit's (or member's) nearest target, exactly as the
    /// production pipeline proxies unmeasured points; loss comes from the
    /// model between the cluster and the unit's vantage.
    ///
    /// For [`ScoreBasis::MemberClients`] the per-member latencies are
    /// demand-weighted; member counts are capped at `member_cap` highest-
    /// demand members to bound cost (the tail adds almost no weight).
    #[allow(clippy::too_many_arguments)] // the pipeline's nine inputs are clearer spelled out
    pub fn build(
        net: &Internet,
        units: &MapUnits,
        unit_vantages: &[Endpoint],
        cluster_endpoints: &[Endpoint],
        targets: &PingTargets,
        matrix: &PingMatrix,
        weights: ScoringWeights,
        basis: ScoreBasis,
        member_cap: usize,
    ) -> ScoreTable {
        let inputs = ScoreInputs {
            net,
            units,
            vantages: unit_vantages,
            clusters: cluster_endpoints,
            targets,
            matrix,
            basis,
            member_cap,
        };
        let n = cluster_endpoints.len();
        let mut scores = vec![0f32; units.len() * n];
        for (u, row) in scores.chunks_mut(n.max(1)).enumerate() {
            for (c, score) in inputs.whole_row(u, &weights) {
                row[usize::from(c)] = score;
            }
        }
        ScoreTable {
            n_clusters: n,
            scores,
        }
    }

    /// A table over row-major `scores` (tests only).
    #[cfg(test)]
    pub(crate) fn from_flat(n_clusters: usize, scores: Vec<f32>) -> ScoreTable {
        ScoreTable { n_clusters, scores }
    }

    /// Number of clusters (columns).
    pub fn clusters(&self) -> usize {
        self.n_clusters
    }

    /// Number of units (rows).
    pub fn units(&self) -> usize {
        self.scores.len().checked_div(self.n_clusters).unwrap_or(0)
    }

    /// The score of assigning `unit` to `cluster` (lower is better).
    pub fn score(&self, unit: UnitId, cluster: usize) -> f64 {
        self.scores[unit.index() * self.n_clusters + cluster] as f64
    }

    /// One unit's scores, indexed by cluster.
    pub(crate) fn row(&self, unit: usize) -> &[f32] {
        &self.scores[unit * self.n_clusters..(unit + 1) * self.n_clusters]
    }

    /// The best-scoring cluster among a candidate set (e.g. live clusters).
    pub fn best_among(
        &self,
        unit: UnitId,
        candidates: impl IntoIterator<Item = usize>,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for c in candidates {
            let s = self.score(unit, c);
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((c, s));
            }
        }
        best.map(|(c, _)| c)
    }
}

/// Everything one scoring pass reads.
#[derive(Clone, Copy)]
pub(crate) struct ScoreInputs<'a> {
    pub(crate) net: &'a Internet,
    pub(crate) units: &'a MapUnits,
    /// One vantage per unit.
    pub(crate) vantages: &'a [Endpoint],
    /// Cluster endpoints, in load-balancer order (the matrix's rows).
    pub(crate) clusters: &'a [Endpoint],
    pub(crate) targets: &'a PingTargets,
    pub(crate) matrix: &'a PingMatrix,
    pub(crate) basis: ScoreBasis,
    pub(crate) member_cap: usize,
}

/// One traffic class's weights with its ranking table.
#[derive(Debug, Clone)]
pub(crate) struct ClassTables {
    pub(crate) weights: ScoringWeights,
    /// The best [`RANK_DEPTH`] clusters of every unit.
    pub(crate) prefs: PreferenceTable,
}

/// Scores every unit for every class in `weights` — see
/// [`rescore_classes`], which this runs over all rows — into the
/// `recycled` tables (by class) whose shape fits, else into fresh ones.
pub(crate) fn build_classes(
    inputs: &ScoreInputs,
    weights: &[ScoringWeights],
    workers: usize,
    recycled: Vec<ClassTables>,
) -> Vec<ClassTables> {
    let (n_units, n) = (inputs.units.len(), inputs.clusters.len());
    let mut recycled = recycled.into_iter().map(|t| t.prefs);
    let mut tables: Vec<ClassTables> = weights
        .iter()
        .map(|w| ClassTables {
            weights: *w,
            prefs: recycled
                .next()
                .filter(|p| p.len() == n_units && p.clusters() == n)
                .unwrap_or_else(|| PreferenceTable::zeroed(n_units, n, RANK_DEPTH.min(n))),
        })
        .collect();
    let all: Vec<UnitId> = (0..n_units).map(|u| UnitId(u as u32)).collect();
    rescore_classes(inputs, &mut tables, &all, workers);
    tables
}

/// One class's weights, stored depth and flat `(clusters, scores)` run
/// from one worker's first row through its last.
type ClassRun<'t> = (ScoringWeights, usize, &'t mut [u16], &'t mut [f32]);

/// Re-scores `rows` (ascending, no repeats) of every class's tables in
/// place: the incremental rebuild's rescore pass, and the whole of a full
/// build.
///
/// The rows are split into contiguous runs across `workers` threads.
/// Every worker is handed, per class, the contiguous run of the table's
/// two flat arrays from its first row through its last, and writes its
/// rows there directly, so the result cannot depend on scheduling, and no
/// buffer is merged afterwards. `workers <= 1` runs inline with no thread
/// spawns.
pub(crate) fn rescore_classes(
    inputs: &ScoreInputs,
    tables: &mut [ClassTables],
    rows: &[UnitId],
    workers: usize,
) {
    let n = inputs.clusters.len();
    assert_eq!(
        inputs.vantages.len(),
        inputs.units.len(),
        "one vantage per unit"
    );
    assert_eq!(inputs.matrix.deployments(), n, "matrix rows = clusters");
    assert!(tables.iter().all(|t| t.prefs.clusters() == n));
    assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows ascend");
    if n == 0 || rows.is_empty() {
        return;
    }
    let last = rows[rows.len() - 1].index();
    assert!(tables.iter().all(|t| last < t.prefs.len()), "row range");
    let per = rows.len().div_ceil(workers.max(1));
    let mut shares: Vec<_> = rows.chunks(per).map(|r| (r, Vec::new())).collect();
    for t in tables.iter_mut() {
        // Unit `at` starts both remaining arrays.
        let (depth, mut cluster, mut score) = t.prefs.flat_mut();
        let mut at = 0;
        for (r, out) in shares.iter_mut() {
            let (lo, hi) = (r[0].index(), r[r.len() - 1].index() + 1);
            let (head, tail) = std::mem::take(&mut cluster).split_at_mut((hi - at) * depth);
            let (head_s, tail_s) = std::mem::take(&mut score).split_at_mut((hi - at) * depth);
            let skip = (lo - at) * depth;
            out.push((t.weights, depth, &mut head[skip..], &mut head_s[skip..]));
            (cluster, score, at) = (tail, tail_s, hi);
        }
    }
    let run = |(units, mut out): (&[UnitId], Vec<ClassRun>)| {
        let mut scratch = Scratch::default();
        let mut row = vec![0f32; n];
        for u in units {
            inputs.measure(u.index(), &mut scratch);
            let i = u.index() - units[0].index();
            for (w, d, cs, ss) in out.iter_mut() {
                inputs.weigh(w, &scratch, &mut row);
                let r = i * *d..(i + 1) * *d;
                sort_row(&row, &mut cs[r.clone()], &mut ss[r], &mut scratch.keys);
            }
        }
    };
    if shares.len() == 1 {
        shares.into_iter().for_each(run);
    } else {
        std::thread::scope(|s| {
            for share in shares {
                s.spawn(move || run(share));
            }
        });
    }
}

/// A worker's reusable buffers: one unit's measurement and the sort keys.
#[derive(Default)]
struct Scratch {
    members: Vec<BlockId>,
    /// Kept members' demands, in member order (empty under
    /// [`ScoreBasis::UnitVantage`]).
    demands: Vec<f64>,
    /// Sum of `demands`.
    total: f64,
    /// `(rtt, loss)` cluster-major: one per cluster, or one per member
    /// for each cluster under [`ScoreBasis::MemberClients`].
    measured: Vec<(f64, f64)>,
    keys: Vec<u64>,
}

impl ScoreInputs<'_> {
    /// Unit `ui`'s whole ranking under `weights`, best first: the kernel
    /// [`rescore_classes`] runs, for one unit and class, kept to every
    /// cluster.
    pub(crate) fn whole_row(&self, ui: usize, weights: &ScoringWeights) -> Vec<(u16, f32)> {
        let n = self.clusters.len();
        let mut s = Scratch::default();
        let (mut row, mut clusters, mut ranked) = (vec![0f32; n], vec![0u16; n], vec![0f32; n]);
        self.measure(ui, &mut s);
        self.weigh(weights, &s, &mut row);
        sort_row(&row, &mut clusters, &mut ranked, &mut s.keys);
        clusters.into_iter().zip(ranked).collect()
    }

    /// Reads unit `ui`'s ping target(s) and its `(rtt, loss)` toward every
    /// cluster into `s` — once, whatever the number of classes.
    fn measure(&self, ui: usize, s: &mut Scratch) {
        let (net, matrix) = (self.net, self.matrix);
        s.measured.clear();
        match self.basis {
            ScoreBasis::UnitVantage => {
                let vantage = &self.vantages[ui];
                let t = self.targets.target_of_point(&vantage.loc);
                s.measured
                    .extend(self.clusters.iter().enumerate().map(|(ci, cep)| {
                        let rtt = matrix.ping(ci, t) + 2.0 * vantage.access_ms;
                        (rtt, net.latency.loss_rate(cep, vantage))
                    }));
            }
            ScoreBasis::MemberClients => {
                // Cap members by demand.
                s.members.clear();
                s.members.extend_from_slice(&self.units.units[ui].members);
                s.members.sort_by(|a, b| {
                    net.block(*b)
                        .demand
                        .partial_cmp(&net.block(*a).demand)
                        .expect("finite demand")
                });
                s.members.truncate(self.member_cap.max(1));
                s.demands.clear();
                s.demands
                    .extend(s.members.iter().map(|b| net.block(*b).demand));
                s.total = s.demands.iter().sum();
                let m = s.members.len();
                s.measured.resize(m * self.clusters.len(), (0.0, 0.0));
                for (k, b) in s.members.iter().enumerate() {
                    let t = self.targets.target_of_block(*b);
                    let ep = net.block(*b).endpoint();
                    for (ci, cep) in self.clusters.iter().enumerate() {
                        let rtt = matrix.ping(ci, t) + 2.0 * ep.access_ms;
                        s.measured[ci * m + k] = (rtt, net.latency.loss_rate(cep, &ep));
                    }
                }
            }
        }
    }

    /// Weighs the measurement in `s` into one class's score row.
    fn weigh(&self, weights: &ScoringWeights, s: &Scratch, row: &mut [f32]) {
        match self.basis {
            ScoreBasis::UnitVantage => {
                for (x, (rtt, loss)) in row.iter_mut().zip(&s.measured) {
                    *x = weights.combine(*rtt, *loss) as f32;
                }
            }
            ScoreBasis::MemberClients => {
                let m = s.demands.len();
                for (ci, x) in row.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for ((rtt, loss), d) in s.measured[ci * m..(ci + 1) * m].iter().zip(&s.demands)
                    {
                        acc += weights.combine(*rtt, *loss) * d;
                    }
                    let score = if s.total > 0.0 {
                        acc / s.total
                    } else {
                        f64::INFINITY
                    };
                    *x = score as f32;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global_lb::Ranking;
    use crate::units::MapUnits;
    use eum_netmodel::InternetConfig;

    fn setup() -> (Internet, MapUnits, Vec<Endpoint>, PingTargets, PingMatrix) {
        let net = Internet::generate(InternetConfig::tiny(0x5C0));
        let units = MapUnits::block_units(&net, 24, false);
        // Use a handful of resolver endpoints as stand-in "clusters".
        let clusters: Vec<Endpoint> = net.resolvers.iter().take(6).map(|r| r.endpoint()).collect();
        let targets = PingTargets::select(&net, 40, 150.0);
        let matrix = PingMatrix::measure(&net, &clusters, &targets);
        (net, units, clusters, targets, matrix)
    }

    fn vantages(net: &Internet, units: &MapUnits) -> Vec<Endpoint> {
        units
            .units
            .iter()
            .map(|u| net.block(u.members[0]).endpoint())
            .collect()
    }

    #[test]
    fn weights_combine_latency_and_loss() {
        let w = ScoringWeights::default();
        assert_eq!(w.combine(100.0, 0.0), 100.0);
        // 2% loss adds 30ms at the default 15 ms/%.
        assert_eq!(w.combine(100.0, 0.02), 130.0);
    }

    #[test]
    fn table_has_full_dimensions_and_finite_scores() {
        let (net, units, clusters, targets, matrix) = setup();
        let v = vantages(&net, &units);
        let table = ScoreTable::build(
            &net,
            &units,
            &v,
            &clusters,
            &targets,
            &matrix,
            ScoringWeights::default(),
            ScoreBasis::UnitVantage,
            50,
        );
        assert_eq!(table.units(), units.len());
        assert_eq!(table.clusters(), clusters.len());
        for u in 0..units.len() {
            for c in 0..clusters.len() {
                let s = table.score(UnitId(u as u32), c);
                assert!(s.is_finite() && s > 0.0);
            }
        }
    }

    #[test]
    fn preference_order_sorts_ascending() {
        let (net, units, clusters, targets, matrix) = setup();
        let v = vantages(&net, &units);
        let table = ScoreTable::build(
            &net,
            &units,
            &v,
            &clusters,
            &targets,
            &matrix,
            ScoringWeights::default(),
            ScoreBasis::UnitVantage,
            50,
        );
        let prefs = PreferenceTable::build(&table);
        for u in (0..units.len()).map(|u| UnitId(u as u32)) {
            let order = prefs.row(u);
            assert_eq!(order.len(), clusters.len());
            for pair in order.windows(2) {
                let (a, b) = (pair[0] as usize, pair[1] as usize);
                assert!(table.score(u, a) <= table.score(u, b));
            }
        }
    }

    #[test]
    fn best_among_respects_candidate_filter() {
        let (net, units, clusters, targets, matrix) = setup();
        let v = vantages(&net, &units);
        let table = ScoreTable::build(
            &net,
            &units,
            &v,
            &clusters,
            &targets,
            &matrix,
            ScoringWeights::default(),
            ScoreBasis::UnitVantage,
            50,
        );
        let u = UnitId(0);
        let overall = table.best_among(u, 0..clusters.len()).unwrap();
        let restricted = table.best_among(u, (0..clusters.len()).filter(|c| *c != overall));
        assert_ne!(Some(overall), restricted);
        assert_eq!(table.best_among(u, std::iter::empty()), None);
    }

    #[test]
    fn member_basis_differs_from_vantage_basis_for_spread_units() {
        // LDNS units with geographically spread members: scoring the
        // members (CANS) must not equal scoring the LDNS vantage (NS) in
        // general.
        let net = Internet::generate(InternetConfig::tiny(0x5C1));
        let units = MapUnits::ldns_units(&net);
        let clusters: Vec<Endpoint> = net.resolvers.iter().take(6).map(|r| r.endpoint()).collect();
        let targets = PingTargets::select(&net, 40, 150.0);
        let matrix = PingMatrix::measure(&net, &clusters, &targets);
        let ldns_vantages: Vec<Endpoint> = units
            .units
            .iter()
            .map(|u| match u.key {
                crate::units::UnitKey::Ldns(r) => net.resolver(r).endpoint(),
                _ => unreachable!(),
            })
            .collect();
        let ns = ScoreTable::build(
            &net,
            &units,
            &ldns_vantages,
            &clusters,
            &targets,
            &matrix,
            ScoringWeights::default(),
            ScoreBasis::UnitVantage,
            50,
        );
        let cans = ScoreTable::build(
            &net,
            &units,
            &ldns_vantages,
            &clusters,
            &targets,
            &matrix,
            ScoringWeights::default(),
            ScoreBasis::MemberClients,
            50,
        );
        let mut any_diff = false;
        for u in 0..units.len() {
            for c in 0..clusters.len() {
                if (ns.score(UnitId(u as u32), c) - cans.score(UnitId(u as u32), c)).abs() > 1.0 {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff, "CANS scoring never differed from NS scoring");
    }

    /// The per-class scorer this module had before one measurement pass
    /// served every class: the reference the kernel must equal bit for
    /// bit.
    #[allow(clippy::too_many_arguments)]
    fn reference_row(
        net: &Internet,
        info: &crate::units::MapUnitInfo,
        vantage: &Endpoint,
        clusters: &[Endpoint],
        targets: &PingTargets,
        matrix: &PingMatrix,
        weights: ScoringWeights,
        basis: ScoreBasis,
        member_cap: usize,
    ) -> Vec<f32> {
        let mut row = Vec::new();
        match basis {
            ScoreBasis::UnitVantage => {
                let t = targets.target_of_point(&vantage.loc);
                for (ci, cep) in clusters.iter().enumerate() {
                    let rtt = matrix.ping(ci, t) + 2.0 * vantage.access_ms;
                    let loss = net.latency.loss_rate(cep, vantage);
                    row.push(weights.combine(rtt, loss) as f32);
                }
            }
            ScoreBasis::MemberClients => {
                let mut members = info.members.to_vec();
                members.sort_by(|a, b| {
                    net.block(*b)
                        .demand
                        .partial_cmp(&net.block(*a).demand)
                        .unwrap()
                });
                members.truncate(member_cap.max(1));
                let total: f64 = members.iter().map(|b| net.block(*b).demand).sum();
                for (ci, cep) in clusters.iter().enumerate() {
                    let mut acc = 0.0;
                    for b in &members {
                        let ep = net.block(*b).endpoint();
                        let rtt = matrix.ping(ci, targets.target_of_block(*b)) + 2.0 * ep.access_ms;
                        let loss = net.latency.loss_rate(cep, &ep);
                        acc += weights.combine(rtt, loss) * net.block(*b).demand;
                    }
                    let score = if total > 0.0 {
                        acc / total
                    } else {
                        f64::INFINITY
                    };
                    row.push(score as f32);
                }
            }
        }
        row
    }

    /// A stable `partial_cmp` sort of the clusters by score.
    fn reference_order(row: &[f32]) -> Vec<u16> {
        let mut order: Vec<u16> = (0..row.len() as u16).collect();
        order.sort_by(|a, b| row[*a as usize].partial_cmp(&row[*b as usize]).unwrap());
        order
    }

    #[test]
    fn parallel_build_and_rescore_match_sequential_bitwise() {
        let (net, blocks, _, targets, _) = setup();
        // More clusters than the stored ranks, so rows are truncated.
        let clusters: Vec<Endpoint> = net
            .resolvers
            .iter()
            .take(24)
            .map(|r| r.endpoint())
            .collect();
        assert!(clusters.len() > RANK_DEPTH);
        let matrix = PingMatrix::measure(&net, &clusters, &targets);
        let ldns = MapUnits::ldns_units(&net);
        let ldns_vantages: Vec<Endpoint> = ldns
            .units
            .iter()
            .map(|u| match u.key {
                crate::units::UnitKey::Ldns(r) => net.resolver(r).endpoint(),
                _ => unreachable!(),
            })
            .collect();
        let weights: Vec<ScoringWeights> = eum_cdn::TrafficClass::ALL
            .map(ScoringWeights::for_class)
            .to_vec();
        let cases = [
            (&blocks, vantages(&net, &blocks), ScoreBasis::UnitVantage),
            (&ldns, ldns_vantages.clone(), ScoreBasis::UnitVantage),
            (&ldns, ldns_vantages, ScoreBasis::MemberClients),
        ];
        for (units, v, basis) in cases {
            let inputs = ScoreInputs {
                net: &net,
                units,
                vantages: &v,
                clusters: &clusters,
                targets: &targets,
                matrix: &matrix,
                basis,
                member_cap: 3,
            };
            let expect = |tables: &[ClassTables], what: &str| {
                assert_eq!(tables.len(), weights.len());
                for (t, w) in tables.iter().zip(&weights) {
                    let one = ScoreTable::build(
                        &net, units, &v, &clusters, &targets, &matrix, *w, basis, 3,
                    );
                    let one_prefs = PreferenceTable::build(&one);
                    let mut ranks = Ranking::new(&t.prefs, None);
                    for (u, info) in units.units.iter().enumerate() {
                        let uid = UnitId(u as u32);
                        let reference = reference_row(
                            &net, info, &v[u], &clusters, &targets, &matrix, *w, basis, 3,
                        );
                        let order = reference_order(&reference);
                        for (c, r) in reference.iter().enumerate() {
                            assert_eq!(one.score(uid, c) as f32, *r);
                            assert_eq!(one.score(uid, c).to_bits(), f64::from(*r).to_bits());
                        }
                        let whole: Vec<(u16, f32)> =
                            order.iter().map(|c| (*c, reference[*c as usize])).collect();
                        assert_eq!(inputs.whole_row(u, w), whole, "{what}");
                        assert_eq!(t.prefs.row(uid), &order[..RANK_DEPTH], "{what}");
                        for (p, (c, s)) in whole[..RANK_DEPTH].iter().enumerate() {
                            let (rc, rs) = ranks.at(u, p).expect("stored rank");
                            assert_eq!((rc, rs.to_bits()), (*c as usize, s.to_bits()), "{what}");
                        }
                        assert_eq!(one_prefs.row(uid), order);
                    }
                }
            };
            // The kernel inline, then chunked across workers.
            expect(
                &build_classes(&inputs, &weights, 1, Vec::new()),
                "one worker",
            );
            let mut par = build_classes(&inputs, &weights, 4, Vec::new());
            expect(&par, "four workers");
            // Re-scoring a scattered subset (in parallel, not starting at
            // unit 0) over unchanged inputs, after clobbering it, must
            // reproduce the same rows.
            let rows: Vec<UnitId> = (1..units.len())
                .step_by(3)
                .map(|u| UnitId(u as u32))
                .collect();
            for t in &mut par {
                for (clusters, ranked) in t.prefs.rows_mut().skip(1).step_by(3) {
                    clusters.fill(0);
                    ranked.fill(-1.0);
                }
            }
            rescore_classes(&inputs, &mut par, &rows, 3);
            expect(&par, "rescore");
            // A build into clobbered tables of the same shape rewrites
            // every stored rank.
            for t in &mut par {
                for (clusters, ranked) in t.prefs.rows_mut() {
                    clusters.fill(7);
                    ranked.fill(-1.0);
                }
            }
            expect(&build_classes(&inputs, &weights, 2, par), "recycled");
        }
    }
}
