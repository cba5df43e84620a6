//! Global load balancing: assign each mapping unit to a server cluster.
//!
//! §2.2: "The load balancing module assigns servers to each client request
//! in two hierarchical steps: first it assigns a server cluster for each
//! client, a process called global load balancing." The algorithms here
//! follow the companion paper (Maggs & Sitaraman, "Algorithmic Nuggets in
//! Content Delivery"): the production system solves a *stable allocation*
//! problem between mapping units (with demands) and clusters (with
//! capacities), for which we implement capacity-respecting deferred
//! acceptance (Gale–Shapley); a greedy assigner is kept as the ablation
//! baseline.
//!
//! Both read a unit's cluster ranking through one accessor,
//! [`Ranking::at`], over a [`PreferenceTable`] that keeps only the head
//! of each row: the mapping system stores [`RANK_DEPTH`] `(cluster,
//! score)` pairs per unit and class instead of a dense unit × cluster
//! table, because nearly every unit is placed within its first few
//! choices. A read past the stored head *spills*: the unit's whole row is
//! recomputed by the scoring kernel (measure → weigh → [`sort_row`]) and
//! kept for the rest of the solve. This is exact: [`sort_row`]'s keys are
//! unique, so the stored head is the prefix of the whole sorted row, and
//! under the [`crate::RescoreHints`] contract a unit's measurement inputs
//! are unchanged since its last rescore, so the recomputed row is the one
//! that rescore produced.

use crate::score::ScoreTable;
use crate::units::{MapUnits, UnitId};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap};

/// Which assignment algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LbAlgorithm {
    /// Deferred acceptance (stable allocation).
    Stable,
    /// Demand-descending greedy best-fit.
    Greedy,
}

/// The computed assignment: one cluster per unit (`None` only if every
/// cluster rejected the unit, which requires total capacity < demand).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Assignment {
    /// Per-unit assigned cluster index (into the LB's cluster list).
    pub cluster_of: Vec<Option<usize>>,
    /// Per-cluster assigned demand.
    pub load: Vec<f64>,
}

impl Assignment {
    /// The assigned cluster for a unit.
    pub fn cluster(&self, unit: UnitId) -> Option<usize> {
        self.cluster_of[unit.index()]
    }

    /// Fraction of units that received an assignment.
    pub fn assigned_fraction(&self) -> f64 {
        if self.cluster_of.is_empty() {
            return 1.0;
        }
        self.cluster_of.iter().filter(|c| c.is_some()).count() as f64 / self.cluster_of.len() as f64
    }
}

/// Per-unit cluster rankings, best score first: the head of each row as
/// `(cluster, score)` pairs.
///
/// Rows are *unfiltered* by liveness so the table can be cached across
/// incremental rebuilds (liveness changes every generation, scores do
/// not): the solver applies the `usable` filter at proposal time, which
/// visits exactly the clusters a pre-filtered list would, in the same
/// order — so the cached-table path and the from-scratch path produce
/// bit-identical assignments by construction.
///
/// Each row keeps its best `depth` entries in two flat arrays (clusters
/// as `u16`, so at most 65 536 clusters, and their `f32` scores), in
/// [`sort_row`]'s order, which is the order a stable sort by score
/// gives. [`PreferenceTable::build`] keeps whole rows; the mapping system
/// keeps [`RANK_DEPTH`].
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceTable {
    /// Stored ranks per unit.
    depth: usize,
    /// Ranks in a whole row.
    clusters: usize,
    cluster: Vec<u16>,
    score: Vec<f32>,
}

/// Ranks the mapping system stores per unit and class. In instrumented
/// solves at paper scale over 160 clusters, over 90 % of end-user units
/// took their first choice and at most three per solve read past rank 16.
pub(crate) const RANK_DEPTH: usize = 16;

impl PreferenceTable {
    /// Builds the full table: one score-order sort per unit.
    pub fn build(scores: &ScoreTable) -> PreferenceTable {
        let n = scores.clusters();
        let mut table = PreferenceTable::zeroed(scores.units(), n, n);
        let mut keys = Vec::new();
        for (u, (clusters, ranked)) in table.rows_mut().enumerate() {
            sort_row(scores.row(u), clusters, ranked, &mut keys);
        }
        table
    }

    /// A table of `units` all-zero rows keeping `depth` of `clusters`
    /// ranks each.
    pub(crate) fn zeroed(units: usize, clusters: usize, depth: usize) -> PreferenceTable {
        assert!(clusters <= 1 << 16, "cluster indices must fit in u16");
        assert!(depth <= clusters, "depth within the row");
        PreferenceTable {
            depth,
            clusters,
            cluster: vec![0; units * depth],
            score: vec![0.0; units * depth],
        }
    }

    /// Every row's stored `(clusters, scores)`, mutably, in unit order.
    pub(crate) fn rows_mut(&mut self) -> impl Iterator<Item = (&mut [u16], &mut [f32])> {
        let d = self.depth.max(1);
        self.cluster.chunks_mut(d).zip(self.score.chunks_mut(d))
    }

    /// The stored depth and both flat arrays, unit-major.
    pub(crate) fn flat_mut(&mut self) -> (usize, &mut [u16], &mut [f32]) {
        (self.depth, &mut self.cluster, &mut self.score)
    }

    /// A unit's stored clusters, best first.
    pub fn row(&self, unit: UnitId) -> &[u16] {
        &self.cluster[unit.index() * self.depth..(unit.index() + 1) * self.depth]
    }

    /// Number of clusters a whole row ranks.
    pub(crate) fn clusters(&self) -> usize {
        self.clusters
    }

    /// Heap bytes of the stored ranks.
    pub(crate) fn bytes(&self) -> usize {
        self.cluster.capacity() * std::mem::size_of::<u16>()
            + self.score.capacity() * std::mem::size_of::<f32>()
    }

    /// Number of unit rows.
    pub fn len(&self) -> usize {
        self.cluster.len().checked_div(self.depth).unwrap_or(0)
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.cluster.is_empty()
    }
}

/// Recomputes one unit's whole row, best first, for a read past the
/// stored depth.
pub(crate) type Spill<'a> = &'a dyn Fn(usize) -> Vec<(u16, f32)>;

/// "Rank `p` of unit `u`": the one accessor through which the solver and
/// the candidate rows read a [`PreferenceTable`]. A read past the stored
/// depth *spills* (see the module docs for why that is exact): the
/// unit's whole row is recomputed and reused for the rest of the solve.
pub(crate) struct Ranking<'a> {
    table: &'a PreferenceTable,
    spill: Option<Spill<'a>>,
    spilled: HashMap<usize, Vec<(u16, f32)>>,
}

impl<'a> Ranking<'a> {
    /// Reads `table`, recomputing rows past its depth with `spill`
    /// (`None` only for whole-row tables).
    pub(crate) fn new(table: &'a PreferenceTable, spill: Option<Spill<'a>>) -> Ranking<'a> {
        Ranking {
            table,
            spill,
            spilled: HashMap::new(),
        }
    }

    /// The cluster at rank `p` of unit `u` and its score; `None` past
    /// the end of the row.
    pub(crate) fn at(&mut self, u: usize, p: usize) -> Option<(usize, f32)> {
        let t = self.table;
        if p < t.depth {
            let i = u * t.depth + p;
            return Some((usize::from(t.cluster[i]), t.score[i]));
        }
        if p >= t.clusters {
            return None;
        }
        let spill = self.spill.expect("a table shallower than its rows spills");
        let row = self.spilled.entry(u).or_insert_with(|| spill(u));
        row.get(p).map(|(c, s)| (usize::from(*c), *s))
    }

    /// Units whose rows were recomputed so far.
    pub(crate) fn spills(&self) -> usize {
        self.spilled.len()
    }
}

/// Writes the best `clusters.len()` clusters of one score row into
/// `clusters`, best first, and their scores into `ranked`.
///
/// Each cluster is keyed `(monotone u32 image of its f32 score) << 32 |
/// cluster`, the smallest keys are selected and those are sorted
/// unstably. The image orders exactly as `f32::partial_cmp` (−0.0 is
/// mapped to +0.0 first, so the two tie; +∞ sorts last; NaN panics as
/// the comparison would), and equal scores fall back to the cluster
/// index, so the keys are unique and the output is the prefix of the
/// order a stable `partial_cmp` sort of `0..scores.len()` produces.
pub(crate) fn sort_row(
    scores: &[f32],
    clusters: &mut [u16],
    ranked: &mut [f32],
    keys: &mut Vec<u64>,
) {
    keys.clear();
    keys.extend(
        scores
            .iter()
            .enumerate()
            .map(|(c, s)| (u64::from(score_key(*s)) << 32) | c as u64),
    );
    let depth = clusters.len().min(keys.len());
    if depth < keys.len() && depth > 0 {
        keys.select_nth_unstable(depth - 1);
    }
    keys[..depth].sort_unstable();
    for ((o, r), k) in clusters.iter_mut().zip(ranked.iter_mut()).zip(keys.iter()) {
        *o = *k as u16;
        *r = scores[*o as usize];
    }
}

/// The monotone `u32` image of a score (see [`sort_row`]).
fn score_key(score: f32) -> u32 {
    assert!(!score.is_nan(), "finite score");
    let bits = (score + 0.0).to_bits();
    if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    }
}

/// Assigns every unit to a cluster under capacity constraints.
///
/// `capacity[c]` is cluster `c`'s demand capacity (may be infinite).
/// Dead clusters are excluded by passing `usable[c] = false`.
pub fn assign(
    algorithm: LbAlgorithm,
    units: &MapUnits,
    scores: &ScoreTable,
    capacity: &[f64],
    usable: &[bool],
) -> Assignment {
    let prefs = PreferenceTable::build(scores);
    assign_with_prefs(algorithm, units, scores, &prefs, capacity, usable)
}

/// Like [`assign`], but over a caller-cached [`PreferenceTable`] built
/// from `scores`, which carries the scores the solver reads.
pub fn assign_with_prefs(
    algorithm: LbAlgorithm,
    units: &MapUnits,
    scores: &ScoreTable,
    prefs: &PreferenceTable,
    capacity: &[f64],
    usable: &[bool],
) -> Assignment {
    assert_eq!(prefs.clusters(), scores.clusters());
    solve(
        algorithm,
        units,
        &mut Ranking::new(prefs, None),
        capacity,
        usable,
    )
}

/// The one solver: [`assign`], [`assign_with_prefs`] and the mapping
/// system's full and incremental rebuilds all run here, so they cannot
/// diverge.
pub(crate) fn solve(
    algorithm: LbAlgorithm,
    units: &MapUnits,
    ranks: &mut Ranking,
    capacity: &[f64],
    usable: &[bool],
) -> Assignment {
    assert_eq!(capacity.len(), ranks.table.clusters());
    assert_eq!(usable.len(), ranks.table.clusters());
    assert_eq!(ranks.table.len(), units.len());
    match algorithm {
        LbAlgorithm::Stable => stable_allocation(units, ranks, capacity, usable),
        LbAlgorithm::Greedy => greedy(units, ranks, capacity, usable),
    }
}

/// Deferred acceptance with capacities.
///
/// Units propose to clusters in score order. A cluster tentatively holds
/// proposals; when over capacity it rejects its *worst-scored* held units
/// (its preference is also the score — both sides rank by measured
/// performance) until it fits. Rejected units propose onward. With unit
/// demands all equal this is exactly hospital/residents deferred
/// acceptance, whose outcome is stable; with heterogeneous demands the
/// result is stable up to one fractional unit per cluster (the classic
/// stable-allocation relaxation).
///
/// The proposal queue doubles as the incremental solver's repair loop:
/// displaced units re-enter it and re-propose from where they left off
/// until the allocation reaches a fixed point. It is seeded with every
/// unit (not just dirty ones) because the outcome is proposal-order
/// dependent — a dirty-only seed would converge to *a* stable
/// allocation, but not bit-identically the one a from-scratch rebuild
/// produces, and the equivalence suite demands identity. The asymptotic
/// win of the incremental path is elsewhere: re-proposing over cached
/// rankings costs `O(units·proposals)`, while the measurement,
/// scoring, and sorting it skips cost `O(units·clusters)`.
fn stable_allocation(
    units: &MapUnits,
    ranks: &mut Ranking,
    capacity: &[f64],
    usable: &[bool],
) -> Assignment {
    let n_units = units.len();
    let n_clusters = capacity.len();
    // Next rank each unit will propose to. Indexes the unfiltered row;
    // unusable clusters are skipped at proposal time.
    let mut next_pref = vec![0usize; n_units];
    let mut cluster_of: Vec<Option<usize>> = vec![None; n_units];
    let mut load = vec![0.0f64; n_clusters];
    // Per-cluster max-heap of held units by score (worst on top).
    let mut held: Vec<BinaryHeap<HeldUnit>> = (0..n_clusters).map(|_| BinaryHeap::new()).collect();

    // A LIFO stack seeded 0..n: units first propose in reverse id order.
    let mut queue: Vec<usize> = (0..n_units).collect();
    while let Some(u) = queue.pop() {
        let demand = units.unit(UnitId(u as u32)).demand;
        loop {
            let proposal = loop {
                match ranks.at(u, next_pref[u]) {
                    None => break None,
                    Some((c, score)) => {
                        next_pref[u] += 1;
                        if usable[c] {
                            break Some((c, score));
                        }
                    }
                }
            };
            let Some((c, score)) = proposal else {
                break; // exhausted: unassigned
            };
            // Tentatively accept.
            held[c].push(HeldUnit { score, unit: u });
            load[c] += demand;
            cluster_of[u] = Some(c);
            // Evict worst until within capacity — but never evict the only
            // holder (a unit larger than capacity still needs service).
            while load[c] > capacity[c] && held[c].len() > 1 {
                let worst = held[c].pop().expect("non-empty heap");
                load[c] -= units.unit(UnitId(worst.unit as u32)).demand;
                cluster_of[worst.unit] = None;
                if worst.unit == u {
                    break;
                }
                queue.push(worst.unit);
            }
            if cluster_of[u].is_some() {
                break;
            }
            // We were immediately evicted; try the next preference.
        }
    }
    // Overflow pass: a unit can exhaust its list when every cluster is
    // pinned at capacity by better-scoring units. Not serving it is never
    // acceptable — place it at its best usable cluster, preferring ones
    // with room (the real system overflows into a warm cluster rather
    // than refusing to map).
    for (u, slot) in cluster_of.iter_mut().enumerate() {
        if slot.is_none() {
            let demand = units.unit(UnitId(u as u32)).demand;
            if let Some(c) = best_fit(ranks, u, demand, &load, capacity, usable) {
                *slot = Some(c);
                load[c] += demand;
            }
        }
    }
    Assignment { cluster_of, load }
}

/// Unit `u`'s best-ranked usable cluster with room for `demand`, else its
/// best-ranked usable cluster (overflow: serving from a hot cluster beats
/// not serving), else `None`.
fn best_fit(
    ranks: &mut Ranking,
    u: usize,
    demand: f64,
    load: &[f64],
    capacity: &[f64],
    usable: &[bool],
) -> Option<usize> {
    let mut first_usable = None;
    let mut p = 0;
    while let Some((c, _)) = ranks.at(u, p) {
        p += 1;
        if !usable[c] {
            continue;
        }
        if load[c] + demand <= capacity[c] {
            return Some(c);
        }
        first_usable.get_or_insert(c);
    }
    first_usable
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeldUnit {
    score: f32,
    unit: usize,
}

impl Eq for HeldUnit {}

impl Ord for HeldUnit {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by score: worst (highest score) pops first.
        self.score
            .partial_cmp(&other.score)
            .expect("finite scores")
            .then(self.unit.cmp(&other.unit))
    }
}

impl PartialOrd for HeldUnit {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Greedy baseline: walk units by demand descending, give each its best
/// cluster with remaining capacity.
fn greedy(units: &MapUnits, ranks: &mut Ranking, capacity: &[f64], usable: &[bool]) -> Assignment {
    let mut cluster_of = vec![None; units.len()];
    let mut load = vec![0.0f64; capacity.len()];
    for id in units.by_demand_desc() {
        let demand = units.unit(id).demand;
        if let Some(c) = best_fit(ranks, id.index(), demand, &load, capacity, usable) {
            cluster_of[id.index()] = Some(c);
            load[c] += demand;
        }
    }
    Assignment { cluster_of, load }
}

/// Checks stability: returns a blocking pair `(unit, cluster)` if one
/// exists — a unit that strictly prefers `cluster` over its assignment
/// while `cluster` has spare capacity for it or holds a strictly worse
/// unit it could evict. Used by tests; `None` means stable.
pub fn find_blocking_pair(
    units: &MapUnits,
    scores: &ScoreTable,
    capacity: &[f64],
    usable: &[bool],
    assignment: &Assignment,
) -> Option<(UnitId, usize)> {
    let n_clusters = scores.clusters();
    // Worst held score per cluster.
    let mut worst: Vec<Option<(f64, usize)>> = vec![None; n_clusters];
    for (u, c) in assignment.cluster_of.iter().enumerate() {
        if let Some(c) = *c {
            let s = scores.score(UnitId(u as u32), c);
            if worst[c].is_none_or(|(w, _)| s > w) {
                worst[c] = Some((s, u));
            }
        }
    }
    for u in 0..units.len() {
        let uid = UnitId(u as u32);
        let current = assignment.cluster_of[u].map(|c| scores.score(uid, c));
        let demand = units.unit(uid).demand;
        for c in 0..n_clusters {
            if !usable[c] {
                continue;
            }
            let s = scores.score(uid, c);
            if current.is_some_and(|cs| s >= cs) {
                continue; // does not strictly prefer c
            }
            if current.is_none() && assignment.cluster_of[u].is_none() {
                // Unassigned unit prefers any cluster.
            }
            let has_room = assignment.load[c] + demand <= capacity[c];
            let can_evict = worst[c].is_some_and(|(w, wu)| w > s && wu != u);
            if has_room || can_evict {
                return Some((uid, c));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{PingMatrix, PingTargets};
    use crate::score::{ScoreBasis, ScoreTable, ScoringWeights};
    use eum_netmodel::{Endpoint, Internet, InternetConfig};

    fn setup(seed: u64) -> (Internet, MapUnits, ScoreTable, usize) {
        let net = Internet::generate(InternetConfig::tiny(seed));
        let units = MapUnits::ldns_units(&net);
        let clusters: Vec<Endpoint> = net.resolvers.iter().take(8).map(|r| r.endpoint()).collect();
        let targets = PingTargets::select(&net, 30, 150.0);
        let matrix = PingMatrix::measure(&net, &clusters, &targets);
        let vantages: Vec<Endpoint> = units
            .units
            .iter()
            .map(|u| match u.key {
                crate::units::UnitKey::Ldns(r) => net.resolver(r).endpoint(),
                _ => unreachable!(),
            })
            .collect();
        let n = clusters.len();
        let table = ScoreTable::build(
            &net,
            &units,
            &vantages,
            &clusters,
            &targets,
            &matrix,
            ScoringWeights::default(),
            ScoreBasis::UnitVantage,
            50,
        );
        (net, units, table, n)
    }

    #[test]
    fn unlimited_capacity_gives_everyone_their_favorite() {
        let (_, units, table, n) = setup(1);
        let cap = vec![f64::INFINITY; n];
        let usable = vec![true; n];
        for algo in [LbAlgorithm::Stable, LbAlgorithm::Greedy] {
            let a = assign(algo, &units, &table, &cap, &usable);
            assert_eq!(a.assigned_fraction(), 1.0);
            for u in 0..units.len() {
                let uid = UnitId(u as u32);
                let got = a.cluster(uid).unwrap();
                let best = table.best_among(uid, 0..n).unwrap();
                assert_eq!(got, best, "{algo:?} unit {u}");
            }
        }
    }

    #[test]
    fn capacity_is_respected_by_stable_allocation() {
        let (_, units, table, n) = setup(2);
        let total: f64 = units.total_demand();
        // Tight: 130% headroom split evenly.
        let cap = vec![total * 1.3 / n as f64; n];
        let usable = vec![true; n];
        let a = assign(LbAlgorithm::Stable, &units, &table, &cap, &usable);
        assert_eq!(a.assigned_fraction(), 1.0, "total capacity exceeds demand");
        #[allow(clippy::needless_range_loop)]
        for c in 0..n {
            // A cluster may hold a single unit larger than its capacity,
            // otherwise it must fit.
            let holders = a.cluster_of.iter().filter(|x| **x == Some(c)).count();
            if holders > 1 {
                let max_unit = units.units.iter().map(|u| u.demand).fold(0.0f64, f64::max);
                assert!(
                    a.load[c] <= cap[c] + max_unit,
                    "cluster {c} load {} way over cap {}",
                    a.load[c],
                    cap[c]
                );
            }
        }
    }

    #[test]
    fn stable_allocation_has_no_blocking_pair_with_unit_demands() {
        // Classic stability holds when all demands are equal: force that
        // by rebuilding the units with demand 1.
        let (_, mut units, table, n) = setup(3);
        for u in &mut units.units {
            u.demand = 1.0;
        }
        let cap = vec![(units.len() as f64 / n as f64).ceil() + 1.0; n];
        let usable = vec![true; n];
        let a = assign(LbAlgorithm::Stable, &units, &table, &cap, &usable);
        assert_eq!(a.assigned_fraction(), 1.0);
        assert_eq!(find_blocking_pair(&units, &table, &cap, &usable, &a), None);
    }

    #[test]
    fn dead_clusters_are_never_used() {
        let (_, units, table, n) = setup(4);
        let cap = vec![f64::INFINITY; n];
        let mut usable = vec![true; n];
        usable[0] = false;
        usable[3] = false;
        for algo in [LbAlgorithm::Stable, LbAlgorithm::Greedy] {
            let a = assign(algo, &units, &table, &cap, &usable);
            for c in a.cluster_of.iter().flatten() {
                assert!(usable[*c], "{algo:?} used dead cluster {c}");
            }
            assert_eq!(a.assigned_fraction(), 1.0);
        }
    }

    #[test]
    fn both_algorithms_stay_near_the_unconstrained_optimum() {
        // Neither algorithm dominates the other on mean score in general
        // (stable allocation optimizes stability, not the sum), but under
        // moderate capacity pressure both must stay within a small factor
        // of the unconstrained per-unit best.
        let (_, units, table, n) = setup(5);
        let total: f64 = units.total_demand();
        let cap = vec![total * 1.4 / n as f64; n];
        let usable = vec![true; n];
        let mean_score = |a: &Assignment| {
            let mut acc = 0.0;
            let mut w = 0.0;
            for u in 0..units.len() {
                if let Some(c) = a.cluster_of[u] {
                    let d = units.unit(UnitId(u as u32)).demand;
                    acc += table.score(UnitId(u as u32), c) * d;
                    w += d;
                }
            }
            acc / w
        };
        let best_possible: f64 = {
            let mut acc = 0.0;
            for u in 0..units.len() {
                let uid = UnitId(u as u32);
                let best = table.best_among(uid, 0..n).unwrap();
                acc += table.score(uid, best) * units.unit(uid).demand;
            }
            acc / units.total_demand()
        };
        // Reference: a demand-weighted mean over *random* usable clusters.
        let random_mean: f64 = {
            let mut acc = 0.0;
            for u in 0..units.len() {
                let uid = UnitId(u as u32);
                let avg: f64 = (0..n).map(|c| table.score(uid, c)).sum::<f64>() / n as f64;
                acc += avg * units.unit(uid).demand;
            }
            acc / units.total_demand()
        };
        for algo in [LbAlgorithm::Stable, LbAlgorithm::Greedy] {
            let a = assign(algo, &units, &table, &cap, &usable);
            let m = mean_score(&a);
            assert!(
                m <= best_possible * 3.0,
                "{algo:?} mean score {m:.1} vs unconstrained best {best_possible:.1}"
            );
            assert!(
                m < random_mean,
                "{algo:?} mean score {m:.1} no better than random {random_mean:.1}"
            );
        }
    }

    proptest::proptest! {
        /// The keyed unstable sort orders a row exactly as a stable
        /// `partial_cmp` sort of the cluster indices does, on rows dense
        /// with ties, ±0.0 and ±∞.
        #[test]
        fn keyed_sort_matches_stable_partial_cmp_sort(
            picks in proptest::collection::vec(0u8..8, 0..40),
            noise in proptest::collection::vec(-1e6f32..1e6, 40),
            depth in 0usize..48,
        ) {
            let row: Vec<f32> = picks
                .iter()
                .zip(&noise)
                .map(|(p, x)| match p {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4 => 17.25,
                    5 => -17.25,
                    _ => *x,
                })
                .collect();
            let mut stable: Vec<u16> = (0..row.len() as u16).collect();
            stable.sort_by(|a, b| row[*a as usize].partial_cmp(&row[*b as usize]).unwrap());
            // Any depth keeps exactly the head of that order.
            let depth = depth.min(row.len());
            let (mut keyed, mut ranked) = (vec![0u16; depth], vec![0f32; depth]);
            sort_row(&row, &mut keyed, &mut ranked, &mut Vec::new());
            proptest::prop_assert_eq!(&keyed[..], &stable[..depth]);
            for (c, s) in keyed.iter().zip(&ranked) {
                proptest::prop_assert_eq!(s.to_bits(), row[*c as usize].to_bits());
            }
        }
    }

    proptest::proptest! {
        /// Truncated rankings that spill past their depth solve exactly
        /// as whole ones: random rows over 40 clusters (dense with ties),
        /// random demands, capacities and liveness, both algorithms.
        #[test]
        fn shallow_rankings_with_spill_solve_as_whole_ones(seed in proptest::prelude::any::<u64>()) {
            const N: usize = 40;
            let mut rng = seed | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let (_, mut units, _, _) = setup(7);
            for u in &mut units.units {
                u.demand = 1.0 + (next() % 50) as f64;
            }
            let rows: Vec<f32> = (0..units.len() * N)
                .map(|_| (next() % 64) as f32 * 2.5)
                .collect();
            let scores = ScoreTable::from_flat(N, rows);
            let total = units.total_demand();
            let tight = 0.8 + (next() % 60) as f64 / 100.0;
            let capacity: Vec<f64> = (0..N)
                .map(|_| match next() % 8 {
                    0 => f64::INFINITY,
                    1 => 0.0,
                    k => total * tight * k as f64 / (4.5 * N as f64),
                })
                .collect();
            let usable: Vec<bool> = (0..N).map(|_| next() % 5 != 0).collect();
            let whole = PreferenceTable::build(&scores);
            let spill = |u: usize| -> Vec<(u16, f32)> {
                whole
                    .row(UnitId(u as u32))
                    .iter()
                    .map(|c| (*c, scores.score(UnitId(u as u32), *c as usize) as f32))
                    .collect()
            };
            for algo in [LbAlgorithm::Stable, LbAlgorithm::Greedy] {
                let dense = assign(algo, &units, &scores, &capacity, &usable);
                for depth in [1, 3, RANK_DEPTH] {
                    let mut shallow = PreferenceTable::zeroed(units.len(), N, depth);
                    let mut keys = Vec::new();
                    for (u, (c, s)) in shallow.rows_mut().enumerate() {
                        sort_row(scores.row(u), c, s, &mut keys);
                    }
                    let mut ranks = Ranking::new(&shallow, Some(&spill));
                    let got = solve(algo, &units, &mut ranks, &capacity, &usable);
                    proptest::prop_assert_eq!(&got.cluster_of, &dense.cluster_of);
                    let bits = |a: &Assignment| a.load.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                    proptest::prop_assert_eq!(bits(&got), bits(&dense));
                    if depth == 1 {
                        proptest::prop_assert!(ranks.spills() > 0, "depth 1 never spilled");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite score")]
    fn keyed_sort_panics_on_nan() {
        sort_row(
            &[1.0, f32::NAN],
            &mut [0; 2],
            &mut [0.0; 2],
            &mut Vec::new(),
        );
    }

    #[test]
    fn load_accounts_match_assignments() {
        let (_, units, table, n) = setup(6);
        let cap = vec![f64::INFINITY; n];
        let usable = vec![true; n];
        let a = assign(LbAlgorithm::Stable, &units, &table, &cap, &usable);
        let mut recomputed = vec![0.0f64; n];
        for u in 0..units.len() {
            if let Some(c) = a.cluster_of[u] {
                recomputed[c] += units.unit(UnitId(u as u32)).demand;
            }
        }
        for (c, r) in recomputed.iter().enumerate() {
            assert!((r - a.load[c]).abs() < 1e-6, "cluster {c}");
        }
    }
}
