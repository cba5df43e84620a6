//! The network-measurement component: ping targets and the ping matrix.
//!
//! §6: "we choose around 20K /24 IP blocks that account for most of the
//! load on the Internet and further cluster them into 8K 'ping targets',
//! so as to cover all major geographical areas and networks … For any
//! client or LDNS, we find the closest of the 8K ping targets and use that
//! as a proxy for latency measurements."
//!
//! Target selection is a demand-ordered covering pass: walking blocks from
//! highest demand, a block becomes a new target unless an existing target
//! already covers it within a radius; every block (and any other point)
//! is then proxied by its nearest target. Pings are measured with
//! [`ping_ms`](eum_netmodel::LatencyModel::ping_ms), which — like real pings to enroute routers —
//! underestimate full client RTT (the paper's explicit caveat).
//!
//! Both searches are exact, with a cosine prefilter. Each target's unit
//! vector is stored once; the dot product `cos θ` of two unit vectors and
//! the haversine's `h = (1 − cos θ)/2` are both accurate to a few 1e-16,
//! and the haversine maps `h` through the increasing `2·asin(√h)`, so if
//! it ranks target `i` no farther than `j` then `dot_i ≥ dot_j − ~1e-15`.
//! The nearest-target search takes `c* = max dot` and runs the strict-`<`
//! haversine scan, in index order, over only the targets with `dot ≥ c* −
//! 1e-9`: that set holds the full scan's pick and all its earlier-indexed
//! ties, so the pick is the same. The covering test decides by cosine
//! outside `cos(r/R) ± 1e-9` and by the haversine `< r` inside that band.
//! The slack is six orders of magnitude above the rounding; the tests
//! check both searches against the plain scans on random, duplicated,
//! tied, polar, antimeridian, antipodal and radius-boundary points.

use eum_geo::{GeoPoint, EARTH_RADIUS_MILES};
use eum_netmodel::{BlockId, Endpoint, Internet};
use serde::{Deserialize, Serialize};

/// Index of a ping target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TargetId(pub u32);

impl TargetId {
    /// The index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The selected ping targets plus the block → target proxy assignment.
#[derive(Debug, Clone, Default)]
pub struct PingTargets {
    /// Target endpoints (representative blocks).
    pub targets: Vec<Endpoint>,
    /// The block each target was built from.
    pub target_blocks: Vec<BlockId>,
    /// Per-block nearest target (indexed by `BlockId`).
    block_to_target: Vec<TargetId>,
    /// Target positions, for the prefiltered searches.
    index: TargetIndex,
}

impl PingTargets {
    /// Selects up to `max_targets` targets covering the Internet's blocks.
    ///
    /// `cover_radius_miles` controls density: a block closer than this to
    /// an existing target is covered rather than becoming a new target.
    pub fn select(net: &Internet, max_targets: usize, cover_radius_miles: f64) -> PingTargets {
        let mut t = PingTargets::default();
        t.reselect(net, max_targets, cover_radius_miles);
        t
    }

    /// [`select`](Self::select), written over this selection's buffers.
    pub(crate) fn reselect(&mut self, net: &Internet, max_targets: usize, cover_miles: f64) {
        assert!(max_targets > 0, "need at least one ping target");
        // Demand-descending walk.
        let mut order: Vec<&eum_netmodel::ClientBlock> = net.blocks.iter().collect();
        order.sort_by(|a, b| b.demand.partial_cmp(&a.demand).expect("finite demand"));

        self.targets.clear();
        self.target_blocks.clear();
        self.index.points.clear();
        self.index.units.clear();
        for b in &order {
            if self.targets.len() >= max_targets {
                break;
            }
            if !self.index.covers(&b.loc, cover_miles) {
                self.targets.push(b.endpoint());
                self.target_blocks.push(b.id);
                self.index.push(b.loc);
            }
        }
        if self.targets.is_empty() {
            // Degenerate universe: take the top block regardless.
            let b = order.first().expect("non-empty Internet");
            self.targets.push(b.endpoint());
            self.target_blocks.push(b.id);
            self.index.push(b.loc);
        }

        // Nearest-target assignment for every block.
        self.block_to_target.clear();
        let index = &self.index;
        self.block_to_target
            .extend(net.blocks.iter().map(|b| index.nearest(&b.loc)));
    }

    /// Number of targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True when no targets exist (cannot happen after `select`).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// The proxy target for a block.
    pub fn target_of_block(&self, block: BlockId) -> TargetId {
        self.block_to_target[block.index()]
    }

    /// The proxy target nearest to an arbitrary point (for LDNSes and
    /// unit centroids).
    pub fn target_of_point(&self, point: &GeoPoint) -> TargetId {
        self.index.nearest(point)
    }
}

/// Slack on cosines that absorbs rounding in both the dot product and
/// the haversine (see the module docs).
const COS_SLACK: f64 = 1e-9;

/// Points with their unit vectors, searched by cosine first and decided
/// by the haversine exactly as a plain scan would decide.
#[derive(Debug, Clone, Default)]
struct TargetIndex {
    points: Vec<GeoPoint>,
    units: Vec<[f64; 3]>,
}

fn unit_vector(p: &GeoPoint) -> [f64; 3] {
    let (lat, lon) = (p.lat().to_radians(), p.lon().to_radians());
    [lat.cos() * lon.cos(), lat.cos() * lon.sin(), lat.sin()]
}

fn dot(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

impl TargetIndex {
    fn push(&mut self, p: GeoPoint) {
        self.points.push(p);
        self.units.push(unit_vector(&p));
    }

    /// The first point at the least haversine distance from `p` (0 when
    /// there is none), scanning only points within [`COS_SLACK`] of the
    /// largest cosine.
    fn nearest(&self, p: &GeoPoint) -> TargetId {
        let u = unit_vector(p);
        let floor = self
            .units
            .iter()
            .map(|v| dot(&u, v))
            .fold(f64::NEG_INFINITY, f64::max)
            - COS_SLACK;
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, (t, v)) in self.points.iter().zip(&self.units).enumerate() {
            if dot(&u, v) < floor {
                continue;
            }
            let d = t.distance_miles(p);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        TargetId(best as u32)
    }

    /// True when some point's haversine distance to `p` is below
    /// `radius_miles`; the haversine runs only inside the cosine band.
    fn covers(&self, p: &GeoPoint, radius_miles: f64) -> bool {
        let u = unit_vector(p);
        let cos_r = (radius_miles / EARTH_RADIUS_MILES)
            .clamp(0.0, std::f64::consts::PI)
            .cos();
        self.points.iter().zip(&self.units).any(|(t, v)| {
            let c = dot(&u, v);
            if c > cos_r + COS_SLACK {
                true
            } else if c < cos_r - COS_SLACK {
                false
            } else {
                t.distance_miles(p) < radius_miles
            }
        })
    }
}

/// A deployments × targets matrix of ping latencies.
#[derive(Debug, Clone, Default)]
pub struct PingMatrix {
    n_targets: usize,
    /// Row-major: `rtt[deploy * n_targets + target]`.
    rtt: Vec<f32>,
}

impl PingMatrix {
    /// Measures pings from every deployment endpoint to every target.
    pub fn measure(net: &Internet, deployments: &[Endpoint], targets: &PingTargets) -> PingMatrix {
        let mut m = PingMatrix::default();
        m.remeasure(net, deployments, targets);
        m
    }

    /// [`measure`](Self::measure), written over this matrix's buffer.
    pub(crate) fn remeasure(&mut self, net: &Internet, eps: &[Endpoint], targets: &PingTargets) {
        self.n_targets = targets.len();
        self.rtt.clear();
        self.rtt.reserve(eps.len() * self.n_targets);
        for d in eps {
            for t in &targets.targets {
                self.rtt.push(net.latency.ping_ms(d, t) as f32);
            }
        }
    }

    /// Number of deployment rows.
    pub fn deployments(&self) -> usize {
        self.rtt.len().checked_div(self.n_targets).unwrap_or(0)
    }

    /// Number of target columns.
    pub fn targets(&self) -> usize {
        self.n_targets
    }

    /// The measured ping from deployment `d` to target `t`, ms.
    pub fn ping(&self, d: usize, t: TargetId) -> f64 {
        self.rtt[d * self.n_targets + t.index()] as f64
    }

    /// The deployment (among `candidates`) with the lowest ping to `t`.
    pub fn best_deployment(
        &self,
        candidates: impl IntoIterator<Item = usize>,
        t: TargetId,
    ) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for d in candidates {
            let r = self.ping(d, t);
            if best.is_none_or(|(_, b)| r < b) {
                best = Some((d, r));
            }
        }
        best.map(|(d, _)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eum_netmodel::InternetConfig;

    fn net() -> Internet {
        Internet::generate(InternetConfig::tiny(0x77))
    }

    #[test]
    fn select_respects_max_and_covers_all_blocks() {
        let net = net();
        let t = PingTargets::select(&net, 20, 100.0);
        assert!(t.len() <= 20);
        assert!(!t.is_empty());
        for b in &net.blocks {
            let tid = t.target_of_block(b.id);
            assert!(tid.index() < t.len());
        }
    }

    #[test]
    fn targets_are_spread_apart() {
        let net = net();
        let radius = 150.0;
        let t = PingTargets::select(&net, 1000, radius);
        for i in 0..t.len() {
            for j in (i + 1)..t.len() {
                let d = t.targets[i].loc.distance_miles(&t.targets[j].loc);
                assert!(d >= radius * 0.999, "targets {i},{j} only {d} miles apart");
            }
        }
    }

    #[test]
    fn every_block_proxies_to_its_nearest_target() {
        let net = net();
        let t = PingTargets::select(&net, 50, 120.0);
        for b in &net.blocks {
            let assigned = t.target_of_block(b.id);
            let assigned_d = t.targets[assigned.index()].loc.distance_miles(&b.loc);
            for (i, tgt) in t.targets.iter().enumerate() {
                assert!(
                    tgt.loc.distance_miles(&b.loc) >= assigned_d - 1e-9,
                    "block {} has closer target {} than assigned {}",
                    b.prefix,
                    i,
                    assigned.index()
                );
            }
        }
    }

    #[test]
    fn matrix_dimensions_and_symmetric_consistency() {
        let net = net();
        let t = PingTargets::select(&net, 10, 200.0);
        let deployments: Vec<Endpoint> =
            net.resolvers.iter().take(4).map(|r| r.endpoint()).collect();
        let m = PingMatrix::measure(&net, &deployments, &t);
        assert_eq!(m.deployments(), 4);
        assert_eq!(m.targets(), t.len());
        #[allow(clippy::needless_range_loop)]
        for d in 0..4 {
            for ti in 0..t.len() {
                let r = m.ping(d, TargetId(ti as u32));
                assert!(r.is_finite() && r > 0.0);
                // Matches a direct model query (within f32 rounding).
                let direct = net.latency.ping_ms(&deployments[d], &t.targets[ti]);
                assert!((r - direct).abs() < 0.01, "{r} vs {direct}");
            }
        }
    }

    #[test]
    fn best_deployment_minimizes_ping() {
        let net = net();
        let t = PingTargets::select(&net, 8, 200.0);
        let deployments: Vec<Endpoint> =
            net.resolvers.iter().take(5).map(|r| r.endpoint()).collect();
        let m = PingMatrix::measure(&net, &deployments, &t);
        let tid = TargetId(0);
        let best = m.best_deployment(0..5, tid).unwrap();
        for d in 0..5 {
            assert!(m.ping(best, tid) <= m.ping(d, tid));
        }
        assert_eq!(m.best_deployment(std::iter::empty(), tid), None);
    }

    #[test]
    fn target_of_point_agrees_with_block_assignment() {
        let net = net();
        let t = PingTargets::select(&net, 30, 150.0);
        for b in net.blocks.iter().take(20) {
            assert_eq!(t.target_of_point(&b.loc), t.target_of_block(b.id));
        }
    }

    /// The plain scans the prefiltered searches must reproduce.
    fn scan_nearest(points: &[GeoPoint], p: &GeoPoint) -> TargetId {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, t) in points.iter().enumerate() {
            let d = t.distance_miles(p);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        TargetId(best as u32)
    }

    fn scan_covers(points: &[GeoPoint], p: &GeoPoint, r: f64) -> bool {
        points.iter().any(|t| t.distance_miles(p) < r)
    }

    /// Adversarial point sets: uniform points mixed with exact duplicates,
    /// poles, the ±180° meridian, antipodes, mirror-image ties around the
    /// query and sub-metre neighbours of it.
    fn adversarial(seed: u64, n: usize) -> (Vec<GeoPoint>, GeoPoint) {
        let mut rng = proptest::TestRng::deterministic(&seed.to_string());
        let uniform = |rng: &mut proptest::TestRng| {
            GeoPoint::new(
                rng.unit_f64() * 180.0 - 90.0,
                rng.unit_f64() * 360.0 - 180.0,
            )
        };
        let antipode = |p: &GeoPoint| GeoPoint::new(-p.lat(), p.lon() + 180.0);
        let q = match rng.below(4) {
            0 => GeoPoint::new(90.0, 0.0),
            1 => GeoPoint::new(rng.unit_f64() * 40.0, 180.0),
            _ => uniform(&mut rng),
        };
        let mut pts: Vec<GeoPoint> = Vec::new();
        while pts.len() < n {
            let pick = rng.below(8);
            let p = match pick {
                1 if !pts.is_empty() => pts[rng.below(pts.len() as u64) as usize],
                2 => GeoPoint::new(
                    if rng.below(2) == 0 { 90.0 } else { -90.0 },
                    rng.unit_f64() * 360.0 - 180.0,
                ),
                3 => GeoPoint::new(
                    rng.unit_f64() * 180.0 - 90.0,
                    if rng.below(2) == 0 { 180.0 } else { -180.0 },
                ),
                4 => antipode(&q),
                5 => {
                    let d = rng.unit_f64() * 3.0;
                    pts.push(GeoPoint::new(q.lat(), q.lon() - d));
                    GeoPoint::new(q.lat(), q.lon() + d)
                }
                6 => GeoPoint::new(
                    q.lat() + (rng.unit_f64() - 0.5) * 1e-6,
                    q.lon() + (rng.unit_f64() - 0.5) * 1e-6,
                ),
                7 => q,
                _ => uniform(&mut rng),
            };
            pts.push(p);
        }
        (pts, q)
    }

    fn index_of(points: &[GeoPoint]) -> TargetIndex {
        let mut index = TargetIndex::default();
        for p in points {
            index.push(*p);
        }
        index
    }

    proptest::proptest! {
        #[test]
        fn prefiltered_nearest_matches_haversine_scan(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..48,
        ) {
            let (pts, q) = adversarial(seed, n);
            let index = index_of(&pts);
            let antipode = GeoPoint::new(-q.lat(), q.lon() + 180.0);
            for p in pts.iter().chain([&q, &antipode]) {
                proptest::prop_assert_eq!(index.nearest(p), scan_nearest(&pts, p));
            }
        }

        #[test]
        fn prefiltered_covering_matches_haversine_scan(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..48,
            r in 0.0f64..13_000.0,
        ) {
            let (pts, q) = adversarial(seed, n);
            let index = index_of(&pts);
            // Radii on the boundary of every point, one ulp either side,
            // and the degenerate ones.
            let mut radii = vec![r, 0.0, -1.0, 1e9, f64::INFINITY, f64::NAN];
            for p in &pts {
                let d = p.distance_miles(&q);
                radii.extend([d, f64::from_bits(d.to_bits() + 1)]);
                if d > 0.0 {
                    radii.push(f64::from_bits(d.to_bits() - 1));
                }
            }
            for r in radii {
                proptest::prop_assert_eq!(index.covers(&q, r), scan_covers(&pts, &q, r), "r = {}", r);
            }
        }
    }
}
