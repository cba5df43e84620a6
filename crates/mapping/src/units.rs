//! Mapping units: the finest-grain client sets the system maps (§5.1).
//!
//! "A mapping unit is the finest-grain set of client IPs for which server
//! assignment decisions are made … A traditional NS-based mapping system
//! uses a LDNS as the mapping unit … An end-user mapping system could use
//! /x client IP blocks that partition the client IP space, where x ≤ 24."
//!
//! This module builds both unit families, with the paper's BGP-CIDR
//! aggregation heuristic ("if a set of /24 IP blocks belong within the
//! same BGP CIDR, these blocks can be combined") and the §5.1 accounting:
//! unit counts, per-unit demand, and cluster radii per prefix length
//! (Figure 22).

use eum_geo::{GeoPoint, Prefix};
use eum_netmodel::{BlockId, Internet, ResolverId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Largest geographic radius (miles) a BGP-aggregated unit may have before
/// it is split back into /x blocks — beyond this, "same CIDR" stops
/// implying "proximal" and one server assignment cannot fit the unit
/// (§3.3's radius argument applied to block units).
pub const MAX_AGGREGATE_RADIUS_MILES: f64 = 250.0;

/// Index of a mapping unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UnitId(pub u32);

impl UnitId {
    /// The index as usize.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a unit is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnitKey {
    /// All clients of one LDNS (NS-based mapping).
    Ldns(ResolverId),
    /// All clients in an IP block (end-user mapping). The prefix may be a
    /// /x block or a BGP CIDR when aggregation is on.
    Block(Prefix),
}

/// One mapping unit with its aggregate observables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MapUnitInfo {
    /// The key.
    pub key: UnitKey,
    /// Total client demand in the unit.
    pub demand: f64,
    /// Demand-weighted centroid of the member client blocks.
    pub centroid: GeoPoint,
    /// Demand-weighted mean distance of members to the centroid — the
    /// §3.3 "cluster radius" (miles).
    pub radius: f64,
    /// Member client blocks (for client-aware scoring).
    pub members: Vec<BlockId>,
}

/// A complete unit partition with lookup indices.
#[derive(Debug, Clone, Default)]
pub struct MapUnits {
    /// All units.
    pub units: Vec<MapUnitInfo>,
    by_ldns: HashMap<ResolverId, UnitId>,
    /// /24 member prefix → owning unit (covers both block granularities
    /// and BGP aggregation).
    by_member24: HashMap<Prefix, UnitId>,
}

impl MapUnits {
    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when there are no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The unit with the given ID.
    pub fn unit(&self, id: UnitId) -> &MapUnitInfo {
        &self.units[id.index()]
    }

    /// The unit owning an LDNS (NS-based lookup).
    pub fn unit_for_ldns(&self, ldns: ResolverId) -> Option<UnitId> {
        self.by_ldns.get(&ldns).copied()
    }

    /// The unit owning a client, looked up by the /24 the client belongs
    /// to (the granularity ECS queries arrive at).
    pub fn unit_for_client(&self, client: Ipv4Addr) -> Option<UnitId> {
        self.by_member24.get(&Prefix::of(client, 24)).copied()
    }

    /// The unit owning a /24 block.
    pub fn unit_for_block24(&self, block: Prefix) -> Option<UnitId> {
        self.by_member24.get(&block.truncate(24)).copied()
    }

    /// One unit per LDNS with non-zero demand — NS-based units. Each
    /// unit's members are the blocks using that LDNS; demand is the
    /// demand flowing through it.
    pub fn ldns_units(net: &Internet) -> MapUnits {
        let mut grouped: HashMap<ResolverId, Vec<(BlockId, f64)>> = HashMap::new();
        for b in &net.blocks {
            for (r, w) in &b.ldns {
                if *w > 0.0 {
                    grouped.entry(*r).or_default().push((b.id, w * b.demand));
                }
            }
        }
        let mut keys: Vec<ResolverId> = grouped.keys().copied().collect();
        keys.sort();
        let mut out = MapUnits::default();
        out.units.reserve(keys.len());
        out.by_ldns.reserve(keys.len());
        for r in keys {
            let members = grouped.remove(&r).expect("key present");
            let info = summarize(net, UnitKey::Ldns(r), members.iter().map(|(b, d)| (*b, *d)));
            let id = UnitId(out.units.len() as u32);
            out.by_ldns.insert(r, id);
            out.units.push(info);
        }
        out
    }

    /// /x block units, optionally combined by covering BGP CIDR (§5.1).
    ///
    /// With `bgp_aggregate`, every /x block is first mapped to its covering
    /// announced CIDR; blocks sharing a CIDR form one unit keyed by the
    /// CIDR (when the CIDR is coarser than /x) — this is what reduced the
    /// paper's 3.76M /24 units to 444K. The paper's premise is that blocks
    /// in one CIDR "are likely proximal in the network sense"; when that
    /// fails (a multi-branch enterprise announcing one CIDR across
    /// continents), aggregation would produce a meaningless centroid, so
    /// CIDR groups whose geographic radius exceeds
    /// [`MAX_AGGREGATE_RADIUS_MILES`] are de-aggregated back to /x blocks.
    pub fn block_units(net: &Internet, prefix_len: u8, bgp_aggregate: bool) -> MapUnits {
        assert!(prefix_len <= 24, "mapping units are /x with x ≤ 24");
        let mut grouped: HashMap<Prefix, Vec<(BlockId, f64)>> = HashMap::new();
        let insert_plain = |grouped: &mut HashMap<Prefix, Vec<(BlockId, f64)>>,
                            b: &eum_netmodel::ClientBlock| {
            grouped
                .entry(b.prefix.truncate(prefix_len))
                .or_default()
                .push((b.id, b.demand));
        };
        for b in &net.blocks {
            if b.demand <= 0.0 {
                continue;
            }
            let coarse = b.prefix.truncate(prefix_len);
            let key = if bgp_aggregate {
                match net.bgp.covering(coarse) {
                    // Use the CIDR when it is at least as coarse as /x.
                    Some((cidr, _)) if cidr.len() <= prefix_len => cidr,
                    _ => coarse,
                }
            } else {
                coarse
            };
            grouped.entry(key).or_default().push((b.id, b.demand));
        }
        if bgp_aggregate {
            // De-aggregate dispersed CIDR groups.
            let keys: Vec<Prefix> = grouped.keys().copied().collect();
            for key in keys {
                if key.len() >= prefix_len {
                    continue; // not an aggregation
                }
                let members = &grouped[&key];
                let info = summarize(
                    net,
                    UnitKey::Block(key),
                    members.iter().map(|(b, d)| (*b, *d)),
                );
                if info.radius > MAX_AGGREGATE_RADIUS_MILES {
                    let members = grouped.remove(&key).expect("key present");
                    for (bid, _) in members {
                        insert_plain(&mut grouped, net.block(bid));
                    }
                }
            }
        }
        let mut keys: Vec<Prefix> = grouped.keys().copied().collect();
        keys.sort();
        let mut out = MapUnits::default();
        out.units.reserve(keys.len());
        out.by_member24
            .reserve(grouped.values().map(Vec::len).sum());
        for key in keys {
            let members = grouped.remove(&key).expect("key present");
            let info = summarize(
                net,
                UnitKey::Block(key),
                members.iter().map(|(b, d)| (*b, *d)),
            );
            let id = UnitId(out.units.len() as u32);
            for (b, _) in &members {
                out.by_member24.insert(net.block(*b).prefix, id);
            }
            out.units.push(info);
        }
        out
    }

    /// Total demand across units.
    pub fn total_demand(&self) -> f64 {
        self.units.iter().map(|u| u.demand).sum()
    }

    /// Units sorted by demand, descending — the ranking behind Figure 21.
    pub fn by_demand_desc(&self) -> Vec<UnitId> {
        let mut ids: Vec<UnitId> = (0..self.units.len()).map(|i| UnitId(i as u32)).collect();
        ids.sort_by(|a, b| {
            self.unit(*b)
                .demand
                .partial_cmp(&self.unit(*a).demand)
                .expect("finite demand")
        });
        ids
    }

    /// How many of the highest-demand units are needed to cover `fraction`
    /// of total demand (§5.1: 95% coverage needs 25K LDNSes but 2.2M /24
    /// blocks).
    pub fn units_for_demand_fraction(&self, fraction: f64) -> usize {
        let total = self.total_demand();
        if total <= 0.0 {
            return 0;
        }
        let target = fraction.clamp(0.0, 1.0) * total;
        let mut cum = 0.0;
        for (i, id) in self.by_demand_desc().into_iter().enumerate() {
            cum += self.unit(id).demand;
            if cum >= target - 1e-9 {
                return i + 1;
            }
        }
        self.units.len()
    }
}

/// Builds one unit's aggregate info from its weighted members.
fn summarize(
    net: &Internet,
    key: UnitKey,
    members: impl Iterator<Item = (BlockId, f64)> + Clone,
) -> MapUnitInfo {
    let points: Vec<(GeoPoint, f64)> = members
        .clone()
        .map(|(b, d)| (net.block(b).loc, d))
        .collect();
    let demand: f64 = points.iter().map(|(_, d)| d).sum();
    let centroid = GeoPoint::weighted_centroid(&points).unwrap_or_else(|| {
        points
            .first()
            .map(|(p, _)| *p)
            .unwrap_or(GeoPoint::new(0.0, 0.0))
    });
    let radius = if demand > 0.0 {
        points
            .iter()
            .map(|(p, d)| p.distance_miles(&centroid) * d)
            .sum::<f64>()
            / demand
    } else {
        0.0
    };
    MapUnitInfo {
        key,
        demand,
        centroid,
        radius,
        members: members.map(|(b, _)| b).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eum_netmodel::InternetConfig;

    fn net() -> Internet {
        Internet::generate(InternetConfig::tiny(0x11))
    }

    #[test]
    fn ldns_units_cover_all_demand() {
        let net = net();
        let units = MapUnits::ldns_units(&net);
        assert!(!units.is_empty());
        let total = units.total_demand();
        assert!((total - net.total_demand()).abs() / total < 1e-9);
    }

    #[test]
    fn block24_units_are_one_per_block() {
        let net = net();
        let units = MapUnits::block_units(&net, 24, false);
        let with_demand = net.blocks.iter().filter(|b| b.demand > 0.0).count();
        assert_eq!(units.len(), with_demand);
        // Every block resolves to its own unit.
        for b in &net.blocks {
            let u = units.unit_for_client(b.client_ip()).expect("unit exists");
            assert_eq!(units.unit(u).key, UnitKey::Block(b.prefix));
        }
    }

    #[test]
    fn coarser_prefixes_give_fewer_units_with_larger_radius() {
        let net = net();
        let mut prev_count = usize::MAX;
        let mut radii: Vec<f64> = Vec::new();
        for len in [24u8, 20, 16, 12, 8] {
            let units = MapUnits::block_units(&net, len, false);
            assert!(units.len() <= prev_count, "/{} grew the unit count", len);
            prev_count = units.len();
            let total = units.total_demand();
            let mean_radius = units.units.iter().map(|u| u.radius * u.demand).sum::<f64>() / total;
            radii.push(mean_radius);
        }
        // Figure 22's tradeoff: radius grows as prefixes coarsen.
        assert!(radii.last().unwrap() > radii.first().unwrap());
    }

    #[test]
    fn bgp_aggregation_reduces_units_without_losing_demand() {
        let net = net();
        let plain = MapUnits::block_units(&net, 24, false);
        let agg = MapUnits::block_units(&net, 24, true);
        assert!(agg.len() < plain.len(), "{} !< {}", agg.len(), plain.len());
        assert!((agg.total_demand() - plain.total_demand()).abs() < 1e-6);
        // Lookup still resolves every client.
        for b in &net.blocks {
            assert!(agg.unit_for_client(b.client_ip()).is_some());
        }
    }

    #[test]
    fn dispersed_cidrs_are_deaggregated() {
        // No aggregated unit may exceed the radius cap — multi-continent
        // enterprise CIDRs must fall back to per-block units.
        let net = Internet::generate(InternetConfig::small(0x12));
        let agg = MapUnits::block_units(&net, 24, true);
        for u in &agg.units {
            if let UnitKey::Block(p) = u.key {
                if p.len() < 24 {
                    assert!(
                        u.radius <= crate::units::MAX_AGGREGATE_RADIUS_MILES,
                        "aggregated unit {p} has radius {:.0}",
                        u.radius
                    );
                }
            }
        }
    }

    #[test]
    fn ldns_lookup_finds_units() {
        let net = net();
        let units = MapUnits::ldns_units(&net);
        for b in &net.blocks {
            for (r, _) in &b.ldns {
                assert!(units.unit_for_ldns(*r).is_some());
            }
        }
        assert!(units.unit_for_ldns(ResolverId(9999)).is_none());
    }

    #[test]
    fn demand_ranking_is_descending_and_coverage_monotone() {
        let net = net();
        let units = MapUnits::ldns_units(&net);
        let ranked = units.by_demand_desc();
        for pair in ranked.windows(2) {
            assert!(units.unit(pair[0]).demand >= units.unit(pair[1]).demand);
        }
        let n50 = units.units_for_demand_fraction(0.5);
        let n95 = units.units_for_demand_fraction(0.95);
        assert!(n50 >= 1);
        assert!(n95 >= n50);
        assert!(n95 <= units.len());
    }

    #[test]
    fn fewer_ldns_units_than_block_units_for_half_demand() {
        // Figure 21's key asymmetry (LDNS demand is more concentrated).
        let net = Internet::generate(InternetConfig::small(9));
        let ldns = MapUnits::ldns_units(&net);
        let blocks = MapUnits::block_units(&net, 24, false);
        assert!(
            ldns.units_for_demand_fraction(0.5) < blocks.units_for_demand_fraction(0.5),
            "LDNS units should concentrate demand more than /24 blocks"
        );
    }

    #[test]
    fn unknown_client_has_no_unit() {
        let net = net();
        let units = MapUnits::block_units(&net, 24, false);
        assert!(units
            .unit_for_client("203.0.113.7".parse().unwrap())
            .is_none());
    }

    #[test]
    fn radius_is_zero_for_singleton_unit() {
        let net = net();
        let units = MapUnits::block_units(&net, 24, false);
        for u in &units.units {
            if u.members.len() == 1 {
                assert!(u.radius < 1e-9);
            }
        }
    }
}
