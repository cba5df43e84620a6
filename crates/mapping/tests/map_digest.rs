//! Golden digests of every artifact the map pipeline produces.
//!
//! Measurement (ping-target selection and proxying), scoring, preference
//! ranking and the published candidate rows are hashed over tiny seeded
//! worlds, through the public API only, and compared with pinned FNV-1a
//! digests. A change that is meant to be a pure speed-up must leave every
//! digest unchanged. A change that is *meant* to move the map re-records
//! them: `MAP_DIGEST_PRINT=1 cargo test -p eum-mapping --test map_digest
//! -- --nocapture` prints the values to paste.

use eum_cdn::{
    deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig, TrafficClass,
};
use eum_geo::GeoPoint;
use eum_mapping::{
    LbAlgorithm, MapUnits, MappingConfig, MappingPolicy, MappingSystem, PingMatrix, PingTargets,
    PreferenceTable, RescoreHints, ScoreBasis, ScoreTable, ScoringWeights, UnitId, UnitKey,
};
use eum_netmodel::{Endpoint, Internet, InternetConfig};

const SEEDS: [u64; 2] = [0xD16E, 0x5EED];

const TARGETS_DIGEST: u64 = 0x82fb_9ea5_ce5e_085e;
const SCORES_DIGEST: u64 = 0x1d3b_23c2_229d_6457;
const MAP_DIGEST: u64 = 0x3e6a_5792_1671_5cc2;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn check(name: &str, got: u64, pinned: u64) {
    if std::env::var_os("MAP_DIGEST_PRINT").is_some() {
        println!("const {name}: u64 = {got:#018x};");
    }
    assert_eq!(
        got, pinned,
        "{name} moved: {got:#018x} (pinned {pinned:#018x})"
    );
}

/// A tiny world with a deployed CDN whose clusters have finite capacity,
/// so the stable allocation actually displaces units.
fn world(seed: u64) -> (Internet, CdnPlatform, ContentCatalog) {
    let mut net = Internet::generate(InternetConfig::tiny(seed));
    let sites = deployment_universe(seed, 16);
    let mut cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
    let per_cluster = net.total_demand() * 1.3 / cdn.clusters.len() as f64;
    for c in &mut cdn.clusters {
        c.capacity = per_cluster;
    }
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(seed));
    (net, cdn, catalog)
}

/// Points no block sits on: a 7.5° lattice with both poles (where every
/// longitude is the same point) and both ±180° meridians.
fn lattice() -> Vec<GeoPoint> {
    let mut out = Vec::new();
    for i in 0..=24 {
        for j in 0..=48 {
            out.push(GeoPoint::new(
                -90.0 + 7.5 * i as f64,
                -180.0 + 7.5 * j as f64,
            ));
        }
    }
    out
}

#[test]
fn ping_targets_and_proxies_are_pinned() {
    let mut h = Fnv::new();
    let grid = lattice();
    for seed in SEEDS {
        let (net, _, _) = world(seed);
        for (max, radius) in [
            (1, 100.0),
            (20, 150.0),
            (50, 100.0),
            (400, 40.0),
            (2000, 10.0),
        ] {
            let t = PingTargets::select(&net, max, radius);
            h.word(t.len() as u64);
            for b in &t.target_blocks {
                h.word(b.index() as u64);
            }
            for b in &net.blocks {
                h.word(t.target_of_block(b.id).index() as u64);
                h.word(t.target_of_point(&b.loc).index() as u64);
            }
            for r in &net.resolvers {
                h.word(t.target_of_point(&r.loc).index() as u64);
            }
            for p in &grid {
                h.word(t.target_of_point(p).index() as u64);
            }
        }
    }
    check("TARGETS_DIGEST", h.0, TARGETS_DIGEST);
}

#[test]
fn score_tables_and_preference_rows_are_pinned() {
    let mut h = Fnv::new();
    for seed in SEEDS {
        let (net, cdn, _) = world(seed);
        let clusters: Vec<Endpoint> = cdn
            .clusters
            .iter()
            .map(|c| cdn.cluster_endpoint(c.id))
            .collect();
        let targets = PingTargets::select(&net, 40, 150.0);
        let matrix = PingMatrix::measure(&net, &clusters, &targets);
        let ldns = MapUnits::ldns_units(&net);
        let blocks = MapUnits::block_units(&net, 24, false);
        let vantage = |units: &MapUnits| -> Vec<Endpoint> {
            units
                .units
                .iter()
                .map(|u| match u.key {
                    UnitKey::Ldns(r) => net.resolver(r).endpoint(),
                    UnitKey::Block(_) => net.block(u.members[0]).endpoint(),
                })
                .collect()
        };
        let cases = [
            (&ldns, ScoreBasis::UnitVantage),
            (&ldns, ScoreBasis::MemberClients),
            (&blocks, ScoreBasis::UnitVantage),
            (&blocks, ScoreBasis::MemberClients),
        ];
        for (units, basis) in cases {
            let vantages = vantage(units);
            let weights = TrafficClass::ALL
                .map(ScoringWeights::for_class)
                .into_iter()
                .chain([ScoringWeights::default()]);
            for w in weights {
                let table = ScoreTable::build(
                    &net, units, &vantages, &clusters, &targets, &matrix, w, basis, 3,
                );
                let prefs = PreferenceTable::build(&table);
                h.word(table.units() as u64);
                h.word(table.clusters() as u64);
                for u in 0..table.units() {
                    let uid = UnitId(u as u32);
                    for c in 0..table.clusters() {
                        h.word(table.score(uid, c).to_bits());
                    }
                    for c in prefs.row(uid) {
                        h.word(*c as u64);
                    }
                }
            }
        }
    }
    check("SCORES_DIGEST", h.0, SCORES_DIGEST);
}

/// Every published candidate row, per class, for every block and
/// resolver.
fn hash_rows(h: &mut Fnv, net: &Internet, map: &MappingSystem) {
    let mut row = |r: Option<Vec<eum_cdn::ClusterId>>| match r {
        None => h.word(u64::MAX),
        Some(ids) => {
            h.word(ids.len() as u64);
            for id in ids {
                h.word(id.index() as u64);
            }
        }
    };
    for class in TrafficClass::ALL {
        for b in &net.blocks {
            row(map.candidate_clusters_for_block(b.prefix, class));
        }
        for r in &net.resolvers {
            row(map.candidate_clusters_for_ldns(r.ip, class));
        }
    }
}

#[test]
fn published_candidate_rows_are_pinned() {
    let mut h = Fnv::new();
    for seed in SEEDS {
        let policies = [
            (MappingPolicy::end_user_default(), true),
            (MappingPolicy::end_user_default(), false),
            (MappingPolicy::NsBased, true),
            (MappingPolicy::ClientAwareNs, true),
        ];
        for (policy, per_class_scoring) in policies {
            let (mut net, mut cdn, catalog) = world(seed);
            let mut map = MappingSystem::build(
                &mut net,
                &cdn,
                &catalog,
                "cdn.example".parse().unwrap(),
                MappingConfig {
                    policy,
                    per_class_scoring,
                    max_ping_targets: 40,
                    ..MappingConfig::default()
                },
            );
            hash_rows(&mut h, &net, &map);
            // A full rebuild after a liveness flip and a capacity squeeze.
            let victim = cdn.clusters[2].id;
            cdn.set_cluster_alive(victim, false);
            cdn.clusters[5].capacity *= 0.1;
            map.rebuild(&net, &cdn);
            hash_rows(&mut h, &net, &map);
        }
    }
    check("MAP_DIGEST", h.0, MAP_DIGEST);
}

const DEEP_MAP_DIGEST: u64 = 0xc95d_a883_a7a0_49eb;

/// A 48-cluster world whose capacities are tight (5 % headroom overall,
/// every third cluster cut to a third of its share), so units are pushed
/// far down their rankings — past the first 16 clusters.
fn deep_world(seed: u64) -> (Internet, CdnPlatform, ContentCatalog) {
    let mut net = Internet::generate(InternetConfig::tiny(seed));
    let sites = deployment_universe(seed, 48);
    let mut cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
    let per_cluster = net.total_demand() * 1.05 / cdn.clusters.len() as f64;
    for (i, c) in cdn.clusters.iter_mut().enumerate() {
        c.capacity = if i % 3 == 0 {
            per_cluster / 3.0
        } else {
            per_cluster
        };
    }
    let catalog = ContentCatalog::generate(&CatalogConfig::tiny(seed));
    (net, cdn, catalog)
}

#[test]
fn deep_ranking_candidate_rows_are_pinned() {
    let mut h = Fnv::new();
    for seed in SEEDS {
        for algorithm in [LbAlgorithm::Stable, LbAlgorithm::Greedy] {
            let (mut net, mut cdn, catalog) = deep_world(seed);
            let mut map = MappingSystem::build(
                &mut net,
                &cdn,
                &catalog,
                "cdn.example".parse().unwrap(),
                MappingConfig {
                    algorithm,
                    max_ping_targets: 40,
                    ..MappingConfig::default()
                },
            );
            hash_rows(&mut h, &net, &map);
            // Incremental: a liveness flip, a capacity cut and measurement
            // drift on hinted units.
            let victim = cdn.clusters[4].id;
            cdn.set_cluster_alive(victim, false);
            cdn.clusters[7].capacity *= 0.2;
            let mut hints = RescoreHints::default();
            for i in (0..net.blocks.len()).step_by(37) {
                net.blocks[i].access_ms *= 1.5;
                let client = net.blocks[i].client_ip();
                if let Some(u) = map.eu_units().and_then(|u| u.unit_for_client(client)) {
                    hints.eu.push(u);
                }
                if let Some(u) = map.ns_units().unit_for_block24(net.blocks[i].prefix) {
                    hints.ns.push(u);
                }
            }
            let delta = map.rebuild_incremental(&net, &cdn, &hints);
            h.word(u64::from(delta.is_full()));
            hash_rows(&mut h, &net, &map);
            // A full rebuild of the same world.
            map.rebuild(&net, &cdn);
            hash_rows(&mut h, &net, &map);
        }
    }
    check("DEEP_MAP_DIGEST", h.0, DEEP_MAP_DIGEST);
}
