//! The seeded world every workload runs against: a synthetic Internet, a
//! CDN deployment with catchment-provisioned capacity, a content
//! catalog, and the mapping system built over them — assembled only from
//! the crates' public constructors, the same recipe `eum-sim`'s
//! `Scenario::build` follows.
//!
//! The world seed is a constant: `--seed` varies the *query stream* (the
//! input the program under test sees), not the deployment it runs on, so
//! run-to-run spread measures the program and the host, not sixteen
//! different Internets.

use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
use eum_dns::DnsName;
use eum_mapping::{MappingConfig, MappingPolicy, MappingSystem};
use eum_netmodel::{Internet, InternetConfig};
use std::time::Instant;

/// Seed of the deployment (Internet, sites, catalog).
pub const WORLD_SEED: u64 = 0xE2E_BE7C;

/// How large a world to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `InternetConfig::paper` + `CatalogConfig::paper` on 160 clusters:
    /// the benchmark. Ping targets are capped at 500 (the repro binaries
    /// use 2000): they set measurement fan-out, not the number of blocks,
    /// resolvers, units or names a query can touch, and at 2000 one
    /// `MappingSystem::build` takes 3.7 s, which the per-run time cap
    /// cannot pay three times for the set-up median.
    Paper,
    /// A few hundred blocks and a dozen names: `--smoke` and self-tests.
    Tiny,
}

/// The built world. `map` is the control plane's master copy (it keeps
/// the incremental-rebuild solver state); servers get
/// [`MappingSystem::clone_for_publish`] copies of it.
pub struct World {
    pub scale: Scale,
    pub net: Internet,
    pub cdn: CdnPlatform,
    pub catalog: ContentCatalog,
    pub map: MappingSystem,
    /// Seconds spent in `MappingSystem::build` alone.
    pub map_build_s: f64,
}

impl World {
    /// Builds the world at `scale`; deterministic.
    pub fn build(scale: Scale) -> World {
        let (icfg, ccfg, n_clusters, servers, ping_targets) = match scale {
            Scale::Paper => (
                InternetConfig::paper(WORLD_SEED),
                CatalogConfig::paper(WORLD_SEED),
                160,
                6,
                500,
            ),
            Scale::Tiny => (
                InternetConfig::tiny(WORLD_SEED),
                CatalogConfig::tiny(WORLD_SEED),
                16,
                4,
                50,
            ),
        };
        let mut net = Internet::generate(icfg);
        let catalog = ContentCatalog::generate(&ccfg);
        let sites = deployment_universe(WORLD_SEED, n_clusters);
        let mut cdn = CdnPlatform::deploy(
            &mut net,
            &sites,
            &DeployConfig {
                servers_per_cluster: servers,
                cache_objects_per_server: 1024,
                cluster_capacity: 0.0,
            },
        );
        provision_capacity(&net, &mut cdn);
        let t = Instant::now();
        let map = MappingSystem::build(
            &mut net,
            &cdn,
            &catalog,
            suffix(),
            MappingConfig {
                policy: MappingPolicy::end_user_default(),
                max_ping_targets: ping_targets,
                ..MappingConfig::default()
            },
        );
        let map_build_s = t.elapsed().as_secs_f64();
        World {
            scale,
            net,
            cdn,
            catalog,
            map,
            map_build_s,
        }
    }

    /// The low-level authoritative IP socket servers answer as (sockets
    /// carry no server IP; every low-level NS answers identically).
    pub fn low_ip(&self) -> std::net::Ipv4Addr {
        self.map.ns_ips()[1]
    }
}

/// The CDN's zone suffix.
pub fn suffix() -> DnsName {
    "cdn.example".parse().expect("literal zone name")
}

/// Capacity where demand is: each block adds its demand to the nearest
/// cluster's catchment; a cluster gets 1.5× its catchment plus a floor so
/// cold-region clusters can absorb failover. Uniform capacity would make
/// the load balancer scatter hot metros across the globe, and infinite
/// capacity would leave `map_churn`'s liveness flips nothing to rebalance.
fn provision_capacity(net: &Internet, cdn: &mut CdnPlatform) {
    let mut catchment = vec![0.0f64; cdn.cluster_count()];
    for b in &net.blocks {
        let nearest = cdn
            .clusters
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| {
                x.loc
                    .distance_miles(&b.loc)
                    .total_cmp(&y.loc.distance_miles(&b.loc))
            })
            .expect("clusters exist")
            .0;
        catchment[nearest] += b.demand;
    }
    let floor = net.total_demand() * 0.2 / cdn.cluster_count() as f64;
    for (c, demand) in cdn.clusters.iter_mut().zip(catchment) {
        c.capacity = 1.5 * demand + floor;
    }
}
