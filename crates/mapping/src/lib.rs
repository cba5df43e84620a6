#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The mapping system — the paper's primary contribution.
//!
//! "A central component of Akamai's CDN is its mapping system. The goal of
//! the mapping system is to maximize the performance experienced by the
//! client" (§1). This crate implements the full Figure-3 architecture:
//!
//! * [`measure`] — ping-target selection and the ping matrix (network
//!   measurement / topology discovery);
//! * [`score`] — per-(unit, cluster) scoring with latency and loss;
//! * [`units`] — mapping units: LDNS-based and /x-block-based with BGP
//!   aggregation (§5.1);
//! * [`global_lb`] — stable-allocation / greedy cluster assignment;
//! * [`local_lb`] — bounded-load consistent hashing within a cluster;
//! * [`policy`] — NS-based, end-user, and client-aware-NS policies;
//! * [`system`] — [`MappingSystem`]: the two-level authoritative DNS
//!   frontend that serves the computed map (§2.2 "Name Servers");
//! * [`telemetry`] — serving-path instruments (answer paths, liveness
//!   fallback depth, per-unit query counts) attachable to a shared
//!   `eum_telemetry::Registry`;
//! * [`clusters`] — client-cluster analytics (§3.3);
//! * [`deploy_study`] — the §6 deployment simulation (Figure 25).
//!
//! ## Example
//!
//! ```no_run
//! use eum_cdn::{deployment_universe, CatalogConfig, CdnPlatform, ContentCatalog, DeployConfig};
//! use eum_mapping::{MappingConfig, MappingSystem};
//! use eum_netmodel::{Internet, InternetConfig};
//!
//! // A world: Internet, CDN, content.
//! let mut net = Internet::generate(InternetConfig::small(7));
//! let sites = deployment_universe(7, 40);
//! let cdn = CdnPlatform::deploy(&mut net, &sites, &DeployConfig::default());
//! let catalog = ContentCatalog::generate(&CatalogConfig::tiny(7));
//!
//! // The mapping system: measurement → scoring → load balancing → DNS.
//! let mapping = MappingSystem::build(
//!     &mut net,
//!     &cdn,
//!     &catalog,
//!     "cdn.example".parse().unwrap(),
//!     MappingConfig::default(),
//! );
//!
//! // Where would end-user mapping send this client block?
//! let block = net.blocks[0].prefix;
//! let cluster = mapping.assigned_cluster_for_block(block).unwrap();
//! println!("{block} -> {}", cdn.cluster(cluster).name);
//! ```

pub mod clusters;
pub mod delta;
pub mod deploy_study;
pub mod global_lb;
pub mod local_lb;
pub mod measure;
pub mod policy;
pub mod score;
pub mod system;
pub mod telemetry;
pub mod units;

pub use clusters::{client_clusters, ClientCluster};
pub use delta::MapDelta;
pub use deploy_study::{run_study, Scheme, StudyConfig, StudyRow};
pub use global_lb::{
    assign, assign_with_prefs, find_blocking_pair, Assignment, LbAlgorithm, PreferenceTable,
};
pub use local_lb::{domain_key, ConsistentRing};
pub use measure::{PingMatrix, PingTargets, TargetId};
pub use policy::MappingPolicy;
pub use score::{ScoreBasis, ScoreTable, ScoringWeights};
pub use system::{
    Decision, LocalLbPolicy, MappingConfig, MappingStats, MappingSystem, ReplyBody, RescoreHints,
    MAX_ANSWER_SERVERS,
};
pub use telemetry::MappingTelemetry;
pub use units::{MapUnitInfo, MapUnits, UnitId, UnitKey};
