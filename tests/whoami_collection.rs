//! Integration: the NetSession pipeline run end to end through the
//! protocol — `whoami` probes via every (client, LDNS) pair must recover
//! exactly the client–LDNS associations the generator created.

use end_user_mapping::sim::scenario::{Scenario, ScenarioConfig};
use end_user_mapping::sim::PairDataset;

#[test]
fn whoami_collection_matches_ground_truth() {
    let mut world = Scenario::build(ScenarioConfig::tiny(0x77A));
    let truth = PairDataset::collect(&world.net);
    let probed = world.collect_netsession_via_whoami();

    assert_eq!(
        probed.len(),
        truth.len(),
        "every (block, LDNS) pair must be recovered by probing"
    );
    // Index ground truth by (block, ldns).
    let mut truth_map = std::collections::HashMap::new();
    for r in &truth.records {
        truth_map.insert((r.block, r.ldns), (r.weight, r.distance_miles));
    }
    for r in &probed.records {
        let (w, d) = truth_map
            .get(&(r.block, r.ldns))
            .unwrap_or_else(|| panic!("probe invented pair {:?}/{:?}", r.block, r.ldns));
        assert!((r.weight - w).abs() < 1e-9);
        assert!((r.distance_miles - d).abs() < 1e-6);
    }
}

#[test]
fn whoami_probes_work_with_ecs_enabled() {
    // The probe path must be ECS-agnostic: enabling ECS on every resolver
    // must not change what whoami reports.
    let mut world = Scenario::build(ScenarioConfig::tiny(0x77B));
    for r in &mut world.resolvers {
        r.set_policy(end_user_mapping::ldns::EcsPolicy::Always);
    }
    let truth = PairDataset::collect(&world.net);
    let probed = world.collect_netsession_via_whoami();
    assert_eq!(probed.len(), truth.len());
}
