//! Pins the figure *shapes* EXPERIMENTS.md claims — who wins, what is
//! monotone, where a curve flattens — on the `reproduce_all` pipeline at
//! `--quick` scale (the roll-out on a 40-day timeline), so a refactor
//! under the figures cannot bend them silently. Absolute values are
//! scale-dependent and deliberately not asserted.

use eum_mapping::{run_study, Scheme};
use eum_netmodel::Internet;
use eum_repro::{build_world3, figures3, figures4, figures56, Scale};
use eum_sim::{Metric, RolloutConfig, Scenario};

const SCALE: Scale = Scale::Quick;

#[test]
fn section3_public_resolver_clients_are_farther_than_all_clients() {
    let w = build_world3(SCALE);
    let mut all = w.ds.distance_sample(&w.net, |_, _| true);
    let mut public =
        w.ds.distance_sample(&w.net, |n, r| n.is_public_resolver(r.ldns));
    let (all, public) = (all.median().unwrap(), public.median().unwrap());
    assert!(
        public > all,
        "Fig 7 vs Fig 5: public median {public:.0} mi, overall {all:.0} mi"
    );

    // Every §3/§5.1 renderer runs on the same world.
    for fig in [
        figures3::fig05,
        figures3::fig06,
        figures3::fig07,
        figures3::fig08,
        figures3::fig09,
        figures3::fig10,
        figures3::fig11,
        figures3::fig21,
        figures3::fig22,
    ] {
        assert!(fig(&w, SCALE).lines().count() > 3);
    }
}

#[test]
fn sections4_and_5_rollout_shapes() {
    // The 181-day timeline takes a minute; 40 days at the same daily
    // load keep every Fig 24 bucket at 40+ (domain, LDNS) pairs.
    let mut cfg = SCALE.scenario_config();
    cfg.rollout = RolloutConfig {
        workload: cfg.rollout.workload,
        ..RolloutConfig::quick()
    };
    let r = Scenario::build(cfg).run_rollout();

    // Figs 13–20: the roll-out improves what public-resolver clients
    // see, and the high-expectation group gains more than the low one.
    for metric in [Metric::MappingDistance, Metric::Rtt, Metric::Download] {
        let (high_pre, high_post) = r.before_after(metric, true);
        let (low_pre, low_post) = r.before_after(metric, false);
        assert!(
            high_post < high_pre,
            "{metric:?} high: {high_pre:.1} -> {high_post:.1}"
        );
        assert!(
            high_pre / high_post > low_pre / low_post,
            "{metric:?}: high {high_pre:.1} -> {high_post:.1} must gain more than \
             low {low_pre:.1} -> {low_post:.1}"
        );
    }

    // Figs 2/23: queries from public resolvers step up by more than the
    // total does, and both step up.
    let ((total_pre, public_pre), (total_post, public_post)) = r.query_rate_change();
    let (total_step, public_step) = (total_post / total_pre, public_post / public_pre);
    assert!(total_step > 1.0, "total step {total_step:.2}x");
    assert!(
        public_step > total_step,
        "public step {public_step:.2}x vs total {total_step:.2}x"
    );

    // Fig 24: amplification grows with the pair's pre-roll-out popularity.
    let buckets = r.amplification_buckets();
    assert!(buckets.len() >= 2, "{buckets:?}");
    for pair in buckets.windows(2) {
        assert!(
            pair[1].factor >= pair[0].factor,
            "amplification must be monotone in popularity: {buckets:?}"
        );
    }

    for fig in [
        figures4::fig02,
        figures4::fig12,
        figures4::fig23,
        figures4::fig24,
    ] {
        assert!(fig(&r, SCALE).lines().count() > 3);
    }
    for (metric, label) in [
        (Metric::MappingDistance, "Figure 13"),
        (Metric::Rtt, "Figure 15"),
        (Metric::Ttfb, "Figure 17"),
        (Metric::Download, "Figure 19"),
    ] {
        assert!(figures4::fig_daily(&r, metric, label, SCALE).contains(label));
        assert!(figures4::fig_cdf(&r, metric, label, SCALE).contains(label));
    }
    assert!(r.summary().contains("LDNS fleet"));
}

#[test]
fn section6_deployment_study_shapes() {
    let net = Internet::generate(SCALE.internet_config());
    let rows = run_study(&net, &figures56::study_config(SCALE));
    let p99 = |scheme: Scheme, deployments: usize| {
        rows.iter()
            .find(|r| r.scheme == scheme && r.deployments == deployments)
            .expect("row exists")
            .p99_ms
    };
    let mut counts: Vec<usize> = rows.iter().map(|r| r.deployments).collect();
    counts.sort_unstable();
    counts.dedup();
    assert!(counts.iter().any(|&n| n > 160), "{counts:?}");

    // Fig 25: EU < CANS < NS at the tail, at every deployment count.
    for &n in &counts {
        let (eu, cans, ns) = (p99(Scheme::Eu, n), p99(Scheme::Cans, n), p99(Scheme::Ns, n));
        assert!(
            eu < cans && cans < ns,
            "{n} locations: EU {eu:.1} CANS {cans:.1} NS {ns:.1}"
        );
    }
    // NS p99 is stuck beyond 160 locations while EU keeps dropping.
    for &n in counts.iter().filter(|&&n| n > 160) {
        let (ns_160, ns_n) = (p99(Scheme::Ns, 160), p99(Scheme::Ns, n));
        assert!(
            (ns_n - ns_160).abs() < 0.05 * ns_160,
            "NS p99 {ns_160:.1} ms at 160 locations, {ns_n:.1} ms at {n}"
        );
        assert!(p99(Scheme::Eu, n) < p99(Scheme::Eu, 160));
    }
    assert!(figures56::render_rows(&rows).lines().count() > counts.len());
}
