//! Percentile, quartile and median-of-windows arithmetic, and the
//! verdicts `compare` derives from them.

use eum_e2e_bench::compare::{compare, judge, worsening, Bound, Verdict};
use eum_e2e_bench::report::{Metrics, RunResult};
use eum_e2e_bench::spec::Better;
use eum_e2e_bench::stats::{
    latency_window_ns, median, percentile_sorted, quartile_spread, quartiles, LatencyLog,
    RateWindows,
};

#[test]
fn percentiles_interpolate_between_ranks() {
    let v: Vec<f64> = (1..=5).map(f64::from).collect();
    assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    assert_eq!(percentile_sorted(&v, 0.5), 3.0);
    assert_eq!(percentile_sorted(&v, 1.0), 5.0);
    assert!((percentile_sorted(&v, 0.9) - 4.6).abs() < 1e-12);
    assert_eq!(percentile_sorted(&[], 0.5), 0.0);
    assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
    assert_eq!(median(&[9.0, 1.0, 5.0, 3.0]), 4.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
    assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
    assert_eq!(quartiles(&[1.0]), None);
    assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
}

#[test]
fn one_preempted_window_does_not_move_the_latency_summary() {
    let window = 1_000_000u64; // 1 ms windows
    let mut log = LatencyLog::with_capacity(10_000);
    // Nine quiet windows: 990 samples at 10 µs and 10 at 40 µs each.
    for w in 0..10u64 {
        let stalled = w == 4;
        for i in 0..1000u64 {
            let lat_ns = match (stalled, i) {
                (true, _) => 5_000_000, // a host stall: everything waits 5 ms
                (false, 990..) => 40_000,
                (false, _) => 10_000,
            };
            log.push(w * window + i * 1000, lat_ns);
        }
    }
    let s = log.summarize(0, window);
    assert_eq!(s.windows, 10);
    assert_eq!(s.samples, 10_000);
    assert!((s.p50_us - 10.0).abs() < 1e-9, "p50 {}", s.p50_us);
    // Each quiet window's p99 sits at the 990th of 1000 samples; neither
    // the lower quartile nor the median of the windows sees the stall.
    assert!((10.0..=40.0).contains(&s.p99_us), "p99 {}", s.p99_us);
    assert!((10.0..=40.0).contains(&s.p99_median_us));
    assert!(s.p99_us <= s.p99_median_us);
    // The plain p99 over every sample is the stall: a tenth of them sat in it.
    assert_eq!(s.p99_all_us, 5000.0);
    // The whole-log p99 would have been the stall.
    assert_eq!(log.dropped(), 0);
}

#[test]
fn latency_log_never_grows_past_its_capacity() {
    let mut log = LatencyLog::with_capacity(4);
    for i in 0..10 {
        log.push(i, 100);
    }
    assert_eq!(log.len(), 4);
    assert_eq!(log.dropped(), 6);
}

#[test]
fn the_over_limit_share_is_the_median_windows_not_the_stalled_ones() {
    // Ten 1-ms windows of 100 samples; every window has 2 slow samples,
    // and one window (a stall) is slow throughout.
    let mut log = LatencyLog::with_capacity(1_000);
    for w in 0..10u64 {
        for i in 0..100u64 {
            let slow = w == 4 || i < 2;
            log.push(w * 1_000_000 + i, if slow { 3_000_000 } else { 10_000 });
        }
    }
    let share = log.over_limit_share(0, 1_000_000, 2_000_000);
    assert!((share - 0.02).abs() < 1e-12, "{share}");
    // The plain share would have been 0.118.
    assert_eq!(LatencyLog::with_capacity(0).over_limit_share(0, 1, 1), 0.0);
}

#[test]
fn latency_windows_hold_a_thousand_samples_but_at_least_25_ms() {
    assert_eq!(latency_window_ns(100_000.0), 25_000_000);
    assert_eq!(latency_window_ns(20_000.0), 50_000_000);
    assert_eq!(latency_window_ns(0.0), 1_000_000_000_000);
}

#[test]
fn throughput_is_the_median_window_rate_without_the_partial_tail() {
    let mut r = RateWindows::new(1_000, 1_000_000, 8);
    for (w, n) in [(0u64, 100u64), (1, 100), (2, 5), (3, 100), (4, 100)] {
        r.add(1_000 + w * 1_000_000 + 17, n);
    }
    r.add(1_000 + 5 * 1_000_000 + 1, 3); // partial last window
                                         // Five full windows ended before 5.5 ms: rates 1e5,1e5,5e3,1e5,1e5 /s.
    assert_eq!(r.median_rate(1_000 + 5_500_000), 100_000.0);
    // Completions past the last window are ignored, not a panic.
    r.add(u64::MAX, 1);
}

#[test]
fn verdicts_follow_direction_bound_and_spread() {
    let tight = |c: f64| vec![c * 0.99, c, c * 1.01, c, c * 1.005];
    // Lower is better: +20 % on a 10 % bound is worse, −20 % is better.
    assert_eq!(
        judge(&tight(100.0), &tight(120.0), Better::Lower, 0.10),
        Verdict::Worse
    );
    assert_eq!(
        judge(&tight(100.0), &tight(80.0), Better::Lower, 0.10),
        Verdict::Better
    );
    assert_eq!(
        judge(&tight(100.0), &tight(104.0), Better::Lower, 0.10),
        Verdict::Within
    );
    // Higher is better: the signs swap.
    assert_eq!(
        judge(&tight(100.0), &tight(80.0), Better::Higher, 0.10),
        Verdict::Worse
    );
    assert!(worsening(&tight(100.0), &tight(80.0), Better::Higher) > 0.19);
    // A spread wider than the bound cannot call anything unchanged.
    let noisy = vec![60.0, 80.0, 100.0, 120.0, 140.0];
    assert_eq!(
        judge(&noisy, &tight(101.0), Better::Lower, 0.10),
        Verdict::Unresolved
    );
    // …but a median beyond the bound is still worse.
    assert_eq!(
        judge(&noisy, &tight(150.0), Better::Lower, 0.10),
        Verdict::Worse
    );
}

#[test]
fn a_metric_dropped_from_the_second_run_set_is_worse() {
    let run = |names: &[&str]| {
        let mut metrics = Metrics::new();
        for n in names {
            metrics.set(n, 10.0, 100);
        }
        RunResult {
            workload: "auth_hot".to_string(),
            seed: 1,
            traced: false,
            correct: true,
            attempted: 100,
            failed: 0,
            metrics,
            problems: Vec::new(),
        }
    };
    let bounds: Vec<Bound> = ["lat_p50_us", "lat_p99_us"]
        .iter()
        .map(|n| Bound {
            name: n.to_string(),
            better: Better::Lower,
            bound: 0.1,
        })
        .collect();
    let both = [run(&["lat_p50_us", "lat_p99_us"])];
    let one = [run(&["lat_p50_us"])];
    assert_eq!(compare(&both, &both, &bounds), 0);
    assert_eq!(compare(&both, &one, &bounds), 1);
    // A metric only the second set has cannot be judged, nor called worse.
    assert_eq!(compare(&one, &both, &bounds), 0);
}
