//! Open-loop due-time accounting under an injected stall: operations a
//! stalled generator could not send keep their original due times, so the
//! stall shows up in their latency instead of being forgiven.

use eum_e2e_bench::stats::{Lateness, Pacer};

/// Drives a pacer with a fake clock; `stall` freezes the generator (not
/// the clock) for a while. Service takes `service_ns` per operation.
fn drive(
    rate: f64,
    total_ns: u64,
    stall: Option<(u64, u64)>,
    service_ns: u64,
) -> (Vec<u64>, Lateness) {
    let mut pacer = Pacer::new(0, rate);
    let mut late = Lateness::default();
    let mut latencies = Vec::new();
    let mut now = 0u64;
    while now < total_ns {
        if let Some((at, len)) = stall {
            if now >= at && now < at + len {
                now = at + len; // the generator was not running
            }
        }
        while let Some((_, due)) = pacer.take_due(now) {
            late.record(due, now);
            latencies.push(now + service_ns - due);
        }
        now += 1_000; // the generator polls every microsecond
    }
    (latencies, late)
}

#[test]
fn on_schedule_every_operation_is_timed_from_its_send() {
    let (lat, late) = drive(100_000.0, 10_000_000, None, 5_000);
    assert_eq!(lat.len(), 1000);
    assert!(lat.iter().all(|&l| (5_000..6_000).contains(&l)));
    assert_eq!(late.late, 0);
    assert_eq!(late.late_share(), 0.0);
}

#[test]
fn a_stall_is_charged_to_every_operation_it_delayed() {
    // 100 k/s for 10 ms with a 3-ms stall at t = 2 ms.
    let (lat, late) = drive(100_000.0, 10_000_000, Some((2_000_000, 3_000_000)), 5_000);
    // Nothing is skipped: the schedule still holds 1000 operations.
    assert_eq!(lat.len(), 1000);
    // The operation due right when the stall began waited all of it …
    let worst = *lat.iter().max().unwrap();
    assert!((3_000_000..3_020_000).contains(&worst), "worst {worst}");
    // … the 300 due during the stall waited 3 ms down to 0, so about 280
    // of them are beyond the 200-µs lateness mark.
    assert!((270..=300).contains(&late.late), "late {}", late.late);
    assert!((late.max_late_ns as i64 - 3_000_000).abs() < 20_000);
    assert!((late.late_share() - 0.28).abs() < 0.02);
    // A stall is one window's business: over two seconds the same 3 ms
    // leave the median window's share, the one that gates a run, at 0.
    let (_, long) = drive(
        100_000.0,
        2_000_000_000,
        Some((2_000_000, 3_000_000)),
        5_000,
    );
    assert!((270..=300).contains(&long.late), "late {}", long.late);
    assert_eq!(long.late_share(), 0.0);
    // A closed loop would have reported 5 µs for all of them.
    let over_1ms = lat.iter().filter(|&&l| l > 1_000_000).count();
    assert!((190..=210).contains(&over_1ms), "{over_1ms}");
}

#[test]
fn due_times_do_not_drift_over_a_long_schedule() {
    let p = Pacer::new(1_000, 40_000.0);
    assert_eq!(p.due_ns(0), 1_000);
    assert_eq!(p.due_ns(40_000), 1_000 + 1_000_000_000);
    assert_eq!(p.due_ns(4_000_000), 1_000 + 100_000_000_000);
}
