//! The result a run prints is the result a reader parses back.

use eum_e2e_bench::compare::{load_runs, render_runs};
use eum_e2e_bench::json::{self, Value};
use eum_e2e_bench::report::{Metrics, RunResult};
use eum_e2e_bench::spec;

fn sample(traced: bool) -> RunResult {
    let mut m = Metrics::new();
    for (i, s) in (if traced {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    })
    .iter()
    .enumerate()
    {
        // Awkward values on purpose: tiny, huge, many digits, zero samples.
        let v = match i % 4 {
            0 => 1.2034567890123,
            1 => 318_484.0,
            2 => 4.2e-7,
            _ => 0.0,
        };
        m.set(s.name, v, (i as u64 % 3) * 1000);
    }
    RunResult {
        workload: "auth_hot".to_string(),
        seed: u64::MAX - 1, // does not fit a JSON double
        traced,
        correct: !traced,
        attempted: 1_254_971,
        failed: 3,
        metrics: m,
        problems: if traced {
            vec!["a \"quoted\" problem\nwith a newline".to_string()]
        } else {
            Vec::new()
        },
    }
}

#[test]
fn run_results_survive_render_and_parse() {
    for traced in [false, true] {
        let r = sample(traced);
        let text = r.to_json().render();
        assert!(!text.contains('\n'), "one line");
        let back = RunResult::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}

#[test]
fn run_sets_survive_a_trip_through_a_file() {
    let runs = vec![sample(false), sample(true)];
    let path = std::env::temp_dir().join(format!(
        "eum-e2e-bench-roundtrip-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, render_runs(&runs)).unwrap();
    let back = load_runs(path.to_str().unwrap());
    let _ = std::fs::remove_file(&path);
    assert_eq!(back.unwrap(), runs);
}

#[test]
fn the_driver_line_has_exactly_the_contract_keys() {
    for traced in [false, true] {
        let r = sample(traced);
        let v = json::parse(&r.driver_json().render()).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").unwrap().as_f64(), Some(1_254_971.0));
        let metrics = v.get("metrics").unwrap().as_object().unwrap();
        let table = if traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        };
        assert_eq!(metrics.len(), table.len());
        for ((name, m), s) in metrics.iter().zip(table) {
            assert_eq!(name, s.name);
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(s.unit));
            assert!(m.get("value").and_then(Value::as_f64).is_some());
            assert_eq!(m.as_object().unwrap().len(), 2);
        }
        // Whole numbers print as whole numbers, the rest with their digits.
        let text = r.driver_json().render();
        assert!(text.contains("\"attempted\": 1254971,"));
        if !traced {
            assert!(text.contains("1.2034567890123"));
        }
    }
}

#[test]
fn unknown_metrics_and_malformed_runs_are_refused() {
    let mut v = sample(false).to_json();
    if let Value::Obj(fields) = &mut v {
        let metrics = &mut fields.iter_mut().find(|(k, _)| k == "metrics").unwrap().1;
        if let Value::Obj(m) = metrics {
            m.push((
                "not.a.metric".to_string(),
                Value::Obj(vec![("value".to_string(), Value::Num(1.0))]),
            ));
        }
    }
    assert!(RunResult::from_json(&v).is_err());
    assert!(RunResult::from_json(&Value::Obj(Vec::new())).is_err());
}
