//! `BENCHMARK.json` and `src/spec.rs` say the same thing, and
//! `BENCHMARK.json` stays inside the limits the driver enforces.

use eum_e2e_bench::json::{self, Value};
use eum_e2e_bench::spec::{self, MetricSpec};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024);
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn name_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().unwrap().is_ascii_alphanumeric()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn check_list(list: &[Value], table: &[MetricSpec], with_bound: bool) {
    assert_eq!(list.len(), table.len());
    for (entry, spec) in list.iter().zip(table) {
        let fields = entry.as_object().unwrap();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        if with_bound {
            assert_eq!(keys, ["name", "unit", "better", "bound"]);
            let bound = entry.get("bound").unwrap().as_f64().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", spec.name);
        } else {
            assert_eq!(keys, ["name", "unit", "better"]);
        }
        assert_eq!(entry.get("name").unwrap().as_str(), Some(spec.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(spec.unit));
        assert_eq!(
            entry.get("better").unwrap().as_str(),
            Some(spec.better.label())
        );
        assert!(name_ok(spec.name), "{}", spec.name);
        assert!(unit_ok(spec.unit), "{}", spec.unit);
    }
}

#[test]
fn benchmark_json_matches_the_spec_tables() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let workloads = doc.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (w, name) in workloads.iter().zip(spec::WORKLOADS) {
        assert_eq!(w.get("name").unwrap().as_str(), Some(name));
        let why = w.get("why").unwrap().as_str().unwrap();
        assert!(!why.is_empty() && why.chars().count() <= 200 && !why.contains('\n'));
        assert_eq!(w.as_object().unwrap().len(), 2);
    }
    check_list(
        doc.get("end_to_end").unwrap().as_array().unwrap(),
        spec::END_TO_END,
        true,
    );
    check_list(
        doc.get("per_layer").unwrap().as_array().unwrap(),
        spec::PER_LAYER,
        false,
    );
    assert!(spec::END_TO_END.len() <= 16 && spec::PER_LAYER.len() <= 128);

    // Names are used once across everything that has one.
    let mut names: Vec<&str> = spec::WORKLOADS.to_vec();
    names.extend(
        spec::END_TO_END
            .iter()
            .chain(spec::PER_LAYER)
            .map(|m| m.name),
    );
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total);

    // setup_s: seconds, lower is better, and the largest bound.
    let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
    let bound = |m: &Value| m.get("bound").unwrap().as_f64().unwrap();
    let setup = e2e
        .iter()
        .find(|m| m.get("name").unwrap().as_str() == Some("setup_s"))
        .unwrap();
    assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    assert!(e2e.iter().all(|m| bound(m) <= bound(setup)));

    let secs = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    let command = doc.get("command").unwrap().as_array().unwrap();
    assert!(command.len() <= 32);
    let paths = doc.get("paths").unwrap().as_array().unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("bench"));
    for part in command {
        let part = part.as_str().unwrap();
        assert!(part.len() <= 200 && !part.starts_with('/') && !part.contains(".."));
    }
}
