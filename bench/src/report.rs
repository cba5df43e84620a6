//! One run's outcome: named metrics with their sample counts, the
//! human-readable table, and the single-line JSON result the driver
//! parses (`correct`, `attempted`, `failed`, `metrics`).

use crate::json::Value;
use crate::spec::{self, MetricSpec};

/// One measured value and how many samples stand behind it (0 = the
/// workload does not cross this metric's layer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

/// Metrics by name, in insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    entries: Vec<(String, Measured)>,
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records `name`; a second `set` of the same name replaces the first.
    /// Panics on a name the spec does not list: a typo must not silently
    /// become a metric nobody reads.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        assert!(spec::find(name).is_some(), "metric {name} is not in spec");
        let m = Measured { value, samples };
        match self.entries.iter_mut().find(|(k, _)| k == name) {
            Some((_, slot)) => *slot = m,
            None => self.entries.push((name.to_string(), m)),
        }
    }

    pub fn get(&self, name: &str) -> Option<Measured> {
        self.entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, m)| *m)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, Measured)> {
        self.entries.iter().map(|(k, m)| (k.as_str(), *m))
    }
}

/// What one invocation (`--workload W --seed N --trace T`) produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Every answer checked out, `fail_share` stayed within its bound and
    /// the generator kept its schedule.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Why `correct` is false (empty otherwise).
    pub problems: Vec<String>,
}

impl RunResult {
    /// The table this run reports: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn table(&self) -> &'static [MetricSpec] {
        if self.traced {
            spec::PER_LAYER
        } else {
            spec::END_TO_END
        }
    }

    /// Every metric by name, with unit and sample count, one per line.
    pub fn print_table(&self) {
        println!(
            "# workload {} seed {} {} ({} cores)",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        for m in self.table() {
            match self.metrics.get(m.name) {
                Some(v) if v.samples > 0 => println!(
                    "{:<34} {:>16.4} {:<6} n={}",
                    m.name, v.value, m.unit, v.samples
                ),
                Some(_) => println!(
                    "{:<34} {:>16} {:<6} not on this workload",
                    m.name, "-", m.unit
                ),
                None => println!("{:<34} {:>16} {:<6} MISSING", m.name, "?", m.unit),
            }
        }
        for p in &self.problems {
            println!("# PROBLEM: {p}");
        }
    }

    /// The driver's result object. Metrics the workload did not set read
    /// 0 (every listed metric must appear).
    pub fn driver_json(&self) -> Value {
        let metrics = self
            .table()
            .iter()
            .map(|m| {
                let v = self.metrics.get(m.name).map_or(0.0, |v| v.value);
                (
                    m.name.to_string(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Num(v)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ])
    }

    /// The run-set form `compare` reads: the driver object plus which run
    /// it was and the sample counts.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.to_string(),
                    Value::Obj(vec![
                        ("value".to_string(), Value::Num(m.value)),
                        ("samples".to_string(), Value::Num(m.samples as f64)),
                    ]),
                )
            })
            .collect();
        Value::Obj(vec![
            ("workload".to_string(), Value::Str(self.workload.clone())),
            // Seeds are u64; JSON numbers hold 53 bits, so keep the digits.
            ("seed".to_string(), Value::Str(self.seed.to_string())),
            ("traced".to_string(), Value::Bool(self.traced)),
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::Num(self.attempted as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
            (
                "problems".to_string(),
                Value::Arr(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }

    /// Inverse of [`RunResult::to_json`].
    pub fn from_json(v: &Value) -> Result<RunResult, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("run lacks `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("`{k}` is not a number"))
        };
        let mut metrics = Metrics::new();
        for (name, m) in field("metrics")?
            .as_object()
            .ok_or("`metrics` is not an object")?
        {
            if spec::find(name).is_none() {
                return Err(format!("unknown metric `{name}`"));
            }
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric `{name}` lacks a value"))?;
            let samples = m.get("samples").and_then(Value::as_f64).unwrap_or(1.0);
            metrics.set(name, value, samples as u64);
        }
        Ok(RunResult {
            workload: field("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            seed: field("seed")?
                .as_str()
                .and_then(|s| s.parse().ok())
                .ok_or("`seed` is not a decimal string")?,
            traced: field("traced")?.as_bool().ok_or("`traced` is not a bool")?,
            correct: field("correct")?
                .as_bool()
                .ok_or("`correct` is not a bool")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
            problems: field("problems")?
                .as_array()
                .ok_or("`problems` is not an array")?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
        })
    }
}
