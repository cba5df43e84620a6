//! Command line of `eum-e2e-bench`.
//!
//! ```text
//! eum-e2e-bench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! eum-e2e-bench all     [--seed N] [--seconds S] [--out F]      every workload, untraced then traced
//! eum-e2e-bench runset  --runs K [--seed N] [--seconds S] --out F   K untraced runs per workload
//! eum-e2e-bench compare A.json B.json [--spec BENCHMARK.json]
//! eum-e2e-bench --smoke                                         tiny world, all workloads, < 30 s
//! ```
//!
//! A single run prints every metric by name with unit and sample count
//! and, as its last line, the JSON object the driver reads; it exits 1
//! when `fail_share` exceeds its bound, an answer was wrong or the
//! generator ran late.

use eum_e2e_bench::alloc::CountingAlloc;
use eum_e2e_bench::compare;
use eum_e2e_bench::harness::RunConfig;
use eum_e2e_bench::report::RunResult;
use eum_e2e_bench::spec;
use eum_e2e_bench::workloads;
use eum_e2e_bench::world::Scale;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Flags that take no value.
const FLAGS: [&str; 1] = ["--smoke"];

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            positional: Vec::new(),
            options: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if !a.starts_with("--") {
                args.positional.push(a);
            } else if FLAGS.contains(&a.as_str()) {
                args.options.push((a, None));
            } else {
                let v = raw.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.options.push((a, Some(v)));
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(k, _)| k == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot read `{v}`")),
        }
    }
}

/// Where spans and run-set scratch files go unless `--out-dir` says
/// otherwise: inside the benchmark's own directory.
const DEFAULT_OUT_DIR: &str = "bench/out";

/// Seconds of measurement when `--seconds` is not given: the value
/// `BENCHMARK.json` fixes as `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;

fn run_config(args: &Args, workload: &str, traced: bool) -> Result<RunConfig, String> {
    let seconds: f64 = args.number("--seconds", DEFAULT_SECONDS)?;
    if !(0.5..=120.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 0.5..=120"));
    }
    Ok(RunConfig {
        workload: workload.to_string(),
        seed: args.number("--seed", 1u64)?,
        seconds,
        traced,
        scale: Scale::Paper,
        out_dir: Some(PathBuf::from(
            args.value("--out-dir").unwrap_or(DEFAULT_OUT_DIR),
        )),
    })
}

/// One run in this process. Prints the table and the driver's JSON line;
/// with `--emit FILE` also writes the full result for a parent process.
fn single(args: &Args) -> Result<ExitCode, String> {
    let workload = args.value("--workload").ok_or("--workload is required")?;
    let traced = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let cfg = run_config(args, workload, traced)?;
    let result = workloads::run(&cfg)?;
    result.print_table();
    if let Some(path) = args.value("--emit") {
        std::fs::write(path, result.to_json().render()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result.driver_json().render());
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs one (workload, seed, traced) in a child process — peak RSS, CPU
/// and allocation counts are then that run's alone — and reads back its
/// full result.
fn child_run(
    args: &Args,
    workload: &str,
    seed: u64,
    traced: bool,
    scratch: &std::path::Path,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let emit = scratch.join(format!("{workload}.{seed}.{}.json", u8::from(traced)));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args([
            "--seconds",
            &args.number("--seconds", DEFAULT_SECONDS)?.to_string(),
        ])
        .arg("--emit")
        .arg(&emit);
    if let Some(dir) = args.value("--out-dir") {
        cmd.args(["--out-dir", dir]);
    }
    let status = cmd.status().map_err(|e| format!("spawn run: {e}"))?;
    let text = std::fs::read_to_string(&emit)
        .map_err(|e| format!("run {workload} seed {seed} ({status}) left no result: {e}"))?;
    let _ = std::fs::remove_file(&emit);
    let v = eum_e2e_bench::json::parse(&text)?;
    RunResult::from_json(&v)
}

/// `all` (one untraced and one traced run per workload) and `runset`
/// (K untraced runs per workload, seeds `base`, `base+1`, …).
fn run_set(args: &Args, runs: u64, with_traced: bool) -> Result<ExitCode, String> {
    let base: u64 = args.number("--seed", 1u64)?;
    let out_dir = PathBuf::from(args.value("--out-dir").unwrap_or(DEFAULT_OUT_DIR));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut results = Vec::new();
    for traced in [false, true] {
        if traced && !with_traced {
            continue;
        }
        for workload in spec::WORKLOADS {
            for k in 0..if traced { 1 } else { runs } {
                results.push(child_run(args, workload, base + k, traced, &out_dir)?);
            }
        }
    }
    let all_correct = results.iter().all(|r| r.correct);
    if let Some(path) = args.value("--out") {
        std::fs::write(path, compare::render_runs(&results)).map_err(|e| format!("{path}: {e}"))?;
        println!("# wrote {} runs to {path}", results.len());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        println!("# at least one run was not correct");
        ExitCode::from(1)
    })
}

fn compare_cmd(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: compare <a.json> <b.json> [--spec BENCHMARK.json]".to_string());
    };
    let bounds = compare::load_bounds(args.value("--spec").unwrap_or("BENCHMARK.json"))?;
    let worse = compare::compare(&compare::load_runs(a)?, &compare::load_runs(b)?, &bounds);
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        println!("# {worse} (workload, metric) pairs are worse than their bound allows");
        ExitCode::from(1)
    })
}

/// `--smoke`: every workload on the tiny world, untraced and traced,
/// about a second of measurement each; every answer must be right, every
/// named metric present and finite, and every per-layer metric measured
/// (samples > 0) by at least one workload. The run-level gates
/// (`fail_share`, generator lateness) are printed, not enforced: one
/// 50-ms host stall is a tenth of a phase this short.
fn smoke(args: &Args) -> Result<ExitCode, String> {
    let mut measured = vec![false; spec::PER_LAYER.len()];
    let mut problems = Vec::new();
    for workload in spec::WORKLOADS {
        for traced in [false, true] {
            let cfg = RunConfig {
                workload: workload.to_string(),
                seed: args.number("--seed", 1u64)?,
                seconds: 1.2,
                traced,
                scale: Scale::Tiny,
                out_dir: None,
            };
            let r = workloads::run(&cfg)?;
            println!(
                "smoke {workload} traced={traced}: correct={} attempted={} failed={}",
                r.correct, r.attempted, r.failed
            );
            for p in &r.problems {
                println!("smoke {workload} traced={traced}: note: {p}");
            }
            if r.failed > 0 {
                problems.push(format!("{workload}: {} operations failed", r.failed));
            }
            for (i, m) in r.table().iter().enumerate() {
                match r.metrics.get(m.name) {
                    None => problems.push(format!("{workload}: {} missing", m.name)),
                    Some(v) if !v.value.is_finite() => {
                        problems.push(format!("{workload}: {} not finite", m.name))
                    }
                    Some(v) if !traced && v.value == 0.0 => {
                        problems.push(format!("{workload}: end-to-end {} is 0", m.name))
                    }
                    Some(v) if traced && v.samples > 0 => measured[i] = true,
                    Some(_) => {}
                }
            }
        }
    }
    for (m, seen) in spec::PER_LAYER.iter().zip(&measured) {
        if !seen {
            problems.push(format!("{} is measured by no workload", m.name));
        }
    }
    if problems.is_empty() {
        println!("SMOKE PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            println!("SMOKE FAIL: {p}");
        }
        Ok(ExitCode::from(1))
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            Some("compare") => compare_cmd(&args),
            Some("all") => run_set(&args, 1, true),
            Some("runset") => {
                let runs = args.number("--runs", 5u64)?;
                run_set(&args, runs, false)
            }
            Some(other) => Err(format!("unknown command `{other}`")),
            None if args.flag("--smoke") => smoke(&args),
            None => single(&args),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("eum-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}
