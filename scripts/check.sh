#!/usr/bin/env bash
# Full local gate: formatting, lints as errors, model checking, and the
# test suite. Run from anywhere; operates on the repository this script
# lives in. Each step reports its wall-clock time so a slow gate can be
# blamed on the right step.
set -euo pipefail
cd "$(dirname "$0")/.."

step_start=0
step() {
    step_start=$SECONDS
    echo "==> $1"
}
step_done() {
    echo "    [$((SECONDS - step_start))s]"
}
total_start=$SECONDS

step "cargo fmt --check"
cargo fmt --check
step_done

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
step_done

step "eum-lint (workspace invariants: lint.toml)"
cargo run -q -p eum-lint
step_done

step "model checking (scripts/mcheck.sh)"
scripts/mcheck.sh
step_done

step "cargo test -q --workspace"
cargo test -q --workspace
step_done

step "cargo bench --no-run"
cargo bench --no-run
step_done

step "socket smoke (multi-process loadgen over real SO_REUSEPORT shards)"
cargo run -q --release --example socket_loadgen -- --smoke
step_done

step "scrape smoke (live /metrics + /timeseries.jsonl during socket load)"
cargo run -q --release --example socket_loadgen -- --scrape-smoke | tee /dev/stderr | grep -q "SCRAPE PASS"
step_done

step "map-churn smoke (keyed delta invalidation vs generation clear)"
cargo run -q --release --example map_churn -- --smoke | tee /dev/stderr | grep -q "MAP-CHURN PASS"
step_done

step "chaos smoke (NXDOMAIN flood + flash crowd, defenses off vs on)"
cargo run -q --release --example chaos_lab -- --smoke | tee /dev/stderr | grep -q "CHAOS PASS"
step_done

step "eum-e2e-bench smoke (bench/ is a package of its own: a crate API it uses must still compile and run)"
cargo run --release --quiet --offline --manifest-path bench/Cargo.toml -- --smoke
step_done

step "eum-e2e-bench tests (its oracle, stats and schema checks)"
cargo test --release --offline --manifest-path bench/Cargo.toml
step_done

echo "All checks passed in $((SECONDS - total_start))s."
