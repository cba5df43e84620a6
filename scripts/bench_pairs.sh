#!/usr/bin/env bash
# Paired end-to-end benchmark of the working tree against a parent
# revision.
#
#   scripts/bench_pairs.sh <parent-rev> <pairs> <workload>...
#
# Exports <parent-rev> with `git archive` and the working tree (tracked
# and untracked, not ignored) into a fresh temporary directory outside
# the repository, builds each side's bench/ there, then runs the command
# BENCHMARK.json declares, once per side per pair, alternating which side
# goes first (parent-change, change-parent, ...). Every run writes under
# the temporary directory (`--out-dir`), never under bench/. Each run's
# exit code and every `# PROBLEM:` line it printed are shown as it ends.
# The runs are gathered into one run-set file per side and judged with
# `eum-e2e-bench compare parent change`.
#
# Environment: SEED (default 1), RUN_SECONDS (default BENCHMARK.json's
# run_seconds), TMPDIR (where the temporary directory goes). The
# directory is kept and its path printed, so the logs can be read after.
set -euo pipefail

if [ $# -lt 3 ]; then
    echo "usage: $0 <parent-rev> <pairs> <workload>..." >&2
    exit 2
fi
parent_rev=$1
pairs=$2
shift 2
workloads=("$@")

repo=$(cd "$(dirname "$0")/.." && pwd)
seed=${SEED:-1}
seconds=${RUN_SECONDS:-$(grep -o '"run_seconds": *[0-9.]*' "$repo/BENCHMARK.json" | grep -o '[0-9.]*$')}
# BENCHMARK.json's "command" array, one word per line.
mapfile -t command < <(tr -d '\n' <"$repo/BENCHMARK.json" |
    grep -o '"command": *\[[^]]*\]' | grep -o '"[^"]*"' | tail -n +2 | tr -d '"')

work=$(mktemp -d "${TMPDIR:-/tmp}/bench_pairs.XXXXXX")
echo "# work dir: $work"
echo "# parent $parent_rev ($(git -C "$repo" rev-parse --short "$parent_rev")) vs working tree; seed $seed; ${seconds}s per run"
echo "# command: ${command[*]} --workload W --seed $seed --seconds $seconds --trace 0"

mkdir -p "$work/parent" "$work/change" "$work/out" "$work/runs"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"
(cd "$repo" && git ls-files -co --exclude-standard -z | tar -c --null -T - -f -) | tar -x -C "$work/change"

for side in parent change; do
    echo "# building $side"
    (cd "$work/$side" && cargo build --release --quiet --offline --manifest-path bench/Cargo.toml)
done

run() {
    local side=$1 workload=$2 pair=$3
    local tag="$side.$workload.$pair"
    local code=0
    (cd "$work/$side" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out-dir "$work/out" \
        --emit "$work/runs/$tag.json") >"$work/runs/$tag.log" 2>&1 || code=$?
    local summary="" m v
    for m in peak_rss_mb throughput_ops_s cpu_us_per_op lat_p50_us lat_p99_us setup_s; do
        v=$(tail -n 1 "$work/runs/$tag.log" | grep -o "\"$m\": *{\"value\": *[-0-9.e+]*" |
            grep -o '[-0-9.e+]*$' || true)
        summary+=" $m=${v:-?}"
    done
    echo "pair $pair $workload $side: exit $code$summary"
    grep '# PROBLEM:' "$work/runs/$tag.log" | sed "s/^/    $side: /" || true
}

for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        if [ $((pair % 2)) -eq 1 ]; then
            run parent "$workload" "$pair"
            run change "$workload" "$pair"
        else
            run change "$workload" "$pair"
            run parent "$workload" "$pair"
        fi
    done
done

# One run-set file per side: {"runs": [ ...each run's --emit object... ]}.
for side in parent change; do
    {
        printf '{"runs": ['
        first=1
        for f in "$work/runs/$side".*.json; do
            [ -e "$f" ] || continue
            [ $first -eq 1 ] || printf ','
            first=0
            cat "$f"
        done
        printf ']}\n'
    } >"$work/$side.json"
done

echo "# compare $work/parent.json $work/change.json"
bin="$work/change/bench/target/release/eum-e2e-bench"
"$bin" compare "$work/parent.json" "$work/change.json" --spec "$repo/BENCHMARK.json"
