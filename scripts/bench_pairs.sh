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
# Host noise: around every run the script reads the machine-wide steal
# and iowait time from /proc/stat and the CPU-pressure stall total
# (`some total=`) from /proc/pressure/cpu, both read-only, and prints the
# deltas in ms on the run's line (steal_ms, iowait_ms, cpu_some_ms; 0
# where the kernel has no PSI). Each side's median and maximum follow the
# runs, then every run above the whole set's 90th percentile of steal or
# CPU pressure is listed. Nothing is dropped or re-run on that account.
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

clk=$(getconf CLK_TCK 2>/dev/null || echo 100)

# Raw machine-wide counters: steal ticks, iowait ticks, CPU-pressure
# "some" stall total in µs.
noise() {
    local iowait steal some=0
    read -r _ _ _ _ _ iowait _ _ steal _ </proc/stat
    if [ -r /proc/pressure/cpu ]; then
        some=$(sed -n 's/^some .*total=\([0-9]*\).*/\1/p' /proc/pressure/cpu)
    fi
    echo "$steal $iowait ${some:-0}"
}

run() {
    local side=$1 workload=$2 pair=$3
    local tag="$side.$workload.$pair"
    local code=0 n0 n1
    read -r -a n0 <<<"$(noise)"
    (cd "$work/$side" && "${command[@]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 --out-dir "$work/out" \
        --emit "$work/runs/$tag.json") >"$work/runs/$tag.log" 2>&1 || code=$?
    read -r -a n1 <<<"$(noise)"
    local steal=$(((n1[0] - n0[0]) * 1000 / clk))
    local iowait=$(((n1[1] - n0[1]) * 1000 / clk))
    local some=$(((n1[2] - n0[2]) / 1000))
    local summary="" m v
    for m in peak_rss_mb throughput_ops_s cpu_us_per_op lat_p50_us lat_p99_us setup_s; do
        v=$(tail -n 1 "$work/runs/$tag.log" | grep -o "\"$m\": *{\"value\": *[-0-9.e+]*" |
            grep -o '[-0-9.e+]*$' || true)
        summary+=" $m=${v:-?}"
    done
    echo "pair $pair $workload $side: exit $code$summary steal_ms=$steal iowait_ms=$iowait cpu_some_ms=$some"
    echo "$side $workload $pair $steal $iowait $some" >>"$work/noise.txt"
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

# Host noise per side, then the runs above the set's 90th percentile
# (nearest rank) of steal or CPU pressure.
awk '
function rank(v, n, p,   s, i, j, t, k) {
    for (i = 1; i <= n; i++) s[i] = v[i]
    for (i = 2; i <= n; i++) {
        t = s[i]
        for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
        s[j + 1] = t
    }
    k = int(p * n)
    if (k < p * n) k++
    return s[k < 1 ? 1 : k]
}
{ side[NR] = $1; name[NR] = "pair " $3 " " $2 " " $1; for (c = 4; c <= 6; c++) val[c, NR] = $c }
END {
    split("steal_ms iowait_ms cpu_some_ms", col, " ")
    for (si = 1; si <= 2; si++) {
        sd = si == 1 ? "parent" : "change"
        line = "# noise " sd ":"
        for (c = 4; c <= 6; c++) {
            n = 0
            for (i = 1; i <= NR; i++) if (side[i] == sd) v[++n] = val[c, i]
            if (n) line = line " " col[c - 3] " median " rank(v, n, 0.5) " max " rank(v, n, 1)
        }
        print line
    }
    for (i = 1; i <= NR; i++) { st[i] = val[4, i]; ps[i] = val[6, i] }
    st90 = rank(st, NR, 0.9); ps90 = rank(ps, NR, 0.9)
    print "# noise p90 over all " NR " runs: steal_ms " st90 " cpu_some_ms " ps90
    for (i = 1; i <= NR; i++)
        if (st[i] > st90 || ps[i] > ps90)
            print "#   above p90: " name[i] " steal_ms=" st[i] " cpu_some_ms=" ps[i]
}' "$work/noise.txt"

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
