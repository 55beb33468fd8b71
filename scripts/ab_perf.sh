#!/bin/sh
# A/B host-performance comparison of two git revisions.
#
# Exports BASE (side A) and HEAD (side B) into a scratch directory
# under $TMPDIR (or /tmp), builds each in Release, then runs the named
# e2ebench workloads and microbenches in 10 alternating rounds: even
# rounds run A first, odd rounds B first, so slow drift of the host
# hits both sides alike. Each round is one pair; e2ebench seeds rotate
# across rounds and both sides of a pair use the same seed.
# Microbenches run with --benchmark_min_time=0.2. Every run is pinned
# to one CPU with taskset when it is available. The scratch directory
# is removed on exit.
#
# Usage: scripts/ab_perf.sh [options] BASE [HEAD]
#   BASE, HEAD          git revisions (HEAD defaults to HEAD)
#   --workloads "W ..." e2ebench workloads (default: every workload
#                       BENCHMARK.json names; "" runs none)
#   --seconds S         seconds per e2ebench run (default 30)
#   --seeds "N ..."     seeds to rotate through (default: 1 2 3)
#   --bench REGEX       microbench_host --benchmark_filter (default:
#                       none); each round runs it once per side
#   --cpu N             CPU to pin to (default: the last one)
#
# Output: per workload (or bench) and metric, the median and quartiles
# of each side, the ratio of medians B/A, the number of pairs B won
# (by the metric's direction in BENCHMARK.json; microbench times are
# lower-is-better) and each side's count of slow runs: below 0.8x that
# side's median, or above 1.25x for a lower-is-better metric. A
# non-zero count marks a set whose runs fall into a slow and a fast
# mode, where the median depends on how many runs each mode drew. Raw
# samples are printed as JSON lines on stderr.

set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)

# Every workload the benchmark declares, so an A/B covers each row its
# acceptance rule checks.
workloads=$(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$repo/BENCHMARK.json")
seconds=30
seeds="1 2 3"
bench=""
cpu=""
revs=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workloads) workloads="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        --seeds) seeds="$2"; shift ;;
        --bench) bench="$2"; shift ;;
        --cpu) cpu="$2"; shift ;;
        -*) echo "unknown option: $1" >&2; exit 2 ;;
        *) revs="$revs $1" ;;
    esac
    shift
done
set -- $revs
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 [options] BASE [HEAD]" >&2
    exit 2
fi
base=$1
head=${2:-HEAD}
if [ -z "$workloads" ] && [ -z "$bench" ]; then
    echo "nothing to run: give --workloads or --bench" >&2
    exit 2
fi

pin=""
if command -v taskset >/dev/null 2>&1; then
    [ -n "$cpu" ] || cpu=$(($(nproc) - 1))
    pin="taskset -c $cpu"
fi

scratch=$(mktemp -d "${TMPDIR:-/tmp}/ab_perf.XXXXXX")
trap 'rm -rf "$scratch"' EXIT
trap 'exit 130' INT TERM

# Run a build step quietly; show its output only if it fails.
quiet() {
    "$@" >"$scratch/build.log" 2>&1 || {
        cat "$scratch/build.log" >&2
        exit 1
    }
}

# Export a revision and build what the rounds run.
prepare() {
    side=$1 rev=$2
    dir="$scratch/$side"
    sha=$(git -C "$repo" rev-parse --verify "$rev^{commit}")
    mkdir -p "$dir"
    git -C "$repo" archive "$sha" | tar -x -C "$dir"
    echo "== $side = $rev ($sha): building" >&2
    if [ -n "$workloads" ]; then
        quiet cmake -S "$dir/e2ebench" -B "$dir/.bench_build/e2ebench" \
            -DCMAKE_BUILD_TYPE=Release
        quiet cmake --build "$dir/.bench_build/e2ebench" -j 2
    fi
    if [ -n "$bench" ]; then
        quiet cmake -S "$dir" -B "$dir/build" -DCMAKE_BUILD_TYPE=Release
        quiet cmake --build "$dir/build" -j 2 --target microbench_host
    fi
}
prepare A "$base"
prepare B "$head"

samples="$scratch/samples.jsonl"
: >"$samples"

# One run of every workload and bench on one side; appends samples.
run_side() {
    side=$1 round=$2 seed=$3
    dir="$scratch/$side"
    for w in $workloads; do
        $pin "$dir/.bench_build/e2ebench/e2ebench" --workload "$w" \
            --seed "$seed" --seconds "$seconds" --trace 0 \
            >"$scratch/out.txt" 2>/dev/null || true
        tail -n 1 "$scratch/out.txt" | python3 -c '
import json, sys
side, rnd, name = sys.argv[1], int(sys.argv[2]), sys.argv[3]
try:
    res = json.loads(sys.stdin.read())
except ValueError:
    sys.exit("e2ebench %s printed no result on side %s" % (name, side))
for metric, m in res["metrics"].items():
    print(json.dumps({"side": side, "round": rnd, "name": name,
                      "metric": metric, "value": m["value"]}))
' "$side" "$round" "$w" >>"$samples"
    done
    if [ -n "$bench" ]; then
        $pin "$dir/build/bench/microbench_host" \
            --benchmark_filter="$bench" \
            --benchmark_min_time=0.2 \
            --benchmark_format=json 2>/dev/null | python3 -c '
import json, sys
side, rnd = sys.argv[1], int(sys.argv[2])
for b in json.load(sys.stdin)["benchmarks"]:
    print(json.dumps({"side": side, "round": rnd, "name": b["name"],
                      "metric": "real_time_" + b["time_unit"],
                      "value": b["real_time"]}))
' "$side" "$round" >>"$samples"
    fi
}

nseeds=$(echo $seeds | wc -w)
r=0
while [ "$r" -lt 10 ]; do
    seed=$(echo $seeds | cut -d' ' -f$((r % nseeds + 1)))
    echo "== round $((r + 1))/10 (seed $seed)" >&2
    if [ $((r % 2)) -eq 0 ]; then
        run_side A "$r" "$seed"
        run_side B "$r" "$seed"
    else
        run_side B "$r" "$seed"
        run_side A "$r" "$seed"
    fi
    r=$((r + 1))
done

cat "$samples" >&2
python3 - "$samples" "$repo/BENCHMARK.json" "$base" "$head" <<'EOF'
import json, sys
from collections import defaultdict

samples, bench_json, base, head = sys.argv[1:5]
better = {}
try:
    for m in json.load(open(bench_json)).get("end_to_end", []):
        better[m["name"]] = m["better"]
except (OSError, ValueError):
    pass

runs = defaultdict(dict)  # (name, metric) -> {(side, round): value}
for line in open(samples):
    s = json.loads(line)
    runs[(s["name"], s["metric"])][(s["side"], s["round"])] = s["value"]

def quartiles(v):
    v = sorted(v)
    def q(p):
        x = p * (len(v) - 1)
        i = int(x)
        j = min(i + 1, len(v) - 1)
        return v[i] + (v[j] - v[i]) * (x - i)
    return q(0.25), q(0.5), q(0.75)

def slow(v, median, direction):
    """Runs in the slow mode: 0.8x below or 1.25x above the median."""
    if direction == "higher":
        return str(sum(x < 0.8 * median for x in v))
    if direction == "lower":
        return str(sum(x > 1.25 * median for x in v))
    return "-"

print(f"A = {base}, B = {head}")
print(f"{'name':<24} {'metric':<20} {'A median':>10} {'A q1-q3':<21} "
      f"{'B median':>10} {'B q1-q3':<21} {'B/A':>6} {'B wins':>6} "
      f"{'A slow':>6} {'B slow':>6}")
for (name, metric), vals in sorted(runs.items()):
    rounds = sorted({r for (_, r) in vals})
    pairs = [(vals[("A", r)], vals[("B", r)]) for r in rounds
             if ("A", r) in vals and ("B", r) in vals]
    if not pairs:
        continue
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    direction = better.get(metric, "lower" if metric.startswith("real_time")
                           else None)
    if direction == "higher":
        wins = sum(y > x for x, y in pairs)
    elif direction == "lower":
        wins = sum(y < x for x, y in pairs)
    else:
        wins = None
    ratio = f"{bm / am:.3f}" if am else "-"
    won = f"{wins}/{len(pairs)}" if wins is not None else "-"
    print(f"{name:<24} {metric:<20} {am:>10.4g} {f'{a1:.4g}-{a3:.4g}':<21} "
          f"{bm:>10.4g} {f'{b1:.4g}-{b3:.4g}':<21} {ratio:>6} {won:>6} "
          f"{slow(a, am, direction):>6} {slow(b, bm, direction):>6}")
EOF
