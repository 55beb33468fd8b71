#!/bin/sh
# Host-perf regression gate: build the relbench preset, run the host
# microbenchmarks three times each with the JSON emitter, and compare
# each benchmark's median CPU time against the median committed in the
# baseline (BENCH_host.json). Both files hold only google-benchmark's
# aggregate rows; the "median" row of each run_name is compared.
#
# Usage: scripts/check_perf.sh [tolerance]
#   tolerance: allowed fractional slowdown before failing (default 0.50;
#              host timing on shared machines is noisy, so keep this
#              generous and rely on the trajectory, not single runs).
#
# Set CHECK_PERF_SKIP_BUILD=1 to reuse an already-built relbench tree
# (scripts/run_all_benches.sh --perf does this after its own build).
#
# Exit status: 0 if every benchmark is within tolerance of the
# baseline (new benchmarks absent from the baseline are reported but
# do not fail), 1 otherwise. A fixed set of required benchmarks —
# the COW frame-store hot paths (BM_CopyFrame, BM_ZeroFill,
# BM_PageInOut), the fault path (BM_FullFaultPath, BM_FaultBatch,
# BM_FaultRedeliver), the resolve path (BM_ResolveThroughBindings,
# BM_PerCpuResolveHit), the sharded engine
# (BM_ShardedStep, BM_CrossShardEvent), the batched memory market
# (BM_MarketRound), the shared-kernel fault path
# (BM_SharedKernelFault) and the replacement-policy hooks
# (BM_PolicyTouch, BM_PolicyVictim) — must be present in the fresh
# run; their absence fails the gate even if everything that did run
# was fast enough. The policy hooks additionally carry a pair gate:
# BM_PolicyTouch (virtual dispatch through the ReplacementPolicy
# interface) must stay within 1.1x of BM_PolicyTouchInline (the same
# clock called directly), so the src/policy refactor can never
# quietly tax the clockPass hot path.

set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
tol="${1:-0.50}"
case "$tol" in
    ''|*[!0-9.]*|*.*.*)
        echo "error: tolerance must be a number, got '$tol'" >&2
        exit 1 ;;
esac
baseline="$repo/BENCH_host.json"
fresh="$repo/build-relbench/BENCH_host_new.json"

if [ ! -f "$baseline" ]; then
    echo "error: no baseline at $baseline" >&2
    echo "Generate one with:" >&2
    echo "  build-relbench/bench/microbench_host --json=BENCH_host.json" \
         "--benchmark_min_time=0.2 --benchmark_repetitions=3" \
         "--benchmark_report_aggregates_only=true" >&2
    exit 1
fi

if [ "${CHECK_PERF_SKIP_BUILD:-0}" != "1" ]; then
    cmake --preset relbench -S "$repo" >/dev/null
    cmake --build --preset relbench --target microbench_host -j \
        >/dev/null
fi

(cd "$repo/build-relbench" &&
     ./bench/microbench_host \
         --json="$fresh" --benchmark_min_time=0.2 \
         --benchmark_repetitions=3 \
         --benchmark_report_aggregates_only=true >/dev/null)

python3 - "$baseline" "$fresh" "$tol" <<'EOF'
import json, sys

base_path, new_path, tol = sys.argv[1], sys.argv[2], float(sys.argv[3])

def times(path):
    with open(path) as f:
        data = json.load(f)
    out = {}
    for b in data.get("benchmarks", []):
        # One median row per benchmark: single runs are too noisy.
        if (b.get("run_type") == "aggregate"
                and b.get("aggregate_name") == "median"):
            out[b["run_name"]] = (b["cpu_time"], b["time_unit"])
    return out

base, new = times(base_path), times(new_path)
failed = []
missing = []

# Hot paths must stay benchmarked; a rename or deletion that silently
# drops one of these would blind the gate.
required = ["BM_CopyFrame", "BM_ZeroFill", "BM_PageInOut",
            "BM_FullFaultPath", "BM_FaultBatch", "BM_FaultRedeliver",
            "BM_ResolveThroughBindings", "BM_PerCpuResolveHit",
            "BM_ShardedStep", "BM_CrossShardEvent",
            "BM_MarketRound", "BM_SharedKernelFault",
            "BM_PolicyTouch", "BM_PolicyVictim"]
for name in required:
    if not any(n == name or n.startswith(name + "/") for n in new):
        missing.append(name)

wide = max((len(n) for n in new), default=20) + 2
print(f"  {'benchmark':<{wide}} {'old ns':>12} {'new ns':>12} "
      f"{'ratio':>8}  status")
for name, (t_new, unit) in sorted(new.items()):
    if name not in base:
        print(f"  {name:<{wide}} {'-':>12} {t_new:>12.1f} "
              f"{'-':>8}  NEW (no baseline)")
        continue
    t_base, base_unit = base[name]
    if base_unit != unit:
        print(f"  {name:<{wide}} {'-':>12} {'-':>12} {'-':>8}  "
              f"SKIP (unit {base_unit} -> {unit})")
        continue
    ratio = t_new / t_base if t_base else float("inf")
    status = "OK" if ratio <= 1.0 + tol else "SLOW"
    print(f"  {name:<{wide}} {t_base:>12.1f} {t_new:>12.1f} "
          f"{ratio:>7.2f}x  {status}")
    if status == "SLOW":
        failed.append(name)

for name in missing:
    print(f"  MISSING {name}: required benchmark not in fresh run "
          f"(renamed or deleted?)")

# Pair gate: the virtual policy hook vs the same clock inlined, both
# from this run (so host noise cancels), must stay within 1.1x.
if "BM_PolicyTouch" in new and "BM_PolicyTouchInline" in new:
    t_virt, _ = new["BM_PolicyTouch"]
    t_inl, _ = new["BM_PolicyTouchInline"]
    ratio = t_virt / t_inl if t_inl else float("inf")
    ok = ratio <= 1.1
    print(f"  policy-hook overhead: {t_virt:.1f} vs {t_inl:.1f} ns "
          f"({ratio:.2f}x, limit 1.10x)  "
          f"{'OK' if ok else 'SLOW'}")
    if not ok:
        failed.append("BM_PolicyTouch vs BM_PolicyTouchInline")

if failed or missing:
    parts = []
    if failed:
        parts.append(f"{len(failed)} regressed beyond {tol:.0%} "
                     f"({', '.join(failed)})")
    if missing:
        parts.append(f"{len(missing)} required missing "
                     f"({', '.join(missing)})")
    print(f"\nFAIL: {'; '.join(parts)}")
    sys.exit(1)
print(f"\nOK: all benchmarks within {tol:.0%} of baseline")
EOF
