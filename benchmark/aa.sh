#!/usr/bin/env bash
# A/A check: run every workload N times (default 5) on the current tree,
# each time with another seed as the driver does, untraced and traced,
# and test the benchmark against its own contract.
#
#   benchmark/aa.sh [N] [--seed <first>]
#
# Per workload and end-to-end metric it prints the median, the quartiles,
# the spread (distance between the quartiles as a share of the median),
# the largest relative deviation from the median over the N runs, and the
# bound BENCHMARK.json gives the metric. At the end it prints, per
# metric, three times the widest spread seen on any workload: the rule
# the bounds were set by. Exit status is non-zero if an end-to-end metric
# of any run leaves its bound, if a deterministic count differs between
# runs at all (seeds change tensor contents, never the amount of work),
# if a run reports a failure, or if kernel.work_ratio != 1.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
sets=5
seed=1
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    *) sets="$1"; shift ;;
  esac
done
spec="$here/../BENCHMARK.json"
seconds="$(python3 -c "import json,sys; print(json.load(open(sys.argv[1]))['run_seconds'])" "$spec")"
workloads="$(python3 -c "import json,sys; print(' '.join(w['name'] for w in json.load(open(sys.argv[1]))['workloads']))" "$spec")"
mkdir -p "$here/out"
results="$(mktemp -d "$here/out/aa.XXXXXX")"
trap 'rm -rf "$results"' EXIT
for set in $(seq 1 "$sets"); do
  for workload in $workloads; do
    for trace in 0 1; do
      echo "run $set/$sets: $workload seed=$((seed + set - 1)) trace=$trace" >&2
      "$here/run.sh" --workload "$workload" --seed "$((seed + set - 1))" --seconds "$seconds" --trace "$trace" \
        | tail -n 1 > "$results/$workload.$trace.$set.json"
    done
  done
done
python3 - "$spec" "$results" "$sets" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
results, sets = sys.argv[2], int(sys.argv[3])
exact = ["kernel.dots", "batch.launches", "serve.ticks", "serve.preemptions"]
bad = []
widest = {}
for workload in (w["name"] for w in spec["workloads"]):
    runs = {
        trace: [json.load(open(f"{results}/{workload}.{trace}.{s}.json")) for s in range(1, sets + 1)]
        for trace in (0, 1)
    }
    for trace, rs in runs.items():
        for s, r in enumerate(rs, 1):
            if not r["correct"] or r["failed"]:
                bad.append(f"{workload} trace={trace} run {s}: correct={r['correct']} failed={r['failed']}")
    print(f"\n{workload}")
    print(f"  {'metric':<16}{'median':>16}{'q1':>16}{'q3':>16}{'spread':>9}{'max dev':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs[0]]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if sets >= 2 else (med, med, med)
        spread = (q3 - q1) / med
        dev = max(abs(v - med) for v in values) / med
        widest[name] = max(widest.get(name, 0.0), spread)
        print(f"  {name:<16}{med:>16.6g}{q1:>16.6g}{q3:>16.6g}{spread:>9.4f}{dev:>9.4f}{metric['bound']:>7}")
        if dev > metric["bound"]:
            bad.append(f"{workload} {name}: deviates {dev:.4f} from the median, bound {metric['bound']}")
    for name in exact + ["kernel.work_ratio"]:
        values = {r["metrics"][name]["value"] for r in runs[1]}
        print(f"  {name:<24}{sorted(values)}")
        if len(values) != 1:
            bad.append(f"{workload} {name}: differs between runs: {sorted(values)}")
    if {r["metrics"]["kernel.work_ratio"]["value"] for r in runs[1]} != {1}:
        bad.append(f"{workload} kernel.work_ratio is not exactly 1")
    peaks = {r["metrics"]["kv_peak_bytes"]["value"] for r in runs[0]}
    if len(peaks) != 1:
        bad.append(f"{workload} kv_peak_bytes: differs between runs: {sorted(peaks)}")
print("\nthree times the widest spread, against the bound:")
for metric in spec["end_to_end"]:
    print(f"  {metric['name']:<16}{3 * widest[metric['name']]:>9.4f}{metric['bound']:>7}")
print()
for line in bad:
    print("FAIL", line)
print("A/A", "failed" if bad else "passed", f"over {sets} runs a workload")
sys.exit(1 if bad else 0)
PY
