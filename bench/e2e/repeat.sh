#!/usr/bin/env bash
# Run the benchmark twice on this commit and compare the two runs.
#
#   bench/e2e/repeat.sh [--seed N] [--seconds S] [--trace 0|1]
#
# For every workload and metric, prints both values, their spread
# (|a - b| / mean) and the metric's bound from BENCHMARK.json.  Exits
# non-zero when a spread exceeds its bound, or when a metric in virtual
# time or a work count differs at all: those are a pure function of the
# seed.  Wall-clock per-layer metrics have no bound and are only shown.
set -euo pipefail
cd "$(dirname "$0")/../.."

seed=1 seconds=15 trace=0
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    *) echo "unknown option $1" >&2; exit 2 ;;
  esac
  shift 2
done

out=bench/e2e/out/repeat
mkdir -p "$out"
workloads=$(bash bench/e2e/run.sh --list)
for w in $workloads; do
  for k in 1 2; do
    bash bench/e2e/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace "$trace" >"$out/$w.$k.txt"
  done
done

python3 - "$out" $workloads <<'EOF'
import json, sys

out, workloads = sys.argv[1], sys.argv[2:]
bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
# Wall-clock metrics; everything else is virtual time or a work count.
wall_units = {"s", "MB", "1/s", "us"}
wall_names = {"obs.trace_overhead"}

def result(w, k):
    with open(f"{out}/{w}.{k}.txt") as f:
        return json.loads(f.read().strip().splitlines()[-1])

status = 0
for w in workloads:
    a, b = result(w, 1), result(w, 2)
    print(f"== {w}: correct {a['correct']} / {b['correct']}, "
          f"failed {a['failed']}/{a['attempted']} and {b['failed']}/{b['attempted']}")
    if not (a["correct"] and b["correct"]):
        status = 1
    for name, ma in a["metrics"].items():
        va, vb = ma["value"], b["metrics"][name]["value"]
        mean = (va + vb) / 2
        spread = abs(va - vb) / mean if mean else 0.0
        wall = ma["unit"] in wall_units or name in wall_names
        if not wall:
            verdict = "identical" if va == vb else "DIFFERS"
            bad = va != vb
        elif name in bounds:
            verdict = f"bound {bounds[name]:.2f}"
            bad = spread > bounds[name]
        else:
            verdict, bad = "no bound", False
        if bad:
            status = 1
        print(f"  {name:42s} {va:16.6f} {vb:16.6f} {ma['unit']:10s} "
              f"spread {spread:7.4f}  {verdict}{'  <-- FAIL' if bad else ''}")
sys.exit(status)
EOF
