#!/usr/bin/env bash
# Compare a revision against the working tree on one end-to-end
# benchmark workload, by bench/e2e/README.md's comparison protocol.
#
#   scripts/bench_pairs.sh REV WORKLOAD [--seed N] [--seconds S] [--pairs P]
#
# Builds REV from a `git archive` export in a temporary directory and
# builds the working tree, then runs `bench/e2e/run.sh --workload
# WORKLOAD --trace 0` on each side P times (default 10), alternating
# which side runs first.  For every end-to-end metric of BENCHMARK.json
# it prints each side's median and quartiles, how many pairs the
# working tree won and tied (the direction is the metric's `better`),
# and whether the gap between the medians exceeds REV's interquartile
# spread.  Then the failed ops of each side.  Exits 1 when a run failed
# an output check, 2 on bad usage.
set -euo pipefail

usage() {
  echo "usage: scripts/bench_pairs.sh REV WORKLOAD [--seed N] [--seconds S] [--pairs P]" >&2
  exit 2
}

[ $# -ge 2 ] || usage
rev=$1 workload=$2
shift 2
seed=1 seconds=15 pairs=10
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --seed) seed=$2 ;;
    --seconds) seconds=$2 ;;
    --pairs) pairs=$2 ;;
    *) usage ;;
  esac
  shift 2
done

cd "$(dirname "$0")/.."
here=$(pwd)
commit=$(git rev-parse --verify "$rev^{commit}") || usage

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/runs"
git archive "$commit" | tar -x -C "$tmp/base"

echo "base   $rev ($commit), built in $tmp/base"
echo "change the working tree ($here)"
(cd "$tmp/base" && dune build --root . --display quiet ./bench/e2e/main.exe)
dune build --root . --display quiet ./bench/e2e/main.exe

# run SIDE DIR PAIR: one benchmark process; a failed output check is
# recorded in its JSON line, not fatal here.
run() {
  local side=$1 dir=$2 pair=$3
  echo "pair $pair: $side"
  bash "$dir/bench/e2e/run.sh" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 >"$tmp/runs/$side.$pair.txt" \
    2>"$tmp/runs/$side.$pair.err" || true
}

for pair in $(seq 1 "$pairs"); do
  if [ $((pair % 2)) -eq 1 ]; then
    run base "$tmp/base" "$pair"
    run change "$here" "$pair"
  else
    run change "$here" "$pair"
    run base "$tmp/base" "$pair"
  fi
done

python3 - "$tmp/runs" "$pairs" "$workload" <<'EOF'
import json, sys

runs, pairs, workload = sys.argv[1], int(sys.argv[2]), sys.argv[3]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def result(side, pair):
    lines = open(f"{runs}/{side}.{pair}.txt").read().strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        err = open(f"{runs}/{side}.{pair}.err").read().strip().splitlines()
        print(f"{side} pair {pair} printed no result:\n" + "\n".join((lines + err)[-20:]))
        sys.exit(1)

base = [result("base", p) for p in range(1, pairs + 1)]
change = [result("change", p) for p in range(1, pairs + 1)]

def quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def quartiles(xs):
    return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)

print(f"\n{workload}: {pairs} pair(s); quartiles are q1 / median / q3")
print(f"{'metric':20s} {'base':>32s} {'change':>32s} {'wins':>5s} {'ties':>5s}"
      "  gap > base IQR")
for m in metrics:
    name, better = m["name"], m["better"]
    b = [r["metrics"][name]["value"] for r in base]
    c = [r["metrics"][name]["value"] for r in change]
    sign = 1 if better == "higher" else -1
    wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
    ties = sum(1 for x, y in zip(b, c) if y == x)
    bq, cq = quartiles(b), quartiles(c)
    gap = cq[1] - bq[1]
    clear = abs(gap) > bq[2] - bq[0]
    fmt = lambda q: f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
    change_pct = f"{100 * gap / bq[1]:+.1f}%" if bq[1] else "n/a"
    print(f"{name:20s} {fmt(bq):>32s} {fmt(cq):>32s} {wins:>5d} {ties:>5d}"
          f"  {'yes' if clear else 'no':3s} ({change_pct}, {better} is better)")

status = 0
for side, rs in (("base", base), ("change", change)):
    failed = sum(r["failed"] for r in rs)
    attempted = sum(r["attempted"] for r in rs)
    bad = sum(1 for r in rs if not r["correct"])
    print(f"{side:6s} failed ops {failed}/{attempted}, runs failing a check {bad}/{len(rs)}")
    if bad or failed:
        status = 1
sys.exit(status)
EOF
