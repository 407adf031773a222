#!/usr/bin/env bash
# Build and run the end-to-end benchmark from a source checkout.
#
#   bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one process; the last stdout line is the JSON
#       result {correct, attempted, failed, metrics}
#   bench/e2e/run.sh [--seed N] [--seconds S] [--trace 0|1]
#       every workload, each in its own process; exits non-zero if any
#       workload's output checks failed
#   bench/e2e/run.sh --list
#       the workload names
#
# Traced runs (--trace 1) write per-request records and a perf snapshot
# to bench/e2e/out/.
set -euo pipefail
cd "$(dirname "$0")/../.."

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
# Build output goes to stderr: stdout carries only the benchmark's report.
dune build --root . --display quiet ./bench/e2e/main.exe >&2
exe=./_build/default/bench/e2e/main.exe

for arg in "$@"; do
  case "$arg" in --workload | --list) exec "$exe" "$@" ;; esac
done

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

status=0
for w in $("$exe" --list); do
  "$exe" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
  echo
done
exit "$status"
