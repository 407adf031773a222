#!/bin/sh
# CI entry point: build, run the test suite, then smoke-test the
# telemetry pipeline end to end — run a seeded consensus instance with
# --trace-out and check that the emitted Chrome trace validates and that
# a second identical run produces byte-identical output.
set -eu

cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests =="
dune runtest

echo "== simlint v2 =="
# Static analysis over the simulator, CLI and bench trees, via the
# [@lint] alias (so it rebuilds exactly when the scanned sources
# change).  Zero unsuppressed findings is the contract: the determinism
# rules (ambient nondeterminism, hash-order traversals, fragile
# protocol wildcards, physical equality, Obj.magic/Marshal,
# module-level mutable state) plus the interprocedural rules —
# Y1 read->yield->dependent-write atomicity, Y2 [@@sim.yields]
# contract drift in .mlis, F1 branching on one-sided write completion
# without a fence, A1 stale suppressions.  Every suppression (a
# [@simlint.allow] attribute) carries a written justification
# and is reviewed in the diff like any other code; --json below is the
# machine-readable audit of all of them.
dune build @lint
dune exec tools/simlint/simlint.exe -- --json lib/ bin/ bench/ > /dev/null

echo "== one table of counts =="
# The engine's telemetry collector is the only per-run table of counts
# and I/O events.  Rdma_sim.Stats and Cluster.stats survive only as a
# read-only alias for bench/e2e/kv_session.ml; nothing else may use
# them.
if git grep -nw -e 'Stats' -e 'Cluster\.stats' -- lib bin bench test \
  examples tools ':!lib/sim/stats.ml' ':!lib/sim/stats.mli' \
  ':!lib/mm/cluster.ml' ':!lib/mm/cluster.mli' ':!bench/e2e'; then
  echo "Stats / Cluster.stats used outside the bench/e2e alias" >&2
  exit 1
fi

echo "== one way to start a run =="
# Every run in lib/, bench/ and examples/ goes through the one
# lifecycle in lib/core/instance.ml: nothing else applies a fault
# schedule or re-raises fiber errors.  bench/e2e is the benchmark's own
# tree and is not held to it here.  The CLI and the chaos registry
# reach the single-instance algorithms only through the algorithm table
# (lib/core/algorithms.ml), never through an algorithm's own run.
if git grep -n -e 'Fault\.apply' -e 'Cluster\.check_errors' -- lib bench \
  examples ':!lib/core/fault.ml' ':!lib/core/fault.mli' \
  ':!lib/core/instance.ml' ':!lib/core/instance.mli' ':!bench/e2e'; then
  echo "a run lifecycle step outside lib/core/instance.ml" >&2
  exit 1
fi
if git grep -nE \
  '\b(Paxos|Fast_paxos|Disk_paxos|Protected_paxos|Aligned_paxos|Robust_backup|Fast_robust)\.run\b' \
  -- bin lib/chaos; then
  echo "bin/ or lib/chaos/ calls an algorithm's run instead of the table" >&2
  exit 1
fi

echo "== one wire format =="
# Codec (lib/core/codec.ml) is the only encoder and decoder of register
# values and signed payloads: length-prefixed frames, decoded strictly.
# Nothing may split or join fields on '|' or percent-escape them, which
# is how the format looked before.  Keychain's MAC input has a "|"
# string part; it is hashed, never parsed, and does not match.
if git grep -n -i -e "split_on_char '|'" -e 'concat "|"' -e '%7c' -e '%25' \
  -- lib bin examples; then
  echo "a '|'-separated or percent-escaped wire format outside Codec" >&2
  exit 1
fi

echo "== one Paxos vocabulary =="
# Each rule the Paxos family shares has one home: Paxos owns the ballot
# format (round * n + pid + 1), the process majority and the
# highest-accepted value rule, Memclient.majority is the memory quorum,
# and Report.decide is the one decide step that records Event.Decide.
# None of them may be written out again elsewhere.
vocab=0
git grep -nE '!(round|terms) \* ' -- lib ':!lib/core/paxos.ml' && vocab=1
git grep -nF '((m - 1) / 2)' -- lib && vocab=1
git grep -nE '\(n / 2\) \+ 1' -- lib ':!lib/core/paxos.ml' && vocab=1
git grep -n 'Event.Decide {' -- lib/core ':!lib/core/report.ml' && vocab=1
[ "$vocab" -eq 0 ] || {
  echo "a Paxos-family rule written out outside its owner" >&2
  exit 1
}

echo "== no double-encoded UTF-8 =="
# UTF-8 text read as Latin-1 and encoded again turns each non-ASCII
# character into C3 xx C2 yy ... (a ⊥ in a simlint justification once
# became three Latin-1 characters), and simlint's audit report copies
# such text as it is.
if git grep -lP '\xc3[\x80-\xbf]\xc2[\x80-\xbf]' -- lib bin bench tools examples; then
  echo "double-encoded UTF-8 in the sources" >&2
  exit 1
fi

echo "== telemetry smoke test =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

dune exec bin/rdma_agreement.exe -- run protected-paxos -n 3 -m 3 --seed 1 \
  --trace-out "$tmp/trace1.json" --metrics-out "$tmp/metrics1.json" \
  > "$tmp/run1.out"
dune exec bin/rdma_agreement.exe -- validate-trace "$tmp/trace1.json"

dune exec bin/rdma_agreement.exe -- run protected-paxos -n 3 -m 3 --seed 1 \
  --trace-out "$tmp/trace2.json" --metrics-out "$tmp/metrics2.json" \
  > /dev/null
cmp "$tmp/trace1.json" "$tmp/trace2.json"
cmp "$tmp/metrics1.json" "$tmp/metrics2.json"
echo "trace deterministic: same seed, same bytes"

grep -q "pmp.phase2" "$tmp/metrics1.json" || {
  echo "metrics missing per-phase histograms" >&2
  exit 1
}
# The collector backs Report.t, so the exported counters carry the
# message count the run printed.
msgs="$(sed -n 's/^cost *: \([0-9][0-9]*\) msgs.*/\1/p' "$tmp/run1.out")"
[ -n "$msgs" ] && grep -q "\"net.msgs.sent\":$msgs[,}]" "$tmp/metrics1.json" || {
  echo "metrics missing the run's message counter (net.msgs.sent=$msgs)" >&2
  exit 1
}

echo "== chaos smoke test =="
# A fixed-seed adversary batch over every algorithm of the table, plus
# Byzantine attacks on robust-backup: inside the fault model every
# schedule must hold all four invariants, and a violation fails the
# batch's exit status.
for scenario in paxos fast-paxos disk-paxos protected-paxos aligned-paxos \
  robust-backup fast-robust; do
  dune exec bin/rdma_agreement.exe -- chaos explore "$scenario" \
    --runs 20 --seed 1 --adversary
done
dune exec bin/rdma_agreement.exe -- chaos explore robust-backup \
  --runs 25 --seed 1 --adversary --byzantine

# Over-budget exploration must find a violation, shrink it, and write a
# repro artifact ...
dune exec bin/rdma_agreement.exe -- chaos explore paxos \
  --runs 12 --seed 1 --over-budget --expect-violations --out "$tmp/repro.json" \
  > "$tmp/explore.out"

# ... whose replay still violates (exit 1), deterministically: two
# replays produce byte-identical verdicts.
replay_status=0
dune exec bin/rdma_agreement.exe -- chaos replay "$tmp/repro.json" \
  > "$tmp/replay1.out" || replay_status=$?
[ "$replay_status" -eq 1 ] || {
  echo "chaos replay of a violating repro should exit 1 (got $replay_status)" >&2
  exit 1
}
dune exec bin/rdma_agreement.exe -- chaos replay "$tmp/repro.json" \
  > "$tmp/replay2.out" || true
cmp "$tmp/replay1.out" "$tmp/replay2.out"
echo "chaos replay deterministic: same artifact, same verdict bytes"

echo "== parallel smoke test =="
# The task/pool determinism contract, end to end through both CLIs: a
# chaos batch explored across 4 domains must be byte-identical —
# stdout, merged metrics and repro artifact — to the same batch run
# inline, including the parallel shrinker on an over-budget batch.
dune exec bin/rdma_agreement.exe -- chaos explore paxos \
  --runs 25 --seed 1 --adversary -j 1 --metrics-out "$tmp/cm1.json" \
  > "$tmp/cj1.out"
dune exec bin/rdma_agreement.exe -- chaos explore paxos \
  --runs 25 --seed 1 --adversary -j 4 --metrics-out "$tmp/cm4.json" \
  > "$tmp/cj4.out"
cmp "$tmp/cm1.json" "$tmp/cm4.json"
# stdout mentions the metrics file name; strip that line before diffing
grep -v "^metrics written" "$tmp/cj1.out" > "$tmp/cj1.flt"
grep -v "^metrics written" "$tmp/cj4.out" > "$tmp/cj4.flt"
cmp "$tmp/cj1.flt" "$tmp/cj4.flt"

dune exec bin/rdma_agreement.exe -- chaos explore paxos \
  --runs 12 --seed 1 --over-budget --expect-violations -j 4 \
  --out "$tmp/repro-j4.json" > /dev/null
cmp "$tmp/repro.json" "$tmp/repro-j4.json"

# Same contract for the experiment harness: a subset of the suite run
# across 4 domains prints the same bytes as the sequential run.
dune exec bench/main.exe -- -j 1 d2 m1 c1 > "$tmp/bench-j1.out"
dune exec bench/main.exe -- -j 4 d2 m1 c1 > "$tmp/bench-j4.out"
cmp "$tmp/bench-j1.out" "$tmp/bench-j4.out"
echo "parallel runs deterministic: -j 4 bytes = -j 1 bytes"

echo "== perf observatory =="
# Two-plane perf regression gate: re-snapshot the deterministic
# experiments and diff their deterministic plane (exact equality)
# against the checked-in baselines.  Timing is machine-local, so CI
# ignores it (--ignore-timing); the deterministic work counters are
# the contract — any drift means the simulation did different work and
# needs either a fix or an explicit baseline update in the diff.
dune build tools/perfdiff/perfdiff.exe
dune exec bench/main.exe -- d1 d2 v1 --perf-out "$tmp/BENCH_<id>.json" \
  > /dev/null
dune exec tools/perfdiff/perfdiff.exe -- --ignore-timing \
  bench/baselines/BENCH_d1.json "$tmp/BENCH_d1.json"
dune exec tools/perfdiff/perfdiff.exe -- --ignore-timing \
  bench/baselines/BENCH_d2.json "$tmp/BENCH_d2.json"
# The v1 baseline additionally pins the lease economics of the engine
# head-to-head: mem.ops.issued = 0 under the velos.read.leased scope
# (leased reads never touch memory) vs 3 issued writes per
# pmp.read.lease confirm round.  A regression that makes leased reads
# pay memory ops shows up here as counter drift.
dune exec tools/perfdiff/perfdiff.exe -- --ignore-timing \
  bench/baselines/BENCH_v1.json "$tmp/BENCH_v1.json"

# The gate must actually bite: inject counter drift into a copy of the
# fresh snapshot and require perfdiff to exit nonzero on it.
sed 's/"sha256.blocks":[0-9][0-9]*/"sha256.blocks":1/' "$tmp/BENCH_d1.json" \
  > "$tmp/BENCH_d1_drift.json"
drift_status=0
dune exec tools/perfdiff/perfdiff.exe -- --ignore-timing \
  bench/baselines/BENCH_d1.json "$tmp/BENCH_d1_drift.json" \
  > /dev/null || drift_status=$?
[ "$drift_status" -eq 1 ] || {
  echo "perfdiff failed to flag injected counter drift (got $drift_status)" >&2
  exit 1
}
echo "perf baselines match; injected drift detected"

echo "== benchmark pairs =="
# scripts/bench_pairs.sh is bench/e2e/README.md's comparison protocol
# (alternating parent/change pairs, medians, quartiles, wins).  One
# short pair of HEAD against the working tree, for every workload of
# BENCHMARK.json, keeps it runnable; a failed output check on either
# side fails the stage.  The kv-* checks are prefix-consistent logs,
# acked writes at their index, final bindings equal to the acked-write
# model, no read below the watermark and no timeouts; kv-failover also
# crashes a memory, rejoins it and crashes the leader in every session.
# chaos-sweep's checks are 0 in-model violations, every
# velos-stale-lease schedule flagged and the shrunk repro still failing.
scripts/bench_pairs.sh HEAD byz-agreement --pairs 1 --seconds 1
scripts/bench_pairs.sh HEAD kv-write --pairs 1 --seconds 1
scripts/bench_pairs.sh HEAD kv-read --pairs 1 --seconds 1
scripts/bench_pairs.sh HEAD kv-failover --pairs 1 --seconds 1
scripts/bench_pairs.sh HEAD chaos-sweep --pairs 1 --seconds 1
# A second seed for the two workloads whose output checks depend most on
# seed-drawn schedules: a change to shared memory semantics, or state one
# run leaves for the next, can fail them at one seed and pass at another.
scripts/bench_pairs.sh HEAD byz-agreement --seed 7 --pairs 1 --seconds 1
scripts/bench_pairs.sh HEAD chaos-sweep --seed 7 --pairs 1 --seconds 1

echo "== weak ordering =="
# The memory-ordering chaos axis: forced weak-mode explore batches must
# hold every invariant, stay byte-identical across -j 1 / -j 4 (per-op
# ordering decisions come from the seeded schedule, never from domain
# interleaving), and replay byte-identically from a repro artifact that
# round-trips the ordering mode.
for mode in completion-lag reordered-qp; do
  dune exec bin/rdma_agreement.exe -- chaos explore disk-paxos \
    --runs 25 --seed 1 --adversary --ordering "$mode" -j 1 \
    --metrics-out "$tmp/om1.json" > "$tmp/oj1.out"
  dune exec bin/rdma_agreement.exe -- chaos explore disk-paxos \
    --runs 25 --seed 1 --adversary --ordering "$mode" -j 4 \
    --metrics-out "$tmp/om4.json" > "$tmp/oj4.out"
  cmp "$tmp/om1.json" "$tmp/om4.json"
  grep -v "^metrics written" "$tmp/oj1.out" > "$tmp/oj1.flt"
  grep -v "^metrics written" "$tmp/oj4.out" > "$tmp/oj4.flt"
  cmp "$tmp/oj1.flt" "$tmp/oj4.flt"
  grep -q "mem.ops.issued" "$tmp/om1.json" || {
    echo "weak-ordering metrics missing mem counters ($mode)" >&2
    exit 1
  }
done
echo "weak-ordering explore deterministic: -j 4 bytes = -j 1 bytes"

# Over-budget under a forced weak mode: the shrunk repro embeds the
# Set_ordering fault and replays to the same verdict bytes twice.
dune exec bin/rdma_agreement.exe -- chaos explore paxos \
  --runs 12 --seed 1 --over-budget --expect-violations \
  --ordering completion-lag --out "$tmp/repro-weak.json" > /dev/null
grep -q "set-ordering" "$tmp/repro-weak.json" || {
  echo "weak-mode repro artifact lost the ordering fault" >&2
  exit 1
}
weak_status=0
dune exec bin/rdma_agreement.exe -- chaos replay "$tmp/repro-weak.json" \
  > "$tmp/replay-weak1.out" || weak_status=$?
[ "$weak_status" -eq 1 ] || {
  echo "weak-mode repro replay should exit 1 (got $weak_status)" >&2
  exit 1
}
dune exec bin/rdma_agreement.exe -- chaos replay "$tmp/repro-weak.json" \
  > "$tmp/replay-weak2.out" || true
cmp "$tmp/replay-weak1.out" "$tmp/replay-weak2.out"
echo "weak-mode repro replays deterministically"

echo "== engine parity =="
# The engine-agnostic SMR stack: every registered engine must hold all
# chaos invariants across the same crash/recover schedules, with
# byte-identical exploration under -j 1 and -j 4.  The engine list comes
# from the registry, so a new engine joins this stage automatically.
engines="$(dune exec bin/rdma_agreement.exe -- list-engines \
  | awk 'NR > 1 { print $1 }')"
[ -n "$engines" ] || {
  echo "list-engines reported no engines" >&2
  exit 1
}
for engine in $engines; do
  dune exec bin/rdma_agreement.exe -- chaos explore "smr-$engine-recovery" \
    --runs 25 --seed 1 -j 1 > "$tmp/ep-$engine-j1.out"
  dune exec bin/rdma_agreement.exe -- chaos explore "smr-$engine-recovery" \
    --runs 25 --seed 1 -j 4 > "$tmp/ep-$engine-j4.out"
  cmp "$tmp/ep-$engine-j1.out" "$tmp/ep-$engine-j4.out"
  cat "$tmp/ep-$engine-j1.out"
done

# The fixed-seed CLI fixtures of every engine (steady state and
# failover, stdout and trace) are diffed by `dune runtest` above
# (test/fixtures/dune).

# The lease oracle must actually bite: the deliberately broken
# stale-lease fixture engine (serves local reads past deposition) has
# to be flagged on every schedule (--expect-violations inverts exit).
dune exec bin/rdma_agreement.exe -- chaos explore velos-stale-lease \
  --runs 10 --seed 1 --expect-violations > /dev/null
echo "stale-lease fixture caught by the oracle"

echo "== recovery smoke test =="
# Crash -> recover -> repair schedules: the nemesis pairs every crash
# with a recovery, and the oracle's repair invariant demands the
# rejoined memory is fully re-replicated by the watchdog.  Each batch
# runs twice; seeded exploration must be byte-identical.
dune exec bin/rdma_agreement.exe -- chaos explore swmr-recovery \
  --runs 25 --seed 1 > "$tmp/swmr1.out"
dune exec bin/rdma_agreement.exe -- chaos explore swmr-recovery \
  --runs 25 --seed 1 > "$tmp/swmr2.out"
cmp "$tmp/swmr1.out" "$tmp/swmr2.out"
cat "$tmp/swmr1.out"

dune exec bin/rdma_agreement.exe -- chaos explore smr-pmp-recovery \
  --runs 25 --seed 1 > "$tmp/pmp1.out"
dune exec bin/rdma_agreement.exe -- chaos explore smr-pmp-recovery \
  --runs 25 --seed 1 > "$tmp/pmp2.out"
cmp "$tmp/pmp1.out" "$tmp/pmp2.out"
cat "$tmp/pmp1.out"
echo "recovery chaos deterministic: same seed, same bytes"

echo "== constant-memory chaos =="
# A chaos batch runs in bounded memory: every run disposes its engine
# (discontinuing the fibers it left suspended) and the pool folds the
# cases as they arrive, holding O(jobs) of them.  A batch ten times
# longer must peak within 10% of the short one.  Peak RSS is read per
# child process from python3's getrusage(RUSAGE_CHILDREN), on the built
# binary itself (a `dune exec` wrapper would be the larger process).
exe=_build/default/bin/rdma_agreement.exe
peak_kb() {
  python3 -c 'import resource, subprocess, sys
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' "$@"
}
# flat SMALL LARGE ARGS...: `chaos explore ARGS` at SMALL and LARGE runs
flat() {
  small=$1 large=$2
  shift 2
  small_kb="$(peak_kb "$exe" chaos explore "$@" --runs "$small")"
  large_kb="$(peak_kb "$exe" chaos explore "$@" --runs "$large")"
  echo "$*: $small runs ${small_kb} KB, $large runs ${large_kb} KB"
  [ $((large_kb * 10)) -le $((small_kb * 11)) ] || {
    echo "chaos memory grows with the batch: $*" >&2
    exit 1
  }
}
flat 200 2000 smr-velos-recovery --seed 1 -j 1
flat 200 2000 smr-velos-recovery --seed 1 -j 2
flat 50 500 fast-robust --seed 1 --adversary --byzantine -j 1

echo "== ok =="
