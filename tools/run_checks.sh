#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
#
# Pre-merge gate for the DMetabench tree. Runs, in order:
#
#   1. a plain RelWithDebInfo build of everything,
#   2. dmeta-lint and dmeta-analyze over the source tree — the analyzer
#      also exports its call graph to build/callgraph.dot (uploaded as a
#      CI artifact) and must finish inside a 20 s wall-time budget, so an
#      interprocedural fixpoint regression fails the gate instead of
#      silently slowing every presubmit,
#   3. the full ctest suite,
#   4. a verify-schedules smoke pass (3 permuted schedules per scenario)
#      and a verify-queues pass proving the heap and calendar event
#      queues execute bit-identical schedules on six tier-1 models,
#   5. an engine-throughput bench smoke at reduced sizes (writes
#      build/BENCH_engine.json; scale curve capped at 4096 clients),
#   6. the fault-injection smoke: bench_fault_degradation (E29) exits
#      nonzero when the op ledger, the post-run fsck or the determinism
#      check fails — and the E30 (sharded) and E31 (write-behind
#      crash-consistency) self-checking benches, whose JSON must
#      reproduce the committed BENCH_E30.json / BENCH_E31.json,
#   7. the trace, fault and write-behind tests rebuilt under ASan+UBSan
#      (always — the trace layer threads ids through every queue, the
#      retry path keeps exchange state alive until each attempt's
#      retransmit timer fires, even after the reply came back, and the
#      write-behind queue keeps ops, handles and stalled enqueues alive
#      across flushes; all must stay memory-clean),
#   8. (optionally) the full suite rebuilt under sanitizers.
#
# Exits nonzero on the first failure. Usage:
#
#   tools/run_checks.sh [--sanitize[=address,undefined]] [-j N]
#
# or DMB_CHECK_SANITIZE=address,undefined tools/run_checks.sh. Run it from
# anywhere; paths are resolved relative to the repo root.
#
#===------------------------------------------------------------------------===#

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
SANITIZE="${DMB_CHECK_SANITIZE:-}"

while [ $# -gt 0 ]; do
  case "$1" in
    --sanitize) SANITIZE="address,undefined" ;;
    --sanitize=*) SANITIZE="${1#--sanitize=}" ;;
    -j) JOBS="$2"; shift ;;
    -j*) JOBS="${1#-j}" ;;
    -h|--help)
      sed -n '2,30p' "$0"; exit 0 ;;
    *) echo "run_checks.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

step() { echo; echo "== $* =="; }

step "configure + build (build/)"
cmake -B "$ROOT/build" -S "$ROOT" >/dev/null
cmake --build "$ROOT/build" -j "$JOBS"

step "dmeta-lint"
"$ROOT/build/tools/dmeta-lint" --root "$ROOT"

step "dmeta-analyze (+ call-graph export, 20 s budget)"
ANALYZE_T0="$(date +%s)"
"$ROOT/build/tools/dmeta-analyze" --root "$ROOT" \
    --dot "$ROOT/build/callgraph.dot"
ANALYZE_SECS="$(( $(date +%s) - ANALYZE_T0 ))"
# The whole-tree symbol table, call graph and taint fixpoint run in well
# under a second today; 20 s of headroom flags a complexity regression
# without flaking on slow CI runners.
if [ "$ANALYZE_SECS" -gt 20 ]; then
  echo "run_checks.sh: dmeta-analyze took ${ANALYZE_SECS}s (budget 20s)" >&2
  exit 1
fi

step "ctest"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

step "verify-schedules smoke (3 permuted schedules)"
"$ROOT/build/tools/dmetabench" verify-schedules --schedules 3

step "verify-queues (heap vs calendar event queue, six tier-1 models)"
# Both queue implementations must execute bit-identical schedules: the
# verb compares canonical outputs AND executed-event journals, including
# a shallow-wheel variant that forces the overflow path.
"$ROOT/build/tools/dmetabench" verify-queues

step "engine throughput smoke (reduced sizes)"
# Reduced sizes: this only proves the bench runs and writes its JSON; the
# committed BENCH_engine.json numbers come from a full-size run. The
# scale curve is capped at 4096 clients for the smoke.
"$ROOT/build/bench/bench_engine_throughput" --events 500000 \
    --problemsize 2000 --timelimit 2 --label smoke --curve-max 4096 \
    --out "$ROOT/build/BENCH_engine.json"

step "fault-injection smoke (E29: loss window + MDS crash)"
# Self-checking: the binary exits nonzero when any op is lost or double
# applied, the post-run fsck is dirty, or the faulted run is not
# schedule-invariant.
"$ROOT/build/bench/bench_fault_degradation"

step "sharded-metadata smoke (E30: scale-out, rebalance, kill-one-shard)"
# Self-checking: saturation scaling, the threshold curve, the E29-style
# exactly-once ledger with shard 0 crashed mid-run, bit-identical replay
# and verify-schedules invariance all gate the exit code. The run is a
# deterministic simulation, so the JSON it writes must reproduce the
# committed BENCH_E30.json.
"$ROOT/build/bench/bench_sharded_saturation" --out "$ROOT/build/BENCH_E30.json"
cmp "$ROOT/build/BENCH_E30.json" "$ROOT/BENCH_E30.json"

step "write-behind audit smoke (E31: mid-batch crash, exactly-once ledger)"
# Self-checking: the binary exits nonzero when a barrier-confirmed op is
# lost, double-applied or reordered across the mid-batch MDS crash, when
# the deferred and synchronous trees diverge, or when the run is not
# bit-for-bit replayable / schedule-invariant. Deterministic simulation:
# the JSON must reproduce the committed BENCH_E31.json.
"$ROOT/build/bench/bench_writebehind_audit" --out "$ROOT/build/BENCH_E31.json"
cmp "$ROOT/build/BENCH_E31.json" "$ROOT/BENCH_E31.json"

if [ -n "$SANITIZE" ]; then
  step "sanitizer build (build-sanitize/, DMB_SANITIZE=$SANITIZE)"
  cmake -B "$ROOT/build-sanitize" -S "$ROOT" \
        -DDMB_SANITIZE="$SANITIZE" >/dev/null
  cmake --build "$ROOT/build-sanitize" -j "$JOBS"

  step "ctest under sanitizers"
  ctest --test-dir "$ROOT/build-sanitize" --output-on-failure -j "$JOBS"
else
  # Even without --sanitize, the trace, fault and write-behind tests
  # always run under ASan+UBSan: the trace layer threads ids through every
  # internal queue, the retry path keeps shared Exchange state alive
  # across retransmits, orphaned replies and a mid-run server crash, and
  # the write-behind queue hands ops, queue-local handles and stalled
  # enqueues between flushes, closures and completions — exactly the kind
  # of plumbing where lifetime bugs hide.
  step "trace + fault + write-behind tests under ASan+UBSan (build-sanitize/)"
  cmake -B "$ROOT/build-sanitize" -S "$ROOT" \
        -DDMB_SANITIZE="address,undefined" >/dev/null
  cmake --build "$ROOT/build-sanitize" -j "$JOBS" \
        --target trace_test fault_test writebehind_test
  ctest --test-dir "$ROOT/build-sanitize" --output-on-failure -j "$JOBS" \
        -R '^Trace|^Fault|^Network|^WriteBehind'
fi

echo
echo "run_checks.sh: all checks passed"
