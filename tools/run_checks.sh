#!/usr/bin/env bash
#===------------------------------------------------------------------------===#
#
# Pre-merge gate for the DMetabench tree. Runs, in order:
#
#   1. a plain RelWithDebInfo build of everything,
#   2. dmeta-analyze over the source tree, in one pass that also exports
#      its call graph to build/callgraph.dot (uploaded as a CI artifact);
#      it must finish inside a 20 s wall-time budget, so an
#      interprocedural fixpoint regression fails the gate instead of
#      silently slowing every presubmit,
#   3. the full ctest suite,
#   4. a verify-schedules smoke pass: 3 permuted schedules per scenario on
#      six tier-1 models (nfs, lustre, afs, gx, cxfs, localfs),
#   5. an engine-throughput bench smoke at reduced sizes (writes
#      build/BENCH_engine.json; scale curve capped at 4096 clients),
#   6. the golden corpus (tools/golden.py): the stdout of every
#      deterministic experiment and the result files of every CLI model
#      must match the digests in bench/golden/; the self-checking
#      experiments fail it by their exit status — bench_fault_degradation
#      (E29) when the op ledger, the post-run fsck or the determinism
#      check fails, the E30 (sharded) and E31 (write-behind
#      crash-consistency) benches on their own checks — and the JSON E30
#      and E31 write must reproduce the committed BENCH_E30.json /
#      BENCH_E31.json,
#   7. the trace, fault, write-behind, fs, dfs, client-cache, sharded,
#      hybrid (re-export, volume move), flat-table, CPU-queue (Resource,
#      SharedProcessor), journal, duplicate-request-cache, core, plugin
#      and analysis tests rebuilt under ASan+UBSan (always — the trace
#      layer threads ids
#      through every queue, the retry path keeps exchange records alive
#      until each attempt's retransmit timer fires, even after the reply
#      came back, and recycles them afterwards, the write-behind queue
#      keeps ops, handles and stalled enqueues alive across flushes, the
#      clients' shared front end hands requests, completions and
#      client-local handles between the queue, the handle table and the
#      model, the base-owned attribute cache and its handle record reuse
#      pooled and erased records, a path walk returns its leaf as a view into the request
#      path or a symlink target, the flat table moves entries on erase
#      and growth under the pointers its users hold, the CPU queues
#      compact and wrap their reused storage under running completions,
#      the journal's commit hook may append records and intern volumes
#      while the commit frontier advances, the duplicate-request
#      cache recycles ring slots under its index, a plugin's op streams
#      borrow their instance's state and the instances borrow the
#      runner's work directories, and the sparse time logs move into
#      the results; all must stay memory-clean),
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

step "dmeta-analyze (+ call-graph export, 20 s budget)"
ANALYZE_T0="$(date +%s)"
"$ROOT/build/tools/dmeta-analyze" --root "$ROOT" \
    --dot "$ROOT/build/callgraph.dot"
ANALYZE_SECS="$(( $(date +%s) - ANALYZE_T0 ))"
# Every rule, the whole-tree symbol table, call graph and taint fixpoint
# run in well under a second today; 20 s of headroom flags a complexity
# regression without flaking on slow CI runners.
if [ "$ANALYZE_SECS" -gt 20 ]; then
  echo "run_checks.sh: dmeta-analyze took ${ANALYZE_SECS}s (budget 20s)" >&2
  exit 1
fi

step "ctest"
ctest --test-dir "$ROOT/build" --output-on-failure -j "$JOBS"

step "verify-schedules smoke (3 permuted schedules, six tier-1 models)"
"$ROOT/build/tools/dmetabench" verify-schedules --schedules 3

step "engine throughput smoke (reduced sizes)"
# Reduced sizes: this only proves the bench runs and writes its JSON; the
# committed BENCH_engine.json numbers come from a full-size run. The
# scale curve is capped at 4096 clients for the smoke.
"$ROOT/build/bench/bench_engine_throughput" --events 500000 \
    --problemsize 2000 --timelimit 2 --label smoke --curve-max 4096 \
    --out "$ROOT/build/BENCH_engine.json"

step "golden corpus (experiment stdout, CLI model result files)"
# Every experiment but the host-timed bench_engine_throughput, and every
# CLI model's --outdir files, digested and compared with bench/golden/; a
# mismatch names the entry and its first differing line or file. It also
# runs the self-checking E29-E31 and compares E30's and E31's JSON with
# the committed BENCH_E30.json / BENCH_E31.json.
python3 "$ROOT/tools/golden.py" --build "$ROOT/build" -j "$JOBS"

if [ -n "$SANITIZE" ]; then
  step "sanitizer build (build-sanitize/, DMB_SANITIZE=$SANITIZE)"
  cmake -B "$ROOT/build-sanitize" -S "$ROOT" \
        -DDMB_SANITIZE="$SANITIZE" >/dev/null
  cmake --build "$ROOT/build-sanitize" -j "$JOBS"

  step "ctest under sanitizers"
  ctest --test-dir "$ROOT/build-sanitize" --output-on-failure -j "$JOBS"
else
  # Even without --sanitize, the trace, fault, write-behind, fs, dfs,
  # sharded, hybrid, flat-table, CPU-queue, journal and duplicate-request-
  # cache tests always run under ASan+UBSan: the trace layer threads ids
  # through every internal queue, the retry path keeps pooled exchange
  # records alive across retransmits, orphaned replies and a mid-run
  # server crash and recycles them afterwards, the write-behind queue
  # hands ops, queue-local handles and stalled enqueues between flushes,
  # closures and completions, the clients' shared front end
  # (RpcClientBase::submit, ClientHandles) routes every model's requests
  # and client-local handles, the sharded client among them, the
  # base-owned attribute cache answers stats through pooled records and
  # finds entries by the path fingerprints of its handle record
  # (HandlePaths; the ClientCache suite and the sweep), the volume
  # model's callback promises name clients that may be destroyed before
  # the cluster breaks them (the Afs suite), the path walk hands out its
  # leaf as a view into the request path or a symlink target, the flat
  # table behind directories, attribute caches, write-behind indexes and
  # the duplicate-request cache moves entries on every growth and erase,
  # the CPU queues (Resource's waiting ring,
  # SharedProcessor's compacted task vector) reuse their storage under
  # running completions, the journal's commit hook may append records and
  # intern a volume while the commit frontier advances, the
  # duplicate-request cache overwrites and compacts ring slots under its
  # index, every plugin's op streams borrow their instance's state and
  # the instances borrow the runner's interned work directories (the
  # Core, Registry, plugin-sweep, Postmark, ReaddirPlus and ResultsIO
  # suites), and the sparse time logs move from the workers into the
  # results that the Analysis suites sweep — exactly the kind of plumbing
  # where lifetime bugs hide.
  step "trace, fault, write-behind, fs, dfs, client-cache, sharded, hybrid, flat-table, CPU-queue, journal, DRC, core, plugin and analysis tests under ASan+UBSan (build-sanitize/)"
  cmake -B "$ROOT/build-sanitize" -S "$ROOT" \
        -DDMB_SANITIZE="address,undefined" >/dev/null
  cmake --build "$ROOT/build-sanitize" -j "$JOBS" \
        --target trace_test fault_test writebehind_test fs_test dfs_test \
        dfs_semantics_test sharded_test hybrid_test support_test sim_test \
        consistency_test core_test analysis_test plugin_sweep_test \
        extension_test
  # The test suites of the first eight binaries, the table's and the
  # interner's suites in support_test, the CPU queues' suites in sim_test,
  # the journal's in consistency_test, and the core, analysis, plugin
  # sweep and extension (Postmark, ReaddirPlus, ResultsIO) suites.
  SUITES='^Trace|^Fault|^Network|^WriteBehind'
  SUITES+='|^Fs|^AllKinds/DirIndexParamTest'
  SUITES+='|^Afs|^AttrCacheUnit|^Cxfs|^Gx|^LocalModel|^Lustre|^Mounts|^Nfs'
  SUITES+='|^Server|^AllModels/DfsSemanticsTest|^ClientCache'
  SUITES+='|^FlatTable|^Interner'
  SUITES+='|^Sharded|^Reexport|^VolumeMove'
  SUITES+='|^SharedProcessor|^Resource|^Journal|^DuplicateRequestCache'
  SUITES+='|^Core|^Registry|^Analysis'
  SUITES+='|^FixedSizePlugins/PluginSweepTest|^TimedPlugins/TimedSweepTest'
  SUITES+='|^Postmark|^ReaddirPlus|^ResultsIOTest'
  ctest --test-dir "$ROOT/build-sanitize" --output-on-failure -j "$JOBS" \
        -R "$SUITES"
fi

echo
echo "run_checks.sh: all checks passed"
