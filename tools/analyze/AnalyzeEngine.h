//===- tools/analyze/AnalyzeEngine.h - Symbol-aware rules -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine behind tools/dmeta-analyze: every rule that keeps benchmark
/// runs bit-for-bit deterministic (DESIGN.md, key decision 4), callbacks
/// and errors safe, and the tree layered. One pass reads and tokenizes
/// each file under src/, tests/, bench/ and tools/ once
/// (analyze/Tokenizer.h); the line rules read its sanitized lines, the
/// token rules its token stream, and the interprocedural rules one symbol
/// table and call graph built over all of it.
///
/// Line rules (substring and token matches on sanitized lines, so prose
/// and string fixtures cannot trip them):
///  - wall-clock:   no std::chrono / time() / gettimeofday / clock_gettime
///                  in src/sim, src/dfs, src/cluster, tests/, bench/ or
///                  tools/ — simulated components read Scheduler::now().
///  - randomness:   no std::rand / srand / random_device / mt19937 /
///                  drand48 in the same scopes — all randomness flows
///                  through the seeded support/Random Rng.
///  - raw-assert:   no assert() or <cassert> under src/ or tools/ — use
///                  DMB_ASSERT / DMB_CHECK (support/Assert.h), which stay
///                  armed in release builds and report sim time.
///  - header-guard: headers under src/, bench/ and tools/ use the
///                  canonical DMETABENCH_<DIR>_<FILE>_H guard spelling.
///  - error-table:  the FsError enum, its NumFsErrors count and the
///                  fsErrorName() case table (src/support/Error.{h,cpp})
///                  stay in sync with unique names.
///  - trace-clock:  no direct OpTraceSink calls (beginOp / stamp /
///                  finishOp) in src/sim or src/dfs outside sim/Trace.*
///                  and sim/Scheduler.* — trace points go through
///                  Scheduler::traceBegin()/traceStamp(), so every
///                  timestamp reads the owning scheduler's clock.
///  - event-queue:  no std::priority_queue or heap primitives in src/,
///                  bench/ or tools/ outside sim/EventQueue.* — pending
///                  events pop in one (time, tie key) order.
///  - raii-guard:   in files using a host-thread mutex, no manual
///                  lock()/unlock() — acquisitions go through
///                  std::lock_guard / std::scoped_lock. SimMutex is
///                  exempt: its scheduler-driven protocol cannot be a
///                  scoped guard.
///  - fault-determinism: in files that handle a FaultPolicy in code, every
///                  Rng mention sits on a line that also names a Seed —
///                  fault rolls are a pure function of (FaultPolicy.Seed,
///                  send time); a sequential stream or an ad-hoc seed
///                  breaks replay and schedule-perturbation invariance.
///  - suppression-justification: every allow() marker and clang-tidy
///                  suppression comment in src/, bench/ and tools/ carries
///                  trailing text saying why the exception is sound.
///                  tests/ are exempt: fixtures there quote bare markers.
///  - io:           a file under the scanned directories cannot be read.
///
/// Token rules:
///  - unordered-iteration: a range-for or .begin() loop over a
///    std::unordered_map/unordered_set variable whose body reaches an
///    output, trace, result or scheduling sink. Hash iteration order
///    depends on addresses and insertion history, so anything it emits
///    breaks bit-identical replay. A loop that only accumulates into a
///    container which is std::sort-ed later in the same scope is the
///    sanctioned sort-before-emit spelling and is not flagged.
///  - pointer-identity: pointer values leaking into ordering or output —
///    iteration over a pointer-keyed map/set (address order), "%p" in a
///    format string, streaming a pointer (<< &x, << (void*)x),
///    std::hash over a pointer type, or reinterpret_cast of a pointer to
///    an integer. Scope: src/, bench/ and tools/ (everything whose output
///    is compared across runs).
///  - callback-lifetime: every by-reference capture of a lambda handed to
///    a Scheduler at()/after() call or stored in an InplaceFunction: the
///    default ([&], [&, ...]), a named reference ([&x]) or an address-of
///    init-capture ([p = &x]) dangles if the callback outlives the frame.
///    tests/ and bench/ are exempt (the capturing frame runs the
///    scheduler to completion); src/ and tools/ are not.
///  - swallowed-completion-error: a completion lambda handed to an async
///    submission API (submit/enqueue/rpc/transact/process/processEager)
///    that names its MetaReply parameter but never reads .Err/.ok() nor
///    forwards the reply. With the write-behind queue the completion is
///    the only place a deferred op's failure surfaces, so ignoring it
///    swallows the error; an unnamed `(MetaReply)` parameter is the
///    sanctioned explicit discard. tests/ and bench/ are exempt.
///  - layering / include-cycle / unused-include: see IncludeGraph.h.
///
/// Interprocedural rules (built on analyze/SymbolTable.h and
/// analyze/CallGraph.h — function summaries propagated over resolved call
/// edges to a fixpoint):
///  - determinism-taint: nondeterminism sources (std::random_device,
///    rand()/srand()/drand48(), wall-clock ::now() reads, getpid(),
///    pointer-to-integer casts, pointer hashes) tracked through local
///    assignments and function returns; flagged when a tainted value
///    reaches a determinism sink — a trace/result call, a printf/stream
///    emission, a scheduled time, or a call whose callee transitively
///    reaches such a sink.
///  - error-path-propagation: a function that stores an FsError or
///    MetaReply result in a local it never reads afterwards ("swallowed
///    error") is flagged at the assignment. Discarded results need no
///    rule: FsError, MetaReply and Result<T> are [[nodiscard]] types, so
///    -Werror rejects them, through `auto` wrappers too.
///  - blocking-in-callback: call-graph reachability from callback
///    contexts to primitives that must not run there. Quiescence checks
///    (Scheduler::addQuiescenceCheck) are read-only diagnostics: reaching
///    SimMutex::lock, Resource::request or Scheduler::at/after from one
///    is flagged. Ordinary at()/after() callbacks may use those (that is
///    the engine's continuation-passing design) but must never re-enter
///    the scheduler loop via Scheduler::run/runUntil.
///
/// A finding on a line containing "dmeta-analyze: allow(<rule>) <why>" is
/// suppressed (Diagnostics.h).
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_TOOLS_ANALYZE_ANALYZEENGINE_H
#define DMETABENCH_TOOLS_ANALYZE_ANALYZEENGINE_H

#include "analyze/Diagnostics.h"
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

namespace dmb {
namespace analyze {

/// Analyzes the repo tree under \p Root (src/, tests/, bench/, tools/).
/// \p FilesChecked, when non-null, receives the number of files read.
/// \p Dot, when non-null, receives the call graph the interprocedural
/// rules used, in Graphviz dot format (the --dot flag).
std::vector<Finding> analyzeTree(const std::string &Root,
                                 size_t *FilesChecked = nullptr,
                                 std::ostream *Dot = nullptr);

/// Analyzes in-memory sources given as (RelPath, Content) pairs — the
/// unit-test entry point; identical semantics to analyzeTree.
std::vector<Finding>
analyzeSources(const std::vector<std::pair<std::string, std::string>> &Files);

/// Rule names analyzeTree can report, for --rule validation.
const std::vector<std::string> &analyzeRuleNames();

} // namespace analyze
} // namespace dmb

#endif // DMETABENCH_TOOLS_ANALYZE_ANALYZEENGINE_H
