//===- tools/analyze/AnalyzeEngine.h - Symbol-aware rules -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine behind tools/dmeta-analyze: symbol-aware determinism and
/// lifetime rules that the line-level lint (tools/lint) cannot express.
/// It works on the shared token stream (analyze/Tokenizer.h) plus the
/// project include graph (analyze/IncludeGraph.h).
///
/// Rules:
///  - unordered-iteration: a range-for or .begin() loop over a
///    std::unordered_map/unordered_set variable whose body reaches an
///    output, trace, result or scheduling sink. Hash iteration order
///    depends on addresses and insertion history, so anything it emits
///    breaks bit-identical replay (DESIGN.md key decision 4). A loop that
///    only accumulates into a container which is std::sort-ed later in
///    the same scope is the sanctioned sort-before-emit spelling and is
///    not flagged.
///  - pointer-identity: pointer values leaking into ordering or output —
///    iteration over a pointer-keyed map/set (address order), "%p" in a
///    format string, streaming a pointer (<< &x, << (void*)x),
///    std::hash over a pointer type, or reinterpret_cast of a pointer to
///    an integer. Scope: src/, bench/ and tools/ (everything whose output
///    is compared across runs).
///  - callback-lifetime: per-capture escape analysis on lambdas handed to
///    Scheduler::at()/after() or stored in InplaceFunction members: a
///    named by-reference capture ([&x]) or an address-of init-capture
///    ([p = &x]) dangles if the callback outlives the frame. tests/ and
///    bench/ are exempt (the capturing frame runs the scheduler to
///    completion); src/ and tools/ are not.
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
/// suppressed; the justification text is enforced by dmeta-lint's
/// suppression-justification rule.
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
/// \p FilesChecked, when non-null, receives the number of files scanned.
std::vector<Finding> analyzeTree(const std::string &Root,
                                 size_t *FilesChecked = nullptr);

/// Analyzes in-memory sources given as (RelPath, Content) pairs — the
/// unit-test entry point; identical semantics to analyzeTree.
std::vector<Finding>
analyzeSources(const std::vector<std::pair<std::string, std::string>> &Files);

/// Rule names understood by analyzeTree, for --rule validation.
const std::vector<std::string> &analyzeRuleNames();

/// Builds the whole-tree symbol table and call graph under \p Root and
/// writes it in Graphviz dot format (the --dot flag). Returns false when
/// no sources are found.
bool writeCallGraphDot(const std::string &Root, std::ostream &OS);

} // namespace analyze
} // namespace dmb

#endif // DMETABENCH_TOOLS_ANALYZE_ANALYZEENGINE_H
