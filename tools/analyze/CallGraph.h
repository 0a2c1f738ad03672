//===- tools/analyze/CallGraph.h - Whole-program call graph -----*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A call graph over the SymbolTable's definitions: one node per defined
/// function/method, one edge per call site whose callee resolves
/// (SymbolTable::resolveCall — qualified match, then same-class method,
/// then unique definition by name; ambiguous callees are dropped rather
/// than guessed). The graph powers the interprocedural rules:
///
///  - determinism-taint walks edges forward to propagate "returns a
///    nondeterministic value" summaries to callers,
///  - blocking-in-callback asks reachability questions ("can this
///    quiescence-check lambda reach SimMutex::lock?").
///
/// Strongly connected components are condensed with Tarjan's algorithm so
/// fixpoint passes can run in reverse topological order over the DAG.
/// `--dot` renders the graph for CI artifacts; output is deterministic
/// (nodes and edges in sorted order) so diffs are meaningful.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_TOOLS_ANALYZE_CALLGRAPH_H
#define DMETABENCH_TOOLS_ANALYZE_CALLGRAPH_H

#include "analyze/SymbolTable.h"
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace dmb {
namespace analyze {

/// One call site found in a definition's body.
struct CallSite {
  size_t NameTok = 0;    ///< token index of the callee name
  int Line = 0;          ///< line of the call
  std::string Name;      ///< unqualified callee name
  std::string Qualifier; ///< explicit `X::` qualifier ("" if none)
  bool IsMember = false; ///< written as obj.name(...) / obj->name(...)
  int Callee = -1;       ///< resolved symbol index, -1 if unresolved
};

/// Scans [Begin, End) of a token stream for call sites and resolves each
/// against \p ST from the context of \p CallerClass. Shared between the
/// graph builder and rules that scan lambda bodies (which are not symbols).
std::vector<CallSite> collectCalls(const std::vector<Token> &Toks,
                                   size_t Begin, size_t End,
                                   const std::string &CallerClass,
                                   const SymbolTable &ST);

/// One resolved caller→callee edge.
struct CallEdge {
  int Caller = -1; ///< symbol index of the calling definition
  int Callee = -1; ///< symbol index of the called definition
  int Line = 0;    ///< line of the call site in the caller's file
};

class CallGraph {
public:
  /// Builds edges over \p ST's definitions. Both arguments must outlive
  /// the graph.
  void build(const SymbolTable &ST, const std::vector<SourceFile> &Files);

  const std::vector<CallEdge> &edges() const { return Edges; }

  /// Resolved callees of \p SymIdx (sorted, deduplicated).
  const std::vector<int> &successors(int SymIdx) const;

  /// Resolved callers of \p SymIdx (sorted, deduplicated).
  const std::vector<int> &predecessors(int SymIdx) const;

  /// All definitions reachable from \p SymIdx along call edges,
  /// including \p SymIdx itself.
  std::set<int> reachableFrom(int SymIdx) const;

  /// True when \p To is reachable from \p From (reflexive).
  bool reaches(int From, int To) const;

  /// Strongly connected component id of a definition (dense ids in
  /// reverse topological order: callees have lower ids than callers
  /// across components).
  int sccOf(int SymIdx) const;

  /// Members of each SCC, indexed by component id.
  const std::vector<std::vector<int>> &sccMembers() const { return Comps; }

  /// Writes the graph in Graphviz dot format; deterministic output.
  void writeDot(std::ostream &OS) const;

private:
  void computeSccs();

  const SymbolTable *ST = nullptr;
  std::vector<CallEdge> Edges;
  std::map<int, std::vector<int>> Succ;
  std::map<int, std::vector<int>> Pred;
  std::map<int, int> CompOf;
  std::vector<std::vector<int>> Comps;
  std::vector<int> EmptyAdj;
};

} // namespace analyze
} // namespace dmb

#endif // DMETABENCH_TOOLS_ANALYZE_CALLGRAPH_H
