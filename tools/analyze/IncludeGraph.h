//===- tools/analyze/IncludeGraph.h - Layering & include hygiene -*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds the project-internal include graph and checks the architecture
/// invariants that keep the tree a DAG with strict layering:
///
///   band 0: src/support                     (no dependencies)
///   band 1: src/sim                         (the simulation engine)
///   band 2: src/fs src/dfs src/cluster src/workload
///   band 3: src/core src/analysis src/chart (orchestration + post-run)
///   band 4: src/dmetabench                  (umbrella header)
///   band 5: bench tests tools examples      (consumers)
///
/// Rules:
///  - layering:      an #include whose target sits in a HIGHER band than
///                   the including file (same-band cross-directory
///                   includes are legal: dfs uses fs, core uses analysis).
///  - include-cycle: any cycle in the file-level include graph, reported
///                   once per cycle with the full path.
///  - unused-include: IWYU-lite — a project #include none of whose
///                   declared symbols (macros, types, functions, enum
///                   members, namespace-scope constants) is referenced by
///                   the including file. Pure re-export headers (many
///                   includes, no own declarations, e.g. DMetabench.h)
///                   are exempt as includers.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_TOOLS_ANALYZE_INCLUDEGRAPH_H
#define DMETABENCH_TOOLS_ANALYZE_INCLUDEGRAPH_H

#include "analyze/Diagnostics.h"
#include "analyze/Tokenizer.h"
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dmb {
namespace analyze {

/// Layer band of \p RelPath per the table above; -1 when the path is not
/// part of the layered tree (unknown top directory).
int layerBand(const std::string &RelPath);

/// One file's parsed view, shared between the graph and the rule engine.
struct SourceFile {
  std::string RelPath;
  TokenizedSource Toks;
  std::vector<std::string> RawLines;
};

/// The project-internal include graph over a set of parsed files.
class IncludeGraph {
public:
  /// Builds the graph. \p Files must outlive the graph.
  explicit IncludeGraph(const std::vector<SourceFile> &Files);

  /// Runs the layering, include-cycle and unused-include rules, appending
  /// findings. Suppressions use "dmeta-analyze: allow(<rule>) <why>".
  void check(std::vector<Finding> &Out) const;

  /// Resolved include edges of \p RelPath (repo-relative target paths).
  const std::vector<std::string> &edges(const std::string &RelPath) const;

private:
  struct Edge {
    std::string Target; ///< resolved repo-relative path
    int Line = 0;       ///< line of the #include directive
  };

  void checkLayering(const SourceFile &F, std::vector<Finding> &Out) const;
  void checkCycles(std::vector<Finding> &Out) const;
  void checkUnusedIncludes(const SourceFile &F,
                           std::vector<Finding> &Out) const;

  /// Identifiers declared by the file (types, functions, macros, enum
  /// members, constants) — what an #include of it can contribute.
  static std::set<std::string> declaredSymbols(const SourceFile &F);

  const std::vector<SourceFile> &Files;
  std::map<std::string, const SourceFile *> ByPath;
  std::map<std::string, std::vector<Edge>> Edges;
  std::map<std::string, std::vector<std::string>> EdgeTargets;
};

} // namespace analyze
} // namespace dmb

#endif // DMETABENCH_TOOLS_ANALYZE_INCLUDEGRAPH_H
