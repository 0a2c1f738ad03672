//===- tools/dmeta-analyze.cpp - Symbol-aware static analyzer -------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Driver for the symbol-aware analyzer: determinism (unordered-iteration,
/// pointer-identity), lifetime (callback-lifetime), interprocedural
/// dataflow (determinism-taint, error-path-propagation,
/// blocking-in-callback over the whole-program symbol table and call
/// graph) and architecture (layering, include-cycle, unused-include) rules
/// over src/, tests/, bench/ and tools/. `--dot <file>` exports the call
/// graph. See
/// tools/analyze/AnalyzeEngine.h for the rule catalogue and DESIGN.md
/// ("Static analysis") for the rationale.
///
//===----------------------------------------------------------------------===//

#include "analyze/AnalyzeEngine.h"
#include "analyze/ToolMain.h"

int main(int Argc, char **Argv) {
  dmb::analyze::ToolConfig Cfg;
  Cfg.Tool = "dmeta-analyze";
  Cfg.Description =
      "Symbol-aware determinism, lifetime and layering checks for the "
      "DMetabench tree.";
  Cfg.Rules = dmb::analyze::analyzeRuleNames();
  Cfg.Run = [](const std::string &Root, size_t &FilesChecked) {
    return dmb::analyze::analyzeTree(Root, &FilesChecked);
  };
  Cfg.WriteDot = [](const std::string &Root, std::ostream &OS) {
    return dmb::analyze::writeCallGraphDot(Root, OS);
  };
  return dmb::analyze::toolMain(Argc, Argv, Cfg);
}
