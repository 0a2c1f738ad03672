//===- tools/dmeta-analyze.cpp - The tree's static analyzer ---------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Driver for the one analysis tool: determinism, lifetime, error-path and
/// layering rules over src/, tests/, bench/ and tools/, from line matches
/// through the whole-program call graph, in one pass over the tree.
/// `--dot <file>` also exports that call graph. Registered as a ctest, so
/// `ctest` and the `check` target fail on findings like on a failing unit
/// test. See tools/analyze/AnalyzeEngine.h for the rule catalogue,
/// tools/analyze/ToolMain.h for flags and exit codes, and DESIGN.md
/// ("Static analysis") for the rationale.
///
//===----------------------------------------------------------------------===//

#include "analyze/ToolMain.h"

int main(int Argc, char **Argv) { return dmb::analyze::toolMain(Argc, Argv); }
