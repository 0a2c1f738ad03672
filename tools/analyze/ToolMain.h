//===- tools/analyze/ToolMain.h - dmeta-analyze CLI -------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line front end of dmeta-analyze, a library function so the
/// tests can drive it in-process:
///
///   --root <dir>            repo root to scan (default: current directory)
///   --rule <name>           only report this rule; repeatable
///   --json                  machine-readable output (one JSON object)
///   --baseline <file>       drop findings recorded in <file>; exit
///                           nonzero only on NEW findings (adopting a
///                           rule on a tree with accepted debt)
///   --write-baseline <file> record current findings to <file>, exit 0
///   --dot <file>            also write the call graph the rules used, as
///                           Graphviz dot (from the same pass)
///   --help                  usage
///
/// Baseline format: one finding per line as "file [rule] message" — the
/// line number is deliberately omitted so unrelated edits above a known
/// finding do not invalidate the baseline. '#' lines and blank lines are
/// comments. Entries match findings as a multiset: two identical known
/// findings need two entries.
///
/// Exit codes:
///   0  clean (no findings after --rule/--baseline filtering)
///   1  findings reported
///   2  usage error (unknown flag, missing value, unknown rule name,
///      unreadable --baseline file, unwritable --dot or --write-baseline
///      file)
///   3  no sources found under --root (an empty scan is a misconfigured
///      invocation, not a clean tree — distinct from 2 so CI can tell a
///      bad flag from a bad checkout)
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_TOOLS_ANALYZE_TOOLMAIN_H
#define DMETABENCH_TOOLS_ANALYZE_TOOLMAIN_H

#include "analyze/Diagnostics.h"
#include <string>

namespace dmb {
namespace analyze {

/// Baseline matching key for a finding: "file [rule] message". The line
/// number is omitted so edits above a known finding do not invalidate
/// the baseline entry.
std::string baselineKey(const Finding &F);

/// Parses argv, runs the analyzer, prints findings; returns the exit code
/// documented above.
int toolMain(int Argc, char **Argv);

} // namespace analyze
} // namespace dmb

#endif // DMETABENCH_TOOLS_ANALYZE_TOOLMAIN_H
