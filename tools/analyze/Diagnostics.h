//===- tools/analyze/Diagnostics.h - Shared finding machinery ---*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces every rule of dmeta-analyze shares besides the tokenizer:
/// the Finding record, the suppression escape hatch, the text and JSON
/// renderers (one GitHub problem matcher reads the text form), and the
/// deterministic source-tree walk.
///
/// Suppressions: a finding on a line containing
///
///   dmeta-analyze: allow(<rule>) <justification>
///
/// (e.g. "dmeta-analyze: allow(unused-include) kept for operator<<") is
/// dropped. The justification text is mandatory — the
/// suppression-justification rule flags bare allow() comments, so every
/// suppression in the tree documents why it is sound.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_TOOLS_ANALYZE_DIAGNOSTICS_H
#define DMETABENCH_TOOLS_ANALYZE_DIAGNOSTICS_H

#include <cstddef>
#include <string>
#include <vector>

namespace dmb {
namespace analyze {

/// The tool's name: its binary, the "tool" field of its JSON and the
/// prefix of its suppression marker.
inline constexpr char ToolName[] = "dmeta-analyze";

/// One rule violation at a specific source line (Line is 1-based; 0 for
/// whole-file findings such as a missing header guard).
struct Finding {
  std::string File; ///< repo-relative path, forward slashes
  int Line = 0;
  std::string Rule;
  std::string Message;
};

/// "file:line: [rule] message" (":line" omitted when Line == 0).
std::string renderFinding(const Finding &F);

/// The whole result set as a JSON object:
///   {"tool": "dmeta-analyze", "filesChecked": N, "findings": [{...}, ...]}
std::string renderFindingsJson(size_t FilesChecked,
                               const std::vector<Finding> &Findings);

/// True when \p RawLine carries "dmeta-analyze: allow(<Rule>)" for exactly
/// this rule. Matches the raw (unsanitized) line: suppressions live in
/// comments.
bool allowedOnLine(const std::string &RawLine, const std::string &Rule);

/// Reads \p Path into \p Content; false on I/O failure.
bool readFile(const std::string &Path, std::string &Content);

/// Collects the .h/.cpp/.cc files under Root/<Top> for each entry of
/// \p TopDirs, as sorted repo-relative paths (deterministic walk order).
std::vector<std::string>
collectSourceFiles(const std::string &Root,
                   const std::vector<std::string> &TopDirs);

} // namespace analyze
} // namespace dmb

#endif // DMETABENCH_TOOLS_ANALYZE_DIAGNOSTICS_H
