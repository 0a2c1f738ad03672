//===- tools/analyze/ToolMain.cpp -----------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analyze/ToolMain.h"
#include "analyze/AnalyzeEngine.h"
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

using namespace dmb;
using namespace dmb::analyze;

namespace {

void printUsage(std::FILE *To) {
  std::fprintf(To,
               "usage: %s [--root <dir>] [--rule <name>]... [--json]\n"
               "       %*s [--baseline <file>] [--write-baseline <file>]"
               " [--dot <file>]\n\n",
               ToolName, static_cast<int>(sizeof(ToolName) - 1), "");
  std::fprintf(To, "Determinism, lifetime, error-path and layering checks "
                   "for the DMetabench tree\n(rule catalogue: "
                   "tools/analyze/AnalyzeEngine.h).\n\nrules:\n");
  for (const std::string &R : analyzeRuleNames())
    std::fprintf(To, "  %s\n", R.c_str());
  std::fprintf(To,
               "\nexit codes: 0 clean, 1 findings, 2 usage error, 3 no "
               "sources under --root\n");
}

/// Parses a baseline file into a key -> count multiset. Returns false on
/// I/O failure.
bool loadBaseline(const std::string &Path, std::map<std::string, int> &Keys) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    // Trim trailing CR/whitespace; '#' starts a comment line.
    while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' '))
      Line.pop_back();
    if (Line.empty() || Line[0] == '#')
      continue;
    ++Keys[Line];
  }
  return true;
}

} // namespace

std::string dmb::analyze::baselineKey(const Finding &F) {
  return F.File + " [" + F.Rule + "] " + F.Message;
}

int dmb::analyze::toolMain(int Argc, char **Argv) {
  std::string Root = ".";
  std::set<std::string> RuleFilter;
  std::string BaselinePath, WriteBaselinePath, DotPath;
  bool Json = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printUsage(stdout);
      return 0;
    }
    if (Arg == "--json") {
      Json = true;
      continue;
    }
    if (Arg == "--root" || Arg == "--rule" || Arg == "--baseline" ||
        Arg == "--write-baseline" || Arg == "--dot") {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s: %s requires a value\n", ToolName,
                     Arg.c_str());
        printUsage(stderr);
        return 2;
      }
      std::string Val = Argv[++I];
      if (Arg == "--root") {
        Root = Val;
      } else if (Arg == "--baseline") {
        BaselinePath = Val;
      } else if (Arg == "--write-baseline") {
        WriteBaselinePath = Val;
      } else if (Arg == "--dot") {
        DotPath = Val;
      } else {
        const std::vector<std::string> &Rules = analyzeRuleNames();
        if (std::find(Rules.begin(), Rules.end(), Val) == Rules.end()) {
          std::fprintf(stderr, "%s: unknown rule '%s'\n", ToolName,
                       Val.c_str());
          printUsage(stderr);
          return 2;
        }
        RuleFilter.insert(Val);
      }
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\n", ToolName,
                 Arg.c_str());
    printUsage(stderr);
    return 2;
  }

  // The baseline must parse before the (possibly slow) scan runs.
  std::map<std::string, int> Baseline;
  if (!BaselinePath.empty() && !loadBaseline(BaselinePath, Baseline)) {
    std::fprintf(stderr, "%s: cannot read baseline '%s'\n", ToolName,
                 BaselinePath.c_str());
    return 2;
  }

  size_t FilesChecked = 0;
  std::ostringstream Dot;
  std::vector<Finding> Findings =
      analyzeTree(Root, &FilesChecked, DotPath.empty() ? nullptr : &Dot);
  if (FilesChecked == 0) {
    std::fprintf(stderr, "%s: no sources found under '%s'\n", ToolName,
                 Root.c_str());
    return 3;
  }

  if (!DotPath.empty()) {
    std::ofstream Out(DotPath);
    if (!(Out << Dot.str())) {
      std::fprintf(stderr, "%s: cannot write call graph to '%s'\n",
                   ToolName, DotPath.c_str());
      return 2;
    }
    std::fprintf(stderr, "%s: call graph written to %s\n", ToolName,
                 DotPath.c_str());
  }

  if (!RuleFilter.empty()) {
    Findings.erase(std::remove_if(Findings.begin(), Findings.end(),
                                  [&](const Finding &F) {
                                    return !RuleFilter.count(F.Rule);
                                  }),
                   Findings.end());
  }

  if (!WriteBaselinePath.empty()) {
    std::ofstream Out(WriteBaselinePath);
    if (!Out) {
      std::fprintf(stderr, "%s: cannot write baseline '%s'\n",
                   ToolName, WriteBaselinePath.c_str());
      return 2;
    }
    Out << "# " << ToolName
        << " baseline: one accepted finding per line, \"file [rule] "
           "message\".\n";
    Out << "# Line numbers are omitted on purpose; regenerate with:\n";
    Out << "#   " << ToolName << " --write-baseline <this file>\n";
    for (const Finding &F : Findings)
      Out << baselineKey(F) << "\n";
    std::fprintf(stderr, "%s: %zu finding%s recorded to %s\n",
                 ToolName, Findings.size(),
                 Findings.size() == 1 ? "" : "s", WriteBaselinePath.c_str());
    return 0;
  }

  size_t Known = 0;
  if (!Baseline.empty()) {
    Findings.erase(std::remove_if(Findings.begin(), Findings.end(),
                                  [&](const Finding &F) {
                                    auto It = Baseline.find(baselineKey(F));
                                    if (It == Baseline.end() ||
                                        It->second == 0)
                                      return false;
                                    --It->second;
                                    ++Known;
                                    return true;
                                  }),
                   Findings.end());
  }

  if (Json) {
    std::fputs(renderFindingsJson(FilesChecked, Findings).c_str(),
               stdout);
    std::fputc('\n', stdout);
  } else {
    for (const Finding &F : Findings)
      std::fprintf(stdout, "%s\n", renderFinding(F).c_str());
    if (Known > 0)
      std::fprintf(stderr,
                   "%s: %zu file%s checked, %zu new finding%s (%zu known "
                   "from baseline)\n",
                   ToolName, FilesChecked, FilesChecked == 1 ? "" : "s",
                   Findings.size(), Findings.size() == 1 ? "" : "s", Known);
    else
      std::fprintf(stderr,
                   "%s: %zu file%s checked, %zu finding%s\n", ToolName,
                   FilesChecked, FilesChecked == 1 ? "" : "s", Findings.size(),
                   Findings.size() == 1 ? "" : "s");
  }
  return Findings.empty() ? 0 : 1;
}
