//===- tools/analyze/Diagnostics.cpp --------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analyze/Diagnostics.h"
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace dmb;
using namespace dmb::analyze;

std::string dmb::analyze::renderFinding(const Finding &F) {
  // Built with += rather than an operator+ chain: GCC 12's -Wrestrict
  // misfires on the chained temporary and the build runs -Werror.
  std::string Out = F.File;
  if (F.Line > 0) {
    Out += ':';
    Out += std::to_string(F.Line);
  }
  Out += ": [";
  Out += F.Rule;
  Out += "] ";
  Out += F.Message;
  return Out;
}

namespace {

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size() + 8);
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

} // namespace

std::string
dmb::analyze::renderFindingsJson(size_t FilesChecked,
                                 const std::vector<Finding> &Findings) {
  std::ostringstream Os;
  Os << "{\"tool\": \"" << ToolName << "\", \"filesChecked\": "
     << FilesChecked << ", \"findings\": [";
  for (size_t I = 0; I < Findings.size(); ++I) {
    const Finding &F = Findings[I];
    if (I)
      Os << ", ";
    Os << "{\"file\": \"" << jsonEscape(F.File) << "\", \"line\": " << F.Line
       << ", \"rule\": \"" << jsonEscape(F.Rule) << "\", \"message\": \""
       << jsonEscape(F.Message) << "\"}";
  }
  Os << "]}";
  return Os.str();
}

bool dmb::analyze::allowedOnLine(const std::string &RawLine,
                                 const std::string &Rule) {
  return RawLine.find(std::string(ToolName) + ": allow(" + Rule + ")") !=
         std::string::npos;
}

bool dmb::analyze::readFile(const std::string &Path, std::string &Content) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Content = Ss.str();
  return true;
}

std::vector<std::string>
dmb::analyze::collectSourceFiles(const std::string &Root,
                                 const std::vector<std::string> &TopDirs) {
  namespace fs = std::filesystem;
  std::vector<std::string> RelPaths;
  for (const std::string &Top : TopDirs) {
    fs::path Dir = fs::path(Root) / Top;
    std::error_code Ec;
    if (!fs::is_directory(Dir, Ec))
      continue;
    for (auto It = fs::recursive_directory_iterator(Dir, Ec);
         !Ec && It != fs::recursive_directory_iterator(); ++It) {
      if (!It->is_regular_file())
        continue;
      std::string Ext = It->path().extension().string();
      if (Ext != ".h" && Ext != ".cpp" && Ext != ".cc")
        continue;
      RelPaths.push_back(
          fs::relative(It->path(), fs::path(Root), Ec).generic_string());
    }
  }
  std::sort(RelPaths.begin(), RelPaths.end());
  return RelPaths;
}
