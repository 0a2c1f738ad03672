//===- tools/lint/LintEngine.cpp ------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "lint/LintEngine.h"
#include "analyze/Tokenizer.h"
#include <algorithm>
#include <cstdlib>
#include <iterator>

using namespace dmb;
using namespace dmb::lint;
using dmb::analyze::isIdentChar;
using dmb::analyze::sanitizeSource;
using dmb::analyze::splitLines;

namespace {

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

bool endsWith(const std::string &S, const char *Suffix) {
  std::string Suf(Suffix);
  return S.size() >= Suf.size() &&
         S.compare(S.size() - Suf.size(), Suf.size(), Suf) == 0;
}

/// Position of the first occurrence of \p Token in \p Line with no
/// identifier character immediately before it (so "time(" does not match
/// "runtime("); npos when absent.
size_t bareTokenPos(const std::string &Line, const std::string &Token) {
  size_t Pos = 0;
  while ((Pos = Line.find(Token, Pos)) != std::string::npos) {
    if (Pos == 0 || !isIdentChar(Line[Pos - 1]))
      return Pos;
    Pos += 1;
  }
  return std::string::npos;
}

bool hasBareToken(const std::string &Line, const std::string &Token) {
  return bareTokenPos(Line, Token) != std::string::npos;
}

/// Whether \p Line contains \p Word with non-identifier characters (or the
/// line boundary) on both sides — "Rng" must not match "RngState".
bool hasWholeWord(const std::string &Line, const std::string &Word) {
  size_t Pos = 0;
  while ((Pos = Line.find(Word, Pos)) != std::string::npos) {
    size_t After = Pos + Word.size();
    if ((Pos == 0 || !isIdentChar(Line[Pos - 1])) &&
        (After >= Line.size() || !isIdentChar(Line[After])))
      return true;
    ++Pos;
  }
  return false;
}

struct Pattern {
  const char *Text;
  bool Bare; ///< Require a non-identifier character before the match.
};

const Pattern WallClockPatterns[] = {
    {"std::chrono", false},   {"gettimeofday", false},
    {"clock_gettime", false}, {"time(", true},
};

const Pattern RandomnessPatterns[] = {
    {"std::rand", false}, {"random_device", false}, {"mt19937", false},
    {"drand48", false},   {"srand(", true},         {"rand(", true},
};

const Pattern TraceSinkPatterns[] = {
    {"beginOp(", true},
    {"finishOp(", true},
    {"stamp(", true},
};

const Pattern EventQueuePatterns[] = {
    {"std::priority_queue", false},
    {"push_heap(", true},
    {"pop_heap(", true},
    {"make_heap(", true},
};

bool matchesAny(const std::string &Line, const Pattern *Patterns, size_t N,
                const char *&Hit) {
  for (size_t I = 0; I < N; ++I) {
    const Pattern &P = Patterns[I];
    bool Found = P.Bare ? hasBareToken(Line, P.Text)
                        : Line.find(P.Text) != std::string::npos;
    if (Found) {
      Hit = P.Text;
      return true;
    }
  }
  return false;
}

bool allowed(const std::string &RawLine, const char *Rule) {
  return analyze::allowedOnLine(RawLine, "dmeta-lint", Rule);
}

/// Directories whose code must not read host time or stdlib randomness:
/// the simulation substrate plus everything whose output is compared
/// against recorded experiment results. tools/ counts too — the CLI and
/// the linter drive simulations whose results must replay bit-for-bit.
bool inDeterministicScope(const std::string &RelPath) {
  return startsWith(RelPath, "src/sim/") || startsWith(RelPath, "src/dfs/") ||
         startsWith(RelPath, "src/cluster/") ||
         startsWith(RelPath, "tests/") || startsWith(RelPath, "bench/") ||
         startsWith(RelPath, "tools/");
}

/// Directories where scheduled-event callbacks outlive the frame that
/// created them, so a default by-reference lambda capture is a
/// use-after-return waiting to happen. tests/ and bench/ are exempt:
/// there the enclosing frame runs the scheduler to completion itself.
bool inEventCaptureScope(const std::string &RelPath) {
  return startsWith(RelPath, "src/") || startsWith(RelPath, "tools/");
}

/// Simulation directories whose trace recording must go through the
/// owning Scheduler so every timestamp reads the simulated clock.
bool inTraceClockScope(const std::string &RelPath) {
  return startsWith(RelPath, "src/sim/") || startsWith(RelPath, "src/dfs/");
}

/// Directories where pending-event ordering must go through
/// sim/EventQueue. A hand-rolled priority queue next to the scheduler
/// silently diverges from its (time, tie key) order; only the EventQueue
/// files may use heap primitives.
/// tests/ are exempt (lint fixtures quote the patterns on purpose).
bool inEventQueueScope(const std::string &RelPath) {
  return (startsWith(RelPath, "src/") || startsWith(RelPath, "bench/") ||
          startsWith(RelPath, "tools/")) &&
         !startsWith(RelPath, "src/sim/EventQueue.");
}

/// Files allowed to touch an OpTraceSink directly: the sink itself and
/// the Scheduler, which owns the clock the stamps must come from.
bool traceClockExempt(const std::string &RelPath) {
  return startsWith(RelPath, "src/sim/Trace.") ||
         startsWith(RelPath, "src/sim/Scheduler.");
}

/// True when [Pos, end) contains a letter — the minimum for a suppression
/// comment to count as justified.
bool hasJustificationText(const std::string &Line, size_t Pos) {
  for (size_t I = Pos; I < Line.size(); ++I) {
    char C = Line[I];
    if ((C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z'))
      return true;
  }
  return false;
}

/// The suppression-justification rule: every allow() and NOLINT in scope
/// must carry trailing prose. Works on RAW lines — suppressions live in
/// comments. The patterns are assembled at runtime so this very function
/// does not flag itself.
void checkSuppressionJustified(const std::string &RelPath,
                               const std::string &Raw, int LineNo,
                               std::vector<Violation> &Out) {
  for (const char *Tool : {"dmeta-lint", "dmeta-analyze"}) {
    std::string Pattern = std::string(Tool) + ": allow(";
    size_t Pos = Raw.find(Pattern);
    if (Pos == std::string::npos)
      continue;
    size_t Close = Raw.find(')', Pos + Pattern.size());
    if (Close != std::string::npos &&
        hasJustificationText(Raw, Close + 1))
      continue;
    Out.push_back({RelPath, LineNo, "suppression-justification",
                   std::string(Tool) +
                       " allow() without a trailing justification; say why "
                       "the exception is sound so the reviewer can check "
                       "the reasoning, not just the suppression"});
  }
  // clang-tidy spelling: "// NOLINT(rule): why". Only a NOLINT that opens
  // a comment counts — prose mentions elsewhere in a sentence do not.
  size_t Slashes = 0;
  while ((Slashes = Raw.find("//", Slashes)) != std::string::npos) {
    size_t P = Slashes + 2;
    while (P < Raw.size() && (Raw[P] == ' ' || Raw[P] == '/'))
      ++P;
    Slashes = P;
    if (Raw.compare(P, 6, "NOLI"
                          "NT") != 0)
      continue;
    P += 6;
    if (Raw.compare(P, 8, "NEXTLINE") == 0)
      P += 8;
    if (P < Raw.size() && Raw[P] == '(') {
      size_t Close = Raw.find(')', P);
      P = Close == std::string::npos ? Raw.size() : Close + 1;
    }
    if (!hasJustificationText(Raw, P))
      Out.push_back({RelPath, LineNo, "suppression-justification",
                     "NOLINT without a trailing justification; say why the "
                     "clang-tidy finding is a false positive here"});
  }
}

/// Expected include-guard macro: DMETABENCH_<DIR>_<FILE>_H. The "src"
/// prefix is dropped, and an umbrella directory matching the project name
/// (src/dmetabench/DMetabench.h) is not repeated.
std::string expectedGuard(const std::string &RelPath) {
  std::string Stem = RelPath.substr(0, RelPath.size() - 2); // drop ".h"
  std::vector<std::string> Parts;
  std::string Cur;
  for (char C : Stem) {
    if (C == '/') {
      Parts.push_back(Cur);
      Cur.clear();
    } else {
      char U = (C >= 'a' && C <= 'z') ? static_cast<char>(C - 'a' + 'A') : C;
      Cur += isIdentChar(U) ? U : '_';
    }
  }
  Parts.push_back(Cur);
  size_t First = 0;
  if (!Parts.empty() && Parts[First] == "SRC")
    ++First;
  if (First < Parts.size() && Parts[First] == "DMETABENCH")
    ++First;
  std::string Guard = "DMETABENCH";
  for (size_t I = First; I < Parts.size(); ++I)
    Guard += "_" + Parts[I];
  return Guard + "_H";
}

void checkHeaderGuard(const std::string &RelPath,
                      const std::vector<std::string> &Lines,
                      std::vector<Violation> &Out) {
  std::string Expected = expectedGuard(RelPath);
  for (size_t I = 0; I < Lines.size(); ++I) {
    const std::string &L = Lines[I];
    if (!startsWith(L, "#ifndef "))
      continue;
    std::string Guard = L.substr(8);
    while (!Guard.empty() && (Guard.back() == ' ' || Guard.back() == '\r'))
      Guard.pop_back();
    if (Guard != Expected)
      Out.push_back({RelPath, static_cast<int>(I + 1), "header-guard",
                     "guard '" + Guard + "' should be '" + Expected + "'"});
    else if (I + 1 >= Lines.size() ||
             Lines[I + 1] != "#define " + Expected)
      Out.push_back({RelPath, static_cast<int>(I + 2), "header-guard",
                     "'#define " + Expected + "' must follow the #ifndef"});
    return;
  }
  Out.push_back(
      {RelPath, 0, "header-guard", "missing '#ifndef " + Expected + "'"});
}

std::vector<std::string> parseEnumMembers(const std::string &ErrorH) {
  std::vector<std::string> Members;
  bool InEnum = false;
  for (const std::string &L : sanitizeSource(ErrorH)) {
    if (!InEnum) {
      // `enum class [[nodiscard]] FsError {`: attributes may sit between.
      size_t Enum = L.find("enum class");
      if (Enum != std::string::npos &&
          L.find("FsError", Enum) != std::string::npos)
        InEnum = true;
      continue;
    }
    if (L.find("};") != std::string::npos)
      break;
    size_t I = 0;
    while (I < L.size() && (L[I] == ' ' || L[I] == '\t'))
      ++I;
    size_t Start = I;
    while (I < L.size() && isIdentChar(L[I]))
      ++I;
    if (I > Start)
      Members.push_back(L.substr(Start, I - Start));
  }
  return Members;
}

} // namespace

void dmb::lint::lintContent(const std::string &RelPath,
                            const std::string &Content,
                            std::vector<Violation> &Out) {
  std::vector<std::string> Lines = splitLines(Content);
  std::vector<std::string> Sanitized = sanitizeSource(Content);

  if ((startsWith(RelPath, "src/") || startsWith(RelPath, "bench/") ||
       startsWith(RelPath, "tools/")) &&
      endsWith(RelPath, ".h"))
    checkHeaderGuard(RelPath, Lines, Out);

  bool Deterministic = inDeterministicScope(RelPath);
  bool AssertScope =
      startsWith(RelPath, "src/") || startsWith(RelPath, "tools/");
  // tests/ are exempt from the justification rule: lint fixtures there
  // quote bare suppressions on purpose, and raw-line matching would see
  // them inside the fixture strings.
  bool JustificationScope = startsWith(RelPath, "src/") ||
                            startsWith(RelPath, "bench/") ||
                            startsWith(RelPath, "tools/");
  bool EventCaptureScope = inEventCaptureScope(RelPath);
  bool TraceScope = inTraceClockScope(RelPath) && !traceClockExempt(RelPath);
  bool EventQueueScope = inEventQueueScope(RelPath);

  // The fault-determinism rule fires only in files that handle a
  // FaultPolicy in code (a mention in a comment or string does not count):
  // there, every Rng must be derived from the policy Seed at the point of
  // use. A sequential stream ties fault rolls to event-execution order and
  // an ad-hoc seed unties them from the scenario, either of which breaks
  // replay and schedule-perturbation invariance (verify-schedules).
  bool FaultScope = false;
  for (const std::string &L : Sanitized)
    if (hasWholeWord(L, "FaultPolicy")) {
      FaultScope = true;
      break;
    }

  // The raii-guard rule only fires in files that use a host-thread mutex
  // at all; SimMutex and friends have their own lock()/unlock() protocol
  // driven by the scheduler, which RAII cannot express.
  bool UsesHostMutex = false;
  for (const std::string &L : Sanitized)
    if (L.find("std::mutex") != std::string::npos ||
        L.find("std::recursive_mutex") != std::string::npos ||
        L.find("std::timed_mutex") != std::string::npos ||
        L.find("std::shared_mutex") != std::string::npos ||
        L.find("pthread_mutex") != std::string::npos) {
      UsesHostMutex = true;
      break;
    }

  for (size_t I = 0; I < Lines.size(); ++I) {
    const std::string &Raw = Lines[I];
    const std::string &L = Sanitized[I];
    int LineNo = static_cast<int>(I + 1);
    const char *Hit = nullptr;

    if (JustificationScope && !allowed(Raw, "suppression-justification"))
      checkSuppressionJustified(RelPath, Raw, LineNo, Out);

    if (Deterministic) {
      if (!allowed(Raw, "wall-clock") &&
          matchesAny(L, WallClockPatterns, std::size(WallClockPatterns),
                     Hit))
        Out.push_back({RelPath, LineNo, "wall-clock",
                       std::string("host clock call '") + Hit +
                           "' in deterministic code; use Scheduler::now() "
                           "/ SimTime"});
      if (!allowed(Raw, "randomness") &&
          matchesAny(L, RandomnessPatterns, std::size(RandomnessPatterns),
                     Hit))
        Out.push_back({RelPath, LineNo, "randomness",
                       std::string("unseeded randomness '") + Hit +
                           "' in deterministic code; use support/Random"});
    }

    if (EventQueueScope && !allowed(Raw, "event-queue") &&
        matchesAny(L, EventQueuePatterns, std::size(EventQueuePatterns),
                   Hit))
      Out.push_back({RelPath, LineNo, "event-queue",
                     std::string("heap scheduling primitive '") + Hit +
                         "' outside sim/EventQueue; route pending-event "
                         "ordering through HeapEventQueue so every event "
                         "pops in one (time, tie key) order"});

    if (TraceScope && !allowed(Raw, "trace-clock") &&
        matchesAny(L, TraceSinkPatterns, std::size(TraceSinkPatterns), Hit))
      Out.push_back({RelPath, LineNo, "trace-clock",
                     std::string("direct OpTraceSink call '") + Hit +
                         "' outside the scheduler; use "
                         "Scheduler::traceBegin()/traceStamp() so stamps "
                         "read the owning clock"});

    if (FaultScope && !allowed(Raw, "fault-determinism") &&
        hasWholeWord(L, "Rng") && L.find("Seed") == std::string::npos)
      Out.push_back({RelPath, LineNo, "fault-determinism",
                     "Rng in fault-policy code not derived from a Seed on "
                     "this line; fault rolls must be a pure function of "
                     "(FaultPolicy.Seed, send time) — a sequential stream "
                     "or ad-hoc seed breaks schedule invariance"});

    if (AssertScope && !allowed(Raw, "raw-assert")) {
      if (hasBareToken(L, "assert("))
        Out.push_back({RelPath, LineNo, "raw-assert",
                       "raw assert() vanishes in release builds; use "
                       "DMB_ASSERT / DMB_CHECK (support/Assert.h)"});
      else if (L.find("#include <cassert>") != std::string::npos)
        Out.push_back({RelPath, LineNo, "raw-assert",
                       "<cassert> include; use support/Assert.h"});
    }

    if (EventCaptureScope && !allowed(Raw, "event-ref-capture")) {
      size_t CallPos = std::min(bareTokenPos(L, "at("),
                                bareTokenPos(L, "after("));
      size_t Cap = CallPos == std::string::npos
                       ? std::string::npos
                       : L.find("[&", CallPos);
      if (Cap != std::string::npos && Cap + 2 < L.size() &&
          (L[Cap + 2] == ']' || L[Cap + 2] == ','))
        Out.push_back({RelPath, LineNo, "event-ref-capture",
                       "event callback captures locals by reference; the "
                       "scheduler may fire it after the enclosing frame is "
                       "gone — capture by value or capture 'this'"});
    }

    if (UsesHostMutex && !allowed(Raw, "raii-guard") &&
        (L.find(".lock()") != std::string::npos ||
         L.find("->lock()") != std::string::npos ||
         L.find(".unlock()") != std::string::npos ||
         L.find("->unlock()") != std::string::npos ||
         hasBareToken(L, "pthread_mutex_lock(") ||
         hasBareToken(L, "pthread_mutex_unlock(")))
      Out.push_back({RelPath, LineNo, "raii-guard",
                     "manual lock()/unlock() in a file using a host mutex; "
                     "pair acquisitions through std::lock_guard / "
                     "std::scoped_lock so early returns and exceptions "
                     "cannot leak the lock"});
  }
}

void dmb::lint::lintErrorTable(const std::string &ErrorH,
                               const std::string &ErrorCpp,
                               std::vector<Violation> &Out) {
  const char *HPath = "src/support/Error.h";
  const char *CppPath = "src/support/Error.cpp";

  std::vector<std::string> Members = parseEnumMembers(ErrorH);
  if (Members.empty()) {
    Out.push_back({HPath, 0, "error-table", "enum class FsError not found"});
    return;
  }

  // Declared count, if present.
  size_t DeclaredCount = 0;
  bool HaveCount = false;
  for (const std::string &L : sanitizeSource(ErrorH)) {
    size_t Pos = L.find("NumFsErrors = ");
    if (Pos == std::string::npos)
      continue;
    DeclaredCount = std::strtoul(L.c_str() + Pos + 14, nullptr, 10);
    HaveCount = true;
    break;
  }
  if (!HaveCount)
    Out.push_back({HPath, 0, "error-table", "NumFsErrors constant missing"});
  else if (DeclaredCount != Members.size())
    Out.push_back({HPath, 0, "error-table",
                   "NumFsErrors is " + std::to_string(DeclaredCount) +
                       " but the enum has " +
                       std::to_string(Members.size()) + " members"});

  // case FsError::X: ... return "NAME"; pairs from the name table.
  std::vector<std::pair<std::string, std::string>> Cases;
  std::vector<std::string> CppLines = splitLines(ErrorCpp);
  std::vector<std::string> CppSanitized = sanitizeSource(ErrorCpp);
  for (size_t I = 0; I < CppLines.size(); ++I) {
    const std::string &L = CppSanitized[I];
    size_t Pos = L.find("case FsError::");
    if (Pos == std::string::npos)
      continue;
    size_t Start = Pos + 14;
    size_t End = Start;
    while (End < L.size() && isIdentChar(L[End]))
      ++End;
    std::string Member = L.substr(Start, End - Start);
    // The returned literal sits on this or one of the next two lines; the
    // sanitizer blanks literal contents, so read the raw text here.
    std::string Name;
    for (size_t J = I; J < CppLines.size() && J < I + 3; ++J) {
      const std::string &RawJ = CppLines[J];
      size_t R = RawJ.find("return \"");
      if (R == std::string::npos)
        continue;
      size_t NStart = R + 8;
      size_t NEnd = RawJ.find('"', NStart);
      if (NEnd != std::string::npos)
        Name = RawJ.substr(NStart, NEnd - NStart);
      break;
    }
    Cases.emplace_back(Member, Name);
  }

  for (const std::string &M : Members) {
    size_t Count = 0;
    for (const auto &C : Cases)
      if (C.first == M)
        ++Count;
    if (Count == 0)
      Out.push_back({CppPath, 0, "error-table",
                     "fsErrorName has no case for FsError::" + M});
    else if (Count > 1)
      Out.push_back({CppPath, 0, "error-table",
                     "fsErrorName has duplicate cases for FsError::" + M});
  }
  for (const auto &C : Cases) {
    if (std::find(Members.begin(), Members.end(), C.first) == Members.end())
      Out.push_back({CppPath, 0, "error-table",
                     "fsErrorName handles unknown member FsError::" +
                         C.first});
    if (C.second.empty())
      Out.push_back({CppPath, 0, "error-table",
                     "case FsError::" + C.first +
                         " does not return a name literal"});
  }
  for (size_t I = 0; I < Cases.size(); ++I)
    for (size_t J = I + 1; J < Cases.size(); ++J)
      if (!Cases[I].second.empty() && Cases[I].second == Cases[J].second)
        Out.push_back({CppPath, 0, "error-table",
                       "duplicate error name '" + Cases[I].second + "'"});
}

std::vector<Violation> dmb::lint::lintTree(const std::string &Root,
                                           size_t *FilesChecked) {
  std::vector<Violation> Out;
  size_t Checked = 0;

  for (const std::string &Rel : analyze::collectSourceFiles(
           Root, {"src", "tests", "bench", "tools"})) {
    std::string Content;
    if (!analyze::readFile(Root + "/" + Rel, Content)) {
      Out.push_back({Rel, 0, "io", "cannot read file"});
      continue;
    }
    ++Checked;
    lintContent(Rel, Content, Out);
  }

  // Cross-file error-table check, when the pair exists in this tree.
  std::string ErrH, ErrCpp;
  if (analyze::readFile(Root + "/src/support/Error.h", ErrH) &&
      analyze::readFile(Root + "/src/support/Error.cpp", ErrCpp))
    lintErrorTable(ErrH, ErrCpp, Out);

  if (FilesChecked)
    *FilesChecked = Checked;
  return Out;
}

std::string dmb::lint::renderViolation(const Violation &V) {
  return analyze::renderFinding(V);
}

const std::vector<std::string> &dmb::lint::lintRuleNames() {
  static const std::vector<std::string> Names = {
      "wall-clock",        "randomness",        "raw-assert",
      "header-guard",      "error-table",       "trace-clock",
      "event-ref-capture", "raii-guard",        "fault-determinism",
      "event-queue",       "suppression-justification", "io"};
  return Names;
}
