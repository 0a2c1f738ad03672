//===- tools/analyze/AnalyzeEngine.cpp ------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analyze/AnalyzeEngine.h"
#include "analyze/CallGraph.h"
#include "analyze/IncludeGraph.h"
#include "analyze/SymbolTable.h"
#include "analyze/Tokenizer.h"
#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

using namespace dmb;
using namespace dmb::analyze;

namespace {

/// Everything whose output is compared across runs: src/, bench/ and
/// tools/. The determinism token rules, header guards, the event-queue
/// ban and the suppression-justification rule apply here.
bool determinismScope(const std::string &RelPath) {
  return RelPath.starts_with("src/") || RelPath.starts_with("bench/") ||
         RelPath.starts_with("tools/");
}

/// Where a callback can outlive the frame that created it and a raw
/// assert() would vanish from a release build: src/ and tools/. tests/
/// and bench/ drive the scheduler to completion inside the capturing
/// frame.
bool lifetimeScope(const std::string &RelPath) {
  return RelPath.starts_with("src/") || RelPath.starts_with("tools/");
}

/// Where host time and stdlib randomness are banned: the simulation
/// substrate plus everything whose output is compared against recorded
/// experiment results.
bool hostStateScope(const std::string &RelPath) {
  return RelPath.starts_with("src/sim/") || RelPath.starts_with("src/dfs/") ||
         RelPath.starts_with("src/cluster/") ||
         RelPath.starts_with("tests/") || RelPath.starts_with("bench/") ||
         RelPath.starts_with("tools/");
}

/// Where trace points must go through the owning Scheduler: src/sim and
/// src/dfs, except the sink itself and the Scheduler, which owns the
/// clock the stamps come from.
bool traceClockScope(const std::string &RelPath) {
  return (RelPath.starts_with("src/sim/") ||
          RelPath.starts_with("src/dfs/")) &&
         !RelPath.starts_with("src/sim/Trace.") &&
         !RelPath.starts_with("src/sim/Scheduler.");
}

/// Whether \p Line contains \p Token with no identifier character
/// immediately before it (so "time(" does not match "runtime(").
bool hasBareToken(const std::string &Line, const std::string &Token) {
  for (size_t Pos = Line.find(Token); Pos != std::string::npos;
       Pos = Line.find(Token, Pos + 1))
    if (Pos == 0 || !isIdentChar(Line[Pos - 1]))
      return true;
  return false;
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

const Pattern HostMutexPatterns[] = {
    {"std::mutex", false},       {"std::recursive_mutex", false},
    {"std::timed_mutex", false}, {"std::shared_mutex", false},
    {"pthread_mutex", false},
};

const Pattern ManualLockPatterns[] = {
    {".lock()", false},   {"->lock()", false},
    {".unlock()", false}, {"->unlock()", false},
    {"pthread_mutex_lock(", true}, {"pthread_mutex_unlock(", true},
};

/// The text of the first of \p Patterns found on \p Line, or nullptr.
template <size_t N>
const char *firstMatch(const std::string &Line, const Pattern (&Patterns)[N]) {
  for (const Pattern &P : Patterns)
    if (P.Bare ? hasBareToken(Line, P.Text)
               : Line.find(P.Text) != std::string::npos)
      return P.Text;
  return nullptr;
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

bool isPunct(const Token &T, const char *Text) {
  return T.Kind == TokKind::Punct && T.Text == Text;
}

bool isIdent(const Token &T, const char *Text) {
  return T.Kind == TokKind::Ident && T.Text == Text;
}

/// True when the '[' at \p I opens a lambda capture list rather than a
/// subscript or attribute: it follows a token that can only precede an
/// expression, not a value.
bool isLambdaIntroducer(const std::vector<Token> &T, size_t I) {
  if (!isPunct(T[I], "["))
    return false;
  if (I == 0)
    return false;
  const Token &P = T[I - 1];
  if (P.Kind == TokKind::Punct)
    return P.Text == "(" || P.Text == "," || P.Text == "=" || P.Text == "{";
  return isIdent(P, "return");
}

/// The engine proper: one instance per analyzeSources call, shared state
/// is the parsed files and the harvested error-returning function names.
class RuleEngine {
public:
  RuleEngine(const std::vector<SourceFile> &Files, std::vector<Finding> &Out)
      : Files(Files), Out(Out) {}

  void run(std::ostream *Dot) {
    harvestErrorFunctions();
    ST.build(Files);
    CG.build(ST, Files);
    if (Dot)
      CG.writeDot(*Dot);
    indexDefinitions();
    checkErrorTable();
    buildTaintSummaries();
    // Container declarations are tracked per file first, so a .cpp can
    // inherit the members its own header declares (fsck iterating the
    // header-declared inode table must still be seen).
    std::map<std::string, ContainerSets> Tracked;
    for (const SourceFile &F : Files)
      Tracked[F.RelPath] = trackContainers(F);
    for (const SourceFile &F : Files) {
      checkLines(F);
      ContainerSets CS = Tracked[F.RelPath];
      if (F.RelPath.ends_with(".cpp")) {
        auto HdrIt = Tracked.find(
            F.RelPath.substr(0, F.RelPath.size() - 4) + ".h");
        if (HdrIt != Tracked.end())
          CS.merge(HdrIt->second);
      }
      // A name declared as BOTH an ordered and an unordered container
      // (two classes in one file reusing a member name) is ambiguous;
      // stay silent rather than flag iteration over the ordered one.
      for (const std::string &O : CS.Ordered) {
        CS.Unordered.erase(O);
        CS.PtrKeyed.erase(O);
      }
      UnorderedVars = CS.Unordered;
      PtrKeyedVars = CS.PtrKeyed;
      InplaceVars = CS.Inplace;
      if (determinismScope(F.RelPath)) {
        checkLoops(F);
        checkPointerFormatting(F);
        checkDeterminismTaint(F);
        checkErrorPropagation(F);
      }
      if (lifetimeScope(F.RelPath)) {
        checkCallbackLifetime(F);
        checkBlockingInCallback(F);
        // tests/ and bench/ are exempt for the same reason as
        // callback-lifetime: they assert on final state, so an ignored
        // completion there is a deliberate fixture shape.
        checkSwallowedCompletionErrors(F);
      }
    }
    IncludeGraph Graph(Files);
    Graph.check(Out);
  }

private:
  void emit(const SourceFile &F, int Line, const std::string &Rule,
            const std::string &Message) {
    const std::string &Raw = Line >= 1 &&
                                     static_cast<size_t>(Line) <=
                                         F.RawLines.size()
                                 ? F.RawLines[Line - 1]
                                 : Empty;
    if (allowedOnLine(Raw, Rule))
      return;
    Out.push_back({F.RelPath, Line, Rule, Message});
  }

  //===--------------------------------------------------------------------===
  // Line rules
  //===--------------------------------------------------------------------===

  void checkLines(const SourceFile &F) {
    const std::string &Rel = F.RelPath;
    const std::vector<std::string> &Lines = F.Toks.SanitizedLines;
    bool Compared = determinismScope(Rel);
    if (Compared && Rel.ends_with(".h"))
      checkHeaderGuard(F);
    bool HostState = hostStateScope(Rel);
    bool Lifetime = lifetimeScope(Rel);
    bool TraceClock = traceClockScope(Rel);
    bool EventQueue = Compared && !Rel.starts_with("src/sim/EventQueue.");
    // fault-determinism fires only in files that handle a FaultPolicy in
    // code (a mention in a comment or string does not count), and
    // raii-guard only in files that use a host-thread mutex at all:
    // SimMutex has its own scheduler-driven lock()/unlock() protocol.
    bool Faults = false, HostMutex = false;
    for (const std::string &L : Lines) {
      Faults = Faults || hasWholeWord(L, "FaultPolicy");
      HostMutex = HostMutex || firstMatch(L, HostMutexPatterns);
    }

    for (size_t I = 0; I < Lines.size(); ++I) {
      const std::string &L = Lines[I];
      int Line = static_cast<int>(I + 1);
      if (Compared)
        checkSuppressionJustified(F, Line);
      if (const char *Hit = HostState ? firstMatch(L, WallClockPatterns)
                                      : nullptr)
        emit(F, Line, "wall-clock",
             std::string("host clock call '") + Hit +
                 "' in deterministic code; use Scheduler::now() / SimTime");
      if (const char *Hit = HostState ? firstMatch(L, RandomnessPatterns)
                                      : nullptr)
        emit(F, Line, "randomness",
             std::string("unseeded randomness '") + Hit +
                 "' in deterministic code; use support/Random");
      if (const char *Hit =
              EventQueue ? firstMatch(L, EventQueuePatterns) : nullptr)
        emit(F, Line, "event-queue",
             std::string("heap scheduling primitive '") + Hit +
                 "' outside sim/EventQueue; route pending-event ordering "
                 "through HeapEventQueue so every event pops in one "
                 "(time, tie key) order");
      if (const char *Hit =
              TraceClock ? firstMatch(L, TraceSinkPatterns) : nullptr)
        emit(F, Line, "trace-clock",
             std::string("direct OpTraceSink call '") + Hit +
                 "' outside the scheduler; use "
                 "Scheduler::traceBegin()/traceStamp() so stamps read the "
                 "owning clock");
      if (Faults && hasWholeWord(L, "Rng") &&
          L.find("Seed") == std::string::npos)
        emit(F, Line, "fault-determinism",
             "Rng in fault-policy code not derived from a Seed on this "
             "line; fault rolls must be a pure function of "
             "(FaultPolicy.Seed, send time) — a sequential stream or "
             "ad-hoc seed breaks schedule invariance");
      if (Lifetime && hasBareToken(L, "assert("))
        emit(F, Line, "raw-assert",
             "raw assert() vanishes in release builds; use DMB_ASSERT / "
             "DMB_CHECK (support/Assert.h)");
      else if (Lifetime && L.find("#include <cassert>") != std::string::npos)
        emit(F, Line, "raw-assert", "<cassert> include; use support/Assert.h");
      if (HostMutex && firstMatch(L, ManualLockPatterns))
        emit(F, Line, "raii-guard",
             "manual lock()/unlock() in a file using a host mutex; pair "
             "acquisitions through std::lock_guard / std::scoped_lock so "
             "early returns and exceptions cannot leak the lock");
    }
  }

  /// Every allow() marker and NOLINT must carry trailing prose. Works on
  /// the raw line: suppressions live in comments.
  void checkSuppressionJustified(const SourceFile &F, int Line) {
    const std::string &Raw = F.RawLines[Line - 1];
    // Assembled at runtime, so this source line is not a marker itself.
    std::string Marker = std::string(ToolName) + ": allow(";
    if (size_t Pos = Raw.find(Marker); Pos != std::string::npos) {
      size_t Close = Raw.find(')', Pos + Marker.size());
      if (Close == std::string::npos || !hasJustificationText(Raw, Close + 1))
        emit(F, Line, "suppression-justification",
             std::string(ToolName) +
                 " allow() without a trailing justification; say why the "
                 "exception is sound so the reviewer can check the "
                 "reasoning, not just the suppression");
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
        emit(F, Line, "suppression-justification",
             "NOLINT without a trailing justification; say why the "
             "clang-tidy finding is a false positive here");
    }
  }

  void checkHeaderGuard(const SourceFile &F) {
    const std::vector<std::string> &Lines = F.RawLines;
    std::string Expected = expectedGuard(F.RelPath);
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (!Lines[I].starts_with("#ifndef "))
        continue;
      std::string Guard = Lines[I].substr(8);
      while (!Guard.empty() && (Guard.back() == ' ' || Guard.back() == '\r'))
        Guard.pop_back();
      if (Guard != Expected)
        emit(F, static_cast<int>(I + 1), "header-guard",
             "guard '" + Guard + "' should be '" + Expected + "'");
      else if (I + 1 >= Lines.size() || Lines[I + 1] != "#define " + Expected)
        emit(F, static_cast<int>(I + 2), "header-guard",
             "'#define " + Expected + "' must follow the #ifndef");
      return;
    }
    emit(F, 0, "header-guard", "missing '#ifndef " + Expected + "'");
  }

  /// The error-table rule over src/support/Error.{h,cpp}, when the tree
  /// has both: enum members vs NumFsErrors vs the fsErrorName() cases.
  void checkErrorTable() {
    auto HIt = FileIndexOf.find("src/support/Error.h");
    auto CppIt = FileIndexOf.find("src/support/Error.cpp");
    if (HIt == FileIndexOf.end() || CppIt == FileIndexOf.end())
      return;
    const SourceFile &H = Files[HIt->second], &Cpp = Files[CppIt->second];

    // `enum class [[nodiscard]] FsError {`: attributes may sit between.
    std::vector<std::string> Members;
    size_t DeclaredCount = 0;
    bool InEnum = false, EnumDone = false, HaveCount = false;
    for (const std::string &L : H.Toks.SanitizedLines) {
      if (size_t Pos = L.find("NumFsErrors = ");
          Pos != std::string::npos && !HaveCount) {
        DeclaredCount = std::strtoul(L.c_str() + Pos + 14, nullptr, 10);
        HaveCount = true;
      }
      if (EnumDone)
        continue;
      if (!InEnum) {
        size_t Enum = L.find("enum class");
        InEnum = Enum != std::string::npos &&
                 L.find("FsError", Enum) != std::string::npos;
        continue;
      }
      if (L.find("};") != std::string::npos) {
        EnumDone = true;
        continue;
      }
      size_t I = L.find_first_not_of(" \t"), Start = I;
      while (I < L.size() && isIdentChar(L[I]))
        ++I;
      if (Start != std::string::npos && I > Start)
        Members.push_back(L.substr(Start, I - Start));
    }
    if (Members.empty()) {
      emit(H, 0, "error-table", "enum class FsError not found");
      return;
    }
    if (!HaveCount)
      emit(H, 0, "error-table", "NumFsErrors constant missing");
    else if (DeclaredCount != Members.size())
      emit(H, 0, "error-table",
           "NumFsErrors is " + std::to_string(DeclaredCount) +
               " but the enum has " + std::to_string(Members.size()) +
               " members");

    // case FsError::X: ... return "NAME"; pairs from the name table.
    std::vector<std::pair<std::string, std::string>> Cases;
    for (size_t I = 0; I < Cpp.RawLines.size(); ++I) {
      const std::string &L = Cpp.Toks.SanitizedLines[I];
      size_t Pos = L.find("case FsError::");
      if (Pos == std::string::npos)
        continue;
      size_t Start = Pos + 14, End = Start;
      while (End < L.size() && isIdentChar(L[End]))
        ++End;
      // The returned literal sits on this or one of the next two lines;
      // the sanitizer blanks literal contents, so read the raw text here.
      std::string Name;
      for (size_t J = I; J < Cpp.RawLines.size() && J < I + 3; ++J) {
        const std::string &Raw = Cpp.RawLines[J];
        size_t R = Raw.find("return \"");
        if (R == std::string::npos)
          continue;
        size_t NEnd = Raw.find('"', R + 8);
        if (NEnd != std::string::npos)
          Name = Raw.substr(R + 8, NEnd - R - 8);
        break;
      }
      Cases.emplace_back(L.substr(Start, End - Start), Name);
    }

    for (const std::string &M : Members) {
      size_t Count = std::count_if(Cases.begin(), Cases.end(),
                                   [&](const auto &C) { return C.first == M; });
      if (Count == 0)
        emit(Cpp, 0, "error-table",
             "fsErrorName has no case for FsError::" + M);
      else if (Count > 1)
        emit(Cpp, 0, "error-table",
             "fsErrorName has duplicate cases for FsError::" + M);
    }
    for (size_t I = 0; I < Cases.size(); ++I) {
      const auto &[Member, Name] = Cases[I];
      if (std::find(Members.begin(), Members.end(), Member) == Members.end())
        emit(Cpp, 0, "error-table",
             "fsErrorName handles unknown member FsError::" + Member);
      if (Name.empty())
        emit(Cpp, 0, "error-table",
             "case FsError::" + Member + " does not return a name literal");
      for (size_t J = I + 1; J < Cases.size(); ++J)
        if (!Name.empty() && Name == Cases[J].second)
          emit(Cpp, 0, "error-table", "duplicate error name '" + Name + "'");
    }
  }

  //===--------------------------------------------------------------------===
  // Container declaration tracking (per file)
  //===--------------------------------------------------------------------===

  /// True when the first template argument of the '<' at \p Lt spells a
  /// pointer type (`Foo *`), i.e. a '*' appears before the first top-level
  /// comma.
  static bool firstArgIsPointer(const std::vector<Token> &T, size_t Lt) {
    size_t Close = matchForward(T, Lt);
    if (Close >= T.size())
      return false;
    int Angle = 0;
    for (size_t I = Lt + 1; I < Close; ++I) {
      if (isPunct(T[I], "<"))
        ++Angle;
      else if (isPunct(T[I], ">"))
        --Angle;
      else if (Angle == 0 && isPunct(T[I], ","))
        return false;
      else if (Angle == 0 && isPunct(T[I], "*"))
        return true;
    }
    return false;
  }

  /// Variables of interest declared by one file. Ordered holds names of
  /// deterministically-ordered associative containers, used only to
  /// resolve cross-class name collisions.
  struct ContainerSets {
    std::set<std::string> Unordered, PtrKeyed, Inplace, Ordered;
    void merge(const ContainerSets &O) {
      Unordered.insert(O.Unordered.begin(), O.Unordered.end());
      PtrKeyed.insert(O.PtrKeyed.begin(), O.PtrKeyed.end());
      Inplace.insert(O.Inplace.begin(), O.Inplace.end());
      Ordered.insert(O.Ordered.begin(), O.Ordered.end());
    }
  };

  /// Records variables (locals and members) of unordered or pointer-keyed
  /// associative container types, following same-file using-aliases.
  ContainerSets trackContainers(const SourceFile &F) {
    ContainerSets CS;
    std::set<std::string> UnorderedAliases, PtrKeyedAliases;
    const std::vector<Token> &T = F.Toks.Tokens;

    static const std::set<std::string> UnorderedTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    static const std::set<std::string> AssocTypes = {
        "map",           "set",           "multimap",
        "multiset",      "unordered_map", "unordered_set",
        "unordered_multimap", "unordered_multiset"};

    for (size_t I = 0; I + 1 < T.size(); ++I) {
      if (T[I].Kind != TokKind::Ident)
        continue;

      // using Alias = std::unordered_map<...>;
      if (T[I].Text == "using" && I + 2 < T.size() &&
          T[I + 1].Kind == TokKind::Ident && isPunct(T[I + 2], "=")) {
        for (size_t J = I + 3; J < T.size() && !isPunct(T[J], ";"); ++J) {
          if (T[J].Kind != TokKind::Ident)
            continue;
          if (UnorderedTypes.count(T[J].Text))
            UnorderedAliases.insert(T[I + 1].Text);
          if (AssocTypes.count(T[J].Text) && J + 1 < T.size() &&
              isPunct(T[J + 1], "<") && firstArgIsPointer(T, J + 1))
            PtrKeyedAliases.insert(T[I + 1].Text);
        }
        continue;
      }

      // TypeName<...> [*&const]* VarName
      bool Unordered = UnorderedTypes.count(T[I].Text) > 0;
      bool Assoc = AssocTypes.count(T[I].Text) > 0;
      if ((Unordered || Assoc) && isPunct(T[I + 1], "<")) {
        bool PtrKeyed = firstArgIsPointer(T, I + 1);
        size_t Close = matchForward(T, I + 1);
        if (Close >= T.size())
          continue;
        size_t J = Close + 1;
        while (J < T.size() &&
               (isPunct(T[J], "*") || isPunct(T[J], "&") ||
                isIdent(T[J], "const")))
          ++J;
        if (J < T.size() && T[J].Kind == TokKind::Ident) {
          if (Unordered)
            CS.Unordered.insert(T[J].Text);
          if (PtrKeyed)
            CS.PtrKeyed.insert(T[J].Text);
          if (!Unordered && !PtrKeyed)
            CS.Ordered.insert(T[J].Text);
        }
        continue;
      }

      // AliasName VarName
      if ((UnorderedAliases.count(T[I].Text) ||
           PtrKeyedAliases.count(T[I].Text)) &&
          T[I + 1].Kind == TokKind::Ident && I + 2 < T.size() &&
          (isPunct(T[I + 2], ";") || isPunct(T[I + 2], "=") ||
           isPunct(T[I + 2], "{"))) {
        if (UnorderedAliases.count(T[I].Text))
          CS.Unordered.insert(T[I + 1].Text);
        if (PtrKeyedAliases.count(T[I].Text))
          CS.PtrKeyed.insert(T[I + 1].Text);
        continue;
      }

      // InplaceFunction<...> Name
      if (T[I].Text == "InplaceFunction" && isPunct(T[I + 1], "<")) {
        size_t Close = matchForward(T, I + 1);
        if (Close + 1 < T.size() && T[Close + 1].Kind == TokKind::Ident)
          CS.Inplace.insert(T[Close + 1].Text);
      }
    }
    return CS;
  }

  //===--------------------------------------------------------------------===
  // Rule: unordered-iteration / pointer-identity (iteration half)
  //===--------------------------------------------------------------------===

  /// True when tokens [Begin, End) contain a member at(...)/after(...)
  /// call whose arguments include a lambda literal — scheduling work from
  /// the current iteration order.
  static bool hasScheduledLambda(const std::vector<Token> &T, size_t Begin,
                                 size_t End) {
    for (size_t I = Begin; I + 1 < End; ++I) {
      if (!(isIdent(T[I], "at") || isIdent(T[I], "after")))
        continue;
      if (I == 0 || !(isPunct(T[I - 1], ".") || isPunct(T[I - 1], "->")))
        continue;
      if (!isPunct(T[I + 1], "("))
        continue;
      size_t Close = matchForward(T, I + 1);
      for (size_t J = I + 2; J < Close && J < T.size(); ++J)
        if (isLambdaIntroducer(T, J))
          return true;
    }
    return false;
  }

  /// Classifies the loop body [Begin, End): returns a non-empty sink
  /// description when the body reaches output directly; fills
  /// \p Accumulators with containers the body appends to.
  static std::string directSink(const std::vector<Token> &T, size_t Begin,
                                size_t End,
                                std::set<std::string> &Accumulators) {
    static const std::set<std::string> CallSinks = {
        "printf",     "fprintf", "snprintf",  "sprintf", "format",
        "addRow",     "traceBegin", "traceStamp", "stamp", "beginOp",
        "finishOp"};
    std::string Sink;
    for (size_t I = Begin; I < End && I < T.size(); ++I) {
      if (Sink.empty() && isPunct(T[I], "<<"))
        Sink = "streams output ('<<')";
      if (T[I].Kind == TokKind::Ident && I + 1 < T.size() &&
          isPunct(T[I + 1], "(")) {
        if (Sink.empty() && CallSinks.count(T[I].Text))
          Sink = "calls " + T[I].Text + "()";
        if ((T[I].Text == "push_back" || T[I].Text == "emplace_back") &&
            I >= 2 && (isPunct(T[I - 1], ".") || isPunct(T[I - 1], "->")) &&
            T[I - 2].Kind == TokKind::Ident)
          Accumulators.insert(T[I - 2].Text);
      }
    }
    if (Sink.empty() && hasScheduledLambda(T, Begin, End))
      Sink = "schedules callbacks (at/after)";
    return Sink;
  }

  /// True when some std::sort after the loop (still inside the enclosing
  /// scope) sorts one of \p Accumulators — the sanctioned
  /// accumulate-then-sort spelling (e.g. HashDirectory::list).
  static bool sortedAfter(const std::vector<Token> &T, size_t After,
                          int EnclosingDepth,
                          const std::set<std::string> &Accumulators) {
    for (size_t I = After; I < T.size(); ++I) {
      if (T[I].BraceDepth < EnclosingDepth)
        break;
      if (!isIdent(T[I], "sort") || I + 1 >= T.size() ||
          !isPunct(T[I + 1], "("))
        continue;
      size_t Close = matchForward(T, I + 1);
      for (size_t J = I + 2; J < Close && J < T.size(); ++J)
        if (T[J].Kind == TokKind::Ident && Accumulators.count(T[J].Text))
          return true;
    }
    return false;
  }

  void checkLoops(const SourceFile &F) {
    const std::vector<Token> &T = F.Toks.Tokens;
    for (size_t I = 0; I + 1 < T.size(); ++I) {
      if (!isIdent(T[I], "for") || !isPunct(T[I + 1], "("))
        continue;
      size_t HeadClose = matchForward(T, I + 1);
      if (HeadClose >= T.size())
        continue;

      // What does the loop iterate? Range-for: the expression after the
      // top-level ':'. Iterator-for: a `Var.begin()` in the header.
      std::string UnorderedVar, PtrVar;
      size_t Colon = HeadClose;
      for (size_t J = I + 2; J < HeadClose; ++J)
        if (isPunct(T[J], ":") && T[J].ParenDepth == T[I + 2].ParenDepth) {
          Colon = J;
          break;
        }
      if (Colon < HeadClose) {
        // Only a plain variable (possibly *deref or object.member chain)
        // counts; a call in the range expression may already return a
        // sorted copy.
        bool HasCall = false;
        for (size_t J = Colon + 1; J < HeadClose; ++J) {
          if (isPunct(T[J], "("))
            HasCall = true;
          if (T[J].Kind == TokKind::Ident) {
            if (UnorderedVars.count(T[J].Text))
              UnorderedVar = T[J].Text;
            if (PtrKeyedVars.count(T[J].Text))
              PtrVar = T[J].Text;
          }
        }
        if (HasCall)
          UnorderedVar = PtrVar = "";
      } else {
        for (size_t J = I + 2; J + 2 < HeadClose; ++J)
          if (T[J].Kind == TokKind::Ident && isPunct(T[J + 1], ".") &&
              isIdent(T[J + 2], "begin")) {
            if (UnorderedVars.count(T[J].Text))
              UnorderedVar = T[J].Text;
            if (PtrKeyedVars.count(T[J].Text))
              PtrVar = T[J].Text;
          }
      }
      if (UnorderedVar.empty() && PtrVar.empty())
        continue;

      // Body extent: a braced block, or a single statement to the ';'.
      size_t BodyBegin = HeadClose + 1, BodyEnd;
      if (BodyBegin < T.size() && isPunct(T[BodyBegin], "{")) {
        BodyEnd = matchForward(T, BodyBegin);
        ++BodyBegin;
      } else {
        BodyEnd = BodyBegin;
        while (BodyEnd < T.size() && !isPunct(T[BodyEnd], ";"))
          ++BodyEnd;
      }

      // Iterating a pointer-keyed container is address order; no sink or
      // sort can make it deterministic, so it is flagged outright.
      if (!PtrVar.empty()) {
        emit(F, T[I].Line, "pointer-identity",
             "iteration over pointer-keyed container '" + PtrVar +
                 "' visits elements in address order, which differs "
                 "between runs; key by a stable id or iterate a "
                 "deterministic sequence");
        continue;
      }

      std::set<std::string> Accumulators;
      std::string Sink = directSink(T, BodyBegin, BodyEnd, Accumulators);
      if (Sink.empty() && !Accumulators.empty() &&
          !sortedAfter(T, BodyEnd + 1, T[I].BraceDepth, Accumulators))
        Sink = "collects into " + *Accumulators.begin() +
               " without a later sort";
      if (!Sink.empty())
        emit(F, T[I].Line, "unordered-iteration",
             "loop over unordered container '" + UnorderedVar + "' " + Sink +
                 "; hash order is not deterministic across runs — iterate "
                 "sorted keys or sort before emitting");
    }
  }

  //===--------------------------------------------------------------------===
  // Rule: pointer-identity (formatting half)
  //===--------------------------------------------------------------------===

  void checkPointerFormatting(const SourceFile &F) {
    const std::vector<Token> &T = F.Toks.Tokens;
    for (size_t I = 0; I < T.size(); ++I) {
      // Literal split so this source line does not flag itself.
      if (T[I].Kind == TokKind::String &&
          T[I].Text.find("%"
                         "p") != std::string::npos)
        emit(F, T[I].Line, "pointer-identity",
             "format string prints a pointer value (%"
             "p); addresses differ between runs — print a stable id "
             "instead");

      if (isPunct(T[I], "<<") && I + 2 < T.size() && isPunct(T[I + 1], "&") &&
          T[I + 2].Kind == TokKind::Ident)
        emit(F, T[I].Line, "pointer-identity",
             "streaming the address of '" + T[I + 2].Text +
                 "'; addresses differ between runs");

      // Only a *streamed* void-pointer cast is formatting; the same cast
      // feeding placement new or a comparison is fine.
      if (isPunct(T[I], "<<") && I + 5 < T.size() &&
          isIdent(T[I + 1], "static_cast") && isPunct(T[I + 2], "<") &&
          isIdent(T[I + 3], "void") && isPunct(T[I + 4], "*") &&
          isPunct(T[I + 5], ">"))
        emit(F, T[I].Line, "pointer-identity",
             "streaming static_cast<void *> formats a pointer value; "
             "addresses differ between runs");

      if (isIdent(T[I], "reinterpret_cast") && I + 2 < T.size() &&
          isPunct(T[I + 1], "<") &&
          (isIdent(T[I + 2], "uintptr_t") || isIdent(T[I + 2], "intptr_t")))
        emit(F, T[I].Line, "pointer-identity",
             "reinterpret_cast of a pointer to an integer bakes an address "
             "into a value; addresses differ between runs");

      if (isIdent(T[I], "hash") && I + 1 < T.size() &&
          isPunct(T[I + 1], "<") && firstArgIsPointer(T, I + 1))
        emit(F, T[I].Line, "pointer-identity",
             "std::hash over a pointer type hashes the address; hash by a "
             "stable id instead");
    }
  }

  //===--------------------------------------------------------------------===
  // Rule: callback-lifetime
  //===--------------------------------------------------------------------===

  /// Appends the by-reference captures of the capture list [Open, Close]:
  /// the default ([&] or [&, ...]), a named reference ([&x]) or an
  /// address-of init-capture ([p = &x]). `[this]` and by-value captures
  /// are fine.
  static void riskyCaptures(const std::vector<Token> &T, size_t Open,
                            size_t Close, std::vector<std::string> &Risky) {
    if (isPunct(T[Open + 1], "&") && isPunct(T[Open + 2], "]"))
      Risky.push_back("&");
    else if (isPunct(T[Open + 1], "&") && isPunct(T[Open + 2], ","))
      Risky.push_back("&, ...");
    for (size_t I = Open + 1; I + 1 < Close; ++I) {
      if (isPunct(T[I], "&") && !isPunct(T[I - 1], "=") &&
          T[I + 1].Kind == TokKind::Ident && I + 2 <= Close &&
          (isPunct(T[I + 2], ",") || isPunct(T[I + 2], "]")))
        Risky.push_back("&" + T[I + 1].Text);
      if (T[I].Kind == TokKind::Ident && isPunct(T[I + 1], "=") &&
          I + 2 < Close && isPunct(T[I + 2], "&"))
        Risky.push_back(T[I].Text + " = &...");
    }
  }

  void checkCallbackLifetime(const SourceFile &F) {
    const std::vector<Token> &T = F.Toks.Tokens;
    for (size_t I = 0; I + 1 < T.size(); ++I) {
      // An at()/after() call — the callback runs at a later virtual time,
      // far outside the current frame. A call, not a declaration: the
      // name follows punctuation (`.`, `->`, `;`, `{`...) or `return`.
      bool Scheduled =
          (isIdent(T[I], "at") || isIdent(T[I], "after")) && I > 0 &&
          (T[I - 1].Kind == TokKind::Punct || isIdent(T[I - 1], "return")) &&
          isPunct(T[I + 1], "(");
      // Stores into an InplaceFunction-typed variable or member — the
      // wrapper can be invoked long after the assigning frame returned.
      bool Stored = T[I].Kind == TokKind::Ident &&
                    InplaceVars.count(T[I].Text) && isPunct(T[I + 1], "=") &&
                    I + 2 < T.size() && isLambdaIntroducer(T, I + 2);
      if (!Scheduled && !Stored)
        continue;

      size_t SearchEnd;
      size_t SearchBegin;
      if (Scheduled) {
        SearchBegin = I + 2;
        SearchEnd = matchForward(T, I + 1);
      } else {
        SearchBegin = I + 2;
        SearchEnd = I + 3; // just the introducer
      }
      for (size_t J = SearchBegin; J < SearchEnd && J < T.size(); ++J) {
        if (!isLambdaIntroducer(T, J))
          continue;
        size_t CaptClose = matchForward(T, J);
        if (CaptClose >= T.size())
          continue;
        std::vector<std::string> Risky;
        riskyCaptures(T, J, CaptClose, Risky);
        for (const std::string &Cap : Risky) {
          std::string Where = Scheduled
                                  ? "handed to " + T[I].Text + "()"
                                  : "stored in InplaceFunction '" +
                                        T[I].Text + "'";
          emit(F, T[J].Line, "callback-lifetime",
               "lambda " + Where + " captures [" + Cap +
                   "]; the callback can outlive the capturing frame — "
                   "capture by value or capture an owner that outlives "
                   "the schedule");
        }
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Interprocedural infrastructure (SymbolTable + CallGraph)
  //===--------------------------------------------------------------------===

  /// Fills DefsByFile and DefCalls: per-definition call sites are
  /// collected once and reused by every interprocedural rule.
  void indexDefinitions() {
    for (size_t I = 0; I < Files.size(); ++I)
      FileIndexOf[Files[I].RelPath] = static_cast<int>(I);
    const std::vector<Symbol> &Syms = ST.symbols();
    for (int D : ST.definitions()) {
      const Symbol &S = Syms[D];
      DefsByFile[S.FileIndex].push_back(D);
      DefCalls[D] = collectCalls(Files[S.FileIndex].Toks.Tokens, S.BodyBegin,
                                 S.BodyEnd, S.ClassName, ST);
    }
  }

  /// Call sites of definition \p D whose name token lies in [Begin, End).
  std::vector<const CallSite *> callsIn(int D, size_t Begin, size_t End) {
    std::vector<const CallSite *> Hits;
    for (const CallSite &CS : DefCalls[D])
      if (CS.NameTok >= Begin && CS.NameTok < End)
        Hits.push_back(&CS);
    return Hits;
  }

  //===--------------------------------------------------------------------===
  // Rule: error-path-propagation
  //===--------------------------------------------------------------------===

  /// Collects names of functions declared in src/ with an FsError or
  /// MetaReply return type, so `auto E = f(...)` locals anywhere can be
  /// checked without hand-maintaining a list.
  void harvestErrorFunctions() {
    for (const SourceFile &F : Files) {
      if (!F.RelPath.starts_with("src/"))
        continue;
      const std::vector<Token> &T = F.Toks.Tokens;
      for (size_t I = 0; I + 2 < T.size(); ++I) {
        if (!(isIdent(T[I], "FsError") || isIdent(T[I], "MetaReply")))
          continue;
        if (T[I].ParenDepth != 0)
          continue; // parameter, not return type
        if (T[I + 1].Kind == TokKind::Ident && isPunct(T[I + 2], "("))
          ErrorFns.insert(T[I + 1].Text);
      }
    }
  }

  void checkErrorPropagation(const SourceFile &F) {
    const std::vector<Token> &T = F.Toks.Tokens;
    // An error result stored in a local the function never reads again
    // is swallowed even though the call "used" it. The compiler flags an
    // unread FsError local (-Wunused-variable) but not a MetaReply one.
    auto FIt = FileIndexOf.find(F.RelPath);
    if (FIt == FileIndexOf.end())
      return;
    for (int D : DefsByFile[FIt->second]) {
      const Symbol &S = ST.symbols()[D];
      for (size_t I = S.BodyBegin; I + 2 < S.BodyEnd; ++I) {
        // `FsError E = ...;` / `MetaReply R = ...;` / `auto E = errfn(...`
        std::string Var;
        if ((isIdent(T[I], "FsError") || isIdent(T[I], "MetaReply")) &&
            T[I + 1].Kind == TokKind::Ident && isPunct(T[I + 2], "=")) {
          Var = T[I + 1].Text;
        } else if (isIdent(T[I], "auto") && T[I + 1].Kind == TokKind::Ident &&
                   isPunct(T[I + 2], "=") && I + 3 < S.BodyEnd &&
                   T[I + 3].Kind == TokKind::Ident &&
                   ErrorFns.count(T[I + 3].Text)) {
          Var = T[I + 1].Text;
        }
        if (Var.empty())
          continue;
        size_t Stmt = I + 3;
        while (Stmt < S.BodyEnd && !isPunct(T[Stmt], ";"))
          ++Stmt;
        bool Read = false;
        for (size_t J = Stmt; J < S.BodyEnd && !Read; ++J)
          if (T[J].Kind == TokKind::Ident && T[J].Text == Var)
            Read = true;
        if (!Read)
          emit(F, T[I].Line, "error-path-propagation",
               "error result stored in '" + Var + "' is never examined in '" +
                   S.Name +
                   "'; the error is silently swallowed — branch on it or "
                   "discard explicitly with (void)");
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Rule: swallowed-completion-error
  //===--------------------------------------------------------------------===

  /// Async submission APIs whose completion callback receives the
  /// operation's MetaReply. With a write-behind queue between the caller
  /// and the server, the reply delivered here is the only place a
  /// deferred op's failure ever surfaces — a completion that names the
  /// reply but never examines or forwards it swallows that error.
  static bool isCompletionApi(const std::string &Name) {
    return Name == "submit" || Name == "enqueue" || Name == "rpc" ||
           Name == "transact" || Name == "process" || Name == "processEager";
  }

  void checkSwallowedCompletionErrors(const SourceFile &F) {
    const std::vector<Token> &T = F.Toks.Tokens;
    for (size_t I = 0; I + 1 < T.size(); ++I) {
      if (T[I].Kind != TokKind::Ident || !isCompletionApi(T[I].Text) ||
          !isPunct(T[I + 1], "("))
        continue;
      size_t Close = matchForward(T, I + 1);
      if (Close >= T.size())
        continue;
      for (size_t J = I + 2; J < Close; ++J) {
        if (!isLambdaIntroducer(T, J))
          continue;
        size_t CapClose = matchForward(T, J);
        if (CapClose >= Close || !isPunct(T[CapClose + 1], "("))
          continue;
        size_t ParClose = matchForward(T, CapClose + 1);
        if (ParClose >= Close)
          continue;
        // An unnamed `(MetaReply)` parameter is the sanctioned explicit
        // discard, like `(void)` on a synchronous call.
        std::string Name;
        for (size_t K = CapClose + 2; K < ParClose; ++K) {
          if (!isIdent(T[K], "MetaReply"))
            continue;
          size_t N = K + 1;
          while (N < ParClose &&
                 (isPunct(T[N], "&") || isPunct(T[N], "&&") ||
                  isIdent(T[N], "const")))
            ++N;
          if (N < ParClose && T[N].Kind == TokKind::Ident)
            Name = T[N].Text;
          break;
        }
        if (Name.empty()) {
          J = CapClose;
          continue;
        }
        size_t BodyOpen = ParClose + 1;
        while (BodyOpen < Close && (T[BodyOpen].Kind == TokKind::Ident ||
                                    isPunct(T[BodyOpen], "->")))
          ++BodyOpen; // mutable / noexcept / trailing return type
        if (BodyOpen >= Close || !isPunct(T[BodyOpen], "{")) {
          J = CapClose;
          continue;
        }
        size_t BodyClose = matchForward(T, BodyOpen);
        bool Examined = false;
        for (size_t K = BodyOpen + 1; K < BodyClose && !Examined; ++K) {
          if (T[K].Kind != TokKind::Ident || T[K].Text != Name)
            continue;
          if (isPunct(T[K + 1], ".")) {
            // A field read examines the error only if it is the error.
            if (isIdent(T[K + 2], "Err") || isIdent(T[K + 2], "ok"))
              Examined = true;
          } else {
            // A bare use forwards or stores the whole reply; whoever
            // receives it owns the error from here.
            Examined = true;
          }
        }
        if (!Examined)
          emit(F, T[J].Line, "swallowed-completion-error",
               "completion of '" + T[I].Text + "()' names its MetaReply '" +
                   Name + "' but never checks " + Name + ".Err/" + Name +
                   ".ok() nor forwards it; the enqueued op's failure is "
                   "silently swallowed — examine it or drop the parameter "
                   "name to discard explicitly");
        J = BodyClose < Close ? BodyClose : CapClose;
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Rule: determinism-taint
  //===--------------------------------------------------------------------===

  /// Returns a description when the token at \p I begins a
  /// nondeterminism source, "" otherwise. Sources on a line carrying a
  /// determinism-taint allow() are dead at the root: nothing derived from
  /// them is tracked.
  std::string taintSourceAt(const SourceFile &F, size_t I) {
    const std::vector<Token> &T = F.Toks.Tokens;
    if (T[I].Kind != TokKind::Ident)
      return "";
    std::string Desc;
    if (T[I].Text == "random_device") {
      Desc = "std::random_device";
    } else if (I + 1 < T.size() && isPunct(T[I + 1], "(")) {
      static const std::set<std::string> Libc = {"rand", "srand", "drand48",
                                                 "gettimeofday", "getpid"};
      if (Libc.count(T[I].Text)) {
        // Plain or std:: call only; members and declarations are not the
        // libc functions.
        bool Plain = I == 0 || (T[I - 1].Kind == TokKind::Punct &&
                                T[I - 1].Text != "." && T[I - 1].Text != "->" &&
                                T[I - 1].Text != "::");
        bool StdQual = I >= 2 && isPunct(T[I - 1], "::") &&
                       isIdent(T[I - 2], "std");
        if (Plain || StdQual)
          Desc = T[I].Text + "()";
      } else if (T[I].Text == "now" && I >= 2 && isPunct(T[I - 1], "::") &&
                 T[I - 2].Kind == TokKind::Ident &&
                 (T[I - 2].Text.find("clock") != std::string::npos ||
                  T[I - 2].Text.find("Clock") != std::string::npos)) {
        Desc = "wall-clock " + T[I - 2].Text + "::now()";
      }
    }
    if (Desc.empty() && isIdent(T[I], "reinterpret_cast") && I + 2 < T.size() &&
        isPunct(T[I + 1], "<") &&
        (isIdent(T[I + 2], "uintptr_t") || isIdent(T[I + 2], "intptr_t")))
      Desc = "pointer-to-integer cast";
    if (Desc.empty() && isIdent(T[I], "hash") && I + 1 < T.size() &&
        isPunct(T[I + 1], "<") && firstArgIsPointer(T, I + 1))
      Desc = "pointer hash";
    if (Desc.empty())
      return "";
    const std::string &Raw =
        T[I].Line >= 1 && static_cast<size_t>(T[I].Line) <= F.RawLines.size()
            ? F.RawLines[T[I].Line - 1]
            : Empty;
    if (allowedOnLine(Raw, "determinism-taint"))
      return "";
    return Desc;
  }

  /// Description when tokens [Begin, End) of definition \p D contain a
  /// tainted value: a source, a tainted local, or a call returning taint.
  std::string taintedIn(const SourceFile &F, int D, size_t Begin, size_t End) {
    const std::vector<Token> &T = F.Toks.Tokens;
    const std::set<std::string> &Locals = TaintedLocals[D];
    for (size_t I = Begin; I < End && I < T.size(); ++I) {
      std::string Src = taintSourceAt(F, I);
      if (!Src.empty())
        return Src;
      if (T[I].Kind == TokKind::Ident && Locals.count(T[I].Text))
        return "'" + T[I].Text + "' (" + LocalWhy[D][T[I].Text] + ")";
    }
    for (const CallSite *CS : callsIn(D, Begin, End))
      if (CS->Callee >= 0 && ReturnsTainted.count(CS->Callee))
        return "call of '" + ST.symbols()[CS->Callee].Qualified + "' (" +
               ReturnsTainted.at(CS->Callee) + ")";
    return "";
  }

  /// One fixpoint: function summaries for taint (which locals hold
  /// nondeterministic values, which functions return them) and for sink
  /// reachability (which functions emit to traces/results/output).
  void buildTaintSummaries() {
    const std::vector<Symbol> &Syms = ST.symbols();

    // Sink reachability: textual sinks in the body, then closed over the
    // call graph (a function that calls an emitting function emits).
    static const std::set<std::string> SinkCalls = {
        "printf",     "fprintf",     "snprintf",   "sprintf",  "format",
        "addRow",     "traceBegin",  "traceStamp", "traceStampOn",
        "traceFinish", "stamp",      "beginOp",    "finishOp"};
    for (int D : ST.definitions()) {
      const Symbol &S = Syms[D];
      const std::vector<Token> &T = Files[S.FileIndex].Toks.Tokens;
      bool Sink = false;
      for (size_t I = S.BodyBegin; I < S.BodyEnd && !Sink; ++I)
        if (isPunct(T[I], "<<"))
          Sink = true;
      if (!Sink)
        for (const CallSite &CS : DefCalls[D])
          if (SinkCalls.count(CS.Name)) {
            Sink = true;
            break;
          }
      if (!Sink && hasScheduledLambda(T, S.BodyBegin, S.BodyEnd))
        Sink = true;
      if (Sink)
        SinkReaching.insert(D);
    }
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (int D : ST.definitions()) {
        if (SinkReaching.count(D))
          continue;
        for (int Callee : CG.successors(D))
          if (SinkReaching.count(Callee)) {
            SinkReaching.insert(D);
            Changed = true;
            break;
          }
      }
    }

    // Taint: forward over assignments inside each body, then over return
    // edges to callers, iterated to a fixpoint.
    Changed = true;
    int Rounds = 0;
    while (Changed && ++Rounds <= 10) {
      Changed = false;
      for (int D : ST.definitions()) {
        const Symbol &S = Syms[D];
        const SourceFile &F = Files[S.FileIndex];
        const std::vector<Token> &T = F.Toks.Tokens;
        std::set<std::string> &Locals = TaintedLocals[D];
        for (size_t I = S.BodyBegin; I < S.BodyEnd; ++I) {
          // `random_device Rd;` — an object whose calls produce the
          // nondeterminism: the declared name itself is tainted.
          if (T[I].Kind == TokKind::Ident && I + 1 < S.BodyEnd &&
              T[I + 1].Kind == TokKind::Ident) {
            std::string Src = taintSourceAt(F, I);
            if (!Src.empty() && Locals.insert(T[I + 1].Text).second) {
              LocalWhy[D][T[I + 1].Text] = "from " + Src;
              Changed = true;
            }
            // `Type Var(expr...)` / `Type Var{expr...}` — constructor
            // initialization from a tainted expression.
            if (Src.empty() && I + 2 < S.BodyEnd &&
                (isPunct(T[I + 2], "(") || isPunct(T[I + 2], "{"))) {
              size_t ArgClose = matchForward(T, I + 2);
              if (ArgClose < S.BodyEnd &&
                  !taintedIn(F, D, I + 3, ArgClose).empty() &&
                  Locals.insert(T[I + 1].Text).second) {
                LocalWhy[D][T[I + 1].Text] =
                    "from " + taintedIn(F, D, I + 3, ArgClose);
                Changed = true;
              }
            }
          }
          // `Name = expr` (or a compound assignment) — track Name when
          // expr is tainted.
          static const std::set<std::string> AssignOps = {
              "=",  "+=", "-=", "*=",  "/=",  "%=",
              "|=", "&=", "^=", "<<=", ">>="};
          if (T[I].Kind == TokKind::Punct && AssignOps.count(T[I].Text) &&
              I > S.BodyBegin && T[I - 1].Kind == TokKind::Ident) {
            size_t StmtEnd = I + 1;
            while (StmtEnd < S.BodyEnd &&
                   !(isPunct(T[StmtEnd], ";") &&
                     T[StmtEnd].ParenDepth <= T[I].ParenDepth &&
                     T[StmtEnd].BraceDepth <= T[I].BraceDepth))
              ++StmtEnd;
            std::string Desc = taintedIn(F, D, I + 1, StmtEnd);
            if (!Desc.empty() && Locals.insert(T[I - 1].Text).second) {
              LocalWhy[D][T[I - 1].Text] = "from " + Desc;
              Changed = true;
            }
            I = StmtEnd;
            continue;
          }
          // `return expr` — the function returns taint.
          if (isIdent(T[I], "return") && !ReturnsTainted.count(D)) {
            size_t StmtEnd = I + 1;
            while (StmtEnd < S.BodyEnd &&
                   !(isPunct(T[StmtEnd], ";") &&
                     T[StmtEnd].ParenDepth <= T[I].ParenDepth &&
                     T[StmtEnd].BraceDepth <= T[I].BraceDepth))
              ++StmtEnd;
            std::string Desc = taintedIn(F, D, I + 1, StmtEnd);
            if (!Desc.empty()) {
              ReturnsTainted[D] = Desc;
              Changed = true;
            }
            I = StmtEnd;
          }
        }
      }
    }
  }

  void checkDeterminismTaint(const SourceFile &F) {
    auto FIt = FileIndexOf.find(F.RelPath);
    if (FIt == FileIndexOf.end())
      return;
    static const std::set<std::string> SinkCalls = {
        "printf",     "fprintf",     "snprintf",   "sprintf",  "format",
        "addRow",     "traceBegin",  "traceStamp", "traceStampOn",
        "traceFinish", "stamp",      "beginOp",    "finishOp"};
    const std::vector<Token> &T = F.Toks.Tokens;
    for (int D : DefsByFile[FIt->second]) {
      const Symbol &S = ST.symbols()[D];
      for (const CallSite &CS : DefCalls[D]) {
        size_t Open = CS.NameTok + 1;
        size_t Close = matchForward(T, Open);
        if (Close >= T.size())
          continue;
        if (SinkCalls.count(CS.Name)) {
          std::string Desc = taintedIn(F, D, Open + 1, Close);
          if (!Desc.empty())
            emit(F, T[CS.NameTok].Line, "determinism-taint",
                 "nondeterministic value (" + Desc + ") reaches " + CS.Name +
                     "(); traces and results must be bit-identical across "
                     "runs — derive it from the virtual clock or the seeded "
                     "RNG");
          continue;
        }
        if ((CS.Name == "at" || CS.Name == "after") && CS.IsMember) {
          // Scheduling sink: the callback is the last top-level argument
          // (a lambda literal or a moved function object); everything
          // before the last top-level comma is the schedule-time
          // expression. A single argument is not a scheduling call
          // (e.g. map.at(key)).
          size_t LastComma = 0;
          int Par = 0, Brace = 0, Brack = 0;
          for (size_t J = Open + 1; J < Close; ++J) {
            if (T[J].Kind != TokKind::Punct)
              continue;
            const std::string &X = T[J].Text;
            if (X == "(")
              ++Par;
            else if (X == ")")
              --Par;
            else if (X == "{")
              ++Brace;
            else if (X == "}")
              --Brace;
            else if (X == "[")
              ++Brack;
            else if (X == "]")
              --Brack;
            else if (X == "," && Par == 0 && Brace == 0 && Brack == 0)
              LastComma = J;
          }
          if (LastComma == 0)
            continue;
          std::string Desc = taintedIn(F, D, Open + 1, LastComma);
          if (!Desc.empty())
            emit(F, T[CS.NameTok].Line, "determinism-taint",
                 "nondeterministic value (" + Desc + ") feeds the " + CS.Name +
                     "() schedule time; event order would differ between "
                     "runs");
          continue;
        }
        if (CS.Callee >= 0 && SinkReaching.count(CS.Callee)) {
          std::string Desc = taintedIn(F, D, Open + 1, Close);
          if (!Desc.empty())
            emit(F, T[CS.NameTok].Line, "determinism-taint",
                 "nondeterministic value (" + Desc + ") passed to '" +
                     ST.symbols()[CS.Callee].Qualified +
                     "', which reaches a determinism sink");
        }
      }
      // Streaming emissions inside this body: a tainted value in a `<<`
      // statement lands in benchmark output.
      std::set<int> Reported;
      for (size_t I = S.BodyBegin; I < S.BodyEnd; ++I) {
        if (!isPunct(T[I], "<<"))
          continue;
        size_t B = I;
        while (B > S.BodyBegin && !isPunct(T[B - 1], ";") &&
               !isPunct(T[B - 1], "{") && !isPunct(T[B - 1], "}"))
          --B;
        size_t E = I;
        while (E < S.BodyEnd && !isPunct(T[E], ";"))
          ++E;
        if (!Reported.insert(T[I].Line).second) {
          I = E;
          continue;
        }
        std::string Desc = taintedIn(F, D, B, E);
        if (!Desc.empty())
          emit(F, T[I].Line, "determinism-taint",
               "nondeterministic value (" + Desc +
                   ") is streamed to output; emit a stable value instead");
        I = E;
      }
    }
  }

  //===--------------------------------------------------------------------===
  // Rule: blocking-in-callback
  //===--------------------------------------------------------------------===

  /// Lambda body range [BodyBegin, BodyEnd) for the introducer at \p I,
  /// or (0,0) when the shape is not a full lambda literal.
  static std::pair<size_t, size_t> lambdaBody(const std::vector<Token> &T,
                                              size_t I) {
    size_t CaptClose = matchForward(T, I);
    if (CaptClose >= T.size())
      return {0, 0};
    size_t J = CaptClose + 1;
    if (J < T.size() && isPunct(T[J], "(")) {
      size_t ParClose = matchForward(T, J);
      if (ParClose >= T.size())
        return {0, 0};
      J = ParClose + 1;
    }
    while (J < T.size() &&
           (isIdent(T[J], "mutable") || isIdent(T[J], "noexcept")))
      ++J;
    if (J < T.size() && isPunct(T[J], "->")) {
      ++J;
      while (J < T.size() && !isPunct(T[J], "{"))
        ++J;
    }
    if (J >= T.size() || !isPunct(T[J], "{"))
      return {0, 0};
    size_t Close = matchForward(T, J);
    if (Close >= T.size())
      return {0, 0};
    return {J + 1, Close};
  }

  /// Symbol index for \p Key, or -1; missing keys (fixture trees without
  /// the engine sources) simply disable that target.
  int keySym(const char *Key) { return ST.symbolForKey(Key); }

  void checkBlockingInCallback(const SourceFile &F) {
    auto FIt = FileIndexOf.find(F.RelPath);
    if (FIt == FileIndexOf.end())
      return;
    const std::vector<Token> &T = F.Toks.Tokens;

    std::vector<std::pair<int, std::string>> QuiesForbidden;
    for (const char *K : {"SimMutex::lock", "Resource::request",
                          "Scheduler::at", "Scheduler::after",
                          "Scheduler::run", "Scheduler::runUntil"}) {
      int Sym = keySym(K);
      if (Sym >= 0)
        QuiesForbidden.push_back({Sym, K});
    }
    std::vector<std::pair<int, std::string>> ReentryForbidden;
    for (const char *K : {"Scheduler::run", "Scheduler::runUntil"}) {
      int Sym = keySym(K);
      if (Sym >= 0)
        ReentryForbidden.push_back({Sym, K});
    }
    static const std::set<std::string> QuiesDirect = {
        "lock", "request", "at", "after", "run", "runUntil"};

    for (int D : DefsByFile[FIt->second]) {
      for (const CallSite &CS : DefCalls[D]) {
        bool Quies = CS.Name == "addQuiescenceCheck";
        bool Callback = (CS.Name == "at" || CS.Name == "after") && CS.IsMember;
        if (!Quies && !Callback)
          continue;
        size_t Open = CS.NameTok + 1;
        size_t Close = matchForward(T, Open);
        if (Close >= T.size())
          continue;
        for (size_t J = Open + 1; J < Close; ++J) {
          if (!isLambdaIntroducer(T, J))
            continue;
          auto [LB, LE] = lambdaBody(T, J);
          if (LB == LE)
            continue;
          for (const CallSite *Inner : callsIn(D, LB, LE)) {
            if (Quies && Inner->IsMember && QuiesDirect.count(Inner->Name)) {
              emit(F, T[Inner->NameTok].Line, "blocking-in-callback",
                   "quiescence check calls " + Inner->Name +
                       "(); quiescence checks run between events and must "
                       "be read-only diagnostics");
              continue;
            }
            if (Inner->Callee < 0)
              continue;
            const auto &Forbidden = Quies ? QuiesForbidden : ReentryForbidden;
            std::set<int> Reach = CG.reachableFrom(Inner->Callee);
            for (const auto &[Sym, Key] : Forbidden) {
              if (!Reach.count(Sym))
                continue;
              std::string Ctx =
                  Quies ? "quiescence check"
                        : "callback scheduled via " + CS.Name + "()";
              std::string Tail =
                  Quies ? "quiescence checks run between events and must "
                          "be read-only diagnostics"
                        : "re-entering the scheduler loop from inside an "
                          "event corrupts the schedule";
              emit(F, T[Inner->NameTok].Line, "blocking-in-callback",
                   Ctx + " reaches " + Key + " through '" +
                       ST.symbols()[Inner->Callee].Qualified + "'; " + Tail);
              break;
            }
          }
          J = LE;
        }
      }
    }
  }

  const std::vector<SourceFile> &Files;
  std::vector<Finding> &Out;
  std::set<std::string> ErrorFns;
  std::set<std::string> UnorderedVars, PtrKeyedVars, InplaceVars;
  SymbolTable ST;
  CallGraph CG;
  std::map<int, std::vector<int>> DefsByFile;       ///< FileIndex -> defs
  std::map<std::string, int> FileIndexOf;           ///< RelPath -> FileIndex
  std::map<int, std::vector<CallSite>> DefCalls;    ///< def -> call sites
  std::map<int, std::string> ReturnsTainted;        ///< def -> source desc
  std::map<int, std::set<std::string>> TaintedLocals;
  std::map<int, std::map<std::string, std::string>> LocalWhy;
  std::set<int> SinkReaching;
  const std::string Empty;
};

} // namespace

namespace {

SourceFile parseSource(std::string RelPath, const std::string &Content) {
  SourceFile F;
  F.RelPath = std::move(RelPath);
  F.Toks = tokenize(Content);
  F.RawLines = splitLines(Content);
  return F;
}

/// Runs every rule over \p Files after the findings already in \p Out,
/// and sorts the lot.
std::vector<Finding> analyzeFiles(const std::vector<SourceFile> &Files,
                                  std::vector<Finding> Out,
                                  std::ostream *Dot) {
  RuleEngine(Files, Out).run(Dot);
  std::sort(Out.begin(), Out.end(), [](const Finding &A, const Finding &B) {
    if (A.File != B.File)
      return A.File < B.File;
    if (A.Line != B.Line)
      return A.Line < B.Line;
    if (A.Rule != B.Rule)
      return A.Rule < B.Rule;
    return A.Message < B.Message;
  });
  return Out;
}

} // namespace

std::vector<Finding> dmb::analyze::analyzeSources(
    const std::vector<std::pair<std::string, std::string>> &Inputs) {
  std::vector<SourceFile> Files;
  Files.reserve(Inputs.size());
  for (const auto &[Rel, Content] : Inputs)
    Files.push_back(parseSource(Rel, Content));
  return analyzeFiles(Files, {}, nullptr);
}

std::vector<Finding> dmb::analyze::analyzeTree(const std::string &Root,
                                               size_t *FilesChecked,
                                               std::ostream *Dot) {
  std::vector<SourceFile> Files;
  std::vector<Finding> Unreadable;
  for (const std::string &Rel :
       collectSourceFiles(Root, {"src", "tests", "bench", "tools"})) {
    std::string Content;
    if (readFile(Root + "/" + Rel, Content))
      Files.push_back(parseSource(Rel, Content));
    else
      Unreadable.push_back({Rel, 0, "io", "cannot read file"});
  }
  if (FilesChecked)
    *FilesChecked = Files.size();
  return analyzeFiles(Files, std::move(Unreadable), Dot);
}

const std::vector<std::string> &dmb::analyze::analyzeRuleNames() {
  static const std::vector<std::string> Names = {
      "wall-clock",          "randomness",
      "raw-assert",          "header-guard",
      "error-table",         "trace-clock",
      "event-queue",         "raii-guard",
      "fault-determinism",   "suppression-justification",
      "io",                  "unordered-iteration",
      "pointer-identity",    "callback-lifetime",
      "determinism-taint",   "error-path-propagation",
      "blocking-in-callback", "swallowed-completion-error",
      "layering",            "include-cycle",
      "unused-include"};
  return Names;
}
