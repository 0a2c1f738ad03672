//===- tests/AnalyzeTest.cpp - Unit tests for tools/dmeta-analyze ---------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// One violating and one clean fixture per analyzer rule, asserting the rule
// fires exactly where expected and nowhere else, plus the shared CLI's exit
// codes (0 clean / 1 findings / 2 usage / 3 no sources) for both tools.
//
//===----------------------------------------------------------------------===//

#include "analyze/AnalyzeEngine.h"
#include "analyze/CallGraph.h"
#include "analyze/ToolMain.h"
#include "analyze/Tokenizer.h"
#include "lint/LintEngine.h"
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace dmb::analyze;
namespace fs = std::filesystem;

namespace {

using Sources = std::vector<std::pair<std::string, std::string>>;

bool hasRule(const std::vector<Finding> &Fs, const std::string &Rule) {
  for (const Finding &F : Fs)
    if (F.Rule == Rule)
      return true;
  return false;
}

/// Tokenizes in-memory sources into SourceFiles for the SymbolTable and
/// CallGraph unit tests (the rule tests go through analyzeSources instead).
std::vector<SourceFile> parseSources(const Sources &Inputs) {
  std::vector<SourceFile> Files;
  for (const auto &[Rel, Content] : Inputs) {
    SourceFile F;
    F.RelPath = Rel;
    F.Content = Content;
    F.Toks = tokenize(F.Content);
    Files.push_back(std::move(F));
  }
  return Files;
}

//===----------------------------------------------------------------------===//
// unordered-iteration
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, UnorderedIterationReachingOutputIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Emit.cpp",
        "#include <unordered_map>\n"
        "void f(std::ostream &OS) {\n"
        "  std::unordered_map<int, int> Counts;\n"
        "  for (const auto &P : Counts)\n"
        "    OS << P.first;\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/sim/Emit.cpp", Fs[0].File);
  EXPECT_EQ(4, Fs[0].Line);
  EXPECT_EQ("unordered-iteration", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("Counts"));
}

TEST(AnalyzeRules, SortBeforeEmitIsTheSanctionedSpelling) {
  // Accumulating into a vector that is std::sort-ed later in the same
  // scope makes the emission order deterministic — not flagged.
  EXPECT_TRUE(analyzeSources(
                  {{"src/sim/Emit.cpp",
                    "#include <algorithm>\n"
                    "#include <unordered_map>\n"
                    "#include <vector>\n"
                    "void g(std::ostream &OS) {\n"
                    "  std::unordered_map<int, int> Counts;\n"
                    "  std::vector<int> Keys;\n"
                    "  for (const auto &P : Counts)\n"
                    "    Keys.push_back(P.first);\n"
                    "  std::sort(Keys.begin(), Keys.end());\n"
                    "  for (int K : Keys)\n"
                    "    OS << K;\n"
                    "}\n"}})
                  .empty());
}

TEST(AnalyzeRules, AccumulateWithoutSortIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Emit.cpp",
        "#include <unordered_map>\n"
        "#include <vector>\n"
        "void g(std::vector<int> &Out) {\n"
        "  std::unordered_map<int, int> Counts;\n"
        "  for (const auto &P : Counts)\n"
        "    Out.push_back(P.first);\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("unordered-iteration", Fs[0].Rule);
  EXPECT_EQ(5, Fs[0].Line);
}

TEST(AnalyzeRules, UnorderedIterationOutsideDeterminismScopeIsFine) {
  // tests/ compare values, not emission order; the rule is src/, bench/
  // and tools/ only.
  EXPECT_TRUE(analyzeSources(
                  {{"tests/EmitTest.cpp",
                    "#include <unordered_map>\n"
                    "void f(std::ostream &OS) {\n"
                    "  std::unordered_map<int, int> Counts;\n"
                    "  for (const auto &P : Counts)\n"
                    "    OS << P.first;\n"
                    "}\n"}})
                  .empty());
}

TEST(AnalyzeRules, HeaderDeclaredMemberIsSeenFromTheCpp) {
  // The fsck shape: the container member lives in the class in the .h,
  // the iterating loop in the .cpp. The .cpp inherits its own header's
  // container declarations.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/fs/Tab.h",
        "#include <unordered_map>\n"
        "class Tab {\n"
        "  std::unordered_map<int, int> Rows;\n"
        "  void dump(std::ostream &OS);\n"
        "};\n"},
       {"src/fs/Tab.cpp",
        "#include \"fs/Tab.h\"\n"
        "void Tab::dump(std::ostream &OS) {\n"
        "  for (const auto &R : Rows)\n"
        "    OS << R.first;\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/fs/Tab.cpp", Fs[0].File);
  EXPECT_EQ(3, Fs[0].Line);
  EXPECT_EQ("unordered-iteration", Fs[0].Rule);
}

//===----------------------------------------------------------------------===//
// pointer-identity
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, PointerKeyedIterationIsCaughtOutright) {
  // Address order is never deterministic; no later sort can sanction it.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/cluster/Owners.cpp",
        "#include <map>\n"
        "struct Node;\n"
        "void f(std::ostream &OS) {\n"
        "  std::map<Node *, int> Owners;\n"
        "  for (const auto &P : Owners)\n"
        "    OS << P.second;\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(5, Fs[0].Line);
  EXPECT_EQ("pointer-identity", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("Owners"));
}

TEST(AnalyzeRules, PointerKeyedLookupIsFine) {
  // A pointer-keyed map used only for lookup never exposes address order.
  EXPECT_TRUE(analyzeSources(
                  {{"src/cluster/Owners.cpp",
                    "#include <map>\n"
                    "struct Node;\n"
                    "int g(std::map<Node *, int> &Owners, Node *N) {\n"
                    "  return Owners.at(N);\n"
                    "}\n"}})
                  .empty());
}

TEST(AnalyzeRules, PointerFormattingIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/support/Dump.cpp",
        "#include <cstdio>\n"
        "void f(void *P, std::ostream &OS, int X) {\n"
        "  std::printf(\"at %p\\n\", P);\n"
        "  OS << &X;\n"
        "}\n"}});
  ASSERT_EQ(2u, Fs.size());
  EXPECT_EQ(3, Fs[0].Line);
  EXPECT_EQ("pointer-identity", Fs[0].Rule);
  EXPECT_EQ(4, Fs[1].Line);
  EXPECT_EQ("pointer-identity", Fs[1].Rule);
}

TEST(AnalyzeRules, StableIdFormattingIsFine) {
  EXPECT_TRUE(analyzeSources(
                  {{"src/support/Dump.cpp",
                    "#include <cstdio>\n"
                    "void f(unsigned long Id, std::ostream &OS, int X) {\n"
                    "  std::printf(\"at %lu\\n\", Id);\n"
                    "  OS << X;\n"
                    "}\n"}})
                  .empty());
}

//===----------------------------------------------------------------------===//
// callback-lifetime
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, ByRefCaptureHandedToSchedulerIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Retry.cpp",
        "void f(Scheduler &S) {\n"
        "  int N = 0;\n"
        "  S.after(5, [&N]() { ++N; });\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(3, Fs[0].Line);
  EXPECT_EQ("callback-lifetime", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("&N"));
}

TEST(AnalyzeRules, AddressOfInitCaptureInInplaceFunctionIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Arm.cpp",
        "struct W {\n"
        "  InplaceFunction<void()> Cb;\n"
        "  void arm(int &X) { Cb = [P = &X]() { ++*P; }; }\n"
        "};\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(3, Fs[0].Line);
  EXPECT_EQ("callback-lifetime", Fs[0].Rule);
}

TEST(AnalyzeRules, ValueAndThisCapturesAreFine) {
  EXPECT_TRUE(analyzeSources(
                  {{"src/sim/Retry.cpp",
                    "struct R {\n"
                    "  void f(Scheduler &S, int N) {\n"
                    "    S.after(5, [N]() { use(N); });\n"
                    "    S.after(6, [this]() { step(); });\n"
                    "  }\n"
                    "};\n"}})
                  .empty());
}

TEST(AnalyzeRules, LifetimeScopeExemptsBenchAndTests) {
  // bench/ and tests/ drive the scheduler to completion inside the
  // capturing frame, so by-ref captures cannot dangle there.
  EXPECT_TRUE(analyzeSources(
                  {{"bench/Drive.cpp",
                    "void f(Scheduler &S) {\n"
                    "  int N = 0;\n"
                    "  S.after(5, [&N]() { ++N; });\n"
                    "}\n"}})
                  .empty());
}

//===----------------------------------------------------------------------===//
// layering / include-cycle / unused-include
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, UpwardIncludeInvertsTheLayerDag) {
  // support (band 0) must not reach into core (band 3).
  std::vector<Finding> Fs = analyzeSources(
      {{"src/core/Stats.h", "struct RunStats { int N; };\n"},
       {"src/support/Bad.cpp",
        "#include \"core/Stats.h\"\n"
        "RunStats use();\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/support/Bad.cpp", Fs[0].File);
  EXPECT_EQ(1, Fs[0].Line);
  EXPECT_EQ("layering", Fs[0].Rule);
}

TEST(AnalyzeRules, DownwardAndLateralIncludesAreFine) {
  EXPECT_TRUE(analyzeSources(
                  {{"src/support/Util.h", "int clamp(int X);\n"},
                   {"src/fs/Inode.h", "struct Inode { int Mode; };\n"},
                   {"src/core/Use.cpp",
                    "#include \"support/Util.h\"\n"
                    "int f() { return clamp(3); }\n"},
                   {"src/dfs/Server.cpp",
                    "#include \"fs/Inode.h\"\n"
                    "Inode mk();\n"}})
                  .empty());
}

TEST(AnalyzeRules, IncludeCycleIsReportedOnceAtItsAnchor) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/A.h",
        "#include \"sim/B.h\"\n"
        "struct A { B *Link; };\n"},
       {"src/sim/B.h",
        "#include \"sim/A.h\"\n"
        "struct B { A *Back; };\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/sim/A.h", Fs[0].File);
  EXPECT_EQ(0, Fs[0].Line);
  EXPECT_EQ("include-cycle", Fs[0].Rule);
  EXPECT_NE(std::string::npos,
            Fs[0].Message.find("src/sim/A.h -> src/sim/B.h -> src/sim/A.h"));
}

TEST(AnalyzeRules, UnusedProjectIncludeIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Helper.h", "int helperFn(int X);\n"},
       {"src/sim/U.cpp",
        "#include \"sim/Helper.h\"\n"
        "int other() { return 1; }\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/sim/U.cpp", Fs[0].File);
  EXPECT_EQ(1, Fs[0].Line);
  EXPECT_EQ("unused-include", Fs[0].Rule);
}

TEST(AnalyzeRules, UsedIncludeAndOwnHeaderAreFine) {
  EXPECT_TRUE(analyzeSources(
                  {{"src/sim/Helper.h", "int helperFn(int X);\n"},
                   {"src/sim/U.h", "int entry();\n"},
                   {"src/sim/U.cpp",
                    "#include \"sim/Helper.h\"\n"
                    "#include \"sim/U.h\"\n"
                    "int entry() { return helperFn(1); }\n"}})
                  .empty());
}

TEST(AnalyzeRules, UmbrellaHeaderAndItsIncluderAreExempt) {
  // A pure re-export header (>= 5 includes, no declarations of its own)
  // is the umbrella pattern: its includes ARE its interface, and an
  // includer is credited with the symbols one level down.
  Sources Tree = {{"src/a/A1.h", "struct A1 { int X; };\n"},
                  {"src/a/A2.h", "struct A2 { int X; };\n"},
                  {"src/a/A3.h", "struct A3 { int X; };\n"},
                  {"src/a/A4.h", "struct A4 { int X; };\n"},
                  {"src/a/A5.h", "struct A5 { int X; };\n"},
                  {"src/a/All.h",
                   "#ifndef ALL_H\n#define ALL_H\n"
                   "#include \"a/A1.h\"\n#include \"a/A2.h\"\n"
                   "#include \"a/A3.h\"\n#include \"a/A4.h\"\n"
                   "#include \"a/A5.h\"\n#endif\n"},
                  {"src/a/User.cpp",
                   "#include \"a/All.h\"\n"
                   "A3 pick();\n"}};
  EXPECT_TRUE(analyzeSources(Tree).empty());
}

//===----------------------------------------------------------------------===//
// Suppressions
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, AllowHatchSuppressesExactlyItsRule) {
  // The justified allow() on the finding line drops it...
  EXPECT_TRUE(analyzeSources(
                  {{"src/fs/Bad.cpp",
                    "FsError drop(int Fh);\n"
                    "void f() {\n"
                    "  FsError E = drop(1); // dmeta-analyze: "
                    "allow(error-path-propagation) probe only\n"
                    "}\n"}})
                  .empty());
  // ...but an allow() naming a different rule does not.
  EXPECT_TRUE(hasRule(
      analyzeSources({{"src/fs/Bad.cpp",
                       "FsError drop(int Fh);\n"
                       "void f() {\n"
                       "  FsError E = drop(1); // dmeta-analyze: "
                       "allow(layering) wrong rule\n"
                       "}\n"}}),
      "error-path-propagation"));
}

//===----------------------------------------------------------------------===//
// determinism-taint
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, TaintedValueReachingAnOutputSinkIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Noise.cpp",
        "#include <cstdio>\n"
        "#include <random>\n"
        "void report() {\n"
        "  std::random_device Rd;\n"
        "  unsigned V = Rd();\n"
        "  std::printf(\"%u\\n\", V);\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/sim/Noise.cpp", Fs[0].File);
  EXPECT_EQ(6, Fs[0].Line);
  EXPECT_EQ("determinism-taint", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("std::random_device"));
}

TEST(AnalyzeRules, TaintCrossesTranslationUnitsThroughReturns) {
  // The acceptance shape: the entropy source lives in one .cpp, the sink
  // in another; the "returns tainted" summary carries it across.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Noise.cpp",
        "#include <random>\n"
        "double noisy() {\n"
        "  std::random_device Rd;\n"
        "  double V = Rd() * 0.5;\n"
        "  return V;\n"
        "}\n"},
       {"src/sim/Use.cpp",
        "#include <cstdio>\n"
        "double noisy();\n"
        "void report() {\n"
        "  double S = noisy();\n"
        "  std::printf(\"%f\\n\", S);\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/sim/Use.cpp", Fs[0].File);
  EXPECT_EQ(5, Fs[0].Line);
  EXPECT_EQ("determinism-taint", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("noisy"));
  EXPECT_NE(std::string::npos, Fs[0].Message.find("std::random_device"));
}

TEST(AnalyzeRules, TaintFeedingAScheduleTimeIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Jitter.cpp",
        "#include <cstdlib>\n"
        "struct Scheduler { void after(double D, int Tok); };\n"
        "void jitter(Scheduler &S, int Tok) {\n"
        "  double D = std::rand() * 0.001;\n"
        "  S.after(D, Tok);\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(5, Fs[0].Line);
  EXPECT_EQ("determinism-taint", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("schedule time"));
}

TEST(AnalyzeRules, DeterministicScheduleTimesAreFine) {
  EXPECT_TRUE(analyzeSources(
                  {{"src/sim/Jitter.cpp",
                    "struct Scheduler { void after(double D, int Tok); };\n"
                    "void even(Scheduler &S, double D, int Tok) {\n"
                    "  S.after(D + 1.0, Tok);\n"
                    "}\n"}})
                  .empty());
}

TEST(AnalyzeRules, AllowAtTheTaintSourceKillsTheWholeChain) {
  // Suppressing at the source is the one sanctioned hatch: everything
  // derived from it inherits the decision, including the sink report.
  EXPECT_TRUE(
      analyzeSources(
          {{"src/sim/Noise.cpp",
            "#include <cstdio>\n"
            "#include <random>\n"
            "void report() {\n"
            "  std::random_device Rd; // dmeta-analyze: "
            "allow(determinism-taint) one-time seed harvest\n"
            "  unsigned V = Rd();\n"
            "  std::printf(\"%u\\n\", V);\n"
            "}\n"}})
          .empty());
}

//===----------------------------------------------------------------------===//
// error-path-propagation
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, SwallowedErrorLocalIsCaught) {
  // Storing the error and never looking at it is the quiet variant of
  // discarding it outright.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/fs/Swallow.cpp",
        "FsError openFile(int Fh);\n"
        "void mount() {\n"
        "  FsError E = openFile(7);\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(3, Fs[0].Line);
  EXPECT_EQ("error-path-propagation", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("'E'"));
  EXPECT_NE(std::string::npos, Fs[0].Message.find("never examined"));
}

TEST(AnalyzeRules, ExaminedErrorLocalIsFine) {
  EXPECT_TRUE(analyzeSources(
                  {{"src/fs/Swallow.cpp",
                    "FsError openFile(int Fh);\n"
                    "int mount() {\n"
                    "  FsError E = openFile(7);\n"
                    "  return E == FsError::Ok ? 0 : 1;\n"
                    "}\n"}})
                  .empty());
}

//===----------------------------------------------------------------------===//
// swallowed-completion-error
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, IgnoredCompletionReplyIsCaught) {
  // With a write-behind queue the completion callback is the only place
  // a deferred op's failure surfaces; naming the reply and ignoring it
  // swallows that error.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/dfs/Q.cpp",
        "void touch(ClientFs &C, MetaRequest Op) {\n"
        "  C.submit(Op, [](MetaReply R) {\n"
        "    ++Acked;\n"
        "  });\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(2, Fs[0].Line);
  EXPECT_EQ("swallowed-completion-error", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("'R'"));
  EXPECT_NE(std::string::npos, Fs[0].Message.find("swallowed"));
}

TEST(AnalyzeRules, ReplyFieldReadWithoutErrorCheckIsStillSwallowed) {
  // Reading .Fh alone consumes the payload but not the verdict.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/dfs/Q.cpp",
        "void touch(ClientFs &C, MetaRequest Op) {\n"
        "  C.submit(Op, [this](MetaReply R) {\n"
        "    Fh = R.Fh;\n"
        "  });\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("swallowed-completion-error", Fs[0].Rule);
}

TEST(AnalyzeRules, ExaminedOrForwardedCompletionReplyIsFine) {
  // Checking ok()/Err, forwarding the whole reply, or dropping the
  // parameter name (the async analogue of a (void) cast) are all
  // sanctioned; so is a lambda handed to an unrelated API.
  EXPECT_TRUE(analyzeSources(
                  {{"src/dfs/Q.cpp",
                    "void a(ClientFs &C, MetaRequest Op) {\n"
                    "  C.submit(Op, [](MetaReply R) {\n"
                    "    if (!R.ok()) note(R.Err);\n"
                    "  });\n"
                    "}\n"
                    "void b(ClientFs &C, MetaRequest Op, Callback Done) {\n"
                    "  C.submit(Op, [Done](MetaReply R) {\n"
                    "    Done(std::move(R));\n"
                    "  });\n"
                    "}\n"
                    "void c(ClientFs &C, MetaRequest Op) {\n"
                    "  C.submit(Op, [](MetaReply) {});\n"
                    "}\n"
                    "void d(Visitor &V, MetaRequest Op) {\n"
                    "  V.visit(Op, [](MetaReply R) {});\n"
                    "}\n"}})
                  .empty());
}

//===----------------------------------------------------------------------===//
// blocking-in-callback
//===----------------------------------------------------------------------===//

TEST(AnalyzeRules, QuiescenceCheckSchedulingWorkIsCaught) {
  // Quiescence checks run between events; one that mutates the schedule
  // turns the diagnostic pass into part of the simulation.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Quies.cpp",
        "struct Scheduler {\n"
        "  void addQuiescenceCheck(int C);\n"
        "  void after(double D, int C);\n"
        "};\n"
        "void arm(Scheduler &S) {\n"
        "  S.addQuiescenceCheck([&S] { S.after(1.0, 0); });\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(6, Fs[0].Line);
  EXPECT_EQ("blocking-in-callback", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("quiescence check"));
  EXPECT_NE(std::string::npos, Fs[0].Message.find("after"));
}

TEST(AnalyzeRules, QuiescenceCheckReachingLockTransitivelyIsCaught) {
  // The mutation is hidden behind a helper; call-graph reachability
  // still connects the check to SimMutex::lock.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Quies.cpp",
        "struct SimMutex { void lock(int C); };\n"
        "void poke(SimMutex &M) { M.lock(0); }\n"
        "struct Scheduler { void addQuiescenceCheck(int C); };\n"
        "void arm(Scheduler &S, SimMutex &M) {\n"
        "  S.addQuiescenceCheck([&M] { poke(M); });\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(5, Fs[0].Line);
  EXPECT_EQ("blocking-in-callback", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("SimMutex::lock"));
  EXPECT_NE(std::string::npos, Fs[0].Message.find("'poke'"));
}

TEST(AnalyzeRules, CallbackReenteringTheSchedulerLoopIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Reenter.cpp",
        "struct Scheduler {\n"
        "  void at(double T, int C);\n"
        "  void run();\n"
        "};\n"
        "void drain(Scheduler &S) { S.run(); }\n"
        "void arm(Scheduler *S) {\n"
        "  S->at(1.0, [S] { drain(*S); });\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(7, Fs[0].Line);
  EXPECT_EQ("blocking-in-callback", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("Scheduler::run"));
  EXPECT_NE(std::string::npos, Fs[0].Message.find("'drain'"));
}

TEST(AnalyzeRules, CpsLockFromAnOrdinaryCallbackIsTheDesign) {
  // SimMutex::lock is continuation-passing: acquiring it from an event
  // callback is exactly how the engine is meant to be used. Only the
  // run/runUntil re-entry is forbidden there.
  EXPECT_TRUE(analyzeSources(
                  {{"src/sim/Reenter.cpp",
                    "struct SimMutex { void lock(int C); };\n"
                    "void grab(SimMutex &M) { M.lock(0); }\n"
                    "struct Scheduler { void at(double T, int C); };\n"
                    "void arm(Scheduler *S, SimMutex *M) {\n"
                    "  S->at(1.0, [M] { grab(*M); });\n"
                    "}\n"}})
                  .empty());
}

//===----------------------------------------------------------------------===//
// SymbolTable and CallGraph
//===----------------------------------------------------------------------===//

TEST(SymbolTable, MatchesDeclarationsToDefinitionsAcrossFiles) {
  std::vector<SourceFile> Files = parseSources(
      {{"src/sim/M.h",
        "class M {\n"
        "  int grow(int N);\n"
        "  void shrink();\n"
        "};\n"},
       {"src/sim/M.cpp",
        "#include \"sim/M.h\"\n"
        "using namespace dmb;\n"
        "int M::grow(int N) { return N + 1; }\n"}});
  SymbolTable ST;
  ST.build(Files);
  int Def = ST.definitionForKey("M::grow");
  ASSERT_GE(Def, 0);
  EXPECT_TRUE(ST.symbols()[Def].IsDefinition);
  EXPECT_EQ("M", ST.symbols()[Def].ClassName);
  EXPECT_EQ("int", ST.symbols()[Def].ReturnType);
  // symbolForKey falls back to the declaration for body-less methods —
  // a stub is still a valid reachability anchor.
  EXPECT_EQ(-1, ST.definitionForKey("M::shrink"));
  int Decl = ST.symbolForKey("M::shrink");
  ASSERT_GE(Decl, 0);
  EXPECT_FALSE(ST.symbols()[Decl].IsDefinition);
}

TEST(SymbolTable, ResolveCallPrefersQualifiersAndDropsAmbiguity) {
  std::vector<SourceFile> Files = parseSources(
      {{"src/sim/S.cpp",
        "struct A { int size(); };\n"
        "struct B { int size(); };\n"
        "int A::size() { return 1; }\n"
        "int B::size() { return 2; }\n"
        "int unique() { return 3; }\n"}});
  SymbolTable ST;
  ST.build(Files);
  // Same-class context binds the unqualified call.
  int FromA = ST.resolveCall("", "A", "size");
  ASSERT_GE(FromA, 0);
  EXPECT_EQ("A", ST.symbols()[FromA].ClassName);
  // An explicit qualifier overrides the caller's class.
  int Qual = ST.resolveCall("B", "A", "size");
  ASSERT_GE(Qual, 0);
  EXPECT_EQ("B", ST.symbols()[Qual].ClassName);
  // With neither, two candidate keys make the call ambiguous — the edge
  // is dropped rather than guessed.
  EXPECT_EQ(-1, ST.resolveCall("", "", "size"));
  EXPECT_GE(ST.resolveCall("", "", "unique"), 0);
}

TEST(CallGraph, EdgesReachabilityAndSccCondensation) {
  std::vector<SourceFile> Files = parseSources(
      {{"src/sim/G.cpp",
        "int leaf() { return 1; }\n"
        "int mid() { return leaf(); }\n"
        "int top() { return mid(); }\n"
        "int ping(int N);\n"
        "int pong(int N) { return ping(N - 1); }\n"
        "int ping(int N) { return N > 0 ? pong(N) : 0; }\n"}});
  SymbolTable ST;
  ST.build(Files);
  CallGraph CG;
  CG.build(ST, Files);
  int Leaf = ST.definitionForKey("leaf"), Mid = ST.definitionForKey("mid"),
      Top = ST.definitionForKey("top"), Ping = ST.definitionForKey("ping"),
      Pong = ST.definitionForKey("pong");
  ASSERT_GE(Leaf, 0);
  ASSERT_GE(Ping, 0);
  EXPECT_TRUE(CG.reaches(Top, Leaf));
  EXPECT_FALSE(CG.reaches(Leaf, Top));
  // The mutual recursion condenses into one component; the straight
  // chain does not.
  EXPECT_EQ(CG.sccOf(Ping), CG.sccOf(Pong));
  EXPECT_NE(CG.sccOf(Mid), CG.sccOf(Top));
  // Component ids are reverse-topological: callees before callers.
  EXPECT_LT(CG.sccOf(Leaf), CG.sccOf(Mid));
  EXPECT_LT(CG.sccOf(Mid), CG.sccOf(Top));
}

TEST(CallGraph, DotExportIsDeterministicAndNamesTheEdges) {
  std::vector<SourceFile> Files = parseSources(
      {{"src/sim/G.cpp",
        "int leaf() { return 1; }\n"
        "int mid() { return leaf(); }\n"}});
  SymbolTable ST;
  ST.build(Files);
  CallGraph CG;
  CG.build(ST, Files);
  std::ostringstream A, B;
  CG.writeDot(A);
  CG.writeDot(B);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_NE(std::string::npos, A.str().find("digraph callgraph"));
  EXPECT_NE(std::string::npos, A.str().find("\"mid\" -> \"leaf\";"));
}

//===----------------------------------------------------------------------===//
// Shared CLI: flags and exit codes for both tools
//===----------------------------------------------------------------------===//

/// Materialises a throwaway tree and runs toolMain over it.
class ToolCliTest : public ::testing::Test {
protected:
  void SetUp() override {
    Root = fs::temp_directory_path() /
           ("dmeta-analyze-test-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(Root);
    fs::create_directories(Root);
  }
  void TearDown() override { fs::remove_all(Root); }

  void write(const std::string &Rel, const std::string &Content) {
    fs::path P = Root / Rel;
    fs::create_directories(P.parent_path());
    std::ofstream(P) << Content;
  }

  /// Writes a file whose function \p Fn stores an FsError it never reads:
  /// one error-path-propagation finding.
  void writeSwallowedError(const std::string &Rel, const std::string &Fn) {
    write(Rel, "FsError drop(int Fh);\n"
               "void " + Fn + "() { FsError E = drop(1); }\n");
  }

  static ToolConfig analyzeConfig() {
    ToolConfig Cfg;
    Cfg.Tool = "dmeta-analyze";
    Cfg.Description = "test";
    Cfg.Rules = analyzeRuleNames();
    Cfg.Run = [](const std::string &R, size_t &N) {
      return analyzeTree(R, &N);
    };
    Cfg.WriteDot = [](const std::string &R, std::ostream &OS) {
      return writeCallGraphDot(R, OS);
    };
    return Cfg;
  }

  static ToolConfig lintConfig() {
    ToolConfig Cfg;
    Cfg.Tool = "dmeta-lint";
    Cfg.Description = "test";
    Cfg.Rules = dmb::lint::lintRuleNames();
    Cfg.Run = [](const std::string &R, size_t &N) {
      return dmb::lint::lintTree(R, &N);
    };
    return Cfg;
  }

  /// Runs toolMain with the given extra args (after --root <Root>),
  /// capturing stdout into \p StdoutText when non-null.
  int run(const ToolConfig &Cfg, std::vector<std::string> Args,
          std::string *StdoutText = nullptr) {
    std::vector<std::string> All = {Cfg.Tool, "--root", Root.string()};
    All.insert(All.end(), Args.begin(), Args.end());
    std::vector<char *> Argv;
    Argv.reserve(All.size());
    for (std::string &A : All)
      Argv.push_back(A.data());
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    int Code = toolMain(static_cast<int>(Argv.size()), Argv.data(), Cfg);
    std::string OutText = ::testing::internal::GetCapturedStdout();
    ::testing::internal::GetCapturedStderr();
    if (StdoutText)
      *StdoutText = OutText;
    return Code;
  }

  fs::path Root;
};

TEST_F(ToolCliTest, CleanTreeExitsZero) {
  write("src/sim/Ok.cpp", "int f() { return 1; }\n");
  EXPECT_EQ(0, run(analyzeConfig(), {}));
  EXPECT_EQ(0, run(lintConfig(), {}));
}

TEST_F(ToolCliTest, FindingsExitOne) {
  writeSwallowedError("src/fs/Bad.cpp", "f");
  EXPECT_EQ(1, run(analyzeConfig(), {}));
}

TEST_F(ToolCliTest, UnknownArgumentAndUnknownRuleAreUsageErrors) {
  // Exit 2 is reserved for misuse of the CLI itself, for both tools.
  write("src/sim/Ok.cpp", "int f() { return 1; }\n");
  EXPECT_EQ(2, run(analyzeConfig(), {"--frobnicate"}));
  EXPECT_EQ(2, run(analyzeConfig(), {"--rule", "not-a-rule"}));
  EXPECT_EQ(2, run(analyzeConfig(), {"--rule"}));
  EXPECT_EQ(2, run(lintConfig(), {"--frobnicate"}));
  EXPECT_EQ(2, run(lintConfig(), {"--rule", "unordered-iteration"}));
}

TEST_F(ToolCliTest, EmptyTreeExitsThreeNotTwo) {
  // An empty scan is a misconfigured checkout, not a clean tree — and not
  // a usage error either; CI must be able to tell the three apart.
  EXPECT_EQ(3, run(analyzeConfig(), {}));
  EXPECT_EQ(3, run(lintConfig(), {}));
}

TEST_F(ToolCliTest, RuleFilterLimitsTheReport) {
  writeSwallowedError("src/fs/Bad.cpp", "f");
  EXPECT_EQ(1, run(analyzeConfig(), {"--rule", "error-path-propagation"}));
  // Filtering on a rule with no findings reports a clean run.
  EXPECT_EQ(0, run(analyzeConfig(), {"--rule", "layering"}));
}

TEST_F(ToolCliTest, JsonOutputCarriesToolFilesAndFindings) {
  writeSwallowedError("src/fs/Bad.cpp", "f");
  std::string Json;
  EXPECT_EQ(1, run(analyzeConfig(), {"--json"}, &Json));
  EXPECT_NE(std::string::npos, Json.find("\"tool\": \"dmeta-analyze\""));
  EXPECT_NE(std::string::npos, Json.find("\"filesChecked\": 1"));
  EXPECT_NE(std::string::npos,
            Json.find("\"rule\": \"error-path-propagation\""));
  EXPECT_NE(std::string::npos, Json.find("\"file\": \"src/fs/Bad.cpp\""));
}

TEST_F(ToolCliTest, WriteBaselineRecordsDebtAndExitsZero) {
  // Adopting a rule on a tree with accepted findings must not gate CI on
  // the day of adoption — recording the debt is itself a success.
  writeSwallowedError("src/fs/Bad.cpp", "f");
  fs::path Base = Root / "baseline.txt";
  EXPECT_EQ(0, run(analyzeConfig(), {"--write-baseline", Base.string()}));
  std::ifstream In(Base);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(std::string::npos,
            SS.str().find("src/fs/Bad.cpp [error-path-propagation]"));
}

TEST_F(ToolCliTest, BaselineSilencesKnownFindingsButNotNewOnes) {
  writeSwallowedError("src/fs/Bad.cpp", "f");
  fs::path Base = Root / "baseline.txt";
  ASSERT_EQ(0, run(analyzeConfig(), {"--write-baseline", Base.string()}));
  // The recorded finding no longer fails the run...
  EXPECT_EQ(0, run(analyzeConfig(), {"--baseline", Base.string()}));
  // ...but a finding introduced afterwards still does, and only it is
  // reported.
  writeSwallowedError("src/fs/Worse.cpp", "g");
  std::string Out;
  EXPECT_EQ(1, run(analyzeConfig(), {"--baseline", Base.string()}, &Out));
  EXPECT_NE(std::string::npos, Out.find("src/fs/Worse.cpp"));
  EXPECT_EQ(std::string::npos, Out.find("src/fs/Bad.cpp"));
}

TEST_F(ToolCliTest, UnreadableBaselineIsAUsageError) {
  write("src/sim/Ok.cpp", "int f() { return 1; }\n");
  EXPECT_EQ(2, run(analyzeConfig(),
                   {"--baseline", (Root / "no-such-file.txt").string()}));
}

TEST_F(ToolCliTest, DotExportsTheCallGraphForAnalyzeOnly) {
  write("src/sim/G.cpp",
        "int leaf() { return 1; }\n"
        "int top() { return leaf(); }\n");
  fs::path Dot = Root / "callgraph.dot";
  EXPECT_EQ(0, run(analyzeConfig(), {"--dot", Dot.string()}));
  std::ifstream In(Dot);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(std::string::npos, SS.str().find("digraph callgraph"));
  EXPECT_NE(std::string::npos, SS.str().find("\"top\" -> \"leaf\";"));
  // The lint tool has no call graph; --dot there is a usage error.
  EXPECT_EQ(2, run(lintConfig(), {"--dot", Dot.string()}));
}

TEST(AnalyzeRender, FindingFormatsMatchTheProblemMatcher) {
  Finding F{"src/a/B.cpp", 7, "layering", "bad include"};
  EXPECT_EQ("src/a/B.cpp:7: [layering] bad include", renderFinding(F));
  // Whole-file findings (include cycles) omit the line.
  Finding Whole{"src/a/B.cpp", 0, "include-cycle", "cycle"};
  EXPECT_EQ("src/a/B.cpp: [include-cycle] cycle", renderFinding(Whole));
}

TEST(AnalyzeRender, BaselineKeyOmitsTheLineNumber) {
  // Edits above a known finding must not invalidate its baseline entry.
  Finding F{"src/a/B.cpp", 7, "layering", "bad include"};
  EXPECT_EQ("src/a/B.cpp [layering] bad include", baselineKey(F));
}

// The shipped tree must be clean — the same check `ctest` runs via the
// dmeta_analyze binary, here exercised through the library.
TEST(AnalyzeRealTree, SourceTreeIsClean) {
  size_t Files = 0;
  std::vector<Finding> Fs = analyzeTree(DMB_SOURCE_ROOT, &Files);
  EXPECT_GT(Files, 100u);
  for (const Finding &F : Fs)
    ADD_FAILURE() << renderFinding(F);
}

TEST(AnalyzeRealTree, InterproceduralRulesAreRegistered) {
  const std::vector<std::string> &Names = analyzeRuleNames();
  for (const char *R : {"determinism-taint", "error-path-propagation",
                        "blocking-in-callback",
                        "swallowed-completion-error"})
    EXPECT_NE(Names.end(), std::find(Names.begin(), Names.end(), R)) << R;
}

} // namespace
