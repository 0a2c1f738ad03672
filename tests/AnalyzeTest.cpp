//===- tests/AnalyzeTest.cpp - Unit tests for tools/dmeta-analyze ---------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// One violating and one clean fixture per rule, asserting the rule fires
// exactly where expected and nowhere else, plus the CLI's exit codes
// (0 clean / 1 findings / 2 usage / 3 no sources). Rule cases run in
// memory through analyzeSources; only the cases about the tree walk and
// the CLI write a temporary tree.
//
//===----------------------------------------------------------------------===//

#include "analyze/AnalyzeEngine.h"
#include "analyze/CallGraph.h"
#include "analyze/ToolMain.h"
#include "analyze/Tokenizer.h"
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

/// \p Fs without the findings of \p Rules: a fixture written for one rule
/// may trip another as well, like a header without a guard, or a
/// random_device that the randomness rule bans and the taint rule tracks.
std::vector<Finding> without(std::vector<Finding> Fs,
                             std::initializer_list<std::string> Rules) {
  std::erase_if(Fs, [&](const Finding &F) {
    return std::find(Rules.begin(), Rules.end(), F.Rule) != Rules.end();
  });
  return Fs;
}

/// Tokenizes in-memory sources into SourceFiles for the SymbolTable and
/// CallGraph unit tests (the rule tests go through analyzeSources instead).
std::vector<SourceFile> parseSources(const Sources &Inputs) {
  std::vector<SourceFile> Files;
  for (const auto &[Rel, Content] : Inputs) {
    SourceFile F;
    F.RelPath = Rel;
    F.Toks = tokenize(Content);
    Files.push_back(std::move(F));
  }
  return Files;
}

/// A fresh temporary directory named after the running test.
fs::path scratchRoot() {
  const ::testing::UnitTest &U = *::testing::UnitTest::GetInstance();
  fs::path Root = fs::temp_directory_path() /
                  ("dmeta-analyze-test-" + std::to_string(U.random_seed()) +
                   "-" + U.current_test_info()->name());
  fs::remove_all(Root);
  fs::create_directories(Root);
  return Root;
}

/// Writes \p Tree under \p Root.
void writeTree(const fs::path &Root, const Sources &Tree) {
  for (const auto &[Rel, Content] : Tree) {
    fs::path P = Root / Rel;
    fs::create_directories(P.parent_path());
    std::ofstream(P) << Content;
  }
}

//===----------------------------------------------------------------------===//
// Line rules: wall-clock, randomness, raw-assert, header-guard, trace-clock,
// raii-guard, fault-determinism, event-queue, error-table
//===----------------------------------------------------------------------===//

std::vector<Finding> lintOne(const std::string &RelPath,
                             const std::string &Content) {
  return analyzeSources({{RelPath, Content}});
}

/// Line-rule cases over a small tree: write() collects files and lint()
/// runs every rule over them in memory; walkTree() puts them on disk for
/// the cases about the tree walk itself.
class LintTreeTest : public ::testing::Test {
protected:
  void write(const std::string &Rel, const std::string &Content) {
    Tree.push_back({Rel, Content});
  }

  std::vector<Finding> lint() { return analyzeSources(Tree); }

  std::vector<Finding> walkTree(size_t *Files) {
    fs::path Root = scratchRoot();
    writeTree(Root, Tree);
    std::vector<Finding> Fs = analyzeTree(Root.string(), Files);
    fs::remove_all(Root);
    return Fs;
  }

  Sources Tree;
};

// The acceptance criterion for the line rules: a host-clock call injected
// into simulation code is caught.
TEST_F(LintTreeTest, WallClockInjectedIntoSimIsCaught) {
  write("src/sim/Clock.cpp",
        "#include <chrono>\n"
        "long nowNs() {\n"
        "  return std::chrono::steady_clock::now().time_since_epoch()"
        ".count();\n"
        "}\n");
  size_t Files = 0;
  std::vector<Finding> Fs = walkTree(&Files);
  EXPECT_EQ(1u, Files);
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/sim/Clock.cpp", Fs[0].File);
  EXPECT_EQ(3, Fs[0].Line);
  EXPECT_EQ("wall-clock", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("std::chrono"));
  EXPECT_NE(std::string::npos,
            renderFinding(Fs[0]).find("src/sim/Clock.cpp:3: [wall-clock]"));
}

TEST_F(LintTreeTest, GettimeofdayAndTimeCallsAreCaught) {
  write("src/dfs/Probe.cpp", "void f() { gettimeofday(&tv, 0); }\n");
  write("src/cluster/Seed.cpp", "long g() { return time(0); }\n");
  std::vector<Finding> Fs = lint();
  ASSERT_EQ(2u, Fs.size());
  EXPECT_EQ("wall-clock", Fs[0].Rule);
  EXPECT_EQ("wall-clock", Fs[1].Rule);
}

TEST_F(LintTreeTest, WallClockAllowedOutsideDeterministicScope) {
  // src/analysis post-processes results on the host; the host clock is
  // legal there (and in src/support etc.).
  write("src/analysis/Stamp.cpp",
        "#include <chrono>\n"
        "auto t() { return std::chrono::system_clock::now(); }\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, UnseededRandomnessInTestsIsCaught) {
  write("tests/Flaky.cpp",
        "#include <random>\n"
        "int pick() { std::random_device rd; return rd(); }\n");
  std::vector<Finding> Fs = lint();
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("randomness", Fs[0].Rule);
  EXPECT_EQ(2, Fs[0].Line);
}

TEST_F(LintTreeTest, DirectSinkStampInDfsIsCaught) {
  // A component stamping the sink directly bypasses the owning
  // scheduler's clock — the trace-clock rule catches it.
  write("src/dfs/Probe.cpp",
        "void f(dmb::OpTraceSink &S, uint64_t Id) {\n"
        "  S.stamp(Id, dmb::TracePoint::NetOut, 0);\n"
        "}\n");
  std::vector<Finding> Fs = lint();
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("trace-clock", Fs[0].Rule);
  EXPECT_EQ(2, Fs[0].Line);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("traceStamp"));
}

TEST(LintContent, TraceClockScopeAndExemptions) {
  // The sink and the scheduler implement the recording; they are exempt.
  EXPECT_TRUE(
      lintOne("src/sim/Trace.cpp", "void f() { R.stamp(1, P, Now); }\n")
          .empty());
  EXPECT_TRUE(lintOne("src/sim/Scheduler.cpp",
                      "void g() { Trace->stamp(Id, P, Now); }\n")
                  .empty());
  // The Scheduler facade calls are the sanctioned spelling everywhere:
  // traceStamp( does not contain a bare "stamp(" token.
  EXPECT_TRUE(lintOne("src/dfs/NfsFs.cpp",
                      "void h() { Sched.traceStamp(P); }\n")
                  .empty());
  // beginOp/finishOp are banned in scope too.
  EXPECT_TRUE(hasRule(lintOne("src/sim/Resource.cpp",
                              "void f() { Sink.beginOp(\"x\", 0); }\n"),
                      "trace-clock"));
  EXPECT_TRUE(hasRule(lintOne("src/dfs/FileServer.cpp",
                              "void f() { Sink.finishOp(1, 0); }\n"),
                      "trace-clock"));
  // Outside src/sim and src/dfs the rule does not apply.
  EXPECT_FALSE(hasRule(lintOne("src/analysis/T.cpp",
                               "void f() { Sink.stamp(1, P, 0); }\n"),
                       "trace-clock"));
  // The suppression escape hatch works (with its mandatory justification
  // — a bare allow() would trip suppression-justification).
  EXPECT_TRUE(
      lintOne("src/dfs/X.cpp",
              "void f() { S.stamp(1, P, 0); } // dmeta-analyze: allow("
              "trace-clock) sink owns the clock here\n")
          .empty());
}

TEST_F(LintTreeTest, RawAssertAndCassertInSrcAreCaught) {
  write("src/fs/Tree.cpp",
        "#include <cassert>\n"
        "void f(int n) { assert(n > 0); }\n");
  std::vector<Finding> Fs = lint();
  ASSERT_EQ(2u, Fs.size());
  EXPECT_EQ("raw-assert", Fs[0].Rule);
  EXPECT_EQ(1, Fs[0].Line);
  EXPECT_EQ("raw-assert", Fs[1].Rule);
  EXPECT_EQ(2, Fs[1].Line);
}

TEST_F(LintTreeTest, AssertInTestsIsFine) {
  // gtest's own machinery may assert; the raw-assert rule is src/-only.
  write("tests/Foo.cpp", "void f(int n) { assert(n > 0); }\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, WrongHeaderGuardIsCaught) {
  write("src/sim/Queue.h",
        "#ifndef QUEUE_H\n"
        "#define QUEUE_H\n"
        "#endif\n");
  std::vector<Finding> Fs = lint();
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("header-guard", Fs[0].Rule);
  EXPECT_NE(std::string::npos,
            Fs[0].Message.find("DMETABENCH_SIM_QUEUE_H"));
}

TEST_F(LintTreeTest, CorrectGuardsPassIncludingBenchAndUmbrella) {
  write("src/sim/Queue.h",
        "#ifndef DMETABENCH_SIM_QUEUE_H\n"
        "#define DMETABENCH_SIM_QUEUE_H\n"
        "#endif\n");
  write("bench/BenchUtil.h",
        "#ifndef DMETABENCH_BENCH_BENCHUTIL_H\n"
        "#define DMETABENCH_BENCH_BENCHUTIL_H\n"
        "#endif\n");
  write("src/dmetabench/DMetabench.h",
        "#ifndef DMETABENCH_DMETABENCH_H\n"
        "#define DMETABENCH_DMETABENCH_H\n"
        "#endif\n");
  size_t Files = 0;
  EXPECT_TRUE(walkTree(&Files).empty());
  EXPECT_EQ(3u, Files);
}

TEST_F(LintTreeTest, DefineMustImmediatelyFollowIfndef) {
  write("src/sim/Queue.h",
        "#ifndef DMETABENCH_SIM_QUEUE_H\n"
        "#include <vector>\n"
        "#define DMETABENCH_SIM_QUEUE_H\n"
        "#endif\n");
  std::vector<Finding> Fs = lint();
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("header-guard", Fs[0].Rule);
  EXPECT_EQ(2, Fs[0].Line);
}

TEST_F(LintTreeTest, AllowCommentSuppressesFinding) {
  write("src/sim/Clock.cpp",
        "long f() { return time(0); } "
        "// dmeta-analyze: allow(wall-clock) boot stamp only\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, StringLiteralsAndCommentsDoNotTrip) {
  write("src/sim/Doc.cpp",
        "// Never call std::rand or time() in sim code.\n"
        "const char *Hint = \"replace std::chrono::steady_clock::now()\";\n"
        "/* block comments are stripped too, like strings */\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, MultiLineBlockCommentsDoNotTrip) {
  // The sanitizer carries block-comment state across lines: a banned
  // token on an interior comment line must not fire, while real code
  // after the closing */ must still be scanned.
  write("src/sim/Doc.cpp",
        "/* Design note:\n"
        "   early prototypes read std::chrono and called time(0) here;\n"
        "   the scheduler clock replaced them. */\n"
        "long f();\n"
        "/* inline */ long g() { return time(0); }\n");
  std::vector<Finding> Fs = lint();
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("wall-clock", Fs[0].Rule);
  EXPECT_EQ(5, Fs[0].Line);
}

TEST_F(LintTreeTest, RawStringLiteralsDoNotTrip) {
  // R"(...)" contents are literal data even across lines, and a
  // custom-delimiter raw string may contain an embedded )" sequence.
  write("src/sim/Fixture.cpp",
        "const char *Tsv = R\"(header\n"
        "std::rand gettimeofday time(0)\n"
        ")\";\n"
        "const char *Odd = R\"x(contains )\" and mt19937)x\";\n"
        "long g() { return time(0); }\n");
  std::vector<Finding> Fs = lint();
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("wall-clock", Fs[0].Rule);
  EXPECT_EQ(5, Fs[0].Line);
}

TEST_F(LintTreeTest, BareTokenMatchingAvoidsFalsePositives) {
  write("src/sim/Run.cpp",
        "void runtime(int x);\n"
        "void f() { runtime(3); static_assert(1 + 1 == 2); }\n"
        "void g(bool B) { DMB_ASSERT(B, \"must hold\"); }\n");
  EXPECT_TRUE(lint().empty());
}

TEST_F(LintTreeTest, ToolsTreeIsWalkedAndLinted) {
  // tools/ is in scope for wall-clock, raw-assert and header-guard: the
  // CLI drives simulations whose results must replay bit-for-bit.
  write("tools/probe/Probe.cpp",
        "#include <cassert>\n"
        "long f() { return time(0); }\n");
  write("tools/probe/Probe.h",
        "#ifndef PROBE_H\n"
        "#define PROBE_H\n"
        "#endif\n");
  size_t Files = 0;
  std::vector<Finding> Fs = walkTree(&Files);
  EXPECT_EQ(2u, Files);
  EXPECT_TRUE(hasRule(Fs, "raw-assert"));
  EXPECT_TRUE(hasRule(Fs, "wall-clock"));
  EXPECT_TRUE(hasRule(Fs, "header-guard"));
  for (const Finding &F : Fs) {
    if (F.Rule == "header-guard") {
      EXPECT_NE(std::string::npos,
                F.Message.find("DMETABENCH_TOOLS_PROBE_PROBE_H"));
    }
  }
}

// The by-reference default capture ([&], [&, ...]) handed to the scheduler
// is callback-lifetime's, on the token stream (see the callback-lifetime
// section for the forms split across lines or stored in an
// InplaceFunction).
TEST(LintContent, EventRefCaptureRule) {
  // A [&] lambda handed to the scheduler outlives its frame — caught in
  // src/ and tools/.
  EXPECT_TRUE(hasRule(lintOne("src/sim/Retry.cpp",
                              "void f() { S.after(5, [&]() { go(); }); }\n"),
                      "callback-lifetime"));
  EXPECT_TRUE(hasRule(lintOne("tools/Cli.cpp",
                              "void f() { S.at(T, [&, N]() { run(N); }); }\n"),
                      "callback-lifetime"));
  // Capturing this or explicit by-value captures are the sanctioned
  // spellings.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Retry.cpp",
              "void f() { S.after(5, [this]() { step(); }); }\n"),
      "callback-lifetime"));
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Retry.cpp",
              "void f() { S.after(5, [N]() { run(N); }); }\n"),
      "callback-lifetime"));
  // A [&] lambda handed to anything but at()/after() is not a callback.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Retry.cpp",
              "void f() { sort(B, E, [&](int A, int Z) { return A < Z; }); }"
              "\n"),
      "callback-lifetime"));
  // tests/ and bench/ run the scheduler from the capturing frame itself.
  EXPECT_FALSE(hasRule(lintOne("tests/SimTest.cpp",
                               "TEST(S, T) { S.after(5, [&]() { ++N; }); }\n"),
                       "callback-lifetime"));
  EXPECT_FALSE(hasRule(lintOne("bench/Bench.cpp",
                               "void f() { S.at(T, [&]() { ++N; }); }\n"),
                       "callback-lifetime"));
  // The escape hatch names the rule.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Retry.cpp",
              "void f() { S.after(5, [&]() { go(); }); } "
              "// dmeta-analyze: allow(callback-lifetime) frame outlives S\n"),
      "callback-lifetime"));
}

TEST(LintContent, RaiiGuardRule) {
  // Manual lock()/unlock() in a file using a host mutex is caught...
  std::vector<Finding> Fs =
      lintOne("src/support/Pool.cpp",
              "std::mutex M;\n"
              "void f() { M.lock(); work(); M.unlock(); }\n");
  EXPECT_TRUE(hasRule(Fs, "raii-guard"));
  EXPECT_TRUE(hasRule(lintOne("src/support/Pool.cpp",
                              "pthread_mutex_t M;\n"
                              "void f() { pthread_mutex_lock(&M); }\n"),
                      "raii-guard"));
  // ...but RAII guards over the same mutex are the sanctioned spelling.
  EXPECT_FALSE(hasRule(
      lintOne("src/support/Pool.cpp",
              "std::mutex M;\n"
              "void f() { std::lock_guard<std::mutex> G(M); work(); }\n"),
      "raii-guard"));
  // SimMutex has a scheduler-driven lock()/unlock() protocol that RAII
  // cannot express; files without a host mutex type are out of scope.
  EXPECT_FALSE(hasRule(
      lintOne("src/dfs/Locking.cpp",
              "void f(dmb::SimMutex &M) { M.lock(Ctx); M.unlock(); }\n"),
      "raii-guard"));
  // The escape hatch works here too.
  EXPECT_FALSE(hasRule(
      lintOne("src/support/Pool.cpp",
              "std::mutex M;\n"
              "void f() { M.lock(); } // dmeta-analyze: allow(raii-guard)\n"),
      "raii-guard"));
}

TEST(LintContent, FaultDeterminismRule) {
  // A sequential Rng stream in fault-policy code ties rolls to event
  // order; an Rng constructed without the policy Seed unties them from
  // the scenario — both caught.
  EXPECT_TRUE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "void roll(dmb::FaultPolicy &P) { dmb::Rng R; use(R); }\n"),
      "fault-determinism"));
  EXPECT_TRUE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "struct Link { dmb::FaultPolicy Faults; dmb::Rng FaultRng; "
              "};\n"),
      "fault-determinism"));
  // Deriving the Rng from the policy Seed at the point of use is the
  // sanctioned spelling.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "void roll(dmb::FaultPolicy &P, long Now) {\n"
              "  dmb::Rng R(P.Seed ^ mix(Now));\n"
              "}\n"),
      "fault-determinism"));
  // Files that do not handle a FaultPolicy in code are out of scope —
  // stored seeded streams are legal elsewhere (e.g. SnapshotJob)...
  EXPECT_FALSE(hasRule(lintOne("src/workload/Noise.cpp", "dmb::Rng R;\n"),
                       "fault-determinism"));
  // ...and a comment-only mention does not pull a file into scope.
  EXPECT_FALSE(hasRule(
      lintOne("src/workload/Noise.cpp",
              "// pair with a FaultPolicy partition window\n"
              "dmb::Rng R;\n"),
      "fault-determinism"));
  // "Rng" only matches as a whole word.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "void f(dmb::FaultPolicy &P) { RngState S; use(S); }\n"),
      "fault-determinism"));
  // The escape hatch names the rule.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Faulty.cpp",
              "void f(dmb::FaultPolicy &P) { dmb::Rng R; use(R); } "
              "// dmeta-analyze: allow(fault-determinism) replay-stable\n"),
      "fault-determinism"));
}

TEST(LintContent, EventQueueRule) {
  // A hand-rolled priority queue or heap primitive near the scheduler
  // bypasses sim/EventQueue's tie discipline — caught in src/, bench/
  // and tools/.
  EXPECT_TRUE(hasRule(
      lintOne("src/sim/Timers.cpp",
              "std::priority_queue<Ev> Q;\n"),
      "event-queue"));
  EXPECT_TRUE(hasRule(
      lintOne("tools/Cli.cpp",
              "void f() { std::push_heap(H.begin(), H.end()); }\n"),
      "event-queue"));
  EXPECT_TRUE(hasRule(
      lintOne("bench/Bench.cpp",
              "void f() { std::pop_heap(H.begin(), H.end()); }\n"),
      "event-queue"));
  EXPECT_TRUE(hasRule(
      lintOne("src/core/Sched.cpp",
              "void f() { std::make_heap(H.begin(), H.end()); }\n"),
      "event-queue"));
  // The EventQueue implementation itself is the one sanctioned home.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/EventQueue.cpp",
              "void f() { std::push_heap(H.begin(), H.end()); }\n"),
      "event-queue"));
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/EventQueue.h",
              "std::priority_queue<Ev> Q;\n"),
      "event-queue"));
  // Identifiers merely containing the token do not fire.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Timers.cpp",
              "void f() { my_push_heap(H); }\n"),
      "event-queue"));
  // The escape hatch names the rule.
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/Timers.cpp",
              "std::priority_queue<Ev> Q; // dmeta-analyze: allow("
              "event-queue) not scheduling, a top-k result buffer\n"),
      "event-queue"));
}

TEST(LintContent, SuppressionJustificationRule) {
  // A marker or a NOLINT with no reason after it is flagged in src/,
  // bench/ and tools/...
  EXPECT_TRUE(hasRule(lintOne("src/sim/A.cpp",
                              "int f(); // dmeta-analyze: allow(layering)\n"),
                      "suppression-justification"));
  EXPECT_TRUE(hasRule(lintOne("bench/B.cpp", "int g(); // NOLINT(bugprone)\n"),
                      "suppression-justification"));
  // ...a trailing reason satisfies it...
  EXPECT_FALSE(hasRule(
      lintOne("tools/C.cpp",
              "int h(); // dmeta-analyze: allow(layering) re-exported\n"),
      "suppression-justification"));
  EXPECT_FALSE(hasRule(
      lintOne("src/sim/A.cpp", "int f(); // NOLINT(bugprone): by design\n"),
      "suppression-justification"));
  // ...and tests/ quote bare markers in their fixtures.
  EXPECT_FALSE(hasRule(lintOne("tests/T.cpp",
                               "int f(); // dmeta-analyze: allow(layering)\n"),
                       "suppression-justification"));
}

TEST(LintContent, AllowHatchIsRuleSpecific) {
  // An allow() naming a different rule must not suppress the finding,
  // and one allow() does not blanket the whole line's other findings.
  std::vector<Finding> Fs = lintOne(
      "src/sim/Clock.cpp",
      "long f() { return time(0); } // dmeta-analyze: allow(randomness)\n");
  EXPECT_TRUE(hasRule(Fs, "wall-clock"));
  Fs = lintOne("src/sim/Clock.cpp",
               "long f() { srand(1); return time(0); } "
               "// dmeta-analyze: allow(wall-clock)\n");
  EXPECT_FALSE(hasRule(Fs, "wall-clock"));
  EXPECT_TRUE(hasRule(Fs, "randomness"));
}

TEST(LintContent, MultipleRulesOnOneFile) {
  std::vector<Finding> Fs = lintOne("src/sim/Bad.cpp",
                                    "#include <cassert>\n"
                                    "int f() { return rand(); }\n");
  EXPECT_TRUE(hasRule(Fs, "raw-assert"));
  EXPECT_TRUE(hasRule(Fs, "randomness"));
}

/// The error-table findings for an Error.h / Error.cpp pair.
std::vector<Finding> errorTable(const std::string &H, const std::string &Cpp) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/support/Error.h", H}, {"src/support/Error.cpp", Cpp}});
  std::erase_if(Fs, [](const Finding &F) { return F.Rule != "error-table"; });
  return Fs;
}

TEST(LintErrorTable, InSyncTablePasses) {
  std::string H = "enum class FsError {\n  Ok,\n  NoEnt,\n};\n"
                  "inline constexpr unsigned NumFsErrors = 2;\n";
  std::string Cpp = "switch (E) {\n"
                    "case FsError::Ok: return \"OK\";\n"
                    "case FsError::NoEnt: return \"ENOENT\";\n"
                    "}\n";
  EXPECT_TRUE(errorTable(H, Cpp).empty());
}

TEST(LintErrorTable, DriftIsCaught) {
  // Enum grew a member but neither the count nor the name table followed.
  std::string H = "enum class FsError {\n  Ok,\n  NoEnt,\n  Stale,\n};\n"
                  "inline constexpr unsigned NumFsErrors = 2;\n";
  std::string Cpp = "switch (E) {\n"
                    "case FsError::Ok: return \"OK\";\n"
                    "case FsError::NoEnt: return \"ENOENT\";\n"
                    "}\n";
  std::vector<Finding> Fs = errorTable(H, Cpp);
  EXPECT_EQ(2u, Fs.size()); // the count, and the case table
}

TEST(LintErrorTable, DuplicateNameIsCaught) {
  std::string H = "enum class FsError {\n  Ok,\n  NoEnt,\n};\n"
                  "inline constexpr unsigned NumFsErrors = 2;\n";
  std::string Cpp = "switch (E) {\n"
                    "case FsError::Ok: return \"OK\";\n"
                    "case FsError::NoEnt: return \"OK\";\n"
                    "}\n";
  EXPECT_FALSE(errorTable(H, Cpp).empty());
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
  Fs = without(Fs, {"header-guard"});
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

TEST(AnalyzeRules, BareRefCaptureOnTheLineAfterTheCallIsCaught) {
  // The capture list is found in the call's argument tokens, wherever the
  // line breaks fall.
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Retry.cpp",
        "void f(Scheduler &S) {\n"
        "  int N = 0;\n"
        "  S.after(5,\n"
        "          [&]() { ++N; });\n"
        "}\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(4, Fs[0].Line);
  EXPECT_EQ("callback-lifetime", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("[&]"));
}

TEST(AnalyzeRules, BareRefCaptureStoredInInplaceFunctionIsCaught) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/Arm.cpp",
        "struct W {\n"
        "  InplaceFunction<void()> Cb;\n"
        "  void arm(int &X) { Cb = [&]() { ++X; }; }\n"
        "};\n"}});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ(3, Fs[0].Line);
  EXPECT_EQ("callback-lifetime", Fs[0].Rule);
  EXPECT_NE(std::string::npos, Fs[0].Message.find("InplaceFunction 'Cb'"));
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
  Fs = without(Fs, {"header-guard"});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/support/Bad.cpp", Fs[0].File);
  EXPECT_EQ(1, Fs[0].Line);
  EXPECT_EQ("layering", Fs[0].Rule);
}

TEST(AnalyzeRules, DownwardAndLateralIncludesAreFine) {
  Sources Tree = {{"src/support/Util.h", "int clamp(int X);\n"},
                  {"src/fs/Inode.h", "struct Inode { int Mode; };\n"},
                  {"src/core/Use.cpp",
                   "#include \"support/Util.h\"\n"
                   "int f() { return clamp(3); }\n"},
                  {"src/dfs/Server.cpp",
                   "#include \"fs/Inode.h\"\n"
                   "Inode mk();\n"}};
  EXPECT_TRUE(without(analyzeSources(Tree), {"header-guard"}).empty());
}

TEST(AnalyzeRules, IncludeCycleIsReportedOnceAtItsAnchor) {
  std::vector<Finding> Fs = analyzeSources(
      {{"src/sim/A.h",
        "#include \"sim/B.h\"\n"
        "struct A { B *Link; };\n"},
       {"src/sim/B.h",
        "#include \"sim/A.h\"\n"
        "struct B { A *Back; };\n"}});
  Fs = without(Fs, {"header-guard"});
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
  Fs = without(Fs, {"header-guard"});
  ASSERT_EQ(1u, Fs.size());
  EXPECT_EQ("src/sim/U.cpp", Fs[0].File);
  EXPECT_EQ(1, Fs[0].Line);
  EXPECT_EQ("unused-include", Fs[0].Rule);
}

TEST(AnalyzeRules, UsedIncludeAndOwnHeaderAreFine) {
  Sources Tree = {{"src/sim/Helper.h", "int helperFn(int X);\n"},
                  {"src/sim/U.h", "int entry();\n"},
                  {"src/sim/U.cpp",
                   "#include \"sim/Helper.h\"\n"
                   "#include \"sim/U.h\"\n"
                   "int entry() { return helperFn(1); }\n"}};
  EXPECT_TRUE(without(analyzeSources(Tree), {"header-guard"}).empty());
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
  EXPECT_TRUE(without(analyzeSources(Tree), {"header-guard"}).empty());
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
  Fs = without(Fs, {"randomness"});
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
  Fs = without(Fs, {"randomness"});
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
  Fs = without(Fs, {"randomness"});
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
  Sources Tree = {{"src/sim/Noise.cpp",
                   "#include <cstdio>\n"
                   "#include <random>\n"
                   "void report() {\n"
                   "  std::random_device Rd; // dmeta-analyze: "
                   "allow(determinism-taint) one-time seed harvest\n"
                   "  unsigned V = Rd();\n"
                   "  std::printf(\"%u\\n\", V);\n"
                   "}\n"}};
  EXPECT_TRUE(without(analyzeSources(Tree), {"randomness"}).empty());
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
// CLI: flags and exit codes
//===----------------------------------------------------------------------===//

/// Materialises a throwaway tree and runs toolMain over it.
class ToolCliTest : public ::testing::Test {
protected:
  void SetUp() override { Root = scratchRoot(); }
  void TearDown() override { fs::remove_all(Root); }

  void write(const std::string &Rel, const std::string &Content) {
    writeTree(Root, {{Rel, Content}});
  }

  /// Writes a file whose function \p Fn stores an FsError it never reads:
  /// one error-path-propagation finding.
  void writeSwallowedError(const std::string &Rel, const std::string &Fn) {
    write(Rel, "FsError drop(int Fh);\n"
               "void " + Fn + "() { FsError E = drop(1); }\n");
  }

  /// Runs toolMain with the given extra args (after --root <Root>),
  /// capturing stdout into \p StdoutText when non-null.
  int run(std::vector<std::string> Args, std::string *StdoutText = nullptr) {
    std::vector<std::string> All = {ToolName, "--root", Root.string()};
    All.insert(All.end(), Args.begin(), Args.end());
    std::vector<char *> Argv;
    Argv.reserve(All.size());
    for (std::string &A : All)
      Argv.push_back(A.data());
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    int Code = toolMain(static_cast<int>(Argv.size()), Argv.data());
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
  EXPECT_EQ(0, run({}));
}

TEST_F(ToolCliTest, FindingsExitOne) {
  writeSwallowedError("src/fs/Bad.cpp", "f");
  EXPECT_EQ(1, run({}));
}

TEST_F(ToolCliTest, UnknownArgumentAndUnknownRuleAreUsageErrors) {
  // Exit 2 is reserved for misuse of the CLI itself.
  write("src/sim/Ok.cpp", "int f() { return 1; }\n");
  EXPECT_EQ(2, run({"--frobnicate"}));
  EXPECT_EQ(2, run({"--rule", "not-a-rule"}));
  EXPECT_EQ(2, run({"--rule"}));
  // No event-ref-capture rule: callback-lifetime covers its cases.
  EXPECT_EQ(2, run({"--rule", "event-ref-capture"}));
}

TEST_F(ToolCliTest, EmptyTreeExitsThreeNotTwo) {
  // An empty scan is a misconfigured checkout, not a clean tree — and not
  // a usage error either; CI must be able to tell the three apart.
  EXPECT_EQ(3, run({}));
}

TEST_F(ToolCliTest, RuleFilterLimitsTheReport) {
  writeSwallowedError("src/fs/Bad.cpp", "f");
  EXPECT_EQ(1, run({"--rule", "error-path-propagation"}));
  // Filtering on a rule with no findings reports a clean run, line rules
  // and token rules alike.
  EXPECT_EQ(0, run({"--rule", "layering"}));
  EXPECT_EQ(0, run({"--rule", "wall-clock"}));
}

TEST_F(ToolCliTest, JsonOutputCarriesToolFilesAndFindings) {
  writeSwallowedError("src/fs/Bad.cpp", "f");
  std::string Json;
  EXPECT_EQ(1, run({"--json"}, &Json));
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
  EXPECT_EQ(0, run({"--write-baseline", Base.string()}));
  std::ifstream In(Base);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(std::string::npos,
            SS.str().find("src/fs/Bad.cpp [error-path-propagation]"));
}

TEST_F(ToolCliTest, BaselineSilencesKnownFindingsButNotNewOnes) {
  writeSwallowedError("src/fs/Bad.cpp", "f");
  fs::path Base = Root / "baseline.txt";
  ASSERT_EQ(0, run({"--write-baseline", Base.string()}));
  // The recorded finding no longer fails the run...
  EXPECT_EQ(0, run({"--baseline", Base.string()}));
  // ...but a finding introduced afterwards still does, and only it is
  // reported.
  writeSwallowedError("src/fs/Worse.cpp", "g");
  std::string Out;
  EXPECT_EQ(1, run({"--baseline", Base.string()}, &Out));
  EXPECT_NE(std::string::npos, Out.find("src/fs/Worse.cpp"));
  EXPECT_EQ(std::string::npos, Out.find("src/fs/Bad.cpp"));
}

TEST_F(ToolCliTest, UnreadableBaselineIsAUsageError) {
  write("src/sim/Ok.cpp", "int f() { return 1; }\n");
  EXPECT_EQ(2, run({"--baseline", (Root / "no-such-file.txt").string()}));
}

TEST_F(ToolCliTest, DotExportsTheCallGraphForAnalyzeOnly) {
  write("src/sim/G.cpp",
        "int leaf() { return 1; }\n"
        "int top() { return leaf(); }\n");
  fs::path Dot = Root / "callgraph.dot";
  EXPECT_EQ(0, run({"--dot", Dot.string()}));
  std::ifstream In(Dot);
  std::stringstream SS;
  SS << In.rdbuf();
  EXPECT_NE(std::string::npos, SS.str().find("digraph callgraph"));
  EXPECT_NE(std::string::npos, SS.str().find("\"top\" -> \"leaf\";"));
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

TEST(AnalyzeRealTree, InterproceduralRulesAreRegistered) {
  const std::vector<std::string> &Names = analyzeRuleNames();
  for (const char *R : {"determinism-taint", "error-path-propagation",
                        "blocking-in-callback",
                        "swallowed-completion-error"})
    EXPECT_NE(Names.end(), std::find(Names.begin(), Names.end(), R)) << R;
}

} // namespace
