//===- tests/PluginSweepTest.cpp - Plugin x plan property sweep -----------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property sweep: every fixed-problem-size plugin of Table 3.5, run over
/// the complete execution plan of the thesis's 3x3 example layout
/// (Table 3.3), must complete exactly ProblemSize operations per process
/// in every combination, with no failed requests and a clean server
/// volume afterwards.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

class PluginSweepTest : public ::testing::TestWithParam<const char *> {};

TEST_P(PluginSweepTest, ExactCountsOverTheWholePlan) {
  const char *Op = GetParam();
  Scheduler S;
  Cluster C(S, 3, 4);
  NfsOptions Opts;
  Opts.Server.EnableConsistencyPoints = false;
  NfsFs Fs(S, Opts);
  C.mountEverywhere(Fs);

  BenchParams P;
  P.Operations = {Op};
  P.ProblemSize = 60;
  MpiEnvironment Env = MpiEnvironment::uniform(3, 3);
  Master M(C, Env, "nfs", P);
  ResultSet Results = M.run();
  // Table 3.3: eight feasible combinations.
  ASSERT_EQ(8u, Results.Subtasks.size());

  bool SharedDir = std::string(Op) == "MakeOnedirFiles";
  for (const SubtaskResult &Sub : Results.Subtasks) {
    unsigned Procs = Sub.totalProcesses();
    ASSERT_EQ(Sub.NumNodes * Sub.PerNode, Procs);
    for (const ProcessTrace &Proc : Sub.Processes) {
      // MakeOnedirFiles divides the total; the others are per process.
      uint64_t Expected = SharedDir ? std::max<uint64_t>(1, 60 / Procs)
                                    : 60;
      EXPECT_EQ(Expected, Proc.TotalOps)
          << Op << " " << Sub.NumNodes << "x" << Sub.PerNode;
      EXPECT_EQ(0u, Proc.FailedRequests)
          << Op << " " << Sub.NumNodes << "x" << Sub.PerNode;
      // Consistency of the trace itself.
      uint64_t Summed = 0;
      Proc.OpsPerInterval.forEachRecord(
          [&Summed](const IntervalCount &R) { Summed += R.Count; });
      EXPECT_EQ(Proc.TotalOps, Summed);
    }
  }

  // After all cleanups only the per-subtask workdir roots remain, and the
  // volume is structurally consistent.
  LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
  EXPECT_LE(Vol->numInodes(), 1u + 1u + 8u); // root + /dmetabench + roots
  EXPECT_TRUE(Vol->fsck().clean());
}

INSTANTIATE_TEST_SUITE_P(FixedSizePlugins, PluginSweepTest,
                         ::testing::Values("DeleteFiles", "StatFiles",
                                           "StatNocacheFiles",
                                           "StatMultinodeFiles",
                                           "OpenCloseFiles",
                                           "MakeOnedirFiles"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

/// Time-limited plugins over the plan: every process stops at the limit.
class TimedSweepTest : public ::testing::TestWithParam<const char *> {};

TEST_P(TimedSweepTest, EveryProcessHonoursTheTimeLimit) {
  const char *Op = GetParam();
  Scheduler S;
  Cluster C(S, 3, 4);
  NfsOptions Opts;
  Opts.Server.EnableConsistencyPoints = false;
  NfsFs Fs(S, Opts);
  C.mountEverywhere(Fs);

  BenchParams P;
  P.Operations = {Op};
  P.ProblemSize = 40; // rollover limit
  P.TimeLimit = seconds(0.8);
  MpiEnvironment Env = MpiEnvironment::uniform(3, 3);
  Master M(C, Env, "nfs", P);
  ResultSet Results = M.run();
  ASSERT_EQ(8u, Results.Subtasks.size());
  for (const SubtaskResult &Sub : Results.Subtasks)
    for (const ProcessTrace &Proc : Sub.Processes) {
      EXPECT_GT(Proc.TotalOps, 0u);
      EXPECT_GE(toSeconds(Proc.FinishOffset), 0.75);
      EXPECT_LT(toSeconds(Proc.FinishOffset), 1.2);
      EXPECT_EQ(0u, Proc.FailedRequests);
    }
  EXPECT_TRUE(Fs.server().volume(NfsFs::VolumeName)->fsck().clean());
}

INSTANTIATE_TEST_SUITE_P(TimedPlugins, TimedSweepTest,
                         ::testing::Values("MakeFiles", "MakeFiles64byte",
                                           "MakeFiles65byte", "MakeDirs"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

} // namespace
