//===- tests/CoreTest.cpp - End-to-end framework tests --------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the complete DMetabench workflow (master -> subtasks -> workers ->
/// plugins) on simulated clusters and file systems, and checks the
/// behavioural properties the thesis relies on: per-plugin operation
/// counts, time limits, cache-control plugins, path lists, scaling shape
/// and result cleanliness.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

TEST(Registry, BuiltinsRegistered) {
  PluginRegistry &R = PluginRegistry::global();
  const char *Expected[] = {
      "MakeFiles",       "MakeFiles64byte",  "MakeFiles65byte",
      "MakeDirs",        "MakeOnedirFiles",  "DeleteFiles",
      "StatFiles",       "StatNocacheFiles", "StatMultinodeFiles",
      "OpenCloseFiles"};
  for (const char *Name : Expected)
    EXPECT_NE(nullptr, R.get(Name)) << Name;
  EXPECT_EQ(nullptr, R.get("NoSuchPlugin"));
  EXPECT_TRUE(R.get("MakeFiles")->isTimeLimited());
  EXPECT_FALSE(R.get("StatFiles")->isTimeLimited());
}

/// Common fixture: a 4-node cluster with NFS and one MPI slot layout.
struct Rig {
  Scheduler S;
  Cluster C;
  NfsFs Nfs;

  explicit Rig(unsigned Nodes = 4, unsigned Cores = 8)
      : C(S, Nodes, Cores), Nfs(S) {
    C.mountEverywhere(Nfs);
  }

  ResultSet run(BenchParams P, unsigned Nodes, unsigned Ppn,
                unsigned SlotsPerNode = 0) {
    if (SlotsPerNode == 0)
      SlotsPerNode = Ppn + 1; // room for the master
    MpiEnvironment Env = MpiEnvironment::uniform(C.numNodes(),
                                                 SlotsPerNode);
    Master M(C, Env, "nfs", std::move(P));
    return M.runCombination(Nodes, Ppn);
  }
};

TEST(Core, StatFilesCompletesExactProblemSize) {
  Rig R;
  BenchParams P;
  P.Operations = {"StatFiles"};
  P.ProblemSize = 200;
  ResultSet Results = R.run(P, 2, 2);
  ASSERT_EQ(1u, Results.Subtasks.size());
  const SubtaskResult &Sub = Results.Subtasks[0];
  ASSERT_EQ(4u, Sub.totalProcesses());
  for (const ProcessTrace &Proc : Sub.Processes) {
    EXPECT_EQ(200u, Proc.TotalOps);
    EXPECT_EQ(0u, Proc.FailedRequests);
  }
}

TEST(Core, MakeFilesRespectsTimeLimit) {
  Rig R;
  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.TimeLimit = seconds(3.0);
  P.ProblemSize = 100; // directory rollover limit
  ResultSet Results = R.run(P, 2, 1);
  const SubtaskResult &Sub = Results.Subtasks[0];
  for (const ProcessTrace &Proc : Sub.Processes) {
    EXPECT_GT(Proc.TotalOps, 100u) << "should create plenty in 3 s";
    // Finishes within one op of the limit.
    EXPECT_GE(toSeconds(Proc.FinishOffset), 2.9);
    EXPECT_LT(toSeconds(Proc.FinishOffset), 3.5);
  }
  // Directory rollover happened: more files than the per-dir limit.
  EXPECT_GT(Sub.Processes[0].TotalOps, P.ProblemSize);
}

TEST(Core, CleanupRestoresServerInodeCount) {
  Rig R;
  uint64_t Before = R.Nfs.server().volume(NfsFs::VolumeName)->numInodes();
  BenchParams P;
  P.Operations = {"DeleteFiles", "MakeFiles"};
  P.ProblemSize = 50;
  P.TimeLimit = seconds(1.0);
  R.run(P, 2, 2);
  // Only the shared workdir roots may remain (subtask dirs are removed by
  // cleanup; the <workdir>/<op>-N-P roots stay).
  uint64_t After = R.Nfs.server().volume(NfsFs::VolumeName)->numInodes();
  EXPECT_LE(After, Before + 4u);
}

TEST(Core, StatNocacheForcesServerRpcs) {
  Rig R;
  BenchParams P;
  P.ProblemSize = 100;

  P.Operations = {"StatFiles"};
  ResultSet Cached = R.run(P, 1, 1);
  uint64_t RpcsAfterCached = R.Nfs.server().processedRequests();

  P.Operations = {"StatNocacheFiles"};
  ResultSet Dropped = R.run(P, 1, 1);
  uint64_t RpcsAfterDropped = R.Nfs.server().processedRequests();

  // Both complete the same op count...
  EXPECT_EQ(100u, Cached.Subtasks[0].Processes[0].TotalOps);
  EXPECT_EQ(100u, Dropped.Subtasks[0].Processes[0].TotalOps);
  // ...but the nocache variant needs ~100 extra stat RPCs over its own
  // prepare/cleanup, while plain StatFiles hits the attribute cache. The
  // wall-clock average avoids the 0.1 s stonewall quantization for these
  // sub-interval phases.
  double CachedRate = wallClockAverage(Cached.Subtasks[0]);
  double DroppedRate = wallClockAverage(Dropped.Subtasks[0]);
  EXPECT_GT(CachedRate, 3 * DroppedRate);
  (void)RpcsAfterCached;
  (void)RpcsAfterDropped;
}

TEST(Core, StatMultinodeBypassesLocalCache) {
  Rig R;
  BenchParams P;
  P.ProblemSize = 100;
  P.Operations = {"StatMultinodeFiles", "StatFiles"};
  ResultSet Results = R.run(P, 2, 1);
  const SubtaskResult *Multi = Results.find("StatMultinodeFiles", 2, 1);
  const SubtaskResult *Plain = Results.find("StatFiles", 2, 1);
  ASSERT_NE(nullptr, Multi);
  ASSERT_NE(nullptr, Plain);
  for (const ProcessTrace &Proc : Multi->Processes) {
    EXPECT_EQ(100u, Proc.TotalOps);
    EXPECT_EQ(0u, Proc.FailedRequests) << "partner files must exist";
  }
  // Stating the partner's files cannot be served from the local cache.
  EXPECT_GT(wallClockAverage(*Plain), 3 * wallClockAverage(*Multi));
}

TEST(Core, MakeOnedirSharesOneDirectory) {
  Rig R;
  BenchParams P;
  P.Operations = {"MakeOnedirFiles"};
  P.ProblemSize = 400; // total across processes
  ResultSet Results = R.run(P, 2, 2);
  const SubtaskResult &Sub = Results.Subtasks[0];
  uint64_t Total = Sub.totalOps();
  EXPECT_EQ(400u, Total);
  for (const ProcessTrace &Proc : Sub.Processes)
    EXPECT_EQ(100u, Proc.TotalOps);
}

TEST(Core, FullPlanRunsEveryCombination) {
  Scheduler S;
  Cluster C(S, 3, 4);
  NfsFs Nfs(S);
  C.mountEverywhere(Nfs);
  BenchParams P;
  P.Operations = {"StatFiles"};
  P.ProblemSize = 20;
  MpiEnvironment Env = MpiEnvironment::uniform(3, 3);
  Master M(C, Env, "nfs", P);
  ResultSet Results = M.run();
  // Table 3.3: eight feasible combinations for the 3x3 layout.
  EXPECT_EQ(8u, Results.Subtasks.size());
  EXPECT_FALSE(Results.EnvironmentProfile.empty());
  EXPECT_NE(nullptr, Results.find("StatFiles", 2, 2));
  EXPECT_EQ(nullptr, Results.find("StatFiles", 3, 3));
}

TEST(Core, PathListDirectsProcessesToDifferentVolumes) {
  Scheduler S;
  Cluster C(S, 2, 4);
  VolumeFs Gx(S, gxOptions());
  Gx.setupUniform(0, 4);
  C.mountEverywhere(Gx);
  BenchParams P;
  P.Operations = {"StatFiles"};
  P.ProblemSize = 50;
  P.PathList = {"/vol0", "/vol1", "/vol2", "/vol3"};
  MpiEnvironment Env = MpiEnvironment::uniform(2, 3);
  Master M(C, Env, "ontapgx", P);
  ResultSet Results = M.runCombination(2, 2);
  const SubtaskResult &Sub = Results.Subtasks[0];
  for (const ProcessTrace &Proc : Sub.Processes) {
    EXPECT_EQ(50u, Proc.TotalOps);
    EXPECT_EQ(0u, Proc.FailedRequests);
  }
  // Files landed on multiple filers' volumes.
  unsigned FilersWithWork = 0;
  for (unsigned I = 0; I < Gx.numServers(); ++I)
    if (Gx.server(I).processedRequests() > 0)
      ++FilersWithWork;
  EXPECT_GE(FilersWithWork, 2u);
}

TEST(Core, MoreNodesGiveMoreThroughputUntilSaturation) {
  Scheduler S;
  Cluster C(S, 8, 4);
  LustreFs Lustre(S);
  C.mountEverywhere(Lustre);
  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.TimeLimit = seconds(5.0);
  P.ProblemSize = 100000;
  MpiEnvironment Env = MpiEnvironment::uniform(8, 2);
  Master M(C, Env, "lustre", P);
  double Rate1 = stonewallAverage(M.runCombination(1, 1).Subtasks[0]);
  double Rate4 = stonewallAverage(M.runCombination(4, 1).Subtasks[0]);
  EXPECT_GT(Rate4, 2.0 * Rate1) << "inter-node scaling must help";
}

TEST(Core, WorkerCountsAllPluginsOnAllFileSystems) {
  // The plugin x file-system matrix smoke test (experiment E18 shape):
  // every pre-defined plugin completes on every model without failures.
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Nfs(S);
  LustreFs Lustre(S);
  CxfsFs Cxfs(S);
  VolumeFs Afs(S, afsOptions());
  LocalFsModel Local(S);
  C.mountEverywhere(Nfs);
  C.mountEverywhere(Lustre);
  C.mountEverywhere(Cxfs);
  C.mountEverywhere(Afs);
  C.mountEverywhere(Local);

  BenchParams P;
  P.Operations = PluginRegistry::global().names();
  P.ProblemSize = 20;
  P.TimeLimit = seconds(0.5);
  MpiEnvironment Env = MpiEnvironment::uniform(2, 2);

  for (const char *FsName :
       {"nfs", "lustre", "cxfs", "afs", "localfs"}) {
    Master M(C, Env, FsName, P);
    ResultSet Results = M.runCombination(2, 1);
    EXPECT_EQ(P.Operations.size(), Results.Subtasks.size());
    for (const SubtaskResult &Sub : Results.Subtasks) {
      EXPECT_GT(Sub.totalOps(), 0u)
          << Sub.Operation << " on " << FsName;
      // StatMultinodeFiles stats the partner node's files; on a node-LOCAL
      // file system those do not exist — the expected ENOENTs demonstrate
      // exactly why the plugin requires a distributed file system.
      bool ExpectFailures = Sub.Operation == "StatMultinodeFiles" &&
                            std::string(FsName) == "localfs";
      for (const ProcessTrace &Proc : Sub.Processes) {
        if (ExpectFailures)
          EXPECT_GT(Proc.FailedRequests, 0u);
        else
          EXPECT_EQ(0u, Proc.FailedRequests)
              << Sub.Operation << " on " << FsName;
      }
    }
  }
}

TEST(Core, EnvProfileListsNodes) {
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Nfs(S);
  C.mountEverywhere(Nfs);
  EnvProfile Profile = EnvProfile::capture(C, "nfs");
  ASSERT_EQ(2u, Profile.Nodes.size());
  EXPECT_EQ("lx64a000", Profile.Nodes[0].Hostname);
  EXPECT_EQ(4u, Profile.Nodes[0].Cores);
  EXPECT_NE(std::string::npos,
            Profile.Nodes[0].MountDescription.find("nfs3"));
  EXPECT_NE(std::string::npos, Profile.render().find("lx64a001"));
}

TEST(Core, TimeLogBucketsAndCumulative) {
  TimeLog Log;
  Log.start(seconds(1.0), milliseconds(100));
  Log.record(seconds(1.05));
  Log.record(seconds(1.05));
  Log.record(seconds(1.25));
  Log.finish(seconds(1.30));
  ASSERT_EQ(3u, Log.opsPerInterval().numIntervals());
  EXPECT_EQ((std::vector<uint64_t>{2, 0, 1}), Log.opsPerInterval().dense());
  EXPECT_EQ(2u, Log.cumulativeAt(0));
  EXPECT_EQ(3u, Log.cumulativeAt(2));
  EXPECT_EQ(3u, Log.totalOps());
  EXPECT_EQ(milliseconds(300), Log.finishOffset());
}

TEST(CoreDeathTest, TimeLogFinishBeforeStartAborts) {
  // A finish stamp before the phase start would wrap into a negative
  // FinishOffset and poison every stonewall / wall-clock average.
  TimeLog Log;
  Log.start(seconds(2.0), milliseconds(100));
  EXPECT_DEATH(Log.finish(seconds(1.0)),
               "phase finished before it started");
}

} // namespace
