//===- tests/IntegrationTest.cpp - Cross-layer integration tests ----------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end checks that cut across layers: request routing and
/// accounting in the aggregated models, read-after-close visibility,
/// extension plugins under the full framework, and result pipelines from
/// a live run through analysis to TSV.
///
//===----------------------------------------------------------------------===//

#include "analysis/Preprocess.h"
#include "dmetabench/DMetabench.h"
#include "support/Format.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

MetaReply runSync(Scheduler &S, ClientFs &C, MetaRequest Req) {
  MetaReply Out;
  C.submit(std::move(Req), [&Out](MetaReply R) { Out = std::move(R); });
  S.run();
  return Out;
}

TEST(Integration, GxForwardingLoadsBothFilers) {
  Scheduler S;
  VolumeOptions Opts = gxOptions();
  Opts.NumServers = 2;
  VolumeFs Fs(S, Opts);
  Fs.setupUniform(0, 2); // vol0 on filer0, vol1 on filer1
  std::unique_ptr<ClientFs> C = Fs.makeClient(0); // N-blade = filer0

  // Work exclusively on the REMOTE volume: the D-blade work lands on
  // filer1, but filer0 still pays N-blade translation for every request.
  for (int I = 0; I < 20; ++I) {
    MetaReply O = runSync(
        S, *C,
        makeOpen("/vol1/f" + std::to_string(I), OpenWrite | OpenCreate));
    ASSERT_TRUE(O.ok());
    ASSERT_TRUE(runSync(S, *C, makeClose(O.Fh)).ok());
  }
  EXPECT_EQ(40u, Fs.server(1).processedRequests());
  EXPECT_EQ(0u, Fs.server(0).processedRequests());
  // The N-blade CPU was busy translating/forwarding nonetheless.
  EXPECT_GT(Fs.server(0).cpu().completedRequests(), 40u);
}

TEST(Integration, NfsReadAfterCloseAcrossNodes) {
  // Close-to-open semantics (§2.6.1): after A closes, B's open+read sees
  // the written data size.
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> A = Fs.makeClient(0);
  std::unique_ptr<ClientFs> B = Fs.makeClient(1);
  MetaReply O = runSync(S, *A, makeOpen("/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  ASSERT_TRUE(runSync(S, *A, makeWrite(O.Fh, 4242)).ok());
  ASSERT_TRUE(runSync(S, *A, makeClose(O.Fh)).ok());

  MetaReply OB = runSync(S, *B, makeOpen("/f", OpenRead));
  ASSERT_TRUE(OB.ok());
  MetaReply R = runSync(S, *B, makeRead(OB.Fh, 100000));
  EXPECT_EQ(4242u, R.Bytes);
  EXPECT_TRUE(runSync(S, *B, makeClose(OB.Fh)).ok());
}

TEST(Integration, ReaddirFilesExtensionUnderFramework) {
  registerExtensionPlugins(PluginRegistry::global());
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"ReaddirFiles"};
  P.ProblemSize = 50; // files per directory listed
  MpiEnvironment Env = MpiEnvironment::uniform(2, 2);
  Master M(C, Env, "nfs", P);
  ResultSet Res = M.runCombination(2, 1);
  for (const ProcessTrace &Proc : Res.Subtasks[0].Processes) {
    EXPECT_EQ(100u, Proc.TotalOps); // 100 listings each
    EXPECT_EQ(0u, Proc.FailedRequests);
  }
}

TEST(Integration, LiveRunThroughAnalysisPipeline) {
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"StatNocacheFiles"};
  P.ProblemSize = 300;
  MpiEnvironment Env = MpiEnvironment::uniform(2, 2);
  Master M(C, Env, "nfs", P);
  ResultSet Res = M.runCombination(2, 1);
  const SubtaskResult &Sub = Res.Subtasks[0];

  // Interval rows accumulate to the total.
  std::vector<IntervalRow> Rows = intervalSummary(Sub);
  ASSERT_FALSE(Rows.empty());
  EXPECT_EQ(Sub.totalOps(), Rows.back().TotalOps);
  // The TSV protocol has one line per process-interval plus the header.
  size_t ExpectedLines = 1;
  for (const ProcessTrace &Proc : Sub.Processes)
    ExpectedLines += Proc.OpsPerInterval.numIntervals();
  std::string Tsv = Sub.toTsv();
  EXPECT_EQ(ExpectedLines,
            static_cast<size_t>(
                std::count(Tsv.begin(), Tsv.end(), '\n')));
  // Summary figures are internally consistent.
  SubtaskSummary Sum = summarize(Sub);
  EXPECT_EQ(600u, Sum.TotalOps);
  EXPECT_GT(Sum.StonewallOpsPerSec, 0.0);
  EXPECT_GE(Sum.WallClockSec, Sum.StonewallSec - 0.1);
}

TEST(Integration, MakeDirsCleansUpEverything) {
  Scheduler S;
  Cluster C(S, 2, 4);
  LustreFs Fs(S);
  C.mountEverywhere(Fs);
  LocalFileSystem *Vol = Fs.mds().volume(LustreFs::VolumeName);
  BenchParams P;
  P.Operations = {"MakeDirs"};
  P.TimeLimit = seconds(1.0);
  P.ProblemSize = 50;
  MpiEnvironment Env = MpiEnvironment::uniform(2, 3);
  Master M(C, Env, "lustre", P);
  ResultSet Res = M.runCombination(2, 2);
  ASSERT_EQ(1u, Res.Subtasks.size());
  EXPECT_GT(Res.Subtasks[0].totalOps(), 100u);
  // Everything the bench created is gone; the volume is consistent.
  EXPECT_LE(Vol->numInodes(), 3u); // root + workdir root
  EXPECT_TRUE(Vol->fsck().clean());
}

TEST(Integration, WritebackRenameChainStaysOrdered) {
  // Mutations acked from the write-back cache must serialize correctly:
  // a rename chain A->B->C leaves exactly C.
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  LustreFs Fs(S, Opts);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  int Acks = 0;
  auto Count = [&Acks](MetaReply R) {
    EXPECT_TRUE(R.ok());
    ++Acks;
  };
  C->submit(makeMkdir("/a"), Count);
  C->submit(makeRename("/a", "/b"), Count);
  C->submit(makeRename("/b", "/c"), Count);
  S.run();
  EXPECT_EQ(3, Acks);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeStat("/a")).Err);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeStat("/b")).Err);
  EXPECT_TRUE(runSync(S, *C, makeStat("/c")).ok());
}

TEST(Integration, EnvProfileCapturesLoad) {
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  // A CPU hog is visible as dynamic load in the profile (\S 3.2.6).
  CpuHog Hog(S, C.node(1).cpu(), 8.0, 0, seconds(10.0));
  S.runUntil(seconds(1.0));
  EnvProfile Profile = EnvProfile::capture(C, "nfs");
  EXPECT_EQ(0u, Profile.Nodes[0].ActiveCpuTasks);
  EXPECT_GE(Profile.Nodes[1].ActiveCpuTasks, 1u);
}

TEST(Integration, CxfsScalesAcrossNodesNotWithin) {
  Scheduler S;
  Cluster C(S, 8, 8);
  CxfsFs Fs(S);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.TimeLimit = seconds(2.0);
  P.ProblemSize = 100000;
  MpiEnvironment Env = MpiEnvironment::uniform(8, 5);

  Master M(C, Env, "cxfs", P);
  double OneNodeOneProc =
      stonewallAverage(M.runCombination(1, 1).Subtasks[0]);
  double OneNodeFourProcs =
      stonewallAverage(M.runCombination(1, 4).Subtasks[0]);
  double FourNodesOneProc =
      stonewallAverage(M.runCombination(4, 1).Subtasks[0]);
  // Intra-node: token-serialized, no gain. Inter-node: near-linear.
  EXPECT_LT(OneNodeFourProcs, 1.3 * OneNodeOneProc);
  EXPECT_GT(FourNodesOneProc, 2.5 * OneNodeOneProc);
}

} // namespace
