//===- tests/HybridTest.cpp - Re-export and volume mobility ----------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the hybrid concepts of thesis \S 2.5: the NFS re-export of a SAN
/// or parallel file system (\S 2.5.4) and transparent volume moves between
/// servers (\S 2.5.1).
///
//===----------------------------------------------------------------------===//

#include "dfs/ReexportFs.h"
#include "dmetabench/DMetabench.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

MetaReply runSync(Scheduler &S, ClientFs &C, MetaRequest Req) {
  MetaReply Out;
  C.submit(std::move(Req), [&Out](MetaReply R) { Out = std::move(R); });
  S.run();
  return Out;
}

FsError touch(Scheduler &S, ClientFs &C, const std::string &Path) {
  MetaReply R = runSync(S, C, makeOpen(Path, OpenWrite | OpenCreate));
  if (!R.ok())
    return R.Err;
  return runSync(S, C, makeClose(R.Fh)).Err;
}

//===----------------------------------------------------------------------===//
// NFS re-export (§2.5.4)
//===----------------------------------------------------------------------===//

TEST(Reexport, OperationsReachTheInnerFileSystem) {
  Scheduler S;
  CxfsFs San(S);
  ReexportFs Gateway(S, San);
  std::unique_ptr<ClientFs> C = Gateway.makeClient(0);
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/export")).Err);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/export/f"));
  // The SAN file system itself holds the state.
  OpCtx Ctx;
  Ctx.Creds.Uid = 0;
  EXPECT_TRUE(
      San.mds().volume(CxfsFs::VolumeName)->stat(Ctx, "/export/f").ok());
  EXPECT_GT(Gateway.forwardedRequests(), 0u);
}

TEST(Reexport, NfsClientsAndTrustedClientsShareTheNamespace) {
  // The §2.5.4 deployment: trusted machines mount the SAN directly,
  // everyone else goes through the NFS gateway — one namespace.
  Scheduler S;
  CxfsFs San(S);
  ReexportFs Gateway(S, San);
  std::unique_ptr<ClientFs> Trusted = San.makeClient(0);
  std::unique_ptr<ClientFs> Remote = Gateway.makeClient(10);
  ASSERT_EQ(FsError::Ok, touch(S, *Trusted, "/shared"));
  EXPECT_TRUE(runSync(S, *Remote, makeStat("/shared")).ok());
  ASSERT_EQ(FsError::Ok, runSync(S, *Remote, makeUnlink("/shared")).Err);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *Trusted, makeStat("/shared")).Err);
}

TEST(Reexport, GatewayAddsLatencyOverDirectAccess) {
  Scheduler S;
  LustreFs Inner(S);
  ReexportFs Gateway(S, Inner);
  std::unique_ptr<ClientFs> Direct = Inner.makeClient(0);
  std::unique_ptr<ClientFs> ViaGateway = Gateway.makeClient(1);

  SimTime T0 = S.now();
  ASSERT_EQ(FsError::Ok, touch(S, *Direct, "/a"));
  SimDuration DirectTime = S.now() - T0;
  T0 = S.now();
  ASSERT_EQ(FsError::Ok, touch(S, *ViaGateway, "/b"));
  SimDuration GatewayTime = S.now() - T0;
  // Both protocol stacks are paid (\S 2.5.4's trade-off).
  EXPECT_GT(GatewayTime, DirectTime + 2 * 2 * microseconds(100));
}

TEST(Reexport, AttrCacheServesRepeatedStats) {
  Scheduler S;
  CxfsFs San(S);
  ReexportFs Gateway(S, San);
  std::unique_ptr<ClientFs> C = Gateway.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/f"));
  uint64_t Before = Gateway.forwardedRequests();
  for (int I = 0; I < 10; ++I)
    ASSERT_TRUE(runSync(S, *C, makeStat("/f")).ok());
  // The open warmed the cache: no forwarded stats.
  EXPECT_EQ(Before, Gateway.forwardedRequests());
  C->dropCaches();
  ASSERT_TRUE(runSync(S, *C, makeStat("/f")).ok());
  EXPECT_EQ(Before + 1, Gateway.forwardedRequests());
}

// The gateway's NFS client drops what its own renames make stale, like
// the other caching clients (the Own* cases of AllModels/DfsSemanticsTest).
TEST(Reexport, OwnRenameInvalidatesCachedTargetAndChildren) {
  Scheduler S;
  CxfsFs San(S);
  ReexportFs Gateway(S, San);
  std::unique_ptr<ClientFs> C = Gateway.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/p"));
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/q"));
  MetaReply Src = runSync(S, *C, makeStat("/p"));
  ASSERT_TRUE(Src.ok());
  ASSERT_TRUE(runSync(S, *C, makeStat("/q")).ok()); // cache the doomed target
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeRename("/p", "/q")).Err);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeStat("/p")).Err);
  MetaReply Dst = runSync(S, *C, makeStat("/q"));
  ASSERT_TRUE(Dst.ok());
  EXPECT_EQ(Src.A.Ino, Dst.A.Ino);

  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/d/x"));
  ASSERT_TRUE(runSync(S, *C, makeStat("/d/x")).ok()); // cache below /d
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeRename("/d", "/e")).Err);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeStat("/d/x")).Err);
  EXPECT_TRUE(runSync(S, *C, makeStat("/e/x")).ok());
}

TEST(Reexport, WorksAsBenchmarkTarget) {
  Scheduler S;
  Cluster C(S, 2, 4);
  VolumeFs Inner(S, gxOptions());
  ReexportFs Gateway(S, Inner);
  C.mountEverywhere(Gateway);
  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.TimeLimit = seconds(1.0);
  P.ProblemSize = 10000;
  MpiEnvironment Env = MpiEnvironment::uniform(2, 2);
  Master M(C, Env, Gateway.name(), P);
  ResultSet Res = M.runCombination(2, 1);
  EXPECT_GT(Res.Subtasks[0].totalOps(), 100u);
  for (const ProcessTrace &Proc : Res.Subtasks[0].Processes)
    EXPECT_EQ(0u, Proc.FailedRequests);
  // No golden-corpus entry runs a re-export, so this run pins the
  // gateway's event chain: its event count and its result, bit-exact.
  EXPECT_EQ(47084u, S.executedEvents());
  EXPECT_EQ(0xddb749eae39cd902ull, fnv1a64(canonicalResultText(Res)));
}

//===----------------------------------------------------------------------===//
// Volume moves (§2.5.1)
//===----------------------------------------------------------------------===//

TEST(VolumeMove, GxPathOperationsSurviveTheMove) {
  Scheduler S;
  VolumeOptions Opts = gxOptions();
  Opts.NumServers = 2;
  VolumeFs Fs(S, Opts);
  Fs.setupUniform(0, 2);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol1/f"));
  uint64_t Filer1Before = Fs.server(1).processedRequests();

  ASSERT_TRUE(Fs.moveVolume("/vol1", 0));
  // Data and namespace are intact; requests now land on filer 0.
  EXPECT_TRUE(runSync(S, *C, makeStat("/vol1/f")).ok());
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol1/g"));
  EXPECT_EQ(Filer1Before, Fs.server(1).processedRequests());
}

TEST(VolumeMove, OpenHandlesBreak) {
  Scheduler S;
  VolumeOptions Opts = gxOptions();
  Opts.NumServers = 2;
  VolumeFs Fs(S, Opts);
  Fs.setupUniform(0, 2);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  MetaReply O = runSync(S, *C, makeOpen("/vol1/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  ASSERT_TRUE(Fs.moveVolume("/vol1", 0));
  // The old handle routes to the old filer, where the volume is gone.
  EXPECT_EQ(FsError::Stale, runSync(S, *C, makeWrite(O.Fh, 10)).Err);
}

TEST(VolumeMove, AfsMoveRebalancesServers) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  Cell.setupUniform(2, 2);
  std::unique_ptr<ClientFs> C = Cell.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol0/f"));
  unsigned OldServer = 1; // setupUniform adds servers 1 and 2; vol0 on 1
  uint64_t Before = Cell.server(OldServer).processedRequests();
  ASSERT_TRUE(Cell.moveVolume("/vol0", 2));
  EXPECT_TRUE(runSync(S, *C, makeStat("/vol0/f")).ok());
  EXPECT_EQ(Before, Cell.server(OldServer).processedRequests());
}

TEST(VolumeMove, InvalidTargetsRejected) {
  Scheduler S;
  VolumeFs Fs(S, gxOptions());
  Fs.setupUniform(0, 2);
  EXPECT_FALSE(Fs.moveVolume("/vol0", 99));
  EXPECT_FALSE(Fs.moveVolume("/nope", 1));
  EXPECT_TRUE(Fs.moveVolume("/vol0", 0)); // no-op move succeeds
}

} // namespace
