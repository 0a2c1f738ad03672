//===- tests/ExtensionTest.cpp - Tests for the outlook-chapter features ---===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the features implementing thesis Ch. 5's outlook: readdirplus
/// batched stats (\S 5.3.2), per-tenant QoS admission control (\S 5.4),
/// result-set persistence (\S 3.3.9) and request credential stamping.
///
//===----------------------------------------------------------------------===//

#include "core/ResultsIO.h"
#include "dmetabench/DMetabench.h"
#include "workload/Postmark.h"
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>

using namespace dmb;

namespace {

MetaReply runSync(Scheduler &S, ClientFs &C, MetaRequest Req) {
  MetaReply Out;
  C.submit(Req, [&Out](MetaReply R) { Out = std::move(R); });
  S.run();
  return Out;
}

//===----------------------------------------------------------------------===//
// ReaddirPlus (§5.3.2)
//===----------------------------------------------------------------------===//

TEST(ReaddirPlus, ReturnsEntriesWithAttributes) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_TRUE(runSync(S, *C, makeMkdir("/d")).ok());
  for (int I = 0; I < 5; ++I) {
    MetaReply O = runSync(
        S, *C, makeOpen("/d/f" + std::to_string(I), OpenWrite | OpenCreate));
    ASSERT_TRUE(O.ok());
    ASSERT_TRUE(runSync(S, *C, makeWrite(O.Fh, 100 * (I + 1))).ok());
    ASSERT_TRUE(runSync(S, *C, makeClose(O.Fh)).ok());
  }
  MetaReply R = runSync(S, *C, makeReaddirPlus("/d"));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(7u, R.Entries.size()); // 5 files + "." + "..".
  ASSERT_EQ(5u, R.EntryAttrs.size());
  for (const auto &[Name, A] : R.EntryAttrs) {
    EXPECT_EQ(FileType::Regular, A.Type);
    EXPECT_GT(A.Size, 0u);
  }
}

// Every client that speaks NFS to its node keeps readdirplus's post-op
// attributes: NFS itself, a GX N-blade mount (on a volume the client's
// N-blade forwards) and a re-export of NFS.
TEST(ReaddirPlus, WarmsTheAttributeCache) {
  for (std::string Model : {"nfs", "gx", "reexport"}) {
    SCOPED_TRACE(Model);
    Scheduler S;
    NfsFs Nfs(S);
    VolumeFs Gx(S, gxOptions());
    Gx.setupUniform(0, 2);
    ReexportFs Reexport(S, Nfs);
    DistributedFs &Fs = Model == "nfs"  ? static_cast<DistributedFs &>(Nfs)
                        : Model == "gx" ? static_cast<DistributedFs &>(Gx)
                                        : Reexport;
    // Server requests of every server the mount can reach.
    auto Requests = [&]() {
      uint64_t N = Nfs.server().processedRequests();
      for (unsigned I = 0; I < Gx.numServers(); ++I)
        N += Gx.server(I).processedRequests();
      return N;
    };
    std::unique_ptr<ClientFs> C = Fs.makeClient(0);
    const std::string Dir = Model == "gx" ? "/vol1/d" : "/d";
    ASSERT_TRUE(runSync(S, *C, makeMkdir(Dir)).ok());
    for (int I = 0; I < 10; ++I) {
      MetaReply O = runSync(S, *C,
                            makeOpen(Dir + "/f" + std::to_string(I),
                                     OpenWrite | OpenCreate));
      ASSERT_TRUE(runSync(S, *C, makeClose(O.Fh)).ok());
    }
    C->dropCaches();
    ASSERT_TRUE(runSync(S, *C, makeReaddirPlus(Dir)).ok());
    // All subsequent stats are served locally: no new server requests.
    uint64_t Before = Requests();
    for (int I = 0; I < 10; ++I)
      ASSERT_TRUE(
          runSync(S, *C, makeStat(Dir + "/f" + std::to_string(I))).ok());
    EXPECT_EQ(Before, Requests());
  }
}

TEST(ReaddirPlus, OnMissingDirectoryFails) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeReaddirPlus("/gone")).Err);
}

TEST(ReaddirPlus, BulkStatPluginCountsPerFile) {
  registerExtensionPlugins(PluginRegistry::global());
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"BulkStatFiles"};
  P.ProblemSize = 123;
  MpiEnvironment Env = MpiEnvironment::uniform(2, 2);
  Master M(C, Env, "nfs", P);
  ResultSet Res = M.runCombination(2, 1);
  for (const ProcessTrace &Proc : Res.Subtasks[0].Processes) {
    EXPECT_EQ(123u, Proc.TotalOps);
    EXPECT_EQ(0u, Proc.FailedRequests);
  }
}

TEST(ReaddirPlus, ExtensionRegistryNames) {
  PluginRegistry R;
  registerExtensionPlugins(R);
  EXPECT_NE(nullptr, R.get("BulkStatFiles"));
  EXPECT_NE(nullptr, R.get("ReaddirFiles"));
}

//===----------------------------------------------------------------------===//
// Postmark baseline (§3.1.4)
//===----------------------------------------------------------------------===//

TEST(Postmark, RunsCleanAndCleansUp) {
  registerPostmarkPlugin(PluginRegistry::global());
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  uint64_t InodesBefore =
      Fs.server().volume(NfsFs::VolumeName)->numInodes();
  BenchParams P;
  P.Operations = {"Postmark"};
  P.ProblemSize = 500; // transactions per process
  MpiEnvironment Env = MpiEnvironment::uniform(2, 2);
  Master M(C, Env, "nfs", P);
  ResultSet Res = M.runCombination(2, 1);
  for (const ProcessTrace &Proc : Res.Subtasks[0].Processes) {
    EXPECT_EQ(500u, Proc.TotalOps);
    EXPECT_EQ(0u, Proc.FailedRequests);
  }
  // The third phase removed the pool; only the workdir roots remain.
  EXPECT_LE(Fs.server().volume(NfsFs::VolumeName)->numInodes(),
            InodesBefore + 2);
}

TEST(Postmark, DeterministicAcrossRuns) {
  registerPostmarkPlugin(PluginRegistry::global());
  auto Run = []() {
    Scheduler S;
    Cluster C(S, 2, 4);
    NfsFs Fs(S);
    C.mountEverywhere(Fs);
    BenchParams P;
    P.Operations = {"Postmark"};
    P.ProblemSize = 300;
    MpiEnvironment Env = MpiEnvironment::uniform(2, 2);
    Master M(C, Env, "nfs", P);
    ResultSet Res = M.runCombination(2, 1);
    return Res.Subtasks[0].Processes[0].FinishOffset;
  };
  EXPECT_EQ(Run(), Run());
}

//===----------------------------------------------------------------------===//
// QoS / load control (§5.4)
//===----------------------------------------------------------------------===//

TEST(Qos, RateLimitDelaysTenant) {
  Scheduler S;
  ServerConfig Cfg;
  FileServer Server(S, Cfg);
  Server.addVolume("v");
  Server.setTenantRateLimit(42, /*OpsPerSec=*/10.0);

  // Ten requests from the limited tenant take ~1 second to admit.
  int Done = 0;
  SimTime LastDone = 0;
  for (int I = 0; I < 10; ++I) {
    MetaRequest Req = makeMkdir("/d" + std::to_string(I));
    Req.Creds.Uid = 42;
    Server.process("v", Req, [&](MetaReply R) {
      EXPECT_TRUE(R.ok());
      ++Done;
      LastDone = S.now();
    });
  }
  S.run();
  EXPECT_EQ(10, Done);
  EXPECT_GE(LastDone, seconds(0.9));

  // An unlimited tenant is unaffected.
  SimTime OtherDone = 0;
  MetaRequest Req = makeMkdir("/other");
  Req.Creds.Uid = 7;
  Server.process("v", Req, [&](MetaReply R) {
    EXPECT_TRUE(R.ok());
    OtherDone = S.now();
  });
  SimTime Start = S.now();
  S.run();
  EXPECT_LT(OtherDone - Start, milliseconds(10));
}

TEST(Qos, RemovingTheLimitRestoresSpeed) {
  Scheduler S;
  FileServer Server(S, ServerConfig());
  Server.addVolume("v");
  Server.setTenantRateLimit(42, 1.0);
  Server.setTenantRateLimit(42, 0); // remove
  SimTime Done = 0;
  MetaRequest Req = makeMkdir("/d");
  Req.Creds.Uid = 42;
  Server.process("v", Req, [&](MetaReply) { Done = S.now(); });
  S.run();
  EXPECT_LT(Done, milliseconds(10));
}

TEST(Qos, WorkersStampCredentials) {
  // The worker engine stamps BenchParams.Creds on every request, so QoS
  // can discriminate benchmark tenants.
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  Fs.server().setTenantRateLimit(555, 100.0);

  BenchParams P;
  P.Operations = {"StatNocacheFiles"};
  P.ProblemSize = 50;
  P.Creds.Uid = 555;
  P.Creds.Gid = 555;
  MpiEnvironment Env = MpiEnvironment::uniform(2, 2);
  Master M(C, Env, "nfs", P);
  ResultSet Res = M.runCombination(1, 1);
  // 50 stats at <= 100 requests/s admission cannot beat ~100 ops/s.
  EXPECT_LT(wallClockAverage(Res.Subtasks[0]), 120.0);
}

//===----------------------------------------------------------------------===//
// Result persistence (§3.3.9)
//===----------------------------------------------------------------------===//

class ResultsIOTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = std::filesystem::temp_directory_path() /
          ("dmb-test-" + std::to_string(::getpid()));
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  std::filesystem::path Dir;
};

TEST_F(ResultsIOTest, WritesAllFiles) {
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"StatFiles", "DeleteFiles"};
  P.ProblemSize = 20;
  MpiEnvironment Env = MpiEnvironment::uniform(2, 2);
  Master M(C, Env, "nfs", P);
  ResultSet Res = M.runCombination(2, 1);

  ASSERT_TRUE(writeResultSet(Res, Dir.string()));
  for (const std::string &Name : resultSetFileNames(Res))
    EXPECT_TRUE(std::filesystem::exists(Dir / Name)) << Name;

  // The Listing 3.3 protocol has the expected header.
  std::ifstream In(Dir / "results-StatFiles-2-2.tsv");
  std::string Header;
  std::getline(In, Header);
  EXPECT_EQ("Hostname\tOperation\tProcessNo\tTimestamp\tOperationsDone",
            Header);

  // summary.tsv has one row per subtask plus the header.
  std::ifstream Sum(Dir / "summary.tsv");
  int Lines = 0;
  std::string Line;
  while (std::getline(Sum, Line))
    ++Lines;
  EXPECT_EQ(3, Lines);
}

TEST_F(ResultsIOTest, QuiescenceDiagnosticsRecordedAndWritten) {
  Scheduler S;
  Cluster C(S, 2, 4);
  NfsFs Fs(S);
  C.mountEverywhere(Fs);
  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.ProblemSize = 10;
  Master M(C, MpiEnvironment::uniform(2, 2), "nfs", P);
  ResultSet Res = M.runCombination(2, 1);

  // A clean run attaches a clean quiescence report...
  ASSERT_FALSE(Res.Diagnostics.empty());
  EXPECT_NE(std::string::npos, Res.Diagnostics.find("no issues"));

  // ...which is persisted alongside the protocol files.
  ASSERT_TRUE(writeResultSet(Res, Dir.string()));
  EXPECT_TRUE(std::filesystem::exists(Dir / "diagnostics.txt"));
  std::ifstream In(Dir / "diagnostics.txt");
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(Res.Diagnostics, Contents);
}

TEST_F(ResultsIOTest, EnvironmentProfileRecorded) {
  ResultSet Res;
  Res.Label = "x";
  Res.EnvironmentProfile = "# environment profile\nnode a cores=4\n";
  ASSERT_TRUE(writeResultSet(Res, Dir.string()));
  std::ifstream In(Dir / "environment.txt");
  std::string Contents((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(Res.EnvironmentProfile, Contents);
}

} // namespace
