//===- tests/ConsistencyTest.cpp - fsck, journal, locks, notifications ----===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the metadata-consistency machinery of thesis \S 2.7 (fsck-style
/// checking, write-ahead journaling and crash recovery), the advisory
/// file locks of \S 2.3.2 and the change notifications of \S 2.8.3.
///
//===----------------------------------------------------------------------===//

#include "dfs/Journal.h"
#include "dmetabench/DMetabench.h"
#include "support/Random.h"
#include "workload/NamespaceGenerator.h"
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <set>

using namespace dmb;

namespace {

OpCtx userCtx(SimTime Now = 0) {
  OpCtx Ctx;
  Ctx.Creds.Uid = 1000;
  Ctx.Creds.Gid = 1000;
  Ctx.Now = Now;
  return Ctx;
}

/// Sends \p Req to the volume \p Vol of \p Server. The reply waits in a
/// slot this helper owns until the server's completion hands it to
/// \p Done.
void serve(FileServer &Server, const std::string &Vol, const MetaRequest &Req,
           std::function<void(MetaReply)> Done = [](MetaReply) {}) {
  auto Reply = std::make_shared<MetaReply>();
  Server.process(Server.volumeId(Vol), Req, *Reply,
                 [Reply, Done = std::move(Done)]() {
                   Done(std::move(*Reply));
                 });
}

FsError touch(LocalFileSystem &Fs, OpCtx &Ctx, const std::string &Path) {
  Result<FileHandle> Fh = Fs.open(Ctx, Path, OpenWrite | OpenCreate);
  if (!Fh.ok())
    return Fh.error();
  return Fs.close(Ctx, *Fh);
}

//===----------------------------------------------------------------------===//
// fsck (§2.7.1)
//===----------------------------------------------------------------------===//

TEST(Fsck, FreshFileSystemIsClean) {
  LocalFileSystem Fs;
  LocalFileSystem::FsckReport R = Fs.fsck();
  EXPECT_TRUE(R.clean()) << (R.Errors.empty() ? "" : R.Errors[0]);
  EXPECT_EQ(1u, R.InodesChecked);
  EXPECT_EQ(1u, R.DirectoriesChecked);
}

TEST(Fsck, PopulatedTreeIsClean) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/b/f"));
  ASSERT_EQ(FsError::Ok, Fs.link(Ctx, "/a/b/f", "/a/g"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a/b/f", "/lnk"));
  LocalFileSystem::FsckReport R = Fs.fsck();
  EXPECT_TRUE(R.clean()) << (R.Errors.empty() ? "" : R.Errors[0]);
  EXPECT_EQ(5u, R.InodesChecked); // root, a, b, f, lnk
  EXPECT_EQ(3u, R.DirectoriesChecked);
}

TEST(Fsck, DeferredUnlinkIsNotAnOrphan) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  Result<FileHandle> Fh = Fs.open(Ctx, "/tmp", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/tmp"));
  EXPECT_TRUE(Fs.fsck().clean());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
  EXPECT_TRUE(Fs.fsck().clean());
}

TEST(Fsck, CleanAfterRandomWorkload) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  Rng R(4711);
  std::vector<std::string> Dirs = {"/"};
  std::vector<std::string> Files;
  for (int Step = 0; Step < 3000; ++Step) {
    switch (R.below(6)) {
    case 0: {
      std::string P = Dirs[R.below(Dirs.size())];
      std::string D = (P == "/" ? "" : P) + "/d" + std::to_string(Step);
      if (succeeded(Fs.mkdir(Ctx, D, 0755)))
        Dirs.push_back(D);
      break;
    }
    case 1: {
      std::string P = Dirs[R.below(Dirs.size())];
      std::string F = (P == "/" ? "" : P) + "/f" + std::to_string(Step);
      if (succeeded(touch(Fs, Ctx, F)))
        Files.push_back(F);
      break;
    }
    case 2:
      if (!Files.empty()) {
        size_t I = R.below(Files.size());
        if (succeeded(Fs.unlink(Ctx, Files[I])))
          Files.erase(Files.begin() + static_cast<ptrdiff_t>(I));
      }
      break;
    case 3:
      if (!Files.empty()) {
        size_t I = R.below(Files.size());
        std::string To = "/r" + std::to_string(Step);
        if (succeeded(Fs.rename(Ctx, Files[I], To)))
          Files[I] = To;
      }
      break;
    case 4:
      if (!Files.empty()) {
        std::string L = "/h" + std::to_string(Step);
        if (succeeded(Fs.link(Ctx, Files[R.below(Files.size())], L)))
          Files.push_back(L);
      }
      break;
    case 5:
      if (Dirs.size() > 1) {
        size_t I = 1 + R.below(Dirs.size() - 1);
        if (succeeded(Fs.rmdir(Ctx, Dirs[I])))
          Dirs.erase(Dirs.begin() + static_cast<ptrdiff_t>(I));
      }
      break;
    }
  }
  LocalFileSystem::FsckReport Report = Fs.fsck();
  EXPECT_TRUE(Report.clean())
      << (Report.Errors.empty() ? "" : Report.Errors[0]);
}

//===----------------------------------------------------------------------===//
// Advisory locks (§2.3.2)
//===----------------------------------------------------------------------===//

class LockTest : public ::testing::Test {
protected:
  void SetUp() override {
    Ctx = userCtx();
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
    Result<FileHandle> A = Fs.open(Ctx, "/f", OpenRead | OpenWrite);
    Result<FileHandle> B = Fs.open(Ctx, "/f", OpenRead | OpenWrite);
    ASSERT_TRUE(A.ok());
    ASSERT_TRUE(B.ok());
    FhA = *A;
    FhB = *B;
  }

  LocalFileSystem Fs;
  OpCtx Ctx;
  FileHandle FhA = InvalidHandle, FhB = InvalidHandle;
};

TEST_F(LockTest, SharedReadersCoexist) {
  EXPECT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhA, /*Exclusive=*/false));
  EXPECT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhB, false));
}

TEST_F(LockTest, WriteLockIsExclusive) {
  ASSERT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhA, /*Exclusive=*/true));
  EXPECT_EQ(FsError::Busy, Fs.lockFile(Ctx, FhB, true));
  EXPECT_EQ(FsError::Busy, Fs.lockFile(Ctx, FhB, false));
  ASSERT_EQ(FsError::Ok, Fs.unlockFile(Ctx, FhA));
  EXPECT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhB, true));
}

TEST_F(LockTest, ReadersBlockWriter) {
  ASSERT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhA, false));
  EXPECT_EQ(FsError::Busy, Fs.lockFile(Ctx, FhB, true));
}

TEST_F(LockTest, UpgradeAndDowngrade) {
  // A sole reader may upgrade to the write lock and back.
  ASSERT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhA, false));
  EXPECT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhA, true));
  EXPECT_EQ(FsError::Busy, Fs.lockFile(Ctx, FhB, false));
  EXPECT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhA, false));
  EXPECT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhB, false));
}

TEST_F(LockTest, CloseReleasesLocks) {
  ASSERT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhA, true));
  ASSERT_EQ(FsError::Ok, Fs.close(Ctx, FhA));
  EXPECT_EQ(FsError::Ok, Fs.lockFile(Ctx, FhB, true));
}

TEST_F(LockTest, UnlockWithoutLockIsInvalid) {
  EXPECT_EQ(FsError::Invalid, Fs.unlockFile(Ctx, FhA));
  EXPECT_EQ(FsError::BadFd, Fs.lockFile(Ctx, 999999, true));
}

TEST(LockRpc, LocksWorkAcrossNfsClients) {
  // Locks live on the server, so they coordinate different nodes.
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> A = Fs.makeClient(0);
  std::unique_ptr<ClientFs> B = Fs.makeClient(1);
  auto Sync = [&S](ClientFs &C, MetaRequest Req) {
    MetaReply Out;
    C.submit(std::move(Req), [&Out](MetaReply R) { Out = std::move(R); });
    S.runUntil(S.now() + seconds(1.0));
    return Out;
  };
  MetaReply OA = Sync(*A, makeOpen("/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(OA.ok());
  MetaReply OB = Sync(*B, makeOpen("/f", OpenRead));
  ASSERT_TRUE(OB.ok());
  EXPECT_EQ(FsError::Ok, Sync(*A, makeLock(OA.Fh, true)).Err);
  EXPECT_EQ(FsError::Busy, Sync(*B, makeLock(OB.Fh, false)).Err);
  EXPECT_EQ(FsError::Ok, Sync(*A, makeUnlock(OA.Fh)).Err);
  EXPECT_EQ(FsError::Ok, Sync(*B, makeLock(OB.Fh, false)).Err);
}

//===----------------------------------------------------------------------===//
// Journal and crash recovery (§2.7)
//===----------------------------------------------------------------------===//

TEST(Journal, JournalableOps) {
  EXPECT_TRUE(MetadataJournal::isJournalable(makeMkdir("/d")));
  EXPECT_TRUE(MetadataJournal::isJournalable(makeUnlink("/f")));
  EXPECT_TRUE(MetadataJournal::isJournalable(
      makeOpen("/f", OpenWrite | OpenCreate)));
  EXPECT_FALSE(
      MetadataJournal::isJournalable(makeOpen("/f", OpenRead)));
  EXPECT_FALSE(MetadataJournal::isJournalable(makeWrite(1, 100)));
  EXPECT_FALSE(MetadataJournal::isJournalable(makeStat("/f")));
}

TEST(Journal, ReplayRebuildsNamespace) {
  Scheduler S;
  FileServer Server(S, ServerConfig());
  Server.addVolume("v");
  Server.enableJournal();

  auto Apply = [&](MetaRequest Req) {
    MetaReply Out;
    serve(Server, "v", Req, [&Out](MetaReply R) { Out = std::move(R); });
    S.run(); // runs to completion: commits everything
    return Out;
  };
  ASSERT_TRUE(Apply(makeMkdir("/a")).ok());
  MetaReply O = Apply(makeOpen("/a/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  ASSERT_TRUE(Apply(makeClose(O.Fh)).ok());
  ASSERT_TRUE(Apply(makeRename("/a/f", "/a/g")).ok());
  ASSERT_TRUE(Apply(makeSymlink("/a/g", "/lnk")).ok());

  uint64_t Lost = Server.crashAndRecover("v");
  EXPECT_EQ(0u, Lost); // everything was committed
  LocalFileSystem *Vol = Server.volume("v");
  OpCtx Ctx = userCtx();
  EXPECT_TRUE(Vol->stat(Ctx, "/a/g").ok());
  EXPECT_EQ(FsError::NoEnt, Vol->stat(Ctx, "/a/f").error());
  EXPECT_EQ(FileType::Symlink, Vol->lstat(Ctx, "/lnk")->Type);
  EXPECT_TRUE(Vol->fsck().clean());
}

TEST(Journal, UncommittedOpsAreLostButFsStaysConsistent) {
  Scheduler S;
  ServerConfig Cfg;
  Cfg.CommitLatency = milliseconds(10); // slow commits
  FileServer Server(S, Cfg);
  Server.addVolume("v");
  Server.enableJournal();

  // Commit /durable fully.
  serve(Server, "v", makeMkdir("/durable"));
  S.run();
  // Issue /lost but crash before its service completes.
  serve(Server, "v", makeMkdir("/lost"));
  S.runUntil(S.now() + microseconds(1));
  EXPECT_EQ(1u, Server.journal()->uncommittedCount("v"));

  uint64_t Lost = Server.crashAndRecover("v");
  EXPECT_EQ(1u, Lost);
  LocalFileSystem *Vol = Server.volume("v");
  OpCtx Ctx = userCtx();
  EXPECT_TRUE(Vol->stat(Ctx, "/durable").ok());
  EXPECT_EQ(FsError::NoEnt, Vol->stat(Ctx, "/lost").error());
  EXPECT_TRUE(Vol->fsck().clean());
  S.run(); // late commit callbacks must not resurrect discarded records
  EXPECT_EQ(0u, Server.journal()->uncommittedCount("v"));
}

TEST(Journal, CommitHoldsOutOfOrderPersists) {
  // The committed set must stay a per-volume log prefix: a redo log is
  // only usable up to its first hole, so a stable write that finishes
  // before its predecessors is held and released in log order.
  MetadataJournal J;
  uint64_t A1 = *J.append("a", makeMkdir("/x"), 0);
  uint64_t A2 = *J.append("a", makeMkdir("/x/y"), 0);
  uint64_t B1 = *J.append("b", makeMkdir("/z"), 0);

  std::vector<uint64_t> HookOrder;
  J.onCommit([&HookOrder](uint64_t Seq) { HookOrder.push_back(Seq); });

  J.commit(A2); // out of order: A1 is still a hole
  EXPECT_FALSE(J.isCommitted(A2));
  J.commit(B1); // a different volume has no hole
  EXPECT_TRUE(J.isCommitted(B1));
  J.commit(A1); // fills the hole: A1 then A2 commit, in log order
  EXPECT_TRUE(J.isCommitted(A1));
  EXPECT_TRUE(J.isCommitted(A2));
  EXPECT_EQ((std::vector<uint64_t>{B1, A1, A2}), HookOrder);
}

TEST(Journal, HookAppendingForANewVolumeKeepsLogOrder) {
  // The hook runs while the frontier of volume a advances. It appends and
  // commits a record of a volume the journal has not seen, which interns
  // the volume and grows the per-volume frontiers; a's frontier must
  // still pick up where it left off, so A2 commits after A1.
  MetadataJournal J;
  uint64_t A1 = *J.append("a", makeMkdir("/x"), 0);
  uint64_t A2 = *J.append("a", makeMkdir("/x/y"), 0);
  uint64_t B1 = 0;
  std::vector<uint64_t> HookOrder;
  J.onCommit([&](uint64_t Seq) {
    HookOrder.push_back(Seq);
    if (Seq == A1) {
      B1 = *J.append("b", makeMkdir("/z"), 0);
      J.commit(B1);
    }
  });
  J.commit(A2); // held behind A1
  EXPECT_TRUE(HookOrder.empty());
  J.commit(A1);
  EXPECT_EQ((std::vector<uint64_t>{A1, B1, A2}), HookOrder);
  EXPECT_TRUE(J.isCommitted(A1));
  EXPECT_TRUE(J.isCommitted(A2));
  EXPECT_TRUE(J.isCommitted(B1));
  // Both frontiers stand past their volume's last record.
  uint64_t A3 = *J.append("a", makeMkdir("/x/y/w"), 0);
  uint64_t B2 = *J.append("b", makeMkdir("/z/v"), 0);
  J.commit(B2);
  J.commit(A3);
  EXPECT_EQ((std::vector<uint64_t>{A1, B1, A2, B2, A3}), HookOrder);
  EXPECT_EQ(0u, J.uncommittedCount("a"));
  EXPECT_EQ(0u, J.uncommittedCount("b"));
  EXPECT_EQ(5u, J.committedCount());
}

TEST(Journal, CommitAllDoesNotResurrectDiscarded) {
  MetadataJournal J;
  uint64_t S1 = *J.append("v", makeMkdir("/a"), 0);
  uint64_t S2 = *J.append("v", makeMkdir("/b"), 0);
  J.commit(S1);
  EXPECT_EQ(1u, J.discardUncommitted("v")); // the crash destroys S2
  J.commitAll();                            // sync-journal mode catch-up
  EXPECT_TRUE(J.isCommitted(S1));
  EXPECT_FALSE(J.isCommitted(S2));
  EXPECT_TRUE(J.isDiscarded(S2));
}

TEST(Journal, CrashDuringOutOfOrderCommitRecoversPrefix) {
  // Regression for the batched-commit replay bug: a multi-threaded server
  // finishes cheap stable writes before expensive earlier ones. If the
  // cheap record commits alone and the crash discards its predecessors,
  // replay applies an operation to the wrong file incarnation and the
  // recovered state matches NO prefix of the execution.
  Scheduler S;
  ServerConfig Cfg;
  Cfg.CpuThreads = 4; // the three burst ops run concurrently
  Cfg.Costs.BaseMetaOp = microseconds(90);
  Cfg.Costs.PerInodeTouched = microseconds(4);
  Cfg.Costs.PerDirEntryWritten = microseconds(8);
  Cfg.CommitLatency = microseconds(20);
  FileServer Server(S, Cfg);
  Server.addVolume("v");
  Server.enableJournal();

  // Fully committed baseline: /f exists with default mode.
  MetaReply O;
  serve(Server, "v", makeOpen("/f", OpenWrite | OpenCreate),
        [&O](MetaReply R) { O = std::move(R); });
  S.run();
  ASSERT_TRUE(O.ok());

  // One burst, executed in submit order at arrival: /f becomes /g, a new
  // /f is created, and the NEW /f is chmodded. The chmod touches the
  // least state, so its stable write finishes first (~119 us), before the
  // create (~135 us) and the rename (~147 us).
  SimTime T0 = S.now();
  serve(Server, "v", makeRename("/f", "/g"));
  serve(Server, "v", makeOpen("/f", OpenWrite | OpenCreate));
  MetaRequest Chmod;
  Chmod.Op = MetaOp::Chmod;
  Chmod.Path = "/f";
  Chmod.Mode = 0700;
  serve(Server, "v", Chmod);

  // Crash inside the window where only the chmod's stable write is done.
  S.runUntil(T0 + microseconds(126));
  uint64_t Lost = Server.crashAndRecover("v");

  // All three burst records are lost: the chmod's persisted record sits
  // behind the rename/create holes, so it cannot survive alone. Before
  // the fix only the rename and create were lost, and replay left the
  // ORIGINAL /f carrying the new file's mode 0700 with /g missing —
  // a state no prefix of the execution ever had.
  EXPECT_EQ(3u, Lost);
  LocalFileSystem *Vol = Server.volume("v");
  OpCtx Ctx = userCtx();
  Result<Attr> F = Vol->stat(Ctx, "/f");
  ASSERT_TRUE(F.ok());
  EXPECT_EQ(0644u, F->Mode & 0777u);
  EXPECT_EQ(FsError::NoEnt, Vol->stat(Ctx, "/g").error());
  EXPECT_TRUE(Vol->fsck().clean());
}

/// Everything a journal replay must reproduce of \p Fs, one line per
/// object in walk order: its path, every lstat field, its link target and
/// its extended attributes.
std::vector<std::string> treeImage(LocalFileSystem &Fs) {
  OpCtx Root;
  Root.Creds = {0, 0};
  std::vector<std::string> Out;
  std::vector<std::string> Dirs = {"/"};
  while (!Dirs.empty()) {
    std::string Dir = Dirs.back();
    Dirs.pop_back();
    Result<std::vector<DirEntry>> Entries = Fs.readdir(Root, Dir);
    EXPECT_TRUE(Entries.ok()) << Dir;
    if (!Entries.ok())
      continue;
    std::vector<std::string> Names;
    for (const DirEntry &E : *Entries)
      if (E.Name != "." && E.Name != "..")
        Names.push_back(E.Name);
    std::sort(Names.begin(), Names.end());
    for (const std::string &Name : Names) {
      std::string Path = (Dir == "/" ? "" : Dir) + "/" + Name;
      Result<Attr> A = Fs.lstat(Root, Path);
      EXPECT_TRUE(A.ok()) << Path;
      if (!A.ok())
        continue;
      std::string Line = Path;
      for (uint64_t V :
           {A->Dev, A->Ino, uint64_t(A->Type), uint64_t(A->Mode),
            uint64_t(A->Nlink), uint64_t(A->Uid), uint64_t(A->Gid), A->Size,
            uint64_t(A->Atime), uint64_t(A->Mtime), uint64_t(A->Ctime),
            uint64_t(A->BlockSize), A->Blocks})
        Line.append(1, ' ').append(std::to_string(V));
      if (A->Type == FileType::Symlink)
        Line += " -> " + *Fs.readlink(Root, Path);
      if (Result<std::vector<std::string>> Keys = Fs.listxattr(Root, Path);
          Keys.ok()) {
        std::sort(Keys->begin(), Keys->end());
        for (const std::string &K : *Keys)
          Line += " " + K + "=" + *Fs.getxattr(Root, Path, K);
      }
      Out.push_back(std::move(Line));
      if (A->Type == FileType::Directory)
        Dirs.push_back(Path);
    }
  }
  return Out;
}

TEST(Journal, ReplayRoundTripsEveryJournalableField) {
  // A seeded stream of every journalable op, carrying non-default
  // credentials, modes, open flags, owners, times, second paths and
  // values, runs on a journaling 4-thread server that is crashed and
  // recovered at seeded points. Each recovered volume must equal a fresh
  // store that applied the original requests of the committed records, in
  // log order at their execution times: the journal's compact records
  // must carry every field execution reads.
  const MetaOp Kinds[] = {MetaOp::Mkdir,   MetaOp::Rmdir,   MetaOp::Unlink,
                          MetaOp::Remove,  MetaOp::Rename,  MetaOp::Link,
                          MetaOp::Symlink, MetaOp::Chmod,   MetaOp::Chown,
                          MetaOp::Utimes,  MetaOp::Setxattr, MetaOp::Open};
  const Cred Users[] = {{0, 0}, {1000, 1000}, {1234, 77}};
  std::set<MetaOp> Replayed; // kinds a committed record applied
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    Scheduler S;
    ServerConfig Cfg;
    Cfg.CpuThreads = 4; // stable writes finish out of append order
    FileServer Server(S, Cfg);
    Server.addVolume("v");
    Server.enableJournal();
    // The original request of every record, by seq - 1, and its time.
    std::vector<std::pair<MetaRequest, SimTime>> Logged;
    Server.watchMutations([&](const std::string &, const MetaRequest &Req) {
      if (MetadataJournal::isJournalable(Req))
        Logged.push_back({Req, S.now()});
    });
    auto Pick = [&R](std::initializer_list<const char *> Names) {
      return std::string(Names.begin()[R.below(Names.size())]);
    };
    auto AnyPath = [&]() {
      return R.below(3) ? Pick({"/a", "/b", "/a/c"}) + "/" +
                              Pick({"f", "g", "h"})
                        : Pick({"/a", "/b", "/a/c"});
    };
    uint64_t Crashes = 0;
    auto CheckRecovery = [&]() {
      Server.crashAndRecover("v");
      ++Crashes;
      MetadataJournal &J = *Server.journal();
      ASSERT_EQ(J.size(), Logged.size());
      LocalFileSystem Ref(Cfg.VolumeDefaults);
      for (uint64_t Seq = 1; Seq <= J.size(); ++Seq) {
        if (!J.isCommitted(Seq))
          continue;
        const auto &[Req, At] = Logged[Seq - 1];
        OpCost Cost;
        MetaReply Reply = FileServer::execute(Ref, Req, At, Cost);
        if (Req.Op == MetaOp::Open && Reply.ok()) {
          OpCtx Ctx;
          Ctx.Creds = Req.Creds;
          Ctx.Now = At;
          ASSERT_EQ(FsError::Ok, Ref.close(Ctx, Reply.Fh));
        }
        if (Reply.ok())
          Replayed.insert(Req.Op);
      }
      LocalFileSystem &Vol = *Server.volume("v");
      EXPECT_EQ(treeImage(Ref), treeImage(Vol));
      EXPECT_TRUE(Vol.fsck().clean());
    };
    for (int Burst = 0; Burst < 60; ++Burst) {
      for (uint64_t K = 1 + R.below(6); K != 0; --K) {
        MetaRequest Req;
        Req.Op = Kinds[R.below(std::size(Kinds))];
        Req.Creds = Users[R.below(3)];
        Req.Path = AnyPath();
        Req.Mode = R.below(4) ? 0777 - uint32_t(R.below(64)) : 0700;
        switch (Req.Op) {
        case MetaOp::Rename:
        case MetaOp::Link:
          Req.Path2 = AnyPath();
          break;
        case MetaOp::Symlink:
          Req.Path2 = "target-" + std::to_string(R.below(1000));
          break;
        case MetaOp::Chown:
          Req.Uid = 2000 + R.below(5);
          Req.Gid = 3000 + R.below(5);
          break;
        case MetaOp::Utimes:
          Req.Atime = seconds(1.0) + R.below(1000000);
          Req.Mtime = seconds(2.0) + R.below(1000000);
          break;
        case MetaOp::Setxattr:
          Req.Path2 = Pick({"user.a", "user.b"});
          Req.Value = std::string(R.below(40), 'v') + std::to_string(Burst);
          break;
        case MetaOp::Open:
          Req.Flags = OpenWrite | OpenCreate |
                      (R.below(4) ? 0u : uint32_t(OpenExcl)) |
                      (R.below(4) ? 0u : uint32_t(OpenTrunc));
          break;
        default:
          break;
        }
        serve(Server, "v", Req);
      }
      S.runUntil(S.now() + microseconds(1 + R.below(400)));
      if (R.below(8) == 0) {
        CheckRecovery();
        if (HasFatalFailure())
          return;
      }
    }
    S.run(); // everything still in service commits
    CheckRecovery();
    EXPECT_GE(Crashes, 2u);
  }
  EXPECT_EQ(std::size(Kinds), Replayed.size());
}

TEST(Journal, RecoveredVolumeKeepsWorking) {
  Scheduler S;
  FileServer Server(S, ServerConfig());
  Server.addVolume("v");
  Server.enableJournal();
  serve(Server, "v", makeMkdir("/a"));
  S.run();
  Server.crashAndRecover("v");
  MetaReply Out;
  serve(Server, "v", makeMkdir("/a/b"), [&Out](MetaReply R) { Out = R; });
  S.run();
  EXPECT_TRUE(Out.ok());
}

TEST(Journal, CrashWithoutJournalIsRefused) {
  Scheduler S;
  FileServer Server(S, ServerConfig());
  Server.addVolume("v");
  EXPECT_EQ(~0ULL, Server.crashAndRecover("v"));
  Server.enableJournal();
  EXPECT_EQ(~0ULL, Server.crashAndRecover("missing"));
}

//===----------------------------------------------------------------------===//
// Namespace generation and scanning (§2.8.2)
//===----------------------------------------------------------------------===//

TEST(Namespace, GeneratedTreeIsConsistent) {
  LocalFileSystem Fs;
  NamespaceProfile Profile;
  Profile.NumFiles = 5000;
  NamespaceStats Stats = populateNamespace(Fs, Profile);
  EXPECT_EQ(5000u, Stats.Files);
  EXPECT_GT(Stats.Directories, 10u);
  EXPECT_EQ(5000u, Stats.Sizes.size());
  EXPECT_TRUE(Fs.fsck().clean());
}

TEST(Namespace, SizesFollowLognormalShape) {
  LocalFileSystem Fs;
  NamespaceProfile Profile;
  Profile.NumFiles = 20000;
  Profile.LogNormalMu = 9.2; // median ~10 KB
  Profile.LogNormalSigma = 2.0;
  NamespaceStats Stats = populateNamespace(Fs, Profile);
  // Median near exp(mu): roughly half the files below 10 KB.
  double Below10K = Stats.cdfByCount(10000);
  EXPECT_GT(Below10K, 0.4);
  EXPECT_LT(Below10K, 0.6);
  // Heavy tail: mean far above the median.
  EXPECT_GT(Stats.meanFileSize(), 40000.0);
  // Most bytes live in large files (Fig. 2.9's point).
  EXPECT_LT(Stats.cdfByBytes(10000), 0.2);
}

TEST(Namespace, ScanVisitsEverything) {
  LocalFileSystem Fs;
  NamespaceProfile Profile;
  Profile.NumFiles = 2000;
  NamespaceStats Stats = populateNamespace(Fs, Profile);
  ScanResult Result = scanNamespace(Fs);
  EXPECT_EQ(Stats.Files + Stats.Directories, Result.Objects);
  EXPECT_GT(Result.Cost.InodesTouched, Stats.Files);
}

TEST(Namespace, ScanCostGrowsWithFileCount) {
  auto ScanCost = [](uint64_t Files) {
    LocalFileSystem Fs;
    NamespaceProfile Profile;
    Profile.NumFiles = Files;
    populateNamespace(Fs, Profile);
    return scanNamespace(Fs).Cost.InodesTouched;
  };
  uint64_t Small = ScanCost(1000);
  uint64_t Large = ScanCost(4000);
  EXPECT_GT(Large, 3 * Small);
  EXPECT_LT(Large, 5 * Small);
}

//===----------------------------------------------------------------------===//
// Change notifications (§2.8.3)
//===----------------------------------------------------------------------===//

TEST(Notification, WatchersSeeMutationsOnly) {
  Scheduler S;
  FileServer Server(S, ServerConfig());
  Server.addVolume("v");
  std::vector<std::string> Seen;
  Server.watchMutations(
      [&Seen](const std::string &Volume, const MetaRequest &Req) {
        Seen.push_back(Volume + ":" + metaOpName(Req.Op) + ":" + Req.Path);
      });
  serve(Server, "v", makeMkdir("/d"));
  serve(Server, "v", makeStat("/d"));
  serve(Server, "v", makeMkdir("/d")); // EEXIST
  serve(Server, "v", makeUnlink("/missing")); // fails
  S.run();
  // Only the successful mutation notified; reads and failures do not.
  ASSERT_EQ(1u, Seen.size());
  EXPECT_EQ("v:mkdir:/d", Seen[0]);
}

TEST(Notification, IncrementalBackupPattern) {
  // The §2.8.3 use case: a backup agent tracking changed paths instead of
  // scanning the namespace.
  Scheduler S;
  NfsFs Fs(S);
  std::set<std::string> ChangedPaths;
  Fs.server().watchMutations(
      [&ChangedPaths](const std::string &, const MetaRequest &Req) {
        ChangedPaths.insert(Req.Path);
      });
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  auto Sync = [&S](ClientFs &Client, MetaRequest Req) {
    Client.submit(std::move(Req), [](MetaReply) {});
    S.runUntil(S.now() + seconds(1.0));
  };
  Sync(*C, makeMkdir("/data"));
  MetaReply O;
  C->submit(makeOpen("/data/f", OpenWrite | OpenCreate),
            [&O](MetaReply R) { O = R; });
  S.runUntil(S.now() + seconds(1.0));
  Sync(*C, makeClose(O.Fh));
  EXPECT_TRUE(ChangedPaths.count("/data"));
  EXPECT_TRUE(ChangedPaths.count("/data/f"));
}

} // namespace
