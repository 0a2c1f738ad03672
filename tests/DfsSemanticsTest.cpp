//===- tests/DfsSemanticsTest.cpp - Cross-model semantics sweep -----------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameterized battery running the same POSIX-semantics checks against
/// every *distributed* file system model (thesis \S 2.6: comparing systems
/// requires knowing what each guarantees). Every model must expose name
/// uniqueness, correct error codes, cross-node visibility of committed
/// mutations, and directory listing semantics.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <gtest/gtest.h>

using namespace dmb;

namespace {

enum class FsKind { Nfs, Lustre, LustreWriteback, Cxfs, Afs, Gx };

const char *fsKindName(FsKind K) {
  switch (K) {
  case FsKind::Nfs:
    return "nfs";
  case FsKind::Lustre:
    return "lustre";
  case FsKind::LustreWriteback:
    return "lustre_writeback";
  case FsKind::Cxfs:
    return "cxfs";
  case FsKind::Afs:
    return "afs";
  case FsKind::Gx:
    return "gx";
  }
  return "?";
}

class DfsSemanticsTest : public ::testing::TestWithParam<FsKind> {
protected:
  void SetUp() override {
    switch (GetParam()) {
    case FsKind::Nfs:
      Fs = std::make_unique<NfsFs>(S);
      break;
    case FsKind::Lustre:
      Fs = std::make_unique<LustreFs>(S);
      break;
    case FsKind::LustreWriteback: {
      LustreOptions Opts;
      Opts.WritebackMetadata = true;
      Fs = std::make_unique<LustreFs>(S, Opts);
      break;
    }
    case FsKind::Cxfs:
      Fs = std::make_unique<CxfsFs>(S);
      break;
    case FsKind::Afs:
      Fs = std::make_unique<AfsFs>(S);
      break;
    case FsKind::Gx:
      Fs = std::make_unique<GxFs>(S);
      break;
    }
    A = Fs->makeClient(0);
    B = Fs->makeClient(1);
  }

  MetaReply run(ClientFs &C, MetaRequest Req) {
    MetaReply Out;
    bool Got = false;
    C.submit(Req, [&](MetaReply R) {
      Out = std::move(R);
      Got = true;
    });
    S.run();
    EXPECT_TRUE(Got);
    return Out;
  }

  FsError touch(ClientFs &C, const std::string &Path) {
    MetaReply R = run(C, makeOpen(Path, OpenWrite | OpenCreate));
    if (!R.ok())
      return R.Err;
    return run(C, makeClose(R.Fh)).Err;
  }

  Scheduler S;
  std::unique_ptr<DistributedFs> Fs;
  std::unique_ptr<ClientFs> A, B;
};

TEST_P(DfsSemanticsTest, CreateStatUnlinkRoundTrip) {
  ASSERT_EQ(FsError::Ok, run(*A, makeMkdir("/w")).Err);
  ASSERT_EQ(FsError::Ok, touch(*A, "/w/f"));
  MetaReply St = run(*A, makeStat("/w/f"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(FileType::Regular, St.A.Type);
  EXPECT_EQ(FsError::Ok, run(*A, makeUnlink("/w/f")).Err);
  EXPECT_EQ(FsError::NoEnt, run(*A, makeUnlink("/w/f")).Err);
  EXPECT_EQ(FsError::Ok, run(*A, makeRmdir("/w")).Err);
}

TEST_P(DfsSemanticsTest, NameUniquenessAcrossNodes) {
  ASSERT_EQ(FsError::Ok, run(*A, makeMkdir("/shared")).Err);
  // The other node cannot create the same name (\S 2.6.3).
  EXPECT_EQ(FsError::Exists, run(*B, makeMkdir("/shared")).Err);
  EXPECT_EQ(FsError::Exists,
            run(*B, makeOpen("/shared", OpenWrite | OpenCreate | OpenExcl))
                .Err);
}

TEST_P(DfsSemanticsTest, CommittedMutationsVisibleAcrossNodes) {
  ASSERT_EQ(FsError::Ok, touch(*A, "/cross"));
  MetaReply St = run(*B, makeStat("/cross"));
  ASSERT_TRUE(St.ok());
  ASSERT_EQ(FsError::Ok, run(*B, makeUnlink("/cross")).Err);
  // A's cache may serve stale attributes (close-to-open allows it), but a
  // create of the same name must observe the truth on the server.
  EXPECT_EQ(FsError::Ok, touch(*A, "/cross"));
}

TEST_P(DfsSemanticsTest, RenameIsAtomicReplace) {
  ASSERT_EQ(FsError::Ok, touch(*A, "/a"));
  ASSERT_EQ(FsError::Ok, touch(*A, "/b"));
  EXPECT_EQ(FsError::Ok, run(*A, makeRename("/a", "/b")).Err);
  EXPECT_EQ(FsError::NoEnt, run(*B, makeStat("/a")).Err);
  EXPECT_TRUE(run(*B, makeStat("/b")).ok());
}

TEST_P(DfsSemanticsTest, ReaddirListsDotEntriesAndFiles) {
  ASSERT_EQ(FsError::Ok, run(*A, makeMkdir("/ls")).Err);
  ASSERT_EQ(FsError::Ok, touch(*A, "/ls/x"));
  ASSERT_EQ(FsError::Ok, touch(*A, "/ls/y"));
  MetaReply R = run(*B, makeReaddir("/ls"));
  ASSERT_TRUE(R.ok());
  ASSERT_EQ(4u, R.Entries.size());
  EXPECT_EQ(".", R.Entries[0].Name);
  EXPECT_EQ("..", R.Entries[1].Name);
}

TEST_P(DfsSemanticsTest, ErrorCodesMatchPosix) {
  EXPECT_EQ(FsError::NoEnt, run(*A, makeStat("/missing")).Err);
  EXPECT_EQ(FsError::NoEnt, run(*A, makeMkdir("/no/parent")).Err);
  ASSERT_EQ(FsError::Ok, run(*A, makeMkdir("/d")).Err);
  ASSERT_EQ(FsError::Ok, touch(*A, "/d/f"));
  EXPECT_EQ(FsError::NotEmpty, run(*A, makeRmdir("/d")).Err);
  EXPECT_EQ(FsError::IsDir, run(*A, makeUnlink("/d")).Err);
  EXPECT_EQ(FsError::NotDir, run(*A, makeRmdir("/d/f")).Err);
}

TEST_P(DfsSemanticsTest, WriteSizeVisibleAfterCloseToOpen) {
  MetaReply O = run(*A, makeOpen("/sz", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  ASSERT_TRUE(run(*A, makeWrite(O.Fh, 12345)).ok());
  ASSERT_EQ(FsError::Ok, run(*A, makeClose(O.Fh)).Err);
  // Another node opening after the close sees the new size (\S 2.6.1,
  // close-to-open and stronger semantics all guarantee this).
  MetaReply St = run(*B, makeStat("/sz"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(12345u, St.A.Size);
}

TEST_P(DfsSemanticsTest, SymlinksResolve) {
  ASSERT_EQ(FsError::Ok, run(*A, makeMkdir("/real")).Err);
  ASSERT_EQ(FsError::Ok, touch(*A, "/real/f"));
  ASSERT_EQ(FsError::Ok, run(*A, makeSymlink("/real", "/lnk")).Err);
  EXPECT_TRUE(run(*B, makeStat("/lnk/f")).ok());
  MetaRequest Lstat;
  Lstat.Op = MetaOp::Lstat;
  Lstat.Path = "/lnk";
  EXPECT_EQ(FileType::Symlink, run(*B, Lstat).A.Type);
}

TEST_P(DfsSemanticsTest, XattrsRoundTrip) {
  ASSERT_EQ(FsError::Ok, touch(*A, "/x"));
  MetaRequest Set;
  Set.Op = MetaOp::Setxattr;
  Set.Path = "/x";
  Set.Path2 = "user.tag";
  Set.Value = "v1";
  ASSERT_EQ(FsError::Ok, run(*A, Set).Err);
  MetaRequest Get;
  Get.Op = MetaOp::Getxattr;
  Get.Path = "/x";
  Get.Path2 = "user.tag";
  MetaReply R = run(*B, Get);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ("v1", R.Text);
}

TEST_P(DfsSemanticsTest, HandlesAreIndependentPerOpen) {
  MetaReply O1 = run(*A, makeOpen("/h", OpenWrite | OpenCreate));
  ASSERT_TRUE(O1.ok());
  MetaReply O2 = run(*A, makeOpen("/h", OpenRead));
  ASSERT_TRUE(O2.ok());
  EXPECT_NE(O1.Fh, O2.Fh);
  EXPECT_EQ(FsError::Ok, run(*A, makeClose(O1.Fh)).Err);
  EXPECT_EQ(FsError::Ok, run(*A, makeClose(O2.Fh)).Err);
  EXPECT_EQ(FsError::BadFd, run(*A, makeClose(O2.Fh)).Err);
}

// A client's own successful mutation must not leave it serving the
// attributes it just changed from its cache (\S 2.6: even close-to-open
// clients see their own writes).
TEST_P(DfsSemanticsTest, OwnMutationsInvalidateCachedAttributes) {
  ASSERT_EQ(FsError::Ok, touch(*A, "/f"));
  ASSERT_TRUE(run(*A, makeStat("/f")).ok()); // warm the cache
  ASSERT_EQ(FsError::Ok, run(*A, makeUnlink("/f")).Err);
  EXPECT_EQ(FsError::NoEnt, run(*A, makeStat("/f")).Err);

  ASSERT_EQ(FsError::Ok, touch(*A, "/m"));
  ASSERT_EQ(0644u, run(*A, makeStat("/m")).A.Mode);
  MetaRequest Chmod;
  Chmod.Op = MetaOp::Chmod;
  Chmod.Path = "/m";
  Chmod.Mode = 0600;
  ASSERT_EQ(FsError::Ok, run(*A, Chmod).Err);
  EXPECT_EQ(0600u, run(*A, makeStat("/m")).A.Mode);

  ASSERT_EQ(FsError::Ok, touch(*A, "/g"));
  ASSERT_EQ(1u, run(*A, makeStat("/g")).A.Nlink);
  ASSERT_EQ(FsError::Ok, run(*A, makeLink("/g", "/h")).Err);
  EXPECT_EQ(2u, run(*A, makeStat("/g")).A.Nlink);
  EXPECT_EQ(2u, run(*A, makeStat("/h")).A.Nlink);
}

INSTANTIATE_TEST_SUITE_P(AllModels, DfsSemanticsTest,
                         ::testing::Values(FsKind::Nfs, FsKind::Lustre,
                                           FsKind::LustreWriteback,
                                           FsKind::Cxfs, FsKind::Afs,
                                           FsKind::Gx),
                         [](const auto &Info) {
                           return fsKindName(Info.param);
                         });

} // namespace
