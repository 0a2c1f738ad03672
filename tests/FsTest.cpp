//===- tests/FsTest.cpp - Unit tests for the local file system ------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises the POSIX semantics of \S 2.1-2.3 and \S 2.6 of the thesis:
/// name uniqueness, link counts, deferred unlink, atomic rename, permission
/// walks, symlink resolution, sparse files and directory index behaviour.
///
//===----------------------------------------------------------------------===//

#include "fs/CostModel.h"
#include "fs/LocalFileSystem.h"
#include "support/Random.h"
#include <gtest/gtest.h>
#include <map>

using namespace dmb;

namespace {

OpCtx userCtx(SimTime Now = 0) {
  OpCtx Ctx;
  Ctx.Creds.Uid = 1000;
  Ctx.Creds.Gid = 1000;
  Ctx.Now = Now;
  return Ctx;
}

OpCtx rootCtx(SimTime Now = 0) {
  OpCtx Ctx;
  Ctx.Creds.Uid = 0;
  Ctx.Creds.Gid = 0;
  Ctx.Now = Now;
  return Ctx;
}

/// Creates an empty file the way the MakeFiles plugin does:
/// open(O_CREAT)/close (thesis Table 3.5).
FsError touch(LocalFileSystem &Fs, OpCtx &Ctx, const std::string &Path) {
  Result<FileHandle> Fh =
      Fs.open(Ctx, Path, OpenWrite | OpenCreate, 0644);
  if (!Fh.ok())
    return Fh.error();
  return Fs.close(Ctx, *Fh);
}

class FsTest : public ::testing::Test {
protected:
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
};

//===----------------------------------------------------------------------===//
// Directories
//===----------------------------------------------------------------------===//

TEST_F(FsTest, MkdirCreatesDirectory) {
  EXPECT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  Result<Attr> A = Fs.stat(Ctx, "/a");
  ASSERT_TRUE(A.ok());
  EXPECT_EQ(FileType::Directory, A->Type);
  EXPECT_EQ(2u, A->Nlink);
  EXPECT_EQ(1000u, A->Uid);
}

TEST_F(FsTest, MkdirExistingFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/a", 0755));
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/", 0755));
}

TEST_F(FsTest, MkdirMissingParentFails) {
  EXPECT_EQ(FsError::NoEnt, Fs.mkdir(Ctx, "/a/b", 0755));
}

TEST_F(FsTest, NestedDirectoriesLinkCounts) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/c", 0755));
  // A directory's nlink is 2 plus one per subdirectory ("..").
  EXPECT_EQ(4u, Fs.stat(Ctx, "/a")->Nlink);
  ASSERT_EQ(FsError::Ok, Fs.rmdir(Ctx, "/a/c"));
  EXPECT_EQ(3u, Fs.stat(Ctx, "/a")->Nlink);
}

TEST_F(FsTest, RmdirNonEmptyFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/f"));
  EXPECT_EQ(FsError::NotEmpty, Fs.rmdir(Ctx, "/a"));
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/a/f"));
  EXPECT_EQ(FsError::Ok, Fs.rmdir(Ctx, "/a"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/a").error());
}

TEST_F(FsTest, RmdirOnFileFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::NotDir, Fs.rmdir(Ctx, "/f"));
}

TEST_F(FsTest, DotAndDotDotResolve) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));
  EXPECT_EQ(Fs.stat(Ctx, "/a")->Ino, Fs.stat(Ctx, "/a/b/..")->Ino);
  EXPECT_EQ(Fs.stat(Ctx, "/a")->Ino, Fs.stat(Ctx, "/a/.")->Ino);
  // Root's dot-dot points to root itself.
  EXPECT_EQ(Fs.stat(Ctx, "/")->Ino, Fs.stat(Ctx, "/..")->Ino);
}

TEST_F(FsTest, ReaddirContainsDotEntries) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/x"));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/y"));
  Result<std::vector<DirEntry>> Entries = Fs.readdir(Ctx, "/a");
  ASSERT_TRUE(Entries.ok());
  ASSERT_EQ(4u, Entries->size());
  EXPECT_EQ(".", (*Entries)[0].Name);
  EXPECT_EQ("..", (*Entries)[1].Name);
}

TEST_F(FsTest, TrailingAndRepeatedSlashesTolerated) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  EXPECT_TRUE(Fs.stat(Ctx, "/a/").ok());
  EXPECT_TRUE(Fs.stat(Ctx, "//a").ok());
}

TEST_F(FsTest, RelativePathRejected) {
  EXPECT_EQ(FsError::Invalid, Fs.mkdir(Ctx, "a", 0755));
  EXPECT_EQ(FsError::Invalid, Fs.stat(Ctx, "").error());
}

TEST_F(FsTest, NameTooLongRejected) {
  std::string Long(300, 'x');
  EXPECT_EQ(FsError::NameTooLong, Fs.mkdir(Ctx, "/" + Long, 0755));
}

//===----------------------------------------------------------------------===//
// Files, open/close, deferred unlink
//===----------------------------------------------------------------------===//

TEST_F(FsTest, CreateAndStatFile) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  Result<Attr> A = Fs.stat(Ctx, "/f");
  ASSERT_TRUE(A.ok());
  EXPECT_EQ(FileType::Regular, A->Type);
  EXPECT_EQ(1u, A->Nlink);
  EXPECT_EQ(0u, A->Size);
}

TEST_F(FsTest, OpenExclFailsOnExisting) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  Result<FileHandle> Fh =
      Fs.open(Ctx, "/f", OpenWrite | OpenCreate | OpenExcl);
  EXPECT_EQ(FsError::Exists, Fh.error());
}

TEST_F(FsTest, OpenMissingWithoutCreateFails) {
  EXPECT_EQ(FsError::NoEnt, Fs.open(Ctx, "/nope", OpenRead).error());
}

TEST_F(FsTest, UnlinkedOpenFileLingersUntilClose) {
  Result<FileHandle> Fh = Fs.open(Ctx, "/tmpfile", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/tmpfile"));
  // The directory entry is gone, but the inode lives (UNIX temp file
  // idiom, \S 2.3.1): writes still succeed.
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/tmpfile").error());
  EXPECT_TRUE(Fs.write(Ctx, *Fh, 100).ok());
  uint64_t InodesBefore = Fs.numInodes();
  ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
  EXPECT_EQ(InodesBefore - 1, Fs.numInodes());
}

TEST_F(FsTest, UnlinkOnDirectoryFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(FsError::IsDir, Fs.unlink(Ctx, "/d"));
}

TEST_F(FsTest, RemoveDispatchesByType) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::Ok, Fs.remove(Ctx, "/d"));
  EXPECT_EQ(FsError::Ok, Fs.remove(Ctx, "/f"));
  EXPECT_EQ(FsError::NoEnt, Fs.remove(Ctx, "/gone"));
}

TEST_F(FsTest, WriteExtendsAndAllocatesBlocks) {
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 10000).ok());
  Result<Attr> A = Fs.fstat(Ctx, *Fh);
  EXPECT_EQ(10000u, A->Size);
  EXPECT_EQ(3u, A->Blocks); // ceil(10000/4096)
  EXPECT_EQ(3u, Fs.allocatedBlocks());
  ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/f"));
  EXPECT_EQ(0u, Fs.allocatedBlocks());
}

TEST_F(FsTest, SparseFileViaSeek) {
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.seek(Ctx, *Fh, 1000000).ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 1).ok());
  EXPECT_EQ(1000001u, Fs.fstat(Ctx, *Fh)->Size);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

TEST_F(FsTest, AppendRepositionsBeforeWrite) {
  Result<FileHandle> A = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(Fs.write(Ctx, *A, 100).ok());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *A));
  Result<FileHandle> B = Fs.open(Ctx, "/f", OpenWrite | OpenAppend);
  ASSERT_TRUE(B.ok());
  ASSERT_TRUE(Fs.write(Ctx, *B, 50).ok());
  EXPECT_EQ(150u, Fs.fstat(Ctx, *B)->Size);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *B));
}

TEST_F(FsTest, ReadStopsAtEof) {
  Result<FileHandle> Fh =
      Fs.open(Ctx, "/f", OpenRead | OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 100).ok());
  ASSERT_TRUE(Fs.seek(Ctx, *Fh, 0).ok());
  EXPECT_EQ(100u, *Fs.read(Ctx, *Fh, 1000));
  EXPECT_EQ(0u, *Fs.read(Ctx, *Fh, 1000));
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

TEST_F(FsTest, TruncateFreesBlocks) {
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 100000).ok());
  uint64_t Before = Fs.allocatedBlocks();
  ASSERT_EQ(FsError::Ok, Fs.ftruncate(Ctx, *Fh, 0));
  EXPECT_LT(Fs.allocatedBlocks(), Before);
  EXPECT_EQ(0u, Fs.fstat(Ctx, *Fh)->Size);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

TEST_F(FsTest, OpenTruncClearsFile) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  Result<FileHandle> A = Fs.open(Ctx, "/f", OpenWrite);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(Fs.write(Ctx, *A, 5000).ok());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *A));
  Result<FileHandle> B = Fs.open(Ctx, "/f", OpenWrite | OpenTrunc);
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(0u, Fs.fstat(Ctx, *B)->Size);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *B));
}

TEST_F(FsTest, WriteOnReadOnlyHandleFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenRead);
  ASSERT_TRUE(Fh.ok());
  EXPECT_EQ(FsError::BadFd, Fs.write(Ctx, *Fh, 10).error());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

TEST_F(FsTest, BadHandleRejected) {
  EXPECT_EQ(FsError::BadFd, Fs.close(Ctx, 999999));
  EXPECT_EQ(FsError::BadFd, Fs.write(Ctx, 999999, 1).error());
  EXPECT_EQ(FsError::BadFd, Fs.fstat(Ctx, 999999).error());
}

//===----------------------------------------------------------------------===//
// Links
//===----------------------------------------------------------------------===//

TEST_F(FsTest, HardlinkSharesInode) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, Fs.link(Ctx, "/f", "/g"));
  EXPECT_EQ(Fs.stat(Ctx, "/f")->Ino, Fs.stat(Ctx, "/g")->Ino);
  EXPECT_EQ(2u, Fs.stat(Ctx, "/f")->Nlink);
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/f"));
  // The file remains reachable through the second link.
  EXPECT_EQ(1u, Fs.stat(Ctx, "/g")->Nlink);
  ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/g"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/g").error());
}

TEST_F(FsTest, HardlinkToDirectoryForbidden) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(FsError::Perm, Fs.link(Ctx, "/d", "/d2"));
}

TEST_F(FsTest, HardlinkToExistingNameFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/g"));
  EXPECT_EQ(FsError::Exists, Fs.link(Ctx, "/f", "/g"));
}

TEST_F(FsTest, SymlinkResolvesToTarget) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/real", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/real/f"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/real", "/lnk"));
  EXPECT_EQ(Fs.stat(Ctx, "/real/f")->Ino, Fs.stat(Ctx, "/lnk/f")->Ino);
  // stat follows; lstat does not.
  EXPECT_EQ(FileType::Directory, Fs.stat(Ctx, "/lnk")->Type);
  EXPECT_EQ(FileType::Symlink, Fs.lstat(Ctx, "/lnk")->Type);
  EXPECT_EQ("/real", *Fs.readlink(Ctx, "/lnk"));
}

TEST_F(FsTest, RelativeSymlink) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/target"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "target", "/a/lnk"));
  EXPECT_EQ(Fs.stat(Ctx, "/a/target")->Ino, Fs.stat(Ctx, "/a/lnk")->Ino);
}

TEST_F(FsTest, DanglingSymlinkStatFails) {
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/nowhere", "/lnk"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/lnk").error());
  EXPECT_TRUE(Fs.lstat(Ctx, "/lnk").ok());
}

TEST_F(FsTest, SymlinkLoopDetected) {
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/b", "/a"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a", "/b"));
  EXPECT_EQ(FsError::Loop, Fs.stat(Ctx, "/a").error());
}

TEST_F(FsTest, SymlinkRejectsEmptyTarget) {
  // Linux symlink(2): an empty target is ENOENT. Accepted, it would make
  // the link resolve to its own directory.
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(FsError::NoEnt, Fs.symlink(Ctx, "", "/d/empty"));
  EXPECT_EQ(FsError::NoEnt, Fs.lstat(Ctx, "/d/empty").error());
  EXPECT_TRUE(Fs.fsck().clean());
}

TEST_F(FsTest, ReadlinkOnNonSymlinkFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::Invalid, Fs.readlink(Ctx, "/f").error());
}

//===----------------------------------------------------------------------===//
// Rename
//===----------------------------------------------------------------------===//

TEST_F(FsTest, RenameMovesFile) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  InodeNum Ino = Fs.stat(Ctx, "/f")->Ino;
  ASSERT_EQ(FsError::Ok, Fs.rename(Ctx, "/f", "/d/g"));
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/f").error());
  EXPECT_EQ(Ino, Fs.stat(Ctx, "/d/g")->Ino);
}

TEST_F(FsTest, RenameReplacesExistingFileAtomically) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a"));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/b"));
  InodeNum AIno = Fs.stat(Ctx, "/a")->Ino;
  uint64_t Before = Fs.numInodes();
  ASSERT_EQ(FsError::Ok, Fs.rename(Ctx, "/a", "/b"));
  EXPECT_EQ(AIno, Fs.stat(Ctx, "/b")->Ino);
  EXPECT_EQ(Before - 1, Fs.numInodes()); // The victim inode was reaped.
}

TEST_F(FsTest, RenameDirIntoOwnSubtreeFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));
  EXPECT_EQ(FsError::Invalid, Fs.rename(Ctx, "/a", "/a/b/c"));
}

TEST_F(FsTest, RenameDirOntoNonEmptyDirFails) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/b", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/b/f"));
  EXPECT_EQ(FsError::NotEmpty, Fs.rename(Ctx, "/a", "/b"));
}

TEST_F(FsTest, RenameDirOntoEmptyDirSucceeds) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/f"));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/b", 0755));
  ASSERT_EQ(FsError::Ok, Fs.rename(Ctx, "/a", "/b"));
  EXPECT_TRUE(Fs.stat(Ctx, "/b/f").ok());
  EXPECT_EQ(FsError::NoEnt, Fs.stat(Ctx, "/a").error());
}

TEST_F(FsTest, RenameFileOntoDirFails) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(FsError::IsDir, Fs.rename(Ctx, "/f", "/d"));
  EXPECT_EQ(FsError::NotDir, Fs.rename(Ctx, "/d", "/f"));
}

TEST_F(FsTest, RenameOntoSelfIsNoOp) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::Ok, Fs.rename(Ctx, "/f", "/f"));
  EXPECT_TRUE(Fs.stat(Ctx, "/f").ok());
}

TEST_F(FsTest, RenameDirAcrossParentsFixesDotDotAndNlink) {
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/b", 0755));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/sub", 0755));
  ASSERT_EQ(FsError::Ok, Fs.rename(Ctx, "/a/sub", "/b/sub"));
  EXPECT_EQ(2u, Fs.stat(Ctx, "/a")->Nlink);
  EXPECT_EQ(3u, Fs.stat(Ctx, "/b")->Nlink);
  EXPECT_EQ(Fs.stat(Ctx, "/b")->Ino, Fs.stat(Ctx, "/b/sub/..")->Ino);
}

//===----------------------------------------------------------------------===//
// Permissions
//===----------------------------------------------------------------------===//

TEST_F(FsTest, PathWalkRequiresExecuteOnEveryDirectory) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/locked", 0700));
  ASSERT_EQ(FsError::Ok, touch(Fs, Root, "/locked/f"));
  // A non-root user cannot pass through a 0700 directory owned by root
  // (\S 2.3.1: x-permission needed on the whole path).
  EXPECT_EQ(FsError::Access, Fs.stat(Ctx, "/locked/f").error());
  EXPECT_TRUE(Fs.stat(Root, "/locked/f").ok());
}

TEST_F(FsTest, CreateRequiresWriteOnParent) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/ro", 0755));
  EXPECT_EQ(FsError::Access, touch(Fs, Ctx, "/ro/f"));
  EXPECT_EQ(FsError::Access, Fs.mkdir(Ctx, "/ro/d", 0755));
  EXPECT_EQ(FsError::Access, Fs.symlink(Ctx, "/x", "/ro/l"));
}

TEST_F(FsTest, UnlinkRequiresWriteOnParent) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/ro", 0755));
  ASSERT_EQ(FsError::Ok, touch(Fs, Root, "/ro/f"));
  EXPECT_EQ(FsError::Access, Fs.unlink(Ctx, "/ro/f"));
}

TEST_F(FsTest, OpenChecksModeBits) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/pub", 0777));
  Result<FileHandle> Fh =
      Fs.open(Root, "/pub/secret", OpenWrite | OpenCreate, 0600);
  ASSERT_TRUE(Fh.ok());
  EXPECT_EQ(FsError::Ok, Fs.close(Root, *Fh));
  EXPECT_EQ(FsError::Access, Fs.open(Ctx, "/pub/secret", OpenRead).error());
}

TEST_F(FsTest, ChmodOnlyByOwnerOrRoot) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, touch(Fs, Root, "/f"));
  EXPECT_EQ(FsError::Perm, Fs.chmod(Ctx, "/f", 0777));
  EXPECT_EQ(FsError::Ok, Fs.chmod(Root, "/f", 0777));
  EXPECT_EQ(0777u, Fs.stat(Ctx, "/f")->Mode);
}

TEST_F(FsTest, ChownOnlyByRoot) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  EXPECT_EQ(FsError::Perm, Fs.chown(Ctx, "/f", 42, 42));
  OpCtx Root = rootCtx();
  EXPECT_EQ(FsError::Ok, Fs.chown(Root, "/f", 42, 42));
  EXPECT_EQ(42u, Fs.stat(Ctx, "/f")->Uid);
}

TEST_F(FsTest, GroupPermissionsApply) {
  OpCtx Root = rootCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Root, "/g", 0770));
  ASSERT_EQ(FsError::Ok, Fs.chown(Root, "/g", 0, 1000));
  // Ctx has gid 1000 => group class grants rwx.
  EXPECT_EQ(FsError::Ok, touch(Fs, Ctx, "/g/f"));
  OpCtx Other = userCtx();
  Other.Creds.Uid = 2000;
  Other.Creds.Gid = 2000;
  EXPECT_EQ(FsError::Access, Fs.stat(Other, "/g/f").error());
}

//===----------------------------------------------------------------------===//
// Timestamps
//===----------------------------------------------------------------------===//

TEST_F(FsTest, TimestampsMaintained) {
  OpCtx T1 = userCtx(seconds(1.0));
  ASSERT_EQ(FsError::Ok, touch(Fs, T1, "/f"));
  Result<Attr> A = Fs.stat(T1, "/f");
  EXPECT_EQ(seconds(1.0), A->Mtime);
  EXPECT_EQ(seconds(1.0), A->Ctime);

  OpCtx T2 = userCtx(seconds(5.0));
  Result<FileHandle> Fh = Fs.open(T2, "/f", OpenWrite);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(T2, *Fh, 10).ok());
  EXPECT_EQ(FsError::Ok, Fs.close(T2, *Fh));
  EXPECT_EQ(seconds(5.0), Fs.stat(T2, "/f")->Mtime);

  OpCtx T3 = userCtx(seconds(9.0));
  EXPECT_EQ(FsError::Ok, Fs.utimes(T3, "/f", seconds(2.0), seconds(3.0)));
  Result<Attr> B = Fs.stat(T3, "/f");
  EXPECT_EQ(seconds(2.0), B->Atime);
  EXPECT_EQ(seconds(3.0), B->Mtime);
  EXPECT_EQ(seconds(9.0), B->Ctime);
}

TEST_F(FsTest, MkdirUpdatesParentMtime) {
  OpCtx T1 = userCtx(seconds(1.0));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(T1, "/d", 0755));
  OpCtx T2 = userCtx(seconds(7.0));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(T2, "/d/sub", 0755));
  EXPECT_EQ(seconds(7.0), Fs.stat(T2, "/d")->Mtime);
}

//===----------------------------------------------------------------------===//
// Extended attributes
//===----------------------------------------------------------------------===//

TEST_F(FsTest, XattrRoundTrip) {
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f"));
  ASSERT_EQ(FsError::Ok, Fs.setxattr(Ctx, "/f", "user.color", "blue"));
  ASSERT_EQ(FsError::Ok, Fs.setxattr(Ctx, "/f", "user.size", "XL"));
  EXPECT_EQ("blue", *Fs.getxattr(Ctx, "/f", "user.color"));
  Result<std::vector<std::string>> Keys = Fs.listxattr(Ctx, "/f");
  ASSERT_TRUE(Keys.ok());
  EXPECT_EQ(2u, Keys->size());
  ASSERT_EQ(FsError::Ok, Fs.removexattr(Ctx, "/f", "user.color"));
  EXPECT_EQ(FsError::NoAttr, Fs.getxattr(Ctx, "/f", "user.color").error());
  EXPECT_EQ(FsError::NoAttr, Fs.removexattr(Ctx, "/f", "user.color"));
}

//===----------------------------------------------------------------------===//
// Capacity limits
//===----------------------------------------------------------------------===//

TEST(FsLimits, InodeLimitYieldsNoSpace) {
  FsConfig C;
  C.MaxInodes = 3; // root + 2 more
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  EXPECT_EQ(FsError::Ok, touch(Fs, Ctx, "/a"));
  EXPECT_EQ(FsError::Ok, touch(Fs, Ctx, "/b"));
  EXPECT_EQ(FsError::NoSpace, touch(Fs, Ctx, "/c"));
  // Deleting frees the inode for reuse (\S 2.4.2 flexible inode counts).
  EXPECT_EQ(FsError::Ok, Fs.unlink(Ctx, "/a"));
  EXPECT_EQ(FsError::Ok, touch(Fs, Ctx, "/c"));
}

TEST(FsLimits, BlockLimitYieldsNoSpace) {
  FsConfig C;
  C.MaxBlocks = 2;
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  EXPECT_TRUE(Fs.write(Ctx, *Fh, 8192).ok());
  EXPECT_EQ(FsError::NoSpace, Fs.write(Ctx, *Fh, 8192).error());
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

//===----------------------------------------------------------------------===//
// Inline data (WAFL 64-byte files, \S 4.3.4)
//===----------------------------------------------------------------------===//

TEST(FsInline, SmallFilesAllocateNoBlocks) {
  FsConfig C;
  C.InlineDataMax = 64;
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  Result<FileHandle> Fh = Fs.open(Ctx, "/f", OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 64).ok());
  EXPECT_EQ(0u, Fs.fstat(Ctx, *Fh)->Blocks);
  // The 65th byte spills out of the inode into a real block.
  ASSERT_TRUE(Fs.write(Ctx, *Fh, 1).ok());
  EXPECT_EQ(1u, Fs.fstat(Ctx, *Fh)->Blocks);
  EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
}

//===----------------------------------------------------------------------===//
// Cost accounting and directory indexes
//===----------------------------------------------------------------------===//

TEST(FsCost, LinearDirectoryScansGrowWithSize) {
  FsConfig C;
  C.DirIndex = DirIndexKind::Linear;
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f" + std::to_string(I)));

  OpCtx Early = userCtx();
  ASSERT_TRUE(Fs.stat(Early, "/f0").ok());
  OpCtx Late = userCtx();
  ASSERT_TRUE(Fs.stat(Late, "/f99").ok());
  EXPECT_GT(Late.Cost.DirEntriesScanned, Early.Cost.DirEntriesScanned);
}

TEST(FsCost, HashedDirectoryScansStayFlat) {
  FsConfig C;
  C.DirIndex = DirIndexKind::Hashed;
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/f" + std::to_string(I)));
  OpCtx Probe = userCtx();
  ASSERT_TRUE(Fs.stat(Probe, "/f99").ok());
  EXPECT_LE(Probe.Cost.DirEntriesScanned, 2u);
}

TEST(FsCost, CostModelMonotoneInWork) {
  CostModel M;
  OpCost Small, Large;
  Small.DirEntriesScanned = 1;
  Large.DirEntriesScanned = 100000;
  EXPECT_GT(M.serviceTime(Large), M.serviceTime(Small));
  OpCost Payload;
  Payload.BytesWritten = 100000000;
  EXPECT_GT(M.serviceTime(Payload), M.serviceTime(Small));
}

TEST(FsCost, DirectorySizeIntrospection) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  for (int I = 0; I < 10; ++I)
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/f" + std::to_string(I)));
  EXPECT_EQ(10u, Fs.directorySize("/d"));
  EXPECT_EQ(0u, Fs.directorySize("/missing"));
}

/// Builds the tree every pinned path-walk case runs against. Creation order
/// is fixed, so inode numbers are too.
void buildWalkTree(LocalFileSystem &Fs) {
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a", 0755));              // ino 2
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/a/b", 0755));            // ino 3
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/a/b/f"));               // ino 4
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "b", "/a/rel"));         // ino 5
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a/b", "/abs"));        // ino 6
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "f", "/a/b/lf"));        // ino 7
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a/b/f", "/a/b/absf")); // ino 8
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "../rel/f", "/a/b/up"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/", "/toroot"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "b/new", "/a/dang"));
  ASSERT_EQ(FsError::Ok, Fs.symlink(Ctx, "/a/b/anew", "/adang"));
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/nox", 0755));            // ino 13
  ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/nox/f"));
  ASSERT_EQ(FsError::Ok, Fs.chmod(Ctx, "/nox", 0600)); // no search bit
  // A chain /s/l0 -> /s/l1 -> ... -> /s/l40 -> /a/b/f: resolving /s/lK
  // follows 41 - K links, and MaxSymlinkDepth is 40.
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/s", 0755));
  int Depth = FsConfig().MaxSymlinkDepth;
  for (int I = Depth; I >= 0; --I) {
    std::string Target =
        I == Depth ? std::string("/a/b/f") : "/s/l" + std::to_string(I + 1);
    ASSERT_EQ(FsError::Ok,
              Fs.symlink(Ctx, Target, "/s/l" + std::to_string(I)));
  }
}

enum class WalkOp { Stat, Lstat, Create };

/// One pinned walk: the request, and what it must return and cost. Only
/// DirEntriesScanned depends on the directory index kind.
struct WalkCase {
  const char *Name;
  WalkOp Op;
  std::string Path;
  FsError Err;
  InodeNum Ino;                ///< resulting inode, 0 on error
  uint64_t Scanned[3];         ///< linear, hashed, btree
  uint64_t Written;            ///< DirEntriesWritten
  uint64_t Inodes;             ///< InodesTouched
  uint64_t Symlinks;           ///< SymlinksFollowed
  const char *Creates = nullptr; ///< where a create must land
};

// The walk's results and every OpCost counter are the simulated cost of a
// request, so they are pinned case by case: a rewrite of resolve() must
// reproduce them exactly on every directory index kind.
TEST(FsCost, PathWalkResultsAndCostsArePinned) {
  using enum WalkOp;
  const std::string Long(FsConfig().NameMax + 1, 'x');
  const WalkCase Cases[] = {
      {"root", Stat, "/", FsError::Ok, 1, {0, 0, 0}, 0, 1, 0},
      {"file", Stat, "/a/b/f", FsError::Ok, 4, {3, 3, 10}, 0, 4, 0},
      {"dot middle", Stat, "/a/./b/f", FsError::Ok, 4, {3, 3, 10}, 0, 5, 0},
      {"dot last", Stat, "/a/b/.", FsError::Ok, 3, {2, 2, 7}, 0, 4, 0},
      {"dotdot middle", Stat, "/a/b/../b/f", FsError::Ok, 4, {4, 4, 13}, 0,
       6, 0},
      {"dotdot last", Stat, "/a/b/..", FsError::Ok, 2, {2, 2, 7}, 0, 4, 0},
      {"dotdot at root", Stat, "/../a", FsError::Ok, 2, {1, 1, 4}, 0, 3, 0},
      {"dot at root", Lstat, "/.", FsError::Ok, 1, {0, 0, 0}, 0, 2, 0},
      {"repeated slashes", Stat, "//a///b//f", FsError::Ok, 4, {3, 3, 10}, 0,
       4, 0},
      {"trailing slash dir", Stat, "/a/b/", FsError::Ok, 3, {2, 2, 7}, 0, 3,
       0},
      {"trailing slashes file", Stat, "/a/b/f//", FsError::Ok, 4, {3, 3, 10},
       0, 4, 0},
      {"missing last", Stat, "/a/b/missing", FsError::NoEnt, 0, {6, 3, 10}, 0,
       3, 0},
      {"missing middle", Stat, "/a/zz/f", FsError::NoEnt, 0, {4, 2, 7}, 0, 2,
       0},
      {"file as middle", Stat, "/a/b/f/g", FsError::NotDir, 0, {3, 3, 10}, 0,
       3, 0},
      {"relative link middle, stat", Stat, "/a/rel/f", FsError::Ok, 4,
       {5, 4, 13}, 0, 5, 1},
      {"relative link middle, lstat", Lstat, "/a/rel/f", FsError::Ok, 4,
       {5, 4, 13}, 0, 5, 1},
      {"absolute link middle, stat", Stat, "/abs/f", FsError::Ok, 4,
       {5, 4, 14}, 0, 5, 1},
      {"absolute link middle, lstat", Lstat, "/abs/f", FsError::Ok, 4,
       {5, 4, 14}, 0, 5, 1},
      {"relative link last, stat", Stat, "/a/b/lf", FsError::Ok, 4,
       {5, 4, 13}, 0, 5, 1},
      {"relative link last, lstat", Lstat, "/a/b/lf", FsError::Ok, 7,
       {4, 3, 10}, 0, 4, 0},
      {"absolute link last, stat", Stat, "/a/b/absf", FsError::Ok, 4,
       {8, 6, 20}, 0, 7, 1},
      {"absolute link last, lstat", Lstat, "/a/b/absf", FsError::Ok, 8,
       {5, 3, 10}, 0, 4, 0},
      {"dotdot inside a target", Stat, "/a/b/up", FsError::Ok, 4,
       {10, 6, 19}, 0, 8, 2},
      {"link to root, last", Stat, "/toroot", FsError::Ok, 1, {3, 1, 4}, 0, 2,
       1},
      {"link to root, middle", Stat, "/toroot/a/b", FsError::Ok, 3,
       {5, 3, 11}, 0, 4, 1},
      {"dangling link", Stat, "/a/dang", FsError::NoEnt, 0, {9, 4, 13}, 0, 4,
       1},
      {"chain one short of the limit", Stat, "/s/l2", FsError::Ok, 4,
       {1017, 81, 439}, 0, 82, 39},
      {"chain at the limit", Stat, "/s/l1", FsError::Ok, 4, {1063, 83, 450},
       0, 84, 40},
      {"chain past the limit", Stat, "/s/l0", FsError::Loop, 0,
       {1107, 82, 451}, 0, 82, 40},
      {"chain past the limit, lstat", Lstat, "/s/l0", FsError::Ok, 56,
       {47, 2, 11}, 0, 3, 0},
      {"name too long in the middle", Stat, "/a/" + Long + "/f",
       FsError::NameTooLong, 0, {1, 1, 4}, 0, 2, 0},
      {"no search permission", Stat, "/nox/f", FsError::Access, 0, {5, 1, 4},
       0, 1, 0},
      {"no search permission, dir itself", Stat, "/nox", FsError::Ok, 13,
       {5, 1, 4}, 0, 2, 0},
      {"create", Create, "/a/b/plain", FsError::Ok, 57, {10, 4, 13}, 1, 5, 0,
       "/a/b/plain"},
      {"create through dangling relative link", Create, "/a/dang",
       FsError::Ok, 57, {13, 5, 16}, 1, 6, 1, "/a/b/new"},
      {"create through dangling absolute link", Create, "/adang", FsError::Ok,
       57, {14, 5, 17}, 1, 6, 1, "/a/b/anew"},
      {"create existing", Create, "/a/b/f", FsError::Ok, 4, {3, 3, 10}, 0, 4,
       0},
      {"create in missing dir", Create, "/a/zz/new", FsError::NoEnt, 0,
       {4, 2, 7}, 0, 2, 0},
      {"create at root", Create, "/", FsError::IsDir, 0, {0, 0, 0}, 0, 0, 0},
  };
  const DirIndexKind Kinds[] = {DirIndexKind::Linear, DirIndexKind::Hashed,
                                DirIndexKind::BTree};
  for (size_t K = 0; K < std::size(Kinds); ++K) {
    for (const WalkCase &C : Cases) {
      SCOPED_TRACE(std::string(dirIndexKindName(Kinds[K])) + ": " + C.Name);
      FsConfig Config;
      Config.DirIndex = Kinds[K];
      LocalFileSystem Fs(Config); // fresh: creates change the tree
      ASSERT_NO_FATAL_FAILURE(buildWalkTree(Fs));
      OpCtx Ctx = userCtx();
      OpCtx Aside = userCtx(); // probes whose cost is not the walk's
      FsError Err = FsError::Ok;
      InodeNum Ino = 0;
      if (C.Op == Create) {
        Result<FileHandle> Fh = Fs.open(Ctx, C.Path, OpenWrite | OpenCreate);
        Err = Fh.error();
        if (Fh.ok()) {
          Ino = Fs.fstat(Aside, *Fh)->Ino;
          EXPECT_EQ(FsError::Ok, Fs.close(Aside, *Fh));
        }
      } else {
        Result<Attr> A = C.Op == Stat ? Fs.stat(Ctx, C.Path)
                                      : Fs.lstat(Ctx, C.Path);
        Err = A.error();
        Ino = A.ok() ? A->Ino : 0;
      }
      EXPECT_EQ(C.Err, Err);
      EXPECT_EQ(C.Ino, Ino);
      const OpCost &Cost = Ctx.Cost;
      EXPECT_EQ(C.Scanned[K], Cost.DirEntriesScanned);
      EXPECT_EQ(C.Written, Cost.DirEntriesWritten);
      EXPECT_EQ(C.Inodes, Cost.InodesTouched);
      EXPECT_EQ(0u, Cost.BlocksAllocated);
      EXPECT_EQ(0u, Cost.BlocksFreed);
      EXPECT_EQ(0u, Cost.BytesWritten);
      EXPECT_EQ(0u, Cost.BytesRead);
      EXPECT_EQ(C.Symlinks, Cost.SymlinksFollowed);
      if (C.Creates) {
        Result<Attr> Made = Fs.lstat(Aside, C.Creates);
        ASSERT_TRUE(Made.ok());
        EXPECT_EQ(Ino, Made->Ino);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Directory index property sweep (all kinds behave identically modulo cost)
//===----------------------------------------------------------------------===//

class DirIndexParamTest : public ::testing::TestWithParam<DirIndexKind> {};

TEST_P(DirIndexParamTest, InsertLookupEraseList) {
  auto Index = makeDirectoryIndex(GetParam());
  OpCost Cost;
  for (int I = 0; I < 500; ++I) {
    // Built with += — GCC 12's -Wrestrict misfires on the "f" +
    // to_string temporary chain once it inlines the insert.
    std::string Name = "f";
    Name += std::to_string(I);
    Index->insert(DirEntry{Name, static_cast<InodeNum>(I + 10),
                           FileType::Regular},
                  Cost);
  }
  EXPECT_EQ(500u, Index->size());
  for (int I = 0; I < 500; I += 7) {
    std::string Name = "f";
    Name += std::to_string(I);
    const DirEntry *E = Index->lookup(Name, Cost);
    ASSERT_NE(nullptr, E);
    EXPECT_EQ(static_cast<InodeNum>(I + 10), E->Ino);
  }
  EXPECT_EQ(nullptr, Index->lookup("missing", Cost));
  EXPECT_TRUE(Index->erase("f0", Cost));
  EXPECT_FALSE(Index->erase("f0", Cost));
  EXPECT_EQ(499u, Index->size());
  std::vector<DirEntry> All;
  Index->list(All, Cost);
  EXPECT_EQ(499u, All.size());
}

TEST(FsDirIndex, HashedChurnListsSortedAndComplete) {
  // Seeded insert/erase churn on a hashed directory: erases move entries
  // inside its table, and list() must still return exactly the live
  // names, sorted, with their inode numbers.
  auto Index = makeDirectoryIndex(DirIndexKind::Hashed);
  Rng R(42);
  std::map<std::string, InodeNum> Model;
  OpCost Cost;
  for (int Round = 0; Round < 40; ++Round) {
    for (int Op = 0; Op < 200; ++Op) {
      std::string Name = "e";
      Name += std::to_string(R.below(3000));
      if (R.below(3) != 0) {
        if (!Index->lookup(Name, Cost)) {
          InodeNum Ino = 100 + Round * 1000 + Op;
          Index->insert(DirEntry{Name, Ino, FileType::Regular}, Cost);
          Model[Name] = Ino;
        }
      } else {
        EXPECT_EQ(Model.erase(Name) == 1, Index->erase(Name, Cost));
      }
    }
    std::vector<DirEntry> Listed;
    Index->list(Listed, Cost);
    ASSERT_EQ(Model.size(), Listed.size());
    ASSERT_EQ(Model.size(), Index->size());
    auto It = Model.begin();
    for (const DirEntry &E : Listed) {
      EXPECT_EQ(It->first, E.Name);
      EXPECT_EQ(It->second, E.Ino);
      ++It;
    }
  }
}

TEST_P(DirIndexParamTest, FileSystemBehaviourIdenticalAcrossIndexes) {
  FsConfig C;
  C.DirIndex = GetParam();
  LocalFileSystem Fs(C);
  OpCtx Ctx = userCtx();
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  for (int I = 0; I < 50; ++I)
    ASSERT_EQ(FsError::Ok, touch(Fs, Ctx, "/d/f" + std::to_string(I)));
  EXPECT_EQ(FsError::Exists, Fs.mkdir(Ctx, "/d", 0755));
  EXPECT_EQ(50u, Fs.directorySize("/d"));
  Result<std::vector<DirEntry>> Entries = Fs.readdir(Ctx, "/d");
  ASSERT_TRUE(Entries.ok());
  EXPECT_EQ(52u, Entries->size()); // 50 files + "." + "..".
  for (int I = 0; I < 50; ++I)
    ASSERT_EQ(FsError::Ok, Fs.unlink(Ctx, "/d/f" + std::to_string(I)));
  EXPECT_EQ(FsError::Ok, Fs.rmdir(Ctx, "/d"));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DirIndexParamTest,
                         ::testing::Values(DirIndexKind::Linear,
                                           DirIndexKind::Hashed,
                                           DirIndexKind::BTree),
                         [](const auto &Info) {
                           return dirIndexKindName(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Randomized invariant property test
//===----------------------------------------------------------------------===//

TEST(FsProperty, RandomOperationsPreserveInvariants) {
  LocalFileSystem Fs;
  OpCtx Ctx = userCtx();
  Rng R(20090119); // Thesis defence date as seed.
  std::vector<std::string> Dirs = {"/"};
  std::vector<std::string> Files;
  uint64_t LiveFiles = 0, LiveDirs = 1;

  for (int Step = 0; Step < 5000; ++Step) {
    switch (R.below(5)) {
    case 0: { // mkdir
      std::string Parent = Dirs[R.below(Dirs.size())];
      std::string Path = (Parent == "/" ? "" : Parent) + "/d" +
                         std::to_string(Step);
      if (succeeded(Fs.mkdir(Ctx, Path, 0755))) {
        Dirs.push_back(Path);
        ++LiveDirs;
      }
      break;
    }
    case 1: { // create file
      std::string Parent = Dirs[R.below(Dirs.size())];
      std::string Path = (Parent == "/" ? "" : Parent) + "/f" +
                         std::to_string(Step);
      Result<FileHandle> Fh = Fs.open(Ctx, Path, OpenWrite | OpenCreate);
      if (Fh.ok()) {
        EXPECT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
        Files.push_back(Path);
        ++LiveFiles;
      }
      break;
    }
    case 2: { // unlink a random file
      if (Files.empty())
        break;
      size_t I = R.below(Files.size());
      if (succeeded(Fs.unlink(Ctx, Files[I]))) {
        Files.erase(Files.begin() + static_cast<ptrdiff_t>(I));
        --LiveFiles;
      }
      break;
    }
    case 3: { // stat something
      if (!Files.empty()) {
        EXPECT_TRUE(Fs.stat(Ctx, Files[R.below(Files.size())]).ok());
      }
      break;
    }
    case 4: { // rename a file into another directory
      if (Files.empty())
        break;
      size_t I = R.below(Files.size());
      std::string Parent = Dirs[R.below(Dirs.size())];
      std::string To = (Parent == "/" ? "" : Parent) + "/r" +
                       std::to_string(Step);
      if (succeeded(Fs.rename(Ctx, Files[I], To)))
        Files[I] = To;
      break;
    }
    }
  }
  // Invariant: inode count equals root + live dirs (-1 for root already
  // counted) + live files.
  EXPECT_EQ(LiveDirs + LiveFiles, Fs.numInodes());
  EXPECT_EQ(0u, Fs.openHandleCount());
  // Every tracked file is reachable.
  for (const std::string &F : Files)
    EXPECT_TRUE(Fs.stat(Ctx, F).ok()) << F;
}

} // namespace
