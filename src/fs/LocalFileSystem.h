//===- fs/LocalFileSystem.h - In-memory POSIX file system -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A complete in-memory POSIX metadata store: inodes, hierarchical
/// directories, hardlinks, symlinks, permissions, timestamps, extended
/// attributes and an open-file table with deferred deletion. This is the
/// "local file system on server" of the client-server paradigm (thesis
/// Table 2.5): every simulated file server executes its operations against
/// one or more instances, so error and concurrency semantics are real while
/// durations are modelled from the reported OpCost.
///
/// File *data* is tracked by size and block allocation only; contents are
/// opaque to metadata benchmarking (thesis \S 1.2).
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_FS_LOCALFILESYSTEM_H
#define DMETABENCH_FS_LOCALFILESYSTEM_H

#include "fs/DirectoryIndex.h"
#include "fs/Types.h"
#include "support/Result.h"
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace dmb {

/// Static configuration of a file system instance.
struct FsConfig {
  DirIndexKind DirIndex = DirIndexKind::Hashed;
  uint32_t NameMax = 255;    ///< maximum directory entry name length
  int MaxSymlinkDepth = 40;  ///< ELOOP threshold
  uint64_t MaxInodes = ~0ULL;
  uint64_t MaxBlocks = ~0ULL;
  uint32_t BlockSize = 4096;
  /// Files up to this many bytes are stored inside the inode and allocate
  /// no data blocks — models WAFL's 64-byte inline files (\S 4.3.4).
  uint64_t InlineDataMax = 0;
  uint64_t DeviceId = 1; ///< st_dev reported by this instance
};

/// In-memory POSIX file system. All operations take an OpCtx carrying the
/// caller's credentials and the current time, and accumulate OpCost.
class LocalFileSystem {
public:
  explicit LocalFileSystem(FsConfig Config = FsConfig());
  ~LocalFileSystem();

  LocalFileSystem(const LocalFileSystem &) = delete;
  LocalFileSystem &operator=(const LocalFileSystem &) = delete;

  /// \name Metadata operations (thesis Tables 2.3 and 2.4)
  /// @{
  FsError mkdir(OpCtx &Ctx, const std::string &Path, uint32_t Mode);
  FsError rmdir(OpCtx &Ctx, const std::string &Path);
  FsError unlink(OpCtx &Ctx, const std::string &Path);
  /// remove(): unlink for files, rmdir for directories.
  FsError remove(OpCtx &Ctx, const std::string &Path);
  FsError rename(OpCtx &Ctx, const std::string &From, const std::string &To);
  FsError link(OpCtx &Ctx, const std::string &Existing,
               const std::string &NewPath);
  FsError symlink(OpCtx &Ctx, const std::string &Target,
                  const std::string &LinkPath);
  Result<std::string> readlink(OpCtx &Ctx, const std::string &Path);
  Result<Attr> stat(OpCtx &Ctx, const std::string &Path);
  Result<Attr> lstat(OpCtx &Ctx, const std::string &Path);
  FsError chmod(OpCtx &Ctx, const std::string &Path, uint32_t Mode);
  FsError chown(OpCtx &Ctx, const std::string &Path, uint32_t Uid,
                uint32_t Gid);
  FsError utimes(OpCtx &Ctx, const std::string &Path, SimTime Atime,
                 SimTime Mtime);
  Result<std::vector<DirEntry>> readdir(OpCtx &Ctx, const std::string &Path);
  /// @}

  /// \name Extended attributes (key-value pattern, \S 2.1.1)
  /// @{
  FsError setxattr(OpCtx &Ctx, const std::string &Path,
                   const std::string &Key, const std::string &Value);
  Result<std::string> getxattr(OpCtx &Ctx, const std::string &Path,
                               const std::string &Key);
  Result<std::vector<std::string>> listxattr(OpCtx &Ctx,
                                             const std::string &Path);
  FsError removexattr(OpCtx &Ctx, const std::string &Path,
                      const std::string &Key);
  /// @}

  /// \name Data operations (thesis Table 2.2; sizes only, no payloads)
  /// @{
  Result<FileHandle> open(OpCtx &Ctx, const std::string &Path,
                          uint32_t Flags, uint32_t Mode = 0644);
  FsError close(OpCtx &Ctx, FileHandle Fh);
  /// Appends/overwrites \p NumBytes at the handle's offset; returns the
  /// bytes written.
  Result<uint64_t> write(OpCtx &Ctx, FileHandle Fh, uint64_t NumBytes);
  /// Reads up to \p NumBytes from the offset; returns bytes read (short at
  /// end of file).
  Result<uint64_t> read(OpCtx &Ctx, FileHandle Fh, uint64_t NumBytes);
  /// Sets the absolute file offset; may exceed the size (sparse semantics).
  Result<uint64_t> seek(OpCtx &Ctx, FileHandle Fh, uint64_t Offset);
  FsError ftruncate(OpCtx &Ctx, FileHandle Fh, uint64_t Length);
  Result<Attr> fstat(OpCtx &Ctx, FileHandle Fh);
  /// @}

  /// \name File locks (thesis \S 2.3.2; fcntl-style, whole file)
  /// Advisory test-and-set locks: shared read locks exclude the write
  /// lock; one write lock excludes everything. Locks belong to an open
  /// handle and are released by unlock() or close().
  /// @{
  /// Acquires a lock on the open file; FsError::Busy when it conflicts.
  FsError lockFile(OpCtx &Ctx, FileHandle Fh, bool Exclusive);
  /// Releases the handle's lock; FsError::Invalid when none is held.
  FsError unlockFile(OpCtx &Ctx, FileHandle Fh);
  /// @}

  /// Consistency report of fsck() (thesis \S 2.7.1).
  struct FsckReport {
    uint64_t InodesChecked = 0;
    uint64_t DirectoriesChecked = 0;
    std::vector<std::string> Errors;

    bool clean() const { return Errors.empty(); }
  };

  /// Full consistency check: directory-tree connectivity, link counts,
  /// parent (dot-dot) pointers, dangling entries, orphan inodes and block
  /// accounting — what a file system check program verifies after an
  /// unclean shutdown (\S 2.7.1).
  FsckReport fsck() const;

  /// \name Introspection (tests, servers, capacity accounting)
  /// @{
  uint64_t numInodes() const { return Inodes.size(); }
  uint64_t allocatedBlocks() const { return AllocatedBlocks; }
  size_t openHandleCount() const { return OpenFiles.size(); }
  const FsConfig &config() const { return Config; }
  /// Number of entries in the directory at \p Path, or 0 when missing.
  uint64_t directorySize(const std::string &Path);
  /// @}

private:
  struct Inode;
  struct OpenFile {
    InodeNum Ino = 0;
    uint32_t Flags = 0;
    uint64_t Offset = 0;
  };
  struct Resolved {
    InodeNum Parent = 0;      ///< directory containing the leaf
    std::string Leaf;         ///< final path component ("" for root)
    InodeNum Target = 0;      ///< inode of the leaf, 0 when absent
  };

  Inode *getInode(InodeNum Ino);
  const DirEntry *dirLookup(Inode &Dir, const std::string &Name,
                            OpCost &Cost) const;
  bool checkAccess(const Cred &C, const Inode &Node, Access Want) const;
  /// Core path walk with symlink handling. When \p FollowLast is false the
  /// final component is not dereferenced if it is a symlink (lstat).
  Result<Resolved> resolve(OpCtx &Ctx, const std::string &Path,
                           bool FollowLast);
  Result<InodeNum> resolveExisting(OpCtx &Ctx, const std::string &Path,
                                   bool FollowLast);
  Inode *createInode(OpCtx &Ctx, FileType Type, uint32_t Mode);
  void destroyInode(Inode &Node);
  /// Releases the inode if it has no links and no open handles.
  void maybeReap(InodeNum Ino);
  uint64_t blocksFor(uint64_t Size) const;
  /// Adjusts block accounting when a file's size changes. Returns false if
  /// the allocation would exceed MaxBlocks.
  bool reallocate(OpCtx &Ctx, Inode &Node, uint64_t NewSize);
  FsError checkName(const std::string &Name) const;

  FsConfig Config;
  std::unordered_map<InodeNum, std::unique_ptr<Inode>> Inodes;
  std::unordered_map<FileHandle, OpenFile> OpenFiles;
  InodeNum RootIno = 1;
  InodeNum NextIno = 2;
  FileHandle NextHandle = 1;
  uint64_t AllocatedBlocks = 0;
};

} // namespace dmb

#endif // DMETABENCH_FS_LOCALFILESYSTEM_H
