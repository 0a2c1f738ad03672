//===- fs/Types.h - Core file system types ----------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// POSIX-flavoured types shared by the local file system substrate and the
/// distributed file system models: attributes (Table 2.1 of the thesis),
/// credentials, open flags, directory entries and per-operation cost
/// accounting.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_FS_TYPES_H
#define DMETABENCH_FS_TYPES_H

#include "sim/Time.h"
#include <cstdint>
#include <string>

namespace dmb {

/// Inode number; unique per file system instance (thesis \S 2.1.1).
using InodeNum = uint64_t;

/// Open file handle as returned by open().
using FileHandle = uint64_t;

/// Invalid handle constant.
constexpr FileHandle InvalidHandle = ~0ULL;

/// Object kinds stored in a file system.
enum class FileType : uint8_t { Regular, Directory, Symlink };

/// Permission bit constants (subset of st_mode).
enum : uint32_t {
  PermOtherExec = 01,
  PermOtherWrite = 02,
  PermOtherRead = 04,
  PermGroupExec = 010,
  PermGroupWrite = 020,
  PermGroupRead = 040,
  PermOwnerExec = 0100,
  PermOwnerWrite = 0200,
  PermOwnerRead = 0400,
  PermMask = 0777
};

/// Access request kinds used by permission checks.
enum class Access : uint8_t { Read, Write, Execute };

/// Identity performing an operation.
struct Cred {
  uint32_t Uid = 1000;
  uint32_t Gid = 1000;

  bool isRoot() const { return Uid == 0; }
};

/// The standard POSIX attributes of Table 2.1.
struct Attr {
  uint64_t Dev = 0;           ///< st_dev
  InodeNum Ino = 0;           ///< st_ino
  FileType Type = FileType::Regular;
  uint32_t Mode = 0644;       ///< st_mode permission bits
  uint32_t Nlink = 0;         ///< st_nlink
  uint32_t Uid = 0;           ///< st_uid
  uint32_t Gid = 0;           ///< st_gid
  uint64_t Size = 0;          ///< st_size
  SimTime Atime = 0;          ///< st_atime
  SimTime Mtime = 0;          ///< st_mtime
  SimTime Ctime = 0;          ///< st_ctime
  uint32_t BlockSize = 4096;  ///< st_blksize
  uint64_t Blocks = 0;        ///< st_blocks (allocated block count)

  /// Field by field: the padding between fields is not part of the value.
  bool operator==(const Attr &) const = default;
};

/// open() flags (subset of O_*).
enum OpenFlags : uint32_t {
  OpenRead = 1u << 0,
  OpenWrite = 1u << 1,
  OpenCreate = 1u << 2,  ///< O_CREAT
  OpenExcl = 1u << 3,    ///< O_EXCL
  OpenTrunc = 1u << 4,   ///< O_TRUNC
  OpenAppend = 1u << 5,  ///< O_APPEND
  OpenSync = 1u << 6     ///< O_SYNC (synchronous persistence, \S 2.6.4)
};

/// One entry returned by readdir().
struct DirEntry {
  std::string Name;
  InodeNum Ino = 0;
  FileType Type = FileType::Regular;
};

/// Work performed by one metadata/data operation. The simulated servers
/// translate these counts into service time (fs/CostModel.h), which is how
/// directory scaling (\S 4.3.3) and allocation behaviour (\S 4.3.4) become
/// visible in benchmark results.
struct OpCost {
  uint64_t DirEntriesScanned = 0; ///< entries examined during lookups
  uint64_t DirEntriesWritten = 0; ///< entries inserted/erased/renamed
  uint64_t InodesTouched = 0;     ///< inodes read or written
  uint64_t BlocksAllocated = 0;   ///< data blocks newly allocated
  uint64_t BlocksFreed = 0;       ///< data blocks released
  uint64_t BytesWritten = 0;      ///< payload bytes written
  uint64_t BytesRead = 0;         ///< payload bytes read
  uint64_t SymlinksFollowed = 0;  ///< symlink indirections resolved

  OpCost &operator+=(const OpCost &O) {
    DirEntriesScanned += O.DirEntriesScanned;
    DirEntriesWritten += O.DirEntriesWritten;
    InodesTouched += O.InodesTouched;
    BlocksAllocated += O.BlocksAllocated;
    BlocksFreed += O.BlocksFreed;
    BytesWritten += O.BytesWritten;
    BytesRead += O.BytesRead;
    SymlinksFollowed += O.SymlinksFollowed;
    return *this;
  }
};

/// Per-operation context: who, when, and accumulated work.
struct OpCtx {
  Cred Creds;
  SimTime Now = 0;
  OpCost Cost;
};

} // namespace dmb

#endif // DMETABENCH_FS_TYPES_H
