//===- dfs/Message.h - Metadata request/reply messages ----------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire-level request/reply pair exchanged between simulated clients and
/// servers — the RPC layer of the client-fileserver paradigm (thesis
/// \S 2.5.1). One message type covers all data and metadata operations of
/// Tables 2.2-2.4.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_MESSAGE_H
#define DMETABENCH_DFS_MESSAGE_H

#include "fs/Types.h"
#include "support/Error.h"
#include <string>
#include <vector>

namespace dmb {

/// All operations a client can submit.
enum class MetaOp {
  Mkdir,
  Rmdir,
  Unlink,
  Remove,
  Rename,
  Link,
  Symlink,
  Readlink,
  Stat,
  Lstat,
  Chmod,
  Chown,
  Utimes,
  Readdir,
  Open,
  Close,
  Write,
  Read,
  Seek,
  Ftruncate,
  Fsync,
  Setxattr,
  Getxattr,
  /// Bulk directory listing with attributes (NFSv3 READDIRPLUS): one
  /// request returns every entry's name *and* attributes — the inherently
  /// parallel metadata operation of thesis \S 5.3.2.
  ReaddirPlus,
  /// Advisory whole-file lock on an open handle (\S 2.3.2); Flags != 0
  /// requests the exclusive (write) lock. Test-and-set: FsError::Busy on
  /// conflict.
  Lock,
  /// Releases the handle's advisory lock.
  Unlock
};

/// Returns a printable name for \p Op.
const char *metaOpName(MetaOp Op);

/// True when \p Op changes file system state (used by caches, write-back
/// accounting and the NVRAM/consistency-point model).
bool isMutation(MetaOp Op);

/// A single operation request.
struct MetaRequest {
  MetaOp Op = MetaOp::Stat;
  Cred Creds;
  std::string Path;        ///< primary path
  std::string Path2;       ///< rename/link target, symlink target, xattr key
  std::string Value;       ///< setxattr value
  uint32_t Flags = 0;      ///< open flags
  uint32_t Mode = 0644;    ///< create/chmod mode
  uint32_t Uid = 0;        ///< chown
  uint32_t Gid = 0;        ///< chown
  SimTime Atime = 0;       ///< utimes
  SimTime Mtime = 0;       ///< utimes
  FileHandle Fh = InvalidHandle; ///< handle ops
  uint64_t Bytes = 0;      ///< read/write sizes, ftruncate length, seek pos
  /// \name Retransmit identity
  /// Stamped by resilient clients (RetryPolicy enabled) so the server's
  /// duplicate-request cache can recognise a retransmit: every attempt of
  /// one logical operation carries the same (ClientId, Xid). Both stay 0 on
  /// the fire-and-forget path, which bypasses the cache entirely.
  /// @{
  uint32_t ClientId = 0; ///< 0 = not retryable (no DRC lookup)
  uint64_t Xid = 0;      ///< per-client transaction id, 0 = unassigned
  /// @}
  /// Partition-map epoch the sender routed with (sharded metadata service
  /// only; 0 everywhere else). Advisory: servers validate routing against
  /// the authoritative map, not this number.
  uint64_t MapEpoch = 0;
};

/// A reply to one request.
struct [[nodiscard]] MetaReply {
  FsError Err = FsError::Ok;
  Attr A;                        ///< stat/lstat/fstat result
  FileHandle Fh = InvalidHandle; ///< open result
  uint64_t Bytes = 0;            ///< read/write byte count
  std::string Text;              ///< readlink/getxattr payload
  std::vector<DirEntry> Entries; ///< readdir payload
  /// readdirplus payload: attributes parallel to Entries (excluding the
  /// "." and ".." entries).
  std::vector<std::pair<std::string, Attr>> EntryAttrs;

  bool ok() const { return Err == FsError::Ok; }
};

/// \name Request constructors
/// Convenience builders used by plugins, tests and examples.
/// @{
MetaRequest makeMkdir(std::string Path, uint32_t Mode = 0755);
MetaRequest makeRmdir(std::string Path);
MetaRequest makeUnlink(std::string Path);
MetaRequest makeRename(std::string From, std::string To);
MetaRequest makeLink(std::string Existing, std::string NewPath);
MetaRequest makeSymlink(std::string Target, std::string LinkPath);
MetaRequest makeStat(std::string Path);
MetaRequest makeReaddir(std::string Path);
MetaRequest makeReaddirPlus(std::string Path);
MetaRequest makeOpen(std::string Path, uint32_t Flags, uint32_t Mode = 0644);
MetaRequest makeClose(FileHandle Fh);
MetaRequest makeWrite(FileHandle Fh, uint64_t Bytes);
MetaRequest makeRead(FileHandle Fh, uint64_t Bytes);
MetaRequest makeFsync(FileHandle Fh);
MetaRequest makeLock(FileHandle Fh, bool Exclusive);
MetaRequest makeUnlock(FileHandle Fh);
/// @}

} // namespace dmb

#endif // DMETABENCH_DFS_MESSAGE_H
