//===- support/Error.h - POSIX-style error codes ----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error codes returned by the file system substrates. They mirror the POSIX
/// errno values that the operations of Tables 2.2-2.4 of the thesis can
/// produce, so client code and tests can check semantics precisely.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_ERROR_H
#define DMETABENCH_SUPPORT_ERROR_H

namespace dmb {

/// POSIX-flavoured error codes for metadata and data operations.
enum class [[nodiscard]] FsError {
  Ok = 0,
  Exists,      ///< EEXIST: directory entry with that name already present.
  NoEnt,       ///< ENOENT: path component or target does not exist.
  NotDir,      ///< ENOTDIR: path component is not a directory.
  IsDir,       ///< EISDIR: operation on a directory that requires a file.
  NotEmpty,    ///< ENOTEMPTY: rmdir on a non-empty directory.
  Access,      ///< EACCES: permission check failed during path walk.
  Perm,        ///< EPERM: operation not permitted (e.g. hardlink to dir).
  XDev,        ///< EXDEV: rename across volumes/file systems (\S 2.6.3).
  NameTooLong, ///< ENAMETOOLONG: component exceeds the name limit.
  NoSpace,     ///< ENOSPC: out of inodes or blocks.
  BadFd,       ///< EBADF: stale or invalid file handle.
  Invalid,     ///< EINVAL: malformed argument (e.g. rename into own child).
  Loop,        ///< ELOOP: too many symbolic links during resolution.
  Busy,        ///< EBUSY: object is in use (e.g. unmount while open).
  Stale,       ///< ESTALE: distributed handle no longer valid on server.
  NoAttr,      ///< ENOATTR/ENODATA: extended attribute not found.
  NotSupported, ///< ENOTSUP: file system does not implement the operation.
  TimedOut,    ///< ETIMEDOUT: RPC retransmits exhausted without a reply.
  StaleMap     ///< ESTALEMAP: client routed with an outdated partition map.
};

/// Number of FsError values. Kept in sync with the enum above; both the
/// dmeta-analyze error-table check and the exhaustive round-trip test in
/// tests/SupportTest.cpp verify it.
inline constexpr unsigned NumFsErrors = 20;

/// Returns the canonical short name ("EEXIST", ...) for \p E.
const char *fsErrorName(FsError E);

/// Parses a canonical short name back into its code. Returns false when
/// \p Name is not one of the fsErrorName() spellings.
bool fsErrorFromName(const char *Name, FsError &Out);

} // namespace dmb

#endif // DMETABENCH_SUPPORT_ERROR_H
