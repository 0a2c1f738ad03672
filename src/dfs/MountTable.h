//===- dfs/MountTable.h - Namespace aggregation table -----------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The volume location database (VLDB) of namespace-aggregated file systems
/// (thesis \S 2.5.1): maps mount prefixes to (server, volume) pairs. AFS
/// aggregates externally (clients consult the table), Ontap GX internally
/// (the receiving N-blade consults it) — both share this structure.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_MOUNTTABLE_H
#define DMETABENCH_DFS_MOUNTTABLE_H

#include "dfs/Message.h"
#include <string>
#include <string_view>
#include <vector>

namespace dmb {

/// One volume mounted into the unified namespace.
struct MountEntry {
  std::string Prefix;   ///< mount point, e.g. "/vol3" ("/" allowed)
  unsigned ServerIndex; ///< which server owns the volume
  std::string Volume;   ///< volume name on that server

  /// The leading bytes of a covered path that name the mount point: none
  /// for the root mount.
  size_t prefixLength() const { return Prefix == "/" ? 0 : Prefix.size(); }
};

/// Longest-prefix-match mount table.
class MountTable {
public:
  void add(std::string Prefix, unsigned ServerIndex, std::string Volume);

  /// The mount covering \p Path: the longest prefix that matches at a
  /// component boundary, "/" covering every path. nullptr when no mount
  /// covers it.
  const MountEntry *resolve(std::string_view Path) const;

  /// The volume holding \p Req's path. Returns nullptr with \p Err set
  /// when no mount covers the path (NoEnt), or when a rename or link would
  /// span two volumes (XDev: separately managed volumes cannot move
  /// entries between them atomically, \S 2.6.3's NFS3ERR_XDEV).
  const MountEntry *route(const MetaRequest &Req, FsError &Err) const;

  /// \p Path relative to the root of the volume mounted at a prefix of
  /// \p PrefixLen bytes (MountEntry::prefixLength()); always starts with
  /// '/'.
  static std::string_view relative(std::string_view Path, size_t PrefixLen) {
    return Path.size() > PrefixLen ? Path.substr(PrefixLen)
                                   : std::string_view("/");
  }

  /// Copies \p Req, a request route() sent to a volume mounted at a prefix
  /// of \p PrefixLen bytes, into \p Fwd with Path, and for rename and link
  /// Path2, relative() to the volume root. A symlink target and an xattr
  /// key are not paths and stay as they are.
  static void toVolume(const MetaRequest &Req, size_t PrefixLen,
                       MetaRequest &Fwd);

  /// Re-homes the volume mounted at \p Prefix onto \p NewServer (volume
  /// move, thesis \S 2.5.1). Returns false when the prefix is unknown.
  bool setServer(const std::string &Prefix, unsigned NewServer);

  const std::vector<MountEntry> &entries() const { return Mounts; }
  size_t size() const { return Mounts.size(); }

private:
  std::vector<MountEntry> Mounts;
};

} // namespace dmb

#endif // DMETABENCH_DFS_MOUNTTABLE_H
