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
#include <vector>

namespace dmb {

/// One volume mounted into the unified namespace.
struct MountEntry {
  std::string Prefix;   ///< mount point, e.g. "/vol3" ("/" allowed)
  unsigned ServerIndex; ///< which server owns the volume
  std::string Volume;   ///< volume name on that server
};

/// Longest-prefix-match mount table.
class MountTable {
public:
  void add(std::string Prefix, unsigned ServerIndex, std::string Volume);

  /// Resolves \p Path to its mount. \p RelPath receives the path within the
  /// volume (always starting with '/'). Returns nullptr when no mount
  /// covers the path.
  const MountEntry *resolve(const std::string &Path,
                            std::string &RelPath) const;

  /// Routes \p Req to the volume holding its path: \p Fwd receives the
  /// request with Path, and for rename and link Path2, relative to the
  /// volume root. Returns nullptr with \p Err set when no mount covers
  /// the path (NoEnt), or when a rename or link would span two volumes
  /// (XDev: separately managed volumes cannot move entries between them
  /// atomically, \S 2.6.3's NFS3ERR_XDEV).
  const MountEntry *route(const MetaRequest &Req, MetaRequest &Fwd,
                          FsError &Err) const;

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
