//===- fs/DirectoryIndex.h - Directory entry containers ---------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three directory implementations mirroring the techniques of thesis
/// \S 2.4.2 "Directory search": the traditional linear list (UFS), a name
/// hash (WAFL), and a balanced tree (XFS B-trees / ext3 htree). They differ
/// in the *cost* they report for lookups and inserts, which drives the
/// large-directory experiments of \S 4.3.3 and the ablation bench E19.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_FS_DIRECTORYINDEX_H
#define DMETABENCH_FS_DIRECTORYINDEX_H

#include "fs/Types.h"
#include <memory>
#include <string_view>
#include <vector>

namespace dmb {

/// Which directory data structure a file system instance uses.
enum class DirIndexKind {
  Linear, ///< UFS-style linear entry list: O(n) lookups (Fig. 2.4).
  Hashed, ///< WAFL-style name hash: O(1) expected lookups.
  BTree   ///< XFS/ext3-style balanced tree: O(log n) lookups.
};

/// Returns a human-readable name for the index kind.
const char *dirIndexKindName(DirIndexKind K);

/// Abstract container of (name -> inode) directory entries.
///
/// All mutators/readers report the number of entries they examined through
/// \p Cost so the caller can charge realistic service time. Every kind
/// stores each name once, in its DirEntry, and looks names up by view, so
/// a path walk compares its components in place.
class DirectoryIndex {
public:
  virtual ~DirectoryIndex();

  /// Looks up \p Name; returns the entry or nullptr. The entry is valid
  /// until the next insert() or erase().
  virtual const DirEntry *lookup(std::string_view Name,
                                 OpCost &Cost) const = 0;

  /// Inserts an entry. Precondition: no entry with the same name exists
  /// (the file system checks uniqueness via lookup() first, \S 2.6.3).
  virtual void insert(DirEntry Entry, OpCost &Cost) = 0;

  /// Erases \p Name. Returns false when absent.
  virtual bool erase(std::string_view Name, OpCost &Cost) = 0;

  /// Appends all entries to \p Out in iteration order.
  virtual void list(std::vector<DirEntry> &Out, OpCost &Cost) const = 0;

  /// Number of entries.
  virtual size_t size() const = 0;

  bool empty() const { return size() == 0; }
};

/// Creates an index instance of the requested kind.
std::unique_ptr<DirectoryIndex> makeDirectoryIndex(DirIndexKind Kind);

} // namespace dmb

#endif // DMETABENCH_FS_DIRECTORYINDEX_H
