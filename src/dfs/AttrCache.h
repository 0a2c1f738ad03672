//===- dfs/AttrCache.h - Client attribute/dentry cache ----------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A time-bounded attribute cache keyed by path — the client-side cache
/// whose behaviour the StatFiles / StatNocacheFiles / StatMultinodeFiles
/// plugins probe (thesis \S 3.4.3). A TTL of zero disables expiry
/// (callback/invalidation-based systems like AFS). Beside it, the record
/// of which path each open handle names, which lets a write by handle
/// reach the entry of the file it wrote.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_ATTRCACHE_H
#define DMETABENCH_DFS_ATTRCACHE_H

#include "dfs/Message.h"
#include "fs/Types.h"
#include "support/FlatTable.h"
#include <optional>
#include <string>
#include <string_view>

namespace dmb {

/// The directory containing \p Path ("/a/b" -> "/a", "/a" -> "/", "/" ->
/// ""). Paths in the simulator are absolute and normalised, so a plain
/// rightmost-slash split suffices.
inline std::string_view parentPath(std::string_view Path) {
  size_t Slash = Path.rfind('/');
  if (Slash == std::string_view::npos || Path == "/")
    return {};
  return Slash == 0 ? std::string_view("/") : Path.substr(0, Slash);
}

/// True when \p Path is \p Dir or lies below it: what a rename of \p Dir
/// takes along. No path lies below the empty name.
inline bool isAtOrBelow(std::string_view Path, std::string_view Dir) {
  return !Dir.empty() && Path.starts_with(Dir) &&
         (Path.size() == Dir.size() || Path[Dir.size()] == '/' ||
          Dir.back() == '/');
}

/// Path -> Attr cache with per-entry expiry.
class AttrCache {
public:
  /// \p Ttl of 0 means entries never expire (invalidation-only caches).
  explicit AttrCache(SimDuration Ttl) : Ttl(Ttl) {}

  /// Stores attributes observed at \p Now, overwriting an existing entry
  /// for \p Path in place; true when there was none.
  bool insert(std::string_view Path, const Attr &A, SimTime Now);

  /// Returns fresh attributes or nullopt on miss/expiry.
  std::optional<Attr> lookup(std::string_view Path, SimTime Now);

  /// Overwrites in place, keeping its insertion time, the entry whose path
  /// has fingerprint \p PathHash (HandlePaths) when it caches the file of
  /// \p A, the post-op attributes of a write by handle: the same device
  /// and inode, not a file created under the name since. Inserts nothing,
  /// so neither hits, misses nor expiry move.
  void refresh(uint64_t PathHash, const Attr &A) {
    Entry *E = Entries.findByHash(PathHash);
    if (E && E->A.Dev == A.Dev && E->A.Ino == A.Ino)
      E->A = A;
  }

  /// True when an entry for \p Path is held, fresh or not; counts nothing.
  bool contains(std::string_view Path) const {
    return Entries.find(Path) != nullptr;
  }

  /// Drops one entry (mutation invalidation / callback break).
  void invalidate(std::string_view Path);
  /// Drops the entry whose path has fingerprint \p PathHash.
  void invalidateHashed(uint64_t PathHash) {
    if (const Entry *E = Entries.findByHash(PathHash))
      Entries.erase(E);
  }

  /// Drops what a successful synchronous mutation \p Req makes stale: the
  /// entry for its path, the one for Path2 on link, and on rename both
  /// names with everything cached below them. Called on the mutation's
  /// reply (write-behind clients use invalidateForMutation() at enqueue).
  void invalidateMutated(const MetaRequest &Req);

  /// Drops every entry a queued-but-unflushed (or just-applied) mutation
  /// makes stale: the primary path, the secondary path (rename target,
  /// link name), and — for namespace-shape changes (create, unlink,
  /// rename, link, mkdir, rmdir) — the parent directory entries, whose
  /// size/mtime the mutation changes. A rename also drops everything
  /// cached below either name. A client queueing \p Req in a
  /// write-behind pipeline must call this at enqueue time, not at reply
  /// time: between the local ack and the flush, a cached stat would
  /// otherwise observe pre-mutation attributes the application already
  /// overwrote.
  void invalidateForMutation(const MetaRequest &Req);

  /// Drops everything (drop_caches, remount).
  void clear();

  size_t size() const { return Entries.size(); }
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  struct Entry {
    std::string Path;
    Attr A;
    SimTime InsertedAt = 0;
  };

  /// Drops every entry isAtOrBelow() \p Path. A scan of the dense entry
  /// array: only renames call it, and none runs at scale.
  void invalidateSubtree(std::string_view Path);

  SimDuration Ttl;
  FlatTable<Entry, &Entry::Path> Entries;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// The path each open file handle names, keyed by the handle the client's
/// caller holds, as the path's fingerprint: its 64-bit FlatKeyHash, which
/// finds the path's entry in a table keyed by paths
/// (FlatTable::findByHash). A handle names no path, so this is how a write
/// or an ftruncate by handle reaches its file's cache entry. A record is
/// 16 bytes, with no copy of the path, and an erased one is reused, so at
/// a steady count of open files recording one allocates nothing.
class HandlePaths {
public:
  /// \p Fh, which an open returned, names \p Path.
  void record(FileHandle Fh, std::string_view Path) {
    Open.tryEmplace(Fh).first->PathHash = FlatKeyHash{}(Path);
  }
  /// A close retired \p Fh.
  void retire(FileHandle Fh) { Open.erase(Fh); }
  /// The fingerprint of the path \p Fh names; nullopt when no open
  /// recorded it.
  std::optional<uint64_t> pathHash(FileHandle Fh) const {
    if (const Record *R = Open.find(Fh))
      return R->PathHash;
    return std::nullopt;
  }

private:
  struct Record {
    FileHandle Fh = InvalidHandle;
    uint64_t PathHash = 0;
  };
  FlatTable<Record, &Record::Fh> Open;
};

} // namespace dmb

#endif // DMETABENCH_DFS_ATTRCACHE_H
