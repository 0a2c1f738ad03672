//===- dfs/AttrCache.cpp --------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/AttrCache.h"

using namespace dmb;

void AttrCache::insert(std::string_view Path, const Attr &A, SimTime Now) {
  auto It = Entries.find(Path);
  if (It != Entries.end())
    It->second = Entry{A, Now};
  else
    Entries.emplace(std::string(Path), Entry{A, Now});
}

std::optional<Attr> AttrCache::lookup(std::string_view Path, SimTime Now) {
  auto It = Entries.find(Path);
  if (It == Entries.end()) {
    ++Misses;
    return std::nullopt;
  }
  // An entry is valid strictly within the TTL window: at age == Ttl the
  // attributes are already stale (acregmax semantics), so the boundary
  // lookup must revalidate, not hit.
  if (Ttl > 0 && Now - It->second.InsertedAt >= Ttl) {
    Entries.erase(It);
    ++Misses;
    return std::nullopt;
  }
  ++Hits;
  return It->second.A;
}

void AttrCache::invalidate(std::string_view Path) {
  auto It = Entries.find(Path);
  if (It != Entries.end())
    Entries.erase(It);
}

void AttrCache::invalidateMutated(const MetaRequest &Req) {
  if (!isMutation(Req.Op))
    return;
  invalidate(Req.Path);
  if (Req.Op == MetaOp::Rename || Req.Op == MetaOp::Link)
    invalidate(Req.Path2);
}

void AttrCache::invalidateForMutation(const MetaRequest &Req) {
  bool ShapeChange = false;
  switch (Req.Op) {
  case MetaOp::Mkdir:
  case MetaOp::Rmdir:
  case MetaOp::Unlink:
  case MetaOp::Remove:
  case MetaOp::Rename:
  case MetaOp::Link:
  case MetaOp::Symlink:
    ShapeChange = true;
    break;
  case MetaOp::Open:
    ShapeChange = (Req.Flags & OpenCreate) != 0;
    break;
  case MetaOp::Chmod:
  case MetaOp::Chown:
  case MetaOp::Utimes:
  case MetaOp::Setxattr:
  case MetaOp::Ftruncate:
  case MetaOp::Write:
    break;
  default:
    return; // reads and handle-only ops leave the cache intact
  }
  if (!Req.Path.empty()) {
    invalidate(Req.Path);
    if (ShapeChange)
      if (std::string_view Parent = parentPath(Req.Path); !Parent.empty())
        invalidate(Parent);
  }
  // Rename/link/symlink name a second path whose attrs (and parent) the
  // mutation also touches; for setxattr Path2 is the xattr key, not a path.
  if (!Req.Path2.empty() && Req.Op != MetaOp::Setxattr) {
    invalidate(Req.Path2);
    if (ShapeChange)
      if (std::string_view Parent = parentPath(Req.Path2); !Parent.empty())
        invalidate(Parent);
  }
}

void AttrCache::clear() { Entries.clear(); }
