//===- dfs/AttrCache.cpp --------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/AttrCache.h"

using namespace dmb;

bool AttrCache::insert(std::string_view Path, const Attr &A, SimTime Now) {
  auto [E, Added] = Entries.tryEmplace(Path);
  E->A = A;
  E->InsertedAt = Now;
  return Added;
}

std::optional<Attr> AttrCache::lookup(std::string_view Path, SimTime Now) {
  Entry *E = Entries.find(Path);
  if (!E) {
    ++Misses;
    return std::nullopt;
  }
  // An entry is valid strictly within the TTL window: at age == Ttl the
  // attributes are already stale (acregmax semantics), so the boundary
  // lookup must revalidate, not hit.
  if (Ttl > 0 && Now - E->InsertedAt >= Ttl) {
    Entries.erase(E);
    ++Misses;
    return std::nullopt;
  }
  ++Hits;
  return E->A;
}

void AttrCache::invalidate(std::string_view Path) { Entries.erase(Path); }

void AttrCache::invalidateSubtree(std::string_view Path) {
  if (Path.empty())
    return;
  Entries.eraseIf(
      [Path](const Entry &E) { return isAtOrBelow(E.Path, Path); });
}

void AttrCache::invalidateMutated(const MetaRequest &Req) {
  if (!isMutation(Req.Op))
    return;
  if (Req.Op == MetaOp::Rename) {
    // A renamed directory takes its subtree along; a replaced target may
    // have been a directory too.
    invalidateSubtree(Req.Path);
    invalidateSubtree(Req.Path2);
    return;
  }
  invalidate(Req.Path);
  if (Req.Op == MetaOp::Link)
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
  auto Drop = [&](std::string_view P) {
    if (Req.Op == MetaOp::Rename)
      invalidateSubtree(P);
    else
      invalidate(P);
    if (ShapeChange)
      if (std::string_view Parent = parentPath(P); !Parent.empty())
        invalidate(Parent);
  };
  if (!Req.Path.empty())
    Drop(Req.Path);
  // Rename/link/symlink name a second path whose attrs (and parent) the
  // mutation also touches; for setxattr Path2 is the xattr key, not a path.
  if (!Req.Path2.empty() && Req.Op != MetaOp::Setxattr)
    Drop(Req.Path2);
}

void AttrCache::clear() { Entries.clear(); }
