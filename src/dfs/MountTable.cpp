//===- dfs/MountTable.cpp -------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/MountTable.h"

using namespace dmb;

void MountTable::add(std::string Prefix, unsigned ServerIndex,
                     std::string Volume) {
  Mounts.push_back(
      MountEntry{std::move(Prefix), ServerIndex, std::move(Volume)});
}

bool MountTable::setServer(const std::string &Prefix, unsigned NewServer) {
  for (MountEntry &M : Mounts)
    if (M.Prefix == Prefix) {
      M.ServerIndex = NewServer;
      return true;
    }
  return false;
}

const MountEntry *MountTable::resolve(std::string_view Path) const {
  const MountEntry *Best = nullptr;
  for (const MountEntry &M : Mounts) {
    if (M.Prefix == "/") {
      if (!Best)
        Best = &M;
      continue;
    }
    // Prefix must match at a component boundary.
    if (!Path.starts_with(M.Prefix))
      continue;
    if (Path.size() > M.Prefix.size() && Path[M.Prefix.size()] != '/')
      continue;
    if (!Best || M.Prefix.size() > Best->Prefix.size())
      Best = &M;
  }
  return Best;
}

const MountEntry *MountTable::route(const MetaRequest &Req,
                                    FsError &Err) const {
  const MountEntry *Mount = resolve(Req.Path);
  if (!Mount) {
    Err = FsError::NoEnt;
    return nullptr;
  }
  if (Req.Op == MetaOp::Rename || Req.Op == MetaOp::Link) {
    const MountEntry *Mount2 = resolve(Req.Path2);
    if (!Mount2 || Mount2->Prefix != Mount->Prefix) {
      Err = FsError::XDev;
      return nullptr;
    }
  }
  return Mount;
}

void MountTable::toVolume(const MetaRequest &Req, size_t PrefixLen,
                          MetaRequest &Fwd) {
  Fwd = Req;
  Fwd.Path = relative(Req.Path, PrefixLen);
  if (Req.Op == MetaOp::Rename || Req.Op == MetaOp::Link)
    Fwd.Path2 = relative(Req.Path2, PrefixLen);
}
