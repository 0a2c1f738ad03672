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

const MountEntry *MountTable::resolve(const std::string &Path,
                                      std::string &RelPath) const {
  const MountEntry *Best = nullptr;
  for (const MountEntry &M : Mounts) {
    if (M.Prefix == "/") {
      if (!Best)
        Best = &M;
      continue;
    }
    // Prefix must match at a component boundary.
    if (Path.size() < M.Prefix.size())
      continue;
    if (Path.compare(0, M.Prefix.size(), M.Prefix) != 0)
      continue;
    if (Path.size() > M.Prefix.size() && Path[M.Prefix.size()] != '/')
      continue;
    if (!Best || M.Prefix.size() > Best->Prefix.size())
      Best = &M;
  }
  if (!Best)
    return nullptr;
  if (Best->Prefix == "/")
    RelPath = Path;
  else
    RelPath = Path.size() > Best->Prefix.size()
                  ? Path.substr(Best->Prefix.size())
                  : std::string("/");
  if (RelPath.empty())
    RelPath = std::string("/"); // GCC 12 -Wrestrict misfires on = "/" here
  return Best;
}

const MountEntry *MountTable::route(const MetaRequest &Req, MetaRequest &Fwd,
                                    FsError &Err) const {
  Fwd = Req;
  const MountEntry *Mount = resolve(Req.Path, Fwd.Path);
  if (!Mount) {
    Err = FsError::NoEnt;
    return nullptr;
  }
  if (Req.Op == MetaOp::Rename || Req.Op == MetaOp::Link) {
    const MountEntry *Mount2 = resolve(Req.Path2, Fwd.Path2);
    if (!Mount2 || Mount2->Prefix != Mount->Prefix) {
      Err = FsError::XDev;
      return nullptr;
    }
  }
  return Mount;
}
