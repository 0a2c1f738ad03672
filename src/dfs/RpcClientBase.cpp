//===- dfs/RpcClientBase.cpp ----------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/RpcClientBase.h"
#include "dfs/FileServer.h"

using namespace dmb;

void RpcClientBase::mountWriteBehind(
    std::unique_ptr<WriteBehindQueue> &WB, const WriteBehindPolicy &Policy,
    std::function<void(const MetaRequest &, std::function<void(MetaReply)>)>
        Issue,
    FileServer *Eager, uint32_t VolId, AttrCache *Cache) {
  if (!Policy.enabled())
    return;
  WriteBehindHooks Hooks;
  Hooks.Issue = std::move(Issue);
  Hooks.AllocXid = [this]() { return allocXid(); };
  if (Eager)
    Hooks.ApplyEager = [Eager, VolId](const MetaRequest &R,
                                      std::function<void()> Committed) {
      return Eager->processEager(VolId, R, std::move(Committed));
    };
  Hooks.Cache = Cache;
  WB = std::make_unique<WriteBehindQueue>(Sched, Policy, std::move(Hooks));
}
