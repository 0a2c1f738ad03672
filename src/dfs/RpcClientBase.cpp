//===- dfs/RpcClientBase.cpp ----------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/RpcClientBase.h"
#include "dfs/FileServer.h"

using namespace dmb;

void RpcClientBase::submit(const MetaRequest &Req, Callback Done) {
  if (!WB) {
    submitDirect(Req, std::move(Done));
    return;
  }
  if (Req.Op == MetaOp::Fsync) {
    WB->fsync(Req, std::move(Done));
    return;
  }
  if (WB->shouldQueue(Req)) {
    WB->enqueue(Req, std::move(Done));
    return;
  }
  if (WB->needsDrain(Req)) {
    // A read around queued state: settle exactly the dependency closure
    // this operation can observe, then issue it. The request waits in a
    // pooled exchange record, so the continuation captures only {this,
    // record}.
    Exchange *X = acquireExchange();
    X->Req = Req;
    X->Done = std::move(Done);
    WB->drainFor(Req, [this, X]() {
      X->Req.Fh = WB->serverHandle(X->Req.Fh);
      submitDirect(X->Req, std::move(X->Done));
      recycle(X);
    });
    return;
  }
  if (FileHandle Fh = WB->serverHandle(Req.Fh); Fh != Req.Fh) {
    MetaRequest Wire = Req;
    Wire.Fh = Fh;
    submitDirect(Wire, std::move(Done));
    return;
  }
  submitDirect(Req, std::move(Done));
}

void RpcClientBase::mountWriteBehind(const WriteBehindPolicy &Policy,
                                     FileServer *Eager, uint32_t VolId,
                                     AttrCache *Cache) {
  if (!Policy.enabled())
    return;
  WriteBehindHooks Hooks;
  Hooks.Issue = [this](const MetaRequest &R, Callback Reply) {
    submitDirect(R, std::move(Reply));
  };
  Hooks.AllocXid = [this]() { return allocXid(); };
  if (Eager)
    Hooks.ApplyEager = [Eager, VolId](const MetaRequest &R,
                                      std::function<void()> Committed) {
      return Eager->processEager(VolId, R, std::move(Committed));
    };
  Hooks.Cache = Cache;
  WB = std::make_unique<WriteBehindQueue>(Sched, Policy, std::move(Hooks));
}
