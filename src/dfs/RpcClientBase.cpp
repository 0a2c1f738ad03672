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
    direct(Req, std::move(Done));
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
      direct(X->Req, std::move(X->Done));
      recycle(X);
    });
    return;
  }
  if (FileHandle Fh = WB->serverHandle(Req.Fh); Fh != Req.Fh) {
    MetaRequest Wire = Req;
    Wire.Fh = Fh;
    direct(Wire, std::move(Done));
    return;
  }
  direct(Req, std::move(Done));
}

void RpcClientBase::settle(const MetaRequest &Req, const MetaReply &Reply) {
  if (!Cache)
    return;
  trackHandle(Req, Reply);
  if (!Reply.ok())
    return;
  SimTime Now = Sched.now();
  switch (Req.Op) {
  case MetaOp::Stat:
  case MetaOp::Lstat:
    Cache->insert(Req.Path, Reply.A, Now);
    break;
  case MetaOp::Open:
    // NFSv3 replies carry post-op attributes, so a stat() right after
    // creating a file is served locally (\S 3.4.3).
    if (Fill == AttrFill::PostOp)
      Cache->insert(Req.Path, Reply.A, Now);
    break;
  case MetaOp::ReaddirPlus:
    // READDIRPLUS warms the cache for every entry at once (\S 5.3.2):
    // the stat()s after it are local.
    if (Fill == AttrFill::PostOp) {
      std::string Base = Req.Path == "/" ? std::string() : Req.Path;
      for (const auto &[Name, A] : Reply.EntryAttrs)
        Cache->insert(Base + "/" + Name, A, Now);
    }
    break;
  case MetaOp::Write:
  case MetaOp::Ftruncate:
    // A handle names no path: the record says which entry the post-op
    // attributes belong to.
    if (std::optional<uint64_t> PathHash = Paths.pathHash(Req.Fh))
      Cache->refresh(*PathHash, Reply.A);
    break;
  default:
    Cache->invalidateMutated(Req); // this client's own stale entries
    break;
  }
}

void RpcClientBase::mountWriteBehind(const WriteBehindPolicy &Policy,
                                     FileServer *Eager, uint32_t VolId) {
  if (!Policy.enabled())
    return;
  WriteBehindHooks Hooks;
  Hooks.Issue = [this](const MetaRequest &R, Callback Reply) {
    submitDirect(R, std::move(Reply));
  };
  Hooks.AllocXid = [this]() { return allocXid(); };
  if (Eager)
    // An eager op's reply never reaches finish(): the handle record sees
    // its creating opens and closes here.
    Hooks.ApplyEager = [this, Eager, VolId](const MetaRequest &R,
                                            std::function<void()> Committed) {
      MetaReply Reply = Eager->processEager(VolId, R, std::move(Committed));
      if (Cache)
        trackHandle(R, Reply);
      return Reply;
    };
  if (Cache) {
    Hooks.Cache = &*Cache;
    Hooks.Paths = &Paths;
  }
  WB = std::make_unique<WriteBehindQueue>(Sched, Policy, std::move(Hooks));
}
