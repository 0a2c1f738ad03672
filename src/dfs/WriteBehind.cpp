//===- dfs/WriteBehind.cpp ------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/WriteBehind.h"
#include "support/Assert.h"
#include <algorithm>

using namespace dmb;

WriteBehindQueue::WriteBehindQueue(Scheduler &Sched,
                                   const WriteBehindPolicy &Policy,
                                   WriteBehindHooks Hooks)
    : Sched(Sched), Policy(Policy), Hooks(std::move(Hooks)) {}

static bool isCreatingOpen(const MetaRequest &Req) {
  return Req.Op == MetaOp::Open && (Req.Flags & OpenCreate);
}

/// Path-based namespace mutations the deferred queue understands (the
/// journalable set: what a flush can re-issue standalone).
static bool isQueueableNamespaceOp(MetaOp Op) {
  switch (Op) {
  case MetaOp::Mkdir:
  case MetaOp::Rmdir:
  case MetaOp::Unlink:
  case MetaOp::Remove:
  case MetaOp::Rename:
  case MetaOp::Link:
  case MetaOp::Symlink:
  case MetaOp::Chmod:
  case MetaOp::Chown:
  case MetaOp::Utimes:
  case MetaOp::Setxattr:
    return true;
  default:
    return false;
  }
}

/// True when Path2 names a real path (rename/link/symlink) rather than an
/// xattr key.
static bool path2IsPath(MetaOp Op) {
  return Op == MetaOp::Rename || Op == MetaOp::Link || Op == MetaOp::Symlink;
}

bool WriteBehindQueue::shouldQueue(const MetaRequest &Req) const {
  if (Req.Op == MetaOp::Fsync)
    return false; // barriers have their own entry point
  if (!Policy.DeferIssue)
    // Eager discipline (classic lustre-wb): every state change is applied
    // at the server on enqueue, so anything mutating belongs here.
    return isMutation(Req.Op) || isCreatingOpen(Req) ||
           Req.Op == MetaOp::Close;
  if (isQueueableNamespaceOp(Req.Op) || isCreatingOpen(Req))
    return true;
  // Handle-based data/metadata ops ride along only on live queue-local
  // handles (files this queue created whose close has not completed);
  // server-handle ops stay synchronous, and an op on a retired local
  // handle passes through to fail with BadFd (see translate()).
  switch (Req.Op) {
  case MetaOp::Write:
  case MetaOp::Close:
  case MetaOp::Ftruncate:
    return isLocalFh(Req.Fh) && LocalFhs.count(Req.Fh);
  default:
    return false;
  }
}

std::vector<uint64_t> WriteBehindQueue::seedsFor(const MetaRequest &Req) const {
  std::vector<uint64_t> Seeds;
  auto AddLive = [&](uint64_t Id) {
    if (Id && Ops.count(Id))
      Seeds.push_back(Id);
  };
  auto AddPath = [&](const std::string &P) {
    if (P.empty())
      return;
    if (const PathOp *E = LastByPath.find(P))
      AddLive(E->Id);
    // Reading a directory (or fsyncing it) also needs its queued children
    // settled: their creates change the listing and the dir's attrs.
    if (const PathOp *E = LastChildOf.find(P))
      AddLive(E->Id);
  };
  AddPath(Req.Path);
  if (path2IsPath(Req.Op))
    AddPath(Req.Path2);
  if (isLocalFh(Req.Fh)) {
    if (auto It = LocalFhs.find(Req.Fh); It != LocalFhs.end()) {
      AddLive(It->second.OpenOp);
      AddLive(It->second.LastOp);
    }
  }
  return Seeds;
}

bool WriteBehindQueue::needsDrain(const MetaRequest &Req) const {
  if (!Policy.DeferIssue)
    return false; // eager: state is already applied in submit order
  if (isLocalFh(Req.Fh))
    return true; // at minimum the handle must be translated after a drain
  return !seedsFor(Req).empty();
}

MetaRequest WriteBehindQueue::translate(const MetaRequest &Req) const {
  if (!isLocalFh(Req.Fh))
    return Req;
  MetaRequest Out = Req;
  auto It = LocalFhs.find(Req.Fh);
  // InvalidHandle when the open failed or a close retired the handle.
  Out.Fh = It != LocalFhs.end() ? It->second.ServerFh : InvalidHandle;
  return Out;
}

void WriteBehindQueue::enqueue(const MetaRequest &Req, Callback Done) {
  // The dirty-op cap: admissions past it stall, in order, until the
  // pipeline drains (thesis \S 4.8: the client write-back cache limit).
  // Outside drainStalledAndBarriers a non-empty stall list implies the
  // cap is hit, so checking Live alone keeps FIFO order.
  if (Live >= Policy.MaxQueuedOps) {
    Stalled.push_back({Req, std::move(Done)});
    return;
  }
  if (Policy.DeferIssue)
    enqueueDeferred(Req, std::move(Done));
  else
    enqueueEager(Req, std::move(Done));
}

void WriteBehindQueue::enqueueEager(const MetaRequest &Req, Callback Done) {
  ++Enqueued;
  if (Hooks.Cache)
    Hooks.Cache->invalidateForMutation(Req);
  ++Live;
  // The state change happens now (the server sees operations in exactly
  // submit order); the reply is served from the client cache while the
  // commit drains in the background.
  MetaReply Reply = Hooks.ApplyEager(Req, [this]() {
    DMB_ASSERT(Live > 0, "write-behind commit drained below zero");
    --Live;
    drainStalledAndBarriers();
  });
  localAck(std::move(Done), std::move(Reply));
}

MetaReply WriteBehindQueue::predictReply(const MetaRequest &Req) {
  MetaReply Reply;
  if (Req.Op == MetaOp::Write)
    Reply.Bytes = Req.Bytes;
  return Reply;
}

bool WriteBehindQueue::coalesce(const MetaRequest &Req) {
  uint64_t CandidateId = 0;
  switch (Req.Op) {
  case MetaOp::Chmod:
  case MetaOp::Chown:
  case MetaOp::Utimes:
  case MetaOp::Setxattr:
    if (const PathOp *E = LastByPath.find(Req.Path))
      CandidateId = E->Id;
    break;
  case MetaOp::Write:
    if (isLocalFh(Req.Fh))
      if (auto It = LocalFhs.find(Req.Fh); It != LocalFhs.end())
        CandidateId = It->second.LastOp;
    break;
  default:
    return false;
  }
  auto It = Ops.find(CandidateId);
  if (CandidateId == 0 || It == Ops.end())
    return false;
  Op &O = It->second;
  // Only a not-yet-scheduled op of the same kind on the same target can
  // absorb: once a flush claimed it, its wire identity (Xid) is fixed.
  if (O.State != Op::St::Queued || O.Req.Op != Req.Op)
    return false;
  switch (Req.Op) {
  case MetaOp::Chmod:
    O.Req.Mode = Req.Mode;
    break;
  case MetaOp::Chown:
    O.Req.Uid = Req.Uid;
    O.Req.Gid = Req.Gid;
    break;
  case MetaOp::Utimes:
    O.Req.Atime = Req.Atime;
    O.Req.Mtime = Req.Mtime;
    break;
  case MetaOp::Setxattr:
    if (O.Req.Path2 != Req.Path2)
      return false; // different key: a distinct attribute, not an update
    O.Req.Value = Req.Value;
    break;
  case MetaOp::Write:
    if (O.Req.Fh != Req.Fh)
      return false;
    O.Req.Bytes += Req.Bytes;
    QueuedBytes += Req.Bytes;
    break;
  default:
    return false;
  }
  ++Coalesced;
  return true;
}

void WriteBehindQueue::addDep(Op &From, uint64_t On) {
  if (On == 0 || On == From.Id)
    return;
  auto It = Ops.find(On);
  if (It == Ops.end())
    return;
  if (std::find(From.Deps.begin(), From.Deps.end(), On) != From.Deps.end())
    return;
  From.Deps.push_back(On);
  It->second.Dependents.push_back(From.Id);
  ++From.PendingDeps;
}

void WriteBehindQueue::indexOp(const Op &O) {
  auto Index = [&](const std::string &P) {
    if (P.empty())
      return;
    LastByPath.tryEmplace(P).first->Id = O.Id;
    // Most ops land in an already-indexed directory: updated in place, a
    // key string is built only for a new one.
    if (std::string_view Parent = parentPath(P); !Parent.empty())
      LastChildOf.tryEmplace(Parent).first->Id = O.Id;
  };
  Index(O.Req.Path);
  if (path2IsPath(O.Req.Op))
    Index(O.Req.Path2);
}

void WriteBehindQueue::enqueueDeferred(MetaRequest Req, Callback Done) {
  ++Enqueued;
  // Shadow the attribute cache *now*: between this local ack and the
  // flush, a cached stat must not serve the pre-mutation attrs (the
  // AttrCache coherence bug this layer's audit shook out of lustre-wb).
  if (Hooks.Cache)
    Hooks.Cache->invalidateForMutation(Req);

  if (coalesce(Req)) {
    localAck(std::move(Done), predictReply(Req));
    maybeTrigger();
    return;
  }

  // Pin the duplicate-request-cache identity at enqueue: every issue (and
  // retransmit) of this op, whenever the flush happens, carries the same
  // (ClientId, Xid).
  if (Hooks.AllocXid && Req.Xid == 0)
    Req.Xid = Hooks.AllocXid();

  MetaReply Predicted = predictReply(Req);
  uint64_t Id = NextOpId++;
  Op &O = Ops[Id];
  O.Id = Id;
  O.Req = std::move(Req);
  if (isCreatingOpen(O.Req)) {
    O.Minted = NextLocalFh++;
    LocalFhs[O.Minted].OpenOp = Id;
    Predicted.Fh = O.Minted;
    Predicted.A.Mode = O.Req.Mode;
  }

  // Dependency edges (computed before indexing, so the op never depends
  // on itself): same-path chains, parent-directory ordering for
  // create/unlink/rename, and handle chains through queue-local opens.
  auto DepPath = [&](const std::string &P) {
    if (P.empty())
      return;
    if (const PathOp *E = LastByPath.find(P))
      addDep(O, E->Id);
    if (std::string_view Parent = parentPath(P); !Parent.empty())
      if (const PathOp *E = LastByPath.find(Parent))
        addDep(O, E->Id);
  };
  DepPath(O.Req.Path);
  if (path2IsPath(O.Req.Op))
    DepPath(O.Req.Path2);
  if (O.Req.Op == MetaOp::Rmdir || O.Req.Op == MetaOp::Rename) {
    // Removing or renaming a directory orders after its queued children.
    if (const PathOp *E = LastChildOf.find(O.Req.Path))
      addDep(O, E->Id);
  }
  if (isLocalFh(O.Req.Fh)) {
    // A handle retired while this op stalled has no entry left; issueOp
    // then fails the op with BadFd.
    if (auto HIt = LocalFhs.find(O.Req.Fh); HIt != LocalFhs.end()) {
      addDep(O, HIt->second.OpenOp);
      addDep(O, HIt->second.LastOp);
      HIt->second.LastOp = Id;
    }
  }
  indexOp(O);

  ++Live;
  ++QueuedCount;
  QueuedIds.push_back(Id);
  if (O.Req.Op == MetaOp::Write)
    QueuedBytes += O.Req.Bytes;

  localAck(std::move(Done), std::move(Predicted));
  maybeTrigger();
}

void WriteBehindQueue::localAck(Callback Done, MetaReply Reply) {
  Sched.after(Policy.LocalAckCost,
              [Done = std::move(Done), Reply = std::move(Reply)]() mutable {
                Done(std::move(Reply));
              });
}

void WriteBehindQueue::maybeTrigger() {
  if (QueuedCount >= Policy.FlushMaxOps ||
      QueuedBytes >= Policy.FlushMaxBytes) {
    flush();
    return;
  }
  armTimer();
}

void WriteBehindQueue::armTimer() {
  if (TimerArmed || QueuedCount == 0)
    return;
  TimerArmed = true;
  Sched.after(Policy.FlushDelay, [this, E = TimerEpoch]() {
    TimerArmed = false;
    if (E == TimerEpoch && QueuedCount > 0)
      flush();
    else
      armTimer(); // ops queued after a newer flush: keep the clock running
  });
}

void WriteBehindQueue::flush() {
  ++TimerEpoch; // a dwell timer in flight no longer owns this batch
  if (QueuedCount == 0)
    return;
  ++Flushes;
  scheduleAll();
}

void WriteBehindQueue::scheduleAll() {
  // Skip the ids a closure already claimed (scheduled, maybe completed).
  std::vector<uint64_t> Batch;
  Batch.reserve(QueuedIds.size());
  for (uint64_t Id : QueuedIds)
    if (auto It = Ops.find(Id);
        It != Ops.end() && It->second.State == Op::St::Queued) {
      It->second.State = Op::St::Scheduled;
      Batch.push_back(Id);
    }
  QueuedIds.clear();
  QueuedCount = 0;
  QueuedBytes = 0;
  issueReady(Batch);
}

void WriteBehindQueue::issueReady(const std::vector<uint64_t> &Batch) {
  for (uint64_t Id : Batch) {
    auto It = Ops.find(Id);
    if (It != Ops.end() && It->second.State == Op::St::Scheduled &&
        It->second.PendingDeps == 0)
      issueOp(It->second);
  }
}

void WriteBehindQueue::issueOp(Op &O) {
  O.State = Op::St::Issued;
  ++Issued;
  uint64_t Id = O.Id;
  MetaRequest Wire = O.Req;
  if (isLocalFh(Wire.Fh)) {
    auto HIt = LocalFhs.find(Wire.Fh);
    if (HIt == LocalFhs.end() || HIt->second.Failed) {
      // The creating open this op rode on never materialized, or an
      // earlier close retired the handle; complete with the handle error
      // without a round trip. Deferred a tick so the completion cascade
      // never runs under issueReady()'s loop.
      Sched.after(0, [this, Id]() {
        MetaReply R;
        R.Err = FsError::BadFd;
        onOpDone(Id, std::move(R));
      });
      return;
    }
    DMB_ASSERT(HIt->second.ServerFh != InvalidHandle,
               "write-behind issued a handle op before its open resolved");
    Wire.Fh = HIt->second.ServerFh;
  }
  Hooks.Issue(Wire, [this, Id](MetaReply Reply) {
    onOpDone(Id, std::move(Reply));
  });
}

void WriteBehindQueue::onOpDone(uint64_t Id, MetaReply Reply) {
  auto It = Ops.find(Id);
  DMB_ASSERT(It != Ops.end(), "write-behind completion for a dead op");
  auto Node = Ops.extract(It);
  Op &O = Node.mapped();

  if (O.Minted != InvalidHandle) {
    // Resolve the queue-local handle the application is holding. Only a
    // completed close retires it, and every close waits for this open.
    auto HIt = LocalFhs.find(O.Minted);
    DMB_ASSERT(HIt != LocalFhs.end(), "write-behind open outlived its handle");
    HIt->second.OpenOp = 0;
    HIt->second.ServerFh = Reply.Fh;
    HIt->second.Failed = !Reply.ok();
  }
  if (!Reply.ok() && Reply.Err != FsError::BadFd) {
    // A deferred op the application was already told succeeded has failed
    // at the server: record it sticky; the next fsync/close barrier
    // surfaces it (never swallowed). BadFd cascades from a failed open
    // are byproducts of the root failure already recorded.
    ++FlushErrors;
    if (Sticky == FsError::Ok)
      Sticky = Reply.Err;
  } else if (!Reply.ok()) {
    ++FlushErrors;
  }

  // Drop the last-op indexes that still point at this op.
  auto Unindex = [&](const std::string &P) {
    if (P.empty())
      return;
    if (const PathOp *E = LastByPath.find(P); E && E->Id == Id)
      LastByPath.erase(E);
    if (std::string_view Parent = parentPath(P); !Parent.empty())
      if (const PathOp *E = LastChildOf.find(Parent); E && E->Id == Id)
        LastChildOf.erase(E);
  };
  Unindex(O.Req.Path);
  if (path2IsPath(O.Req.Op))
    Unindex(O.Req.Path2);
  if (isLocalFh(O.Req.Fh)) {
    if (auto HIt = LocalFhs.find(O.Req.Fh); HIt != LocalFhs.end()) {
      if (HIt->second.LastOp == Id)
        HIt->second.LastOp = 0;
      // A completed close retires the local handle entirely.
      if (O.Req.Op == MetaOp::Close)
        LocalFhs.erase(HIt);
    }
  }

  // Release dependents (the in-flight batch cascades in dependency
  // order), then barrier waiters, then admission.
  std::vector<uint64_t> NowReady;
  for (uint64_t DepId : O.Dependents) {
    auto DIt = Ops.find(DepId);
    if (DIt == Ops.end())
      continue;
    DMB_ASSERT(DIt->second.PendingDeps > 0,
               "write-behind dependency count underflow");
    if (--DIt->second.PendingDeps == 0 &&
        DIt->second.State == Op::St::Scheduled)
      NowReady.push_back(DepId);
  }
  for (uint64_t ReadyId : NowReady) {
    auto RIt = Ops.find(ReadyId);
    if (RIt != Ops.end() && RIt->second.State == Op::St::Scheduled)
      issueOp(RIt->second);
  }
  for (std::function<void()> &W : O.Waiters)
    W();
  DMB_ASSERT(Live > 0, "write-behind live count underflow");
  --Live;
  drainStalledAndBarriers();
}

void WriteBehindQueue::drainStalledAndBarriers() {
  while (!Stalled.empty() && Live < Policy.MaxQueuedOps) {
    StalledEnqueue Next = std::move(Stalled.front());
    Stalled.pop_front();
    enqueue(Next.Req, std::move(Next.Done));
  }
  if (Live == 0 && Stalled.empty() && !IdleWaiters.empty()) {
    std::vector<std::function<void()>> Waiters = std::move(IdleWaiters);
    IdleWaiters.clear();
    for (std::function<void()> &W : Waiters)
      W();
  }
}

std::set<uint64_t>
WriteBehindQueue::closureOf(std::vector<uint64_t> Seeds) const {
  std::set<uint64_t> Closure;
  while (!Seeds.empty()) {
    uint64_t Id = Seeds.back();
    Seeds.pop_back();
    if (Id == 0 || !Closure.insert(Id).second)
      continue;
    auto It = Ops.find(Id);
    if (It == Ops.end()) {
      Closure.erase(Id);
      continue;
    }
    for (uint64_t Dep : It->second.Deps)
      Seeds.push_back(Dep);
  }
  return Closure;
}

void WriteBehindQueue::awaitClosure(std::vector<uint64_t> Seeds,
                                    std::function<void()> Done) {
  std::set<uint64_t> Closure = closureOf(std::move(Seeds));
  if (Closure.empty()) {
    Done();
    return;
  }
  auto Remaining = std::make_shared<size_t>(Closure.size());
  auto Shared = std::make_shared<std::function<void()>>(std::move(Done));
  std::vector<uint64_t> Batch;
  for (uint64_t Id : Closure) {
    Op &O = Ops.at(Id);
    if (O.State == Op::St::Queued) {
      O.State = Op::St::Scheduled;
      Batch.push_back(Id);
      DMB_ASSERT(QueuedCount > 0, "write-behind queued count underflow");
      --QueuedCount;
      if (O.Req.Op == MetaOp::Write)
        QueuedBytes -= std::min(QueuedBytes, O.Req.Bytes);
    }
    O.Waiters.push_back([Remaining, Shared]() {
      if (--*Remaining == 0)
        (*Shared)();
    });
  }
  if (QueuedCount == 0)
    QueuedIds.clear(); // every id left there was claimed by a closure
  issueReady(Batch);
}

FsError WriteBehindQueue::consumeSticky() {
  FsError E = Sticky;
  Sticky = FsError::Ok;
  return E;
}

void WriteBehindQueue::fsync(const MetaRequest &Req, Callback Done) {
  ++Barriers;
  bool Full = !Policy.DeferIssue ||
              (Req.Fh == InvalidHandle && Req.Path.empty());
  if (Full) {
    // Whole-queue barrier: under eager discipline ops are already applied
    // in submit order and only the commit drain remains; a deferred
    // fsync(-1) (sync()) covers every queued op.
    if (Policy.DeferIssue)
      flush();
    if (Live == 0 && Stalled.empty()) {
      MetaReply Reply;
      Reply.Err = consumeSticky();
      localAck(std::move(Done), std::move(Reply));
      return;
    }
    IdleWaiters.push_back([this, Done = std::move(Done)]() {
      MetaReply Reply;
      Reply.Err = consumeSticky();
      Sched.after(0, [Done, Reply]() { Done(Reply); });
    });
    return;
  }
  // Targeted barrier: drain exactly the dependency closure of this
  // file's ops — the rest of the queue keeps riding behind.
  awaitClosure(seedsFor(Req), [this, Done = std::move(Done)]() {
    MetaReply Reply;
    Reply.Err = consumeSticky();
    localAck(std::move(Done), std::move(Reply));
  });
}

void WriteBehindQueue::drainFor(const MetaRequest &Req,
                                std::function<void()> Ready) {
  awaitClosure(seedsFor(Req), std::move(Ready));
}
