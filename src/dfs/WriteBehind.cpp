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
  // handle passes through to fail with BadFd (see serverHandle()).
  switch (Req.Op) {
  case MetaOp::Write:
  case MetaOp::Close:
  case MetaOp::Ftruncate:
    return isLocalFh(Req.Fh) && LocalFhs.find(Req.Fh);
  default:
    return false;
  }
}

template <typename Fn>
void WriteBehindQueue::forEachSeed(const MetaRequest &Req, Fn &&F) const {
  auto AddLive = [&](uint64_t Id) {
    if (Id && Ops.find(Id))
      F(Id);
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
  // A queued write or ftruncate names a handle, not a path: reading or
  // syncing a file by path also waits for the stores queued on every
  // local handle minted for it. Each handle's stores chain through its
  // last one, so the closure takes in the rest; no edge joins the ops.
  if (!Req.Path.empty() && StoringOn.size())
    if (const NewestStoring *E = StoringOn.find(FlatKeyHash{}(Req.Path)))
      for (const StoringHandle *S = Storing.find(E->Fh); S;
           S = Storing.find(S->Older))
        AddLive(S->LastStore);
  if (isLocalFh(Req.Fh)) {
    if (const LocalHandle *H = LocalFhs.find(Req.Fh)) {
      AddLive(H->OpenOp);
      AddLive(H->LastOp);
    }
  }
}

bool WriteBehindQueue::needsDrain(const MetaRequest &Req) const {
  if (!Policy.DeferIssue)
    return false; // eager: state is already applied in submit order
  if (isLocalFh(Req.Fh))
    return true; // at minimum the handle must be translated after a drain
  bool Any = false;
  forEachSeed(Req, [&Any](uint64_t) { Any = true; });
  return Any;
}

FileHandle WriteBehindQueue::serverHandle(FileHandle Fh) const {
  if (!isLocalFh(Fh))
    return Fh;
  // InvalidHandle when the open failed or a close retired the handle.
  const LocalHandle *H = LocalFhs.find(Fh);
  return H ? H->ServerFh : InvalidHandle;
}

WriteBehindQueue::Op &WriteBehindQueue::takeRecord() {
  Op *O;
  if (FreeOps.empty()) {
    O = &OpPool.emplace_back();
  } else {
    O = FreeOps.back();
    FreeOps.pop_back();
  }
  O->Id = 0;
  O->LocalFh = InvalidHandle;
  O->State = Op::St::Queued;
  O->Deps.clear();
  O->Dependents.clear();
  O->PendingDeps = 0;
  O->Waiters.clear();
  O->Minted = InvalidHandle;
  return *O;
}

void WriteBehindQueue::enqueue(const MetaRequest &Req, Callback Done) {
  // The dirty-op cap: admissions past it stall, in order, until the
  // pipeline drains (thesis \S 4.8: the client write-back cache limit).
  // Outside drainStalledAndBarriers a non-empty stall list implies the
  // cap is hit, so checking Live alone keeps FIFO order.
  if (Live >= Policy.MaxQueuedOps) {
    StalledEnqueue &S = Stalled.pushSlot();
    S.Req = Req;
    S.Done = std::move(Done);
    return;
  }
  Op &O = takeRecord();
  O.Req = Req;
  admit(O, std::move(Done));
}

void WriteBehindQueue::admit(Op &O, Callback Done) {
  if (Policy.DeferIssue)
    enqueueDeferred(O, std::move(Done));
  else
    enqueueEager(O, std::move(Done));
}

void WriteBehindQueue::shadow(const MetaRequest &Req) {
  if (!Hooks.Cache)
    return;
  Hooks.Cache->invalidateForMutation(Req);
  if (Req.Op == MetaOp::Write || Req.Op == MetaOp::Ftruncate)
    if (std::optional<uint64_t> PathHash = filePathHash(Req.Fh))
      Hooks.Cache->invalidateHashed(*PathHash);
}

std::optional<uint64_t>
WriteBehindQueue::filePathHash(FileHandle Fh) const {
  if (isLocalFh(Fh)) {
    if (const LocalHandle *H = LocalFhs.find(Fh))
      return H->PathHash;
    return std::nullopt;
  }
  return Hooks.Paths ? Hooks.Paths->pathHash(Fh) : std::nullopt;
}

void WriteBehindQueue::enqueueEager(Op &O, Callback Done) {
  ++Enqueued;
  shadow(O.Req);
  ++Live;
  // The state change happens now (the server sees operations in exactly
  // submit order); the reply is served from the client cache while the
  // commit drains in the background.
  MetaReply Reply = Hooks.ApplyEager(O.Req, [this]() {
    DMB_ASSERT(Live > 0, "write-behind commit drained below zero");
    --Live;
    drainStalledAndBarriers();
  });
  // A store's post-op attributes are for caches, which the enqueue already
  // shadowed; acked without them, as a deferred store is, the reply
  // travels in the event's inline buffer.
  if (O.Req.Op == MetaOp::Write || O.Req.Op == MetaOp::Ftruncate)
    Reply.A = Attr();
  releaseRecord(O);
  localAck(std::move(Done), Reply);
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
      if (const LocalHandle *H = LocalFhs.find(Req.Fh))
        CandidateId = H->LastOp;
    break;
  default:
    return false;
  }
  Op *O = CandidateId ? findOp(CandidateId) : nullptr;
  if (!O)
    return false;
  // Only a not-yet-scheduled op of the same kind on the same target can
  // absorb: once a flush claimed it, its wire identity (Xid) is fixed.
  if (O->State != Op::St::Queued || O->Req.Op != Req.Op)
    return false;
  switch (Req.Op) {
  case MetaOp::Chmod:
    O->Req.Mode = Req.Mode;
    break;
  case MetaOp::Chown:
    O->Req.Uid = Req.Uid;
    O->Req.Gid = Req.Gid;
    break;
  case MetaOp::Utimes:
    O->Req.Atime = Req.Atime;
    O->Req.Mtime = Req.Mtime;
    break;
  case MetaOp::Setxattr:
    if (O->Req.Path2 != Req.Path2)
      return false; // different key: a distinct attribute, not an update
    O->Req.Value = Req.Value;
    break;
  case MetaOp::Write:
    if (O->Req.Fh != Req.Fh)
      return false;
    O->Req.Bytes += Req.Bytes;
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
  Op *To = findOp(On);
  if (!To)
    return;
  if (std::find(From.Deps.begin(), From.Deps.end(), On) != From.Deps.end())
    return;
  From.Deps.push_back(On);
  To->Dependents.push_back(From.Id);
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

void WriteBehindQueue::indexStore(const LocalHandle &H, uint64_t Id) {
  auto [S, Added] = Storing.tryEmplace(H.Fh);
  S->LastStore = Id;
  if (!Added)
    return;
  S->PathHash = H.PathHash;
  NewestStoring &Newest = *StoringOn.tryEmplace(H.PathHash).first;
  S->Older = Newest.Fh;
  Newest.Fh = H.Fh;
}

void WriteBehindQueue::unindexStore(StoringHandle &S) {
  NewestStoring *Newest = StoringOn.find(S.PathHash);
  DMB_ASSERT(Newest, "write-behind storing handle missing from its path");
  if (Newest->Fh == S.Fh) {
    if (S.Older == InvalidHandle)
      StoringOn.erase(Newest);
    else
      Newest->Fh = S.Older;
  } else {
    // A newer storing handle for the same path is live: unlink S behind
    // it.
    StoringHandle *Newer = Storing.find(Newest->Fh);
    while (Newer->Older != S.Fh)
      Newer = Storing.find(Newer->Older);
    Newer->Older = S.Older;
  }
  Storing.erase(&S);
}

void WriteBehindQueue::enqueueDeferred(Op &O, Callback Done) {
  ++Enqueued;
  // Shadow the attribute cache *now*: between this local ack and the
  // flush, a cached stat must not serve the pre-mutation attrs (the
  // AttrCache coherence bug this layer's audit shook out of lustre-wb).
  shadow(O.Req);

  if (coalesce(O.Req)) {
    localAck(std::move(Done), predictReply(O.Req));
    releaseRecord(O);
    maybeTrigger();
    return;
  }

  // Pin the duplicate-request-cache identity at enqueue: every issue (and
  // retransmit) of this op, whenever the flush happens, carries the same
  // (ClientId, Xid).
  if (Hooks.AllocXid && O.Req.Xid == 0)
    O.Req.Xid = Hooks.AllocXid();

  MetaReply Predicted = predictReply(O.Req);
  uint64_t Id = NextOpId++;
  O.Id = Id;
  Ops.tryEmplace(Id).first->Rec = &O;
  if (isLocalFh(O.Req.Fh))
    O.LocalFh = O.Req.Fh;
  if (isCreatingOpen(O.Req)) {
    O.Minted = NextLocalFh++;
    LocalHandle &H = *LocalFhs.tryEmplace(O.Minted).first;
    H.OpenOp = Id;
    H.PathHash = FlatKeyHash{}(O.Req.Path);
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
  if (O.LocalFh != InvalidHandle) {
    // A handle retired while this op stalled has no entry left; issueOp
    // then fails the op with BadFd.
    if (LocalHandle *H = LocalFhs.find(O.LocalFh)) {
      addDep(O, H->OpenOp);
      addDep(O, H->LastOp);
      H->LastOp = Id;
      if (O.Req.Op == MetaOp::Write || O.Req.Op == MetaOp::Ftruncate)
        indexStore(*H, Id);
    }
  }
  indexOp(O);

  ++Live;
  ++QueuedCount;
  QueuedIds.push_back(Id);
  if (O.Req.Op == MetaOp::Write)
    QueuedBytes += O.Req.Bytes;

  localAck(std::move(Done), Predicted);
  maybeTrigger();
}

void WriteBehindQueue::ackAfter(SimDuration Delay, Callback Done,
                                const MetaReply &Reply) {
  Attr Predicted;
  Predicted.Mode = Reply.A.Mode;
  if (Reply.A == Predicted && Reply.Text.empty() && Reply.Entries.empty() &&
      Reply.EntryAttrs.empty() && Reply.MapEpoch == 0) {
    Sched.after(Delay, [Done = std::move(Done), Err = Reply.Err,
                        Mode = Reply.A.Mode, Fh = Reply.Fh,
                        Bytes = Reply.Bytes]() {
      MetaReply R;
      R.Err = Err;
      R.A.Mode = Mode;
      R.Fh = Fh;
      R.Bytes = Bytes;
      Done(std::move(R));
    });
    return;
  }
  // Any other reply (an eager creating open's, with the server's
  // attributes) is parked; the event names its slot.
  uint32_t Slot = ParkedAcks.park(std::move(Done), Reply);
  Sched.after(Delay, [this, Slot]() { ParkedAcks.deliver(Slot); });
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
  std::vector<uint64_t> Batch;
  Batch.swap(IdBuf);
  // Skip the ids a closure already claimed (scheduled, maybe completed).
  for (uint64_t Id : QueuedIds)
    if (Op *O = findOp(Id); O && O->State == Op::St::Queued) {
      O->State = Op::St::Scheduled;
      Batch.push_back(Id);
    }
  QueuedIds.clear();
  QueuedCount = 0;
  QueuedBytes = 0;
  issueReady(Batch);
  Batch.clear();
  IdBuf.swap(Batch);
}

void WriteBehindQueue::issueReady(const std::vector<uint64_t> &Batch) {
  for (uint64_t Id : Batch)
    if (Op *O = findOp(Id);
        O && O->State == Op::St::Scheduled && O->PendingDeps == 0)
      issueOp(*O);
}

void WriteBehindQueue::issueOp(Op &O) {
  O.State = Op::St::Issued;
  ++Issued;
  uint64_t Id = O.Id;
  if (O.LocalFh != InvalidHandle) {
    const LocalHandle *H = LocalFhs.find(O.LocalFh);
    DMB_ASSERT(!H || H->OpenOp == 0,
               "write-behind issued a handle op before its open resolved");
    if (!H || H->ServerFh == InvalidHandle) {
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
    // LocalFh keeps the queue-local handle, so the request itself can go
    // on the wire.
    O.Req.Fh = H->ServerFh;
  }
  Hooks.Issue(O.Req, [this, Id](MetaReply Reply) {
    onOpDone(Id, std::move(Reply));
  });
}

void WriteBehindQueue::onOpDone(uint64_t Id, MetaReply Reply) {
  Op *Rec = findOp(Id);
  DMB_ASSERT(Rec, "write-behind completion for a dead op");
  Op &O = *Rec;
  Ops.erase(Id);

  if (O.Minted != InvalidHandle) {
    // Resolve the queue-local handle the application is holding. Only a
    // completed close retires it, and every close waits for this open.
    LocalHandle *H = LocalFhs.find(O.Minted);
    DMB_ASSERT(H, "write-behind open outlived its handle");
    H->OpenOp = 0;
    H->ServerFh = Reply.ok() ? Reply.Fh : InvalidHandle;
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
  if (O.LocalFh != InvalidHandle) {
    if (StoringHandle *S = Storing.find(O.LocalFh); S && S->LastStore == Id)
      unindexStore(*S);
    if (LocalHandle *H = LocalFhs.find(O.LocalFh)) {
      if (H->LastOp == Id)
        H->LastOp = 0;
      // A completed close retires the local handle entirely.
      if (O.Req.Op == MetaOp::Close)
        LocalFhs.erase(H);
    }
  }

  // Release dependents (the in-flight batch cascades in dependency
  // order), then barrier waiters, then admission.
  std::vector<uint64_t> NowReady;
  NowReady.swap(IdBuf);
  for (uint64_t DepId : O.Dependents) {
    Op *D = findOp(DepId);
    if (!D)
      continue;
    DMB_ASSERT(D->PendingDeps > 0, "write-behind dependency count underflow");
    if (--D->PendingDeps == 0 && D->State == Op::St::Scheduled)
      NowReady.push_back(DepId);
  }
  for (uint64_t ReadyId : NowReady)
    if (Op *R = findOp(ReadyId); R && R->State == Op::St::Scheduled)
      issueOp(*R);
  NowReady.clear();
  IdBuf.swap(NowReady);
  for (size_t I = 0; I != O.Waiters.size(); ++I) {
    uint32_t Slot = O.Waiters[I];
    if (--Awaits[Slot].Remaining == 0)
      releaseAwait(Slot);
  }
  releaseRecord(O);
  DMB_ASSERT(Live > 0, "write-behind live count underflow");
  --Live;
  drainStalledAndBarriers();
}

void WriteBehindQueue::drainStalledAndBarriers() {
  while (!Stalled.empty() && Live < Policy.MaxQueuedOps) {
    Op &O = takeRecord();
    StalledEnqueue &Next = Stalled.front();
    std::swap(O.Req, Next.Req); // the slot keeps the record's buffers
    Callback Done = std::move(Next.Done);
    Stalled.dropFront();
    admit(O, std::move(Done));
  }
  if (Live == 0 && Stalled.empty() && !IdleWaiters.empty()) {
    std::vector<Callback> Waiters;
    Waiters.swap(IdleWaiters);
    for (Callback &Done : Waiters) {
      MetaReply Reply;
      Reply.Err = consumeSticky();
      ackAfter(0, std::move(Done), Reply);
    }
    Waiters.clear();
    if (IdleWaiters.empty())
      IdleWaiters.swap(Waiters); // keep the buffer
  }
}

void WriteBehindQueue::closureOf(const MetaRequest &Req,
                                 std::vector<uint64_t> &Closure) {
  std::vector<uint64_t> Stack;
  Stack.swap(StackBuf);
  forEachSeed(Req, [&Stack](uint64_t Id) { Stack.push_back(Id); });
  ++Walks;
  while (!Stack.empty()) {
    uint64_t Id = Stack.back();
    Stack.pop_back();
    Op *O = findOp(Id);
    if (!O || O->Walk == Walks)
      continue;
    O->Walk = Walks;
    Closure.push_back(Id);
    Stack.insert(Stack.end(), O->Deps.begin(), O->Deps.end());
  }
  std::sort(Closure.begin(), Closure.end());
  StackBuf.swap(Stack);
}

void WriteBehindQueue::awaitClosure(const MetaRequest &Req,
                                    std::function<void()> Ready,
                                    Callback Synced) {
  std::vector<uint64_t> Closure;
  Closure.swap(IdBuf);
  closureOf(Req, Closure);
  if (Closure.empty()) {
    IdBuf.swap(Closure);
    Await Now{0, std::move(Ready), std::move(Synced)};
    finishAwait(Now);
    return;
  }
  uint32_t Slot;
  if (FreeAwaits.empty()) {
    Slot = static_cast<uint32_t>(Awaits.size());
    Awaits.emplace_back();
  } else {
    Slot = FreeAwaits.back();
    FreeAwaits.pop_back();
  }
  Awaits[Slot] = Await{Closure.size(), std::move(Ready), std::move(Synced)};
  // Every closure op waits on the barrier, in ascending id order; the
  // ones still queued are scheduled now and form the batch, which the
  // loop compacts to the front of the closure.
  size_t Batch = 0;
  for (size_t I = 0; I != Closure.size(); ++I) {
    uint64_t Id = Closure[I];
    Op &O = *findOp(Id);
    if (O.State == Op::St::Queued) {
      O.State = Op::St::Scheduled;
      Closure[Batch++] = Id;
      DMB_ASSERT(QueuedCount > 0, "write-behind queued count underflow");
      --QueuedCount;
      if (O.Req.Op == MetaOp::Write)
        QueuedBytes -= std::min(QueuedBytes, O.Req.Bytes);
    }
    O.Waiters.push_back(Slot);
  }
  Closure.resize(Batch);
  if (QueuedCount == 0)
    QueuedIds.clear(); // every id left there was claimed by a closure
  issueReady(Closure);
  Closure.clear();
  IdBuf.swap(Closure);
}

void WriteBehindQueue::releaseAwait(uint32_t Slot) {
  Await Done = std::move(Awaits[Slot]);
  Awaits[Slot] = Await();
  FreeAwaits.push_back(Slot);
  finishAwait(Done);
}

void WriteBehindQueue::finishAwait(Await &A) {
  if (!A.Synced) {
    A.Ready();
    return;
  }
  MetaReply Reply;
  Reply.Err = consumeSticky();
  localAck(std::move(A.Synced), Reply);
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
      localAck(std::move(Done), Reply);
      return;
    }
    IdleWaiters.push_back(std::move(Done));
    return;
  }
  // Targeted barrier: drain exactly the dependency closure of this
  // file's ops — the rest of the queue keeps riding behind.
  awaitClosure(Req, nullptr, std::move(Done));
}

void WriteBehindQueue::drainFor(const MetaRequest &Req,
                                std::function<void()> Ready) {
  awaitClosure(Req, std::move(Ready), nullptr);
}
