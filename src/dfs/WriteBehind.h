//===- dfs/WriteBehind.h - Client write-behind metadata pipeline -*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A reusable client-side write-behind layer for metadata operations: the
/// generalization of the Lustre write-back cache (thesis \S 2.6.4 / \S 4.8)
/// that ROADMAP item 5 calls for. One queue object per client, wired behind
/// ClientConfig::WriteBehind, with two issue disciplines:
///
///  - *eager* (classic lustre-wb): the caller applies the state change at
///    the server on enqueue and the queue tracks the draining commit —
///    dirty-op cap with stall, whole-queue fsync barrier, local acks.
///
///  - *deferred* (the new pipeline): operations queue client-side in an
///    op-dependency graph — create -> setattr -> write -> close on the same
///    path/handle, parent-directory ordering for create/unlink/rename —
///    get coalesced (repeated setattrs, appended writes), and are issued in
///    dependency-respecting bulk batches over the client's normal RPC path
///    with a (ClientId, Xid) pinned per op at *enqueue* time, so a flush
///    retransmitted across faults keeps its duplicate-request-cache
///    identity. Flush triggers: queued-op count, queued write bytes, a
///    dwell timer, and explicit fsync/close barriers. An fsync drains
///    exactly the dependency closure of its target, not the whole queue.
///
/// Deferred acks are optimistic: the local reply predicts success, and a
/// server-side failure is recorded sticky and surfaced at the next barrier
/// (fsync) — never silently dropped. Creating opens hand the application a
/// queue-local file handle; dependent operations are translated to the
/// server handle when their turn to issue comes.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_WRITEBEHIND_H
#define DMETABENCH_DFS_WRITEBEHIND_H

#include "dfs/AttrCache.h"
#include "dfs/ClientConfig.h"
#include "dfs/Message.h"
#include "dfs/ReplyPark.h"
#include "sim/Scheduler.h"
#include "support/FlatTable.h"
#include "support/RingQueue.h"
#include <deque>
#include <functional>
#include <string>
#include <vector>

namespace dmb {

/// Client-provided integration points for a WriteBehindQueue.
struct WriteBehindHooks {
  /// Deferred discipline: issues one operation over the client's normal
  /// RPC path (slot table + transact). The request's Xid is already
  /// pinned; the callback must fire exactly once with the server reply.
  std::function<void(const MetaRequest &, std::function<void(MetaReply)>)>
      Issue;

  /// Allocates a fresh transaction id from the client's Xid space
  /// (RpcClientBase::allocXid), pinned onto each op at enqueue.
  std::function<uint64_t()> AllocXid;

  /// Eager discipline: applies \p Req at the server immediately and
  /// returns the true reply; the completion must fire when the server
  /// finishes (commit drained). Maps to FileServer::processEager.
  std::function<MetaReply(const MetaRequest &, std::function<void()>)>
      ApplyEager;

  /// Attribute cache to shadow on enqueue (nullptr = none): a queued
  /// mutation invalidates the cached attrs its flush will change, so a
  /// stat between local ack and flush never observes pre-mutation state.
  AttrCache *Cache = nullptr;
  /// The client's record of the path each server handle names, so that a
  /// queued write or ftruncate also shadows the entry of its file.
  const HandlePaths *Paths = nullptr;
};

/// The per-client write-behind queue. All entry points are scheduler-driven
/// (single-threaded discrete-event simulation): no locking.
class WriteBehindQueue {
public:
  using Callback = std::function<void(MetaReply)>;

  WriteBehindQueue(Scheduler &Sched, const WriteBehindPolicy &Policy,
                   WriteBehindHooks Hooks);

  /// True when \p Req belongs in the queue (mutations; creating opens;
  /// close/write/ftruncate on a queue-local handle no close has retired
  /// yet). Fsync never queues — route it to fsync().
  bool shouldQueue(const MetaRequest &Req) const;

  /// True when a pass-through operation (stat, readdir, non-creating
  /// open...) must wait for queued state it would otherwise read around:
  /// its path, its parent-directory contents, or its handle have live
  /// queued ops.
  bool needsDrain(const MetaRequest &Req) const;

  /// Enqueues \p Req. Local ack after LocalAckCost (optimistic under the
  /// deferred discipline, server-true under eager). Stalls past
  /// MaxQueuedOps.
  void enqueue(const MetaRequest &Req, Callback Done);

  /// Fsync barrier: drains exactly the dependency closure of the target
  /// (the handle's ops for fsync(fh), everything when Fh == InvalidHandle
  /// with no path), then acks, surfacing any sticky flush error. Under
  /// eager discipline the barrier is whole-queue (ops are already applied
  /// in order; only commit drain remains).
  void fsync(const MetaRequest &Req, Callback Done);

  /// Issues the dependency closure \p Req needs and runs \p Ready once it
  /// has drained. Pair with needsDrain() before a pass-through operation.
  void drainFor(const MetaRequest &Req, std::function<void()> Ready);

  /// The handle to send for \p Fh: the server handle a queue-local handle
  /// resolved to once its creating open completed (after a drainFor).
  /// Identity for server handles; a failed or retired local handle maps to
  /// InvalidHandle so the inner client reports BadFd.
  FileHandle serverHandle(FileHandle Fh) const;

  /// Force-schedules everything currently queued (manual flush trigger).
  void flush();

  /// \name Observability
  /// @{
  const WriteBehindPolicy &policy() const { return Policy; }
  /// Locally-acked operations not yet finished at the server (queued,
  /// issued, or — eager — applied with the commit still draining).
  unsigned dirtyOps() const { return Live; }
  unsigned stalledOps() const { return static_cast<unsigned>(Stalled.size()); }
  uint64_t enqueuedOps() const { return Enqueued; }
  uint64_t coalescedOps() const { return Coalesced; }
  uint64_t issuedOps() const { return Issued; }
  uint64_t flushes() const { return Flushes; }
  uint64_t barriers() const { return Barriers; }
  /// Server-side failures of deferred ops observed at flush; each is
  /// sticky until a barrier reports it.
  uint64_t flushErrors() const { return FlushErrors; }
  /// The sticky error the next barrier will surface (Ok = none).
  FsError pendingError() const { return Sticky; }
  /// @}

private:
  /// One operation record, pooled: a deferred op lives in one from
  /// admission to completion. A record goes back to the pool with its
  /// strings' and vectors' buffers, so a queue at steady state allocates
  /// nothing.
  struct Op {
    uint64_t Id = 0; ///< 0 while not a live deferred op
    /// Xid pinned at enqueue; Fh is rewritten to the server handle at issue.
    MetaRequest Req;
    /// The queue-local handle Req names, or InvalidHandle.
    FileHandle LocalFh = InvalidHandle;
    enum class St { Queued, Scheduled, Issued } State = St::Queued;
    std::vector<uint64_t> Deps;       ///< live ops this one waits for
    std::vector<uint64_t> Dependents; ///< live ops waiting for this one
    unsigned PendingDeps = 0;
    std::vector<uint32_t> Waiters; ///< barriers (Awaits slots) waiting
    /// The queue-local handle a creating open minted (InvalidHandle for
    /// every other op), resolved when this op completes.
    FileHandle Minted = InvalidHandle;
    uint64_t Walk = 0; ///< the closure walk that last visited this op
  };

  /// A live op's record, by id.
  struct OpRef {
    uint64_t Id = 0;
    Op *Rec = nullptr;
  };

  /// An enqueue that arrived over the MaxQueuedOps cap, admitted in FIFO
  /// order as the pipeline drains. Its slot in the stall ring keeps the
  /// buffers of the requests that waited there before, and admission
  /// swaps the request into a record.
  struct StalledEnqueue {
    MetaRequest Req;
    Callback Done;
  };

  /// A barrier waiting for a dependency closure: a drain's continuation,
  /// or an fsync's completion, which acks with the sticky error.
  struct Await {
    size_t Remaining = 0; ///< closure ops not yet completed
    std::function<void()> Ready;
    Callback Synced;
  };

  /// The last live op on a path (LastByPath) or on a child of a directory
  /// (LastChildOf).
  struct PathOp {
    std::string Path;
    uint64_t Id = 0;
  };

  /// State of a queue-local file handle minted for a deferred creating
  /// open.
  struct LocalHandle {
    FileHandle Fh = InvalidHandle; ///< the queue-local handle
    uint64_t OpenOp = 0; ///< the creating open's op id (0 once done)
    /// Known after the open's reply; InvalidHandle then means the open
    /// failed at the server.
    FileHandle ServerFh = InvalidHandle;
    uint64_t LastOp = 0; ///< last live op on this handle (0 = none)
    uint64_t PathHash = 0; ///< fingerprint of the path the open named
  };

  /// A queue-local handle with a live write or ftruncate. Kept apart from
  /// LocalHandle so that a queue whose files see no stores pays nothing.
  struct StoringHandle {
    FileHandle Fh = InvalidHandle; ///< the queue-local handle
    uint64_t PathHash = 0;         ///< its LocalHandle's
    uint64_t LastStore = 0;        ///< its last live store
    /// The next older storing handle minted for the same path.
    FileHandle Older = InvalidHandle;
  };

  /// The newest storing handle minted for a path, keyed by the path's
  /// fingerprint; older ones follow StoringHandle::Older.
  struct NewestStoring {
    uint64_t PathHash = 0;
    FileHandle Fh = InvalidHandle;
  };

  static bool isLocalFh(FileHandle Fh) {
    return Fh != InvalidHandle && (Fh & LocalFhTag) != 0;
  }

  /// A record from the pool, reset, holding no live op.
  Op &takeRecord();
  void releaseRecord(Op &O) { FreeOps.push_back(&O); }
  /// The live op \p Id, or nullptr.
  Op *findOp(uint64_t Id) const {
    const OpRef *R = Ops.find(Id);
    return R ? R->Rec : nullptr;
  }

  /// Admits the enqueue waiting in \p O under the current discipline.
  void admit(Op &O, Callback Done);
  void enqueueDeferred(Op &O, Callback Done);
  void enqueueEager(Op &O, Callback Done);
  /// Folds \p Req into an existing queued op when the coalescing rules
  /// allow; returns true when absorbed.
  bool coalesce(const MetaRequest &Req);
  /// Adds a dependency edge From -> On when \p On is a live op.
  void addDep(Op &From, uint64_t On);
  /// Records \p O as the latest op touching its paths.
  void indexOp(const Op &O);
  /// Records store \p Id as the last live one on local handle \p H.
  void indexStore(const LocalHandle &H, uint64_t Id);
  /// Drops \p S, whose last store completed, from its path's handles.
  void unindexStore(StoringHandle &S);
  /// Drops the cached attributes queued \p Req makes stale: what
  /// AttrCache::invalidateForMutation() drops, and for a write or an
  /// ftruncate the entry of the file its handle names.
  void shadow(const MetaRequest &Req);
  /// The fingerprint of the path the file \p Fh names: a queue-local
  /// handle's own, a server handle's from the client's record
  /// (HandlePaths). nullopt when unknown.
  std::optional<uint64_t> filePathHash(FileHandle Fh) const;
  /// Predicted local reply for a deferred enqueue.
  static MetaReply predictReply(const MetaRequest &Req);
  /// Delivers \p Reply to \p Done after \p Delay. A reply with no more
  /// than a predicted one fills (Err, Fh, Bytes and an attribute mode)
  /// travels as those fields; any other waits in ParkedAcks. Either way
  /// the event needs no heap.
  void ackAfter(SimDuration Delay, Callback Done, const MetaReply &Reply);
  void localAck(Callback Done, const MetaReply &Reply) {
    ackAfter(Policy.LocalAckCost, std::move(Done), Reply);
  }
  void maybeTrigger();
  void armTimer();
  /// Marks every St::Queued op Scheduled and issues the ready ones.
  void scheduleAll();
  /// Issues the ops of \p Batch (ascending ids, just scheduled by a flush
  /// or a closure) whose dependencies have all completed. Exact because
  /// between entry points no op is Scheduled with zero pending deps:
  /// onOpDone issues each scheduled dependent it unblocks itself.
  void issueReady(const std::vector<uint64_t> &Batch);
  void issueOp(Op &O);
  void onOpDone(uint64_t Id, MetaReply Reply);
  void drainStalledAndBarriers();
  /// Calls \p F on each live seed op a barrier/drain on \p Req must wait
  /// for.
  template <typename Fn> void forEachSeed(const MetaRequest &Req, Fn &&F) const;
  /// Fills \p Closure with the live transitive dependency closure of the
  /// seeds of \p Req, in ascending id order.
  void closureOf(const MetaRequest &Req, std::vector<uint64_t> &Closure);
  /// Schedules the closure of \p Req's seeds and, when every op in it has
  /// completed, runs \p Ready or acks \p Synced with the sticky error.
  void awaitClosure(const MetaRequest &Req, std::function<void()> Ready,
                    Callback Synced);
  /// Ends barrier \p Slot, whose closure has drained.
  void releaseAwait(uint32_t Slot);
  /// Runs \p A's continuation, or acks its fsync.
  void finishAwait(Await &A);
  FsError consumeSticky();

  /// Queue-local handle tag: bit 62 set, clear of InvalidHandle (~0), far
  /// above any server handle at simulation scales.
  static constexpr FileHandle LocalFhTag = 1ULL << 62;

  Scheduler &Sched;
  WriteBehindPolicy Policy;
  WriteBehindHooks Hooks;

  FlatTable<OpRef, &OpRef::Id> Ops; ///< live deferred ops by id
  std::deque<Op> OpPool;            ///< every record; never moves one
  std::vector<Op *> FreeOps;        ///< records holding nothing
  uint64_t NextOpId = 1;
  uint64_t Walks = 0; ///< closure walks so far
  /// Ids enqueued since the last flush, ascending; a closure may have
  /// scheduled (or completed) some of them already. Empty whenever
  /// QueuedCount is 0.
  std::vector<uint64_t> QueuedIds;
  FlatTable<PathOp, &PathOp::Path> LastByPath;
  FlatTable<PathOp, &PathOp::Path> LastChildOf;
  FlatTable<LocalHandle, &LocalHandle::Fh> LocalFhs;
  FlatTable<StoringHandle, &StoringHandle::Fh> Storing;
  FlatTable<NewestStoring, &NewestStoring::PathHash> StoringOn;
  FileHandle NextLocalFh = LocalFhTag | 1;

  unsigned Live = 0;         ///< acked-not-finished (both disciplines)
  unsigned QueuedCount = 0;  ///< St::Queued ops (count trigger)
  uint64_t QueuedBytes = 0;  ///< queued write bytes (byte trigger)
  uint64_t TimerEpoch = 0;   ///< invalidates stale dwell timers
  bool TimerArmed = false;

  /// Local acks whose replies are more than their predicted fields,
  /// parked until their events fire.
  ReplyPark ParkedAcks;

  RingQueue<StalledEnqueue> Stalled; ///< enqueues over the cap
  std::vector<Callback> IdleWaiters; ///< whole-queue fsync barriers
  std::vector<Await> Awaits;         ///< targeted barriers, by slot
  std::vector<uint32_t> FreeAwaits;  ///< Awaits slots not in use
  /// Buffers the walks and batches borrow (a nested use finds them empty
  /// and allocates its own), so they allocate only while growing.
  std::vector<uint64_t> IdBuf, StackBuf;

  FsError Sticky = FsError::Ok;
  uint64_t Enqueued = 0;
  uint64_t Coalesced = 0;
  uint64_t Issued = 0;
  uint64_t Flushes = 0;
  uint64_t Barriers = 0;
  uint64_t FlushErrors = 0;
};

} // namespace dmb

#endif // DMETABENCH_DFS_WRITEBEHIND_H
