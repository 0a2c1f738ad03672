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
#include "sim/Scheduler.h"
#include "support/StringHash.h"
#include <deque>
#include <functional>
#include <set>
#include <string>
#include <unordered_map>
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

  /// Rewrites a queue-local file handle to the server handle once the
  /// creating open has resolved (after a drainFor). Identity for server
  /// handles; a failed or retired local handle maps to InvalidHandle so
  /// the inner client reports BadFd.
  MetaRequest translate(const MetaRequest &Req) const;

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
  [[nodiscard]] FsError pendingError() const { return Sticky; }
  /// @}

private:
  struct Op {
    uint64_t Id = 0;
    MetaRequest Req; ///< Xid pinned at enqueue; Fh may be queue-local
    enum class St { Queued, Scheduled, Issued } State = St::Queued;
    std::vector<uint64_t> Deps;       ///< live ops this one waits for
    std::vector<uint64_t> Dependents; ///< live ops waiting for this one
    unsigned PendingDeps = 0;
    std::vector<std::function<void()>> Waiters; ///< barrier continuations
    /// The queue-local handle a creating open minted (InvalidHandle for
    /// every other op), resolved when this op completes.
    FileHandle Minted = InvalidHandle;
  };

  /// An enqueue that arrived over the MaxQueuedOps cap, admitted in FIFO
  /// order as the pipeline drains.
  struct StalledEnqueue {
    MetaRequest Req;
    Callback Done;
  };

  /// State of a queue-local file handle minted for a deferred creating
  /// open.
  struct LocalHandle {
    uint64_t OpenOp = 0; ///< the creating open's op id (0 once done)
    FileHandle ServerFh = InvalidHandle; ///< known after the open's reply
    uint64_t LastOp = 0; ///< last live op on this handle (0 = none)
    bool Failed = false; ///< the open failed at the server
  };

  static bool isLocalFh(FileHandle Fh) {
    return Fh != InvalidHandle && (Fh & LocalFhTag) != 0;
  }

  void enqueueDeferred(MetaRequest Req, Callback Done);
  void enqueueEager(const MetaRequest &Req, Callback Done);
  /// Folds \p Req into an existing queued op when the coalescing rules
  /// allow; returns true when absorbed.
  bool coalesce(const MetaRequest &Req);
  /// Adds a dependency edge From -> On when \p On is a live op.
  void addDep(Op &From, uint64_t On);
  /// Records \p O as the latest op touching its paths.
  void indexOp(const Op &O);
  /// Predicted local reply for a deferred enqueue.
  [[nodiscard]] MetaReply predictReply(const MetaRequest &Req);
  void localAck(Callback Done, MetaReply Reply);
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
  /// Live transitive dependency closure of the seed set.
  std::set<uint64_t> closureOf(std::vector<uint64_t> Seeds) const;
  /// Seed ops a barrier/drain on \p Req must wait for.
  std::vector<uint64_t> seedsFor(const MetaRequest &Req) const;
  /// Schedules the closure of \p Seeds and runs \p Done when every op in
  /// it has completed.
  void awaitClosure(std::vector<uint64_t> Seeds, std::function<void()> Done);
  [[nodiscard]] FsError consumeSticky();

  /// Queue-local handle tag: bit 62 set, clear of InvalidHandle (~0), far
  /// above any server handle at simulation scales.
  static constexpr FileHandle LocalFhTag = 1ULL << 62;

  Scheduler &Sched;
  WriteBehindPolicy Policy;
  WriteBehindHooks Hooks;

  std::unordered_map<uint64_t, Op> Ops; ///< live deferred ops by id
  uint64_t NextOpId = 1;
  /// Ids enqueued since the last flush, ascending; a closure may have
  /// scheduled (or completed) some of them already. Empty whenever
  /// QueuedCount is 0.
  std::vector<uint64_t> QueuedIds;
  StringMap<uint64_t> LastByPath;  ///< path -> last live op on it
  StringMap<uint64_t> LastChildOf; ///< dir -> last live op on a child
  std::unordered_map<FileHandle, LocalHandle> LocalFhs;
  FileHandle NextLocalFh = LocalFhTag | 1;

  unsigned Live = 0;         ///< acked-not-finished (both disciplines)
  unsigned QueuedCount = 0;  ///< St::Queued ops (count trigger)
  uint64_t QueuedBytes = 0;  ///< queued write bytes (byte trigger)
  uint64_t TimerEpoch = 0;   ///< invalidates stale dwell timers
  bool TimerArmed = false;

  std::deque<StalledEnqueue> Stalled; ///< enqueues over the cap
  std::vector<std::function<void()>> IdleWaiters; ///< whole-queue barriers

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
