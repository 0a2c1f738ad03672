//===- dfs/RpcClientBase.h - Slot-limited RPC client base -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for clients that issue RPCs over a bounded slot table
/// (the sunrpc request-slot limit). The slot limit is what caps intra-node
/// parallelism for protocol clients on large SMP machines (thesis \S 4.5):
/// processes beyond the slot count queue inside the client.
///
/// On top of the slot table sits transact(): one network round trip to the
/// server over a pair of (possibly faulty) NetworkLinks. With the default
/// RetryPolicy the exchange is a single fire-and-forget attempt — no timers,
/// no transaction ids, bit-identical to the pre-resilience client. With a
/// timeout configured the client retransmits with exponential backoff,
/// keeps its RPC slot across retries, reuses the same (ClientId, Xid) on
/// every attempt so the server's duplicate-request cache can recognise the
/// retransmit, and discards orphaned late replies.
///
/// Each RPC lives in one pooled Exchange record from the model's rpc() to
/// the caller's completion: the request is copied in once, the server
/// writes the reply into it, and the reply is moved out to the caller.
/// Every event and server continuation on the way captures only {this,
/// record}, so an RPC allocates nothing once the pool has warmed up. The
/// model supplies the two halves: dispatch() at the server, finish() back
/// at the client.
///
/// Above the exchange sits the client front end every model shares:
/// submit() is the one front door (it routes through the write-behind
/// queue mountWriteBehind() mounted, answers a fresh stat from the
/// attribute cache mountAttrCache() mounted, then hands the request to
/// the model's submitDirect()), finish() keeps that cache coherent with
/// every reply, failLocally() answers an error without leaving the
/// client, and ClientHandles is the client-local handle table of models
/// that talk to several servers. Construction goes through
/// dfs/ClientBuilder.h, so the model constructors shrink to their
/// model-specific state.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_RPCCLIENTBASE_H
#define DMETABENCH_DFS_RPCCLIENTBASE_H

#include "dfs/AttrCache.h"
#include "dfs/ClientBuilder.h"
#include "dfs/ClientConfig.h"
#include "dfs/ClientFs.h"
#include "dfs/Message.h"
#include "dfs/WriteBehind.h"
#include "sim/HappensBefore.h"
#include "sim/LockOrder.h"
#include "sim/Network.h"
#include "sim/Scheduler.h"
#include "sim/Trace.h"
#include "support/Assert.h"
#include "support/RingQueue.h"
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace dmb {

class FileServer;

/// The client-local file handles of a client that talks to several
/// servers (AFS volume servers, GX filers, shards). Each wraps the handle
/// one server issued, so handles from different servers cannot collide at
/// the client.
class ClientHandles {
public:
  /// Where a client-local handle leads.
  struct Target {
    unsigned Server = 0; ///< server, filer or shard that issued it
    uint32_t VolId = 0;  ///< its volume id at that server
    FileHandle ServerFh = InvalidHandle;
  };

  /// True when \p Req goes where its handle leads: it names a handle and
  /// is not an open (which names a path).
  static bool routesByHandle(const MetaRequest &Req) {
    return Req.Fh != InvalidHandle && Req.Op != MetaOp::Open;
  }

  /// Wraps \p ServerFh, which \p Server issued for volume \p VolId, in a
  /// new client-local handle.
  FileHandle wrap(unsigned Server, uint32_t VolId, FileHandle ServerFh) {
    FileHandle Local = NextLocalFh++;
    Targets.emplace(Local, Target{Server, VolId, ServerFh});
    return Local;
  }

  /// Where the client-local handle of \p Req, a handle-based request,
  /// leads (the caller sends the request with Target::ServerFh); a close
  /// retires it. nullopt when this client never issued the handle or a
  /// close already retired it.
  std::optional<Target> unwrap(const MetaRequest &Req) {
    auto It = Targets.find(Req.Fh);
    if (It == Targets.end())
      return std::nullopt;
    Target T = It->second;
    if (Req.Op == MetaOp::Close)
      Targets.erase(It);
    return T;
  }

private:
  std::unordered_map<FileHandle, Target> Targets;
  FileHandle NextLocalFh = 1;
};

/// Which replies fill a client's attribute cache.
enum class AttrFill {
  StatOnly, ///< stat and lstat (lustre, afs)
  PostOp,   ///< also open's and readdirplus's post-op attributes, as NFS's
};

/// Base class managing RPC slots and the network round trip.
class RpcClientBase : public ClientFs {
public:
  /// The front door of every RPC client. With a write-behind queue
  /// mounted, an fsync is the queue's barrier, a mutation it takes is
  /// acked from it, and a read around queued state first drains the
  /// dependency closure it can observe; what passes through reaches
  /// submitDirect() with queue-local handles translated, unless the
  /// attribute cache answers it first.
  void submit(const MetaRequest &Req, Callback Done) final;

  /// The write-behind queue, when mountWriteBehind() mounted one.
  const WriteBehindQueue *writeBehind() const { return WB.get(); }

  void dropCaches() override {
    if (Cache)
      Cache->clear();
  }
  CacheStats cacheStats() const final {
    return Cache ? CacheStats{Cache->hits(), Cache->misses()} : CacheStats{};
  }

protected:
  explicit RpcClientBase(const ClientBuilder &B)
      : Sched(B.sched()), Retry(B.config().Retry), ClientIdV(B.clientId()),
        Slots(B.config().RpcSlots ? B.config().RpcSlots : 1),
        ToServer(Sched, B.config().Net), FromServer(Sched, B.config().Net) {}

  /// Runs \p RpcFn once a slot is free. RpcFn must eventually call
  /// slotDone() exactly once. The slot grant is the operation's NetOut
  /// hop: the request leaves the client once it holds an RPC slot.
  void withSlot(std::function<void()> RpcFn) {
    uint64_t Ctx = Sched.activeTrace();
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onRequest(this, "RpcSlots", Ctx, Sched.now());
    if (InFlight < Slots) {
      ++InFlight;
      DMB_HB_WRITE(Sched, InFlight, "RpcClientBase.InFlight");
      if (LockOrderGraph *G = Sched.lockOrder())
        G->onGranted(this, Ctx);
      Sched.traceStamp(TracePoint::NetOut);
      RpcFn();
      return;
    }
    Pending.push(PendingRpc{std::move(RpcFn), Ctx});
  }

  /// Releases the slot taken by the current RPC and pumps the queue.
  void slotDone() {
    uint64_t Ctx = Sched.activeTrace();
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onReleased(this, Ctx);
    if (!Pending.empty()) {
      PendingRpc Next = Pending.pop();
      // The freed slot is handed to the queued request: everything the
      // finishing operation did happens-before the queued one resumes.
      if (HBTracker *T = Sched.happensBefore())
        T->syncEdge(Ctx, Next.Trace);
      if (LockOrderGraph *G = Sched.lockOrder())
        G->onGranted(this, Next.Trace);
      // The slot transfers to the queued request, which belongs to a
      // different operation than the one whose completion freed the slot.
      uint64_t Prev = Sched.swapActiveTrace(Next.Trace);
      Sched.after(0, [this, Fn = std::move(Next.Fn)]() {
        Sched.traceStamp(TracePoint::NetOut);
        Fn();
      });
      Sched.swapActiveTrace(Prev);
      return;
    }
    --InFlight;
    DMB_HB_WRITE(Sched, InFlight, "RpcClientBase.InFlight");
  }

  /// One RPC: the request, stored once, the reply the server writes, and
  /// the caller's completion. Records are pooled per client, created on
  /// demand and recycled once no scheduled event or server continuation
  /// names them; each of those captures only {this, record}.
  struct Exchange {
    MetaRequest Req; ///< sent on every attempt, with one (ClientId, Xid)
    MetaReply Reply; ///< written by the server, moved to the caller
    Callback Done;   ///< the caller's completion
    SimDuration SendExtra = 0;
    /// Where the model routes the request: the server's handle behind the
    /// client-local one a volume model's Req keeps, the server, filer or
    /// shard index, the volume id at that server, and the length of the
    /// mount prefix the volume models strip from Req's paths before the
    /// server sees them. Single-server models leave them.
    FileHandle ServerFh = InvalidHandle;
    unsigned Server = 0;
    uint32_t VolId = 0;
    uint32_t MountPrefixLen = 0;

    /// \name Bookkeeping of RpcClientBase
    /// @{
    /// Next to MountPrefixLen, so the two share one word: the record does
    /// not grow for the volume models.
    bool Completed = false;
    /// The record holding the operation's state: the record itself, or,
    /// for a retransmit, the first attempt's record. A retransmit gets a
    /// record of its own so that every attempt's reply travels on its own.
    Exchange *Op = nullptr;
    unsigned Attempt = 0; ///< retransmits so far (operation record)
    unsigned Refs = 0;    ///< scheduled events and continuations naming it
    Exchange *NextFree = nullptr;
    /// @}
  };

  /// Takes a record from the pool, creating one when none is free, for a
  /// new RPC of \p Req that completes through \p Done.
  Exchange *newExchange(const MetaRequest &Req, Callback Done) {
    Exchange *X = acquireExchange();
    X->Req = Req;
    X->Done = std::move(Done);
    X->SendExtra = 0;
    X->ServerFh = InvalidHandle;
    X->Server = 0;
    X->VolId = 0;
    X->MountPrefixLen = 0;
    X->Op = X;
    return X;
  }

  /// One client<->server exchange of \p X: request hop over this client's
  /// link (plus X->SendExtra, model-specific costs such as OSS object
  /// creation or VLDB lookups), dispatch() at the server, reply hop back,
  /// then finish().
  ///
  /// Fire-and-forget (Retry.Timeout == 0): a single attempt whose event
  /// chain and timing are identical to the historical
  /// `after(latency + extra) -> process -> after(latency)` sequence; a
  /// message lost to the fault policy hangs the operation, like a
  /// hard-mounted NFS client with retransmits disabled.
  ///
  /// Resilient (Retry.Timeout > 0): every attempt carries the same
  /// (ClientId, Xid); a timer retransmits on loss with exponential backoff
  /// capped at Retry.MaxTimeout, the RPC slot is held across retries, and
  /// once Retry.MaxRetransmits retransmits are exhausted the operation
  /// completes with FsError::TimedOut. Late replies of superseded attempts
  /// are discarded at delivery. Retransmit wait time shows up in trace.txt
  /// inside the NetOut->QueueEnter (request lost) or ServiceEnd->Deliver
  /// (reply lost) span of the operation.
  void transact(Exchange *X) {
    if (Retry.enabled()) {
      X->Req.ClientId = ClientIdV;
      // A caller-stamped Xid is kept (pinned): a client re-issuing a
      // redirected operation passes the original Xid so the destination
      // server's duplicate-request cache still recognises the op. Requests
      // built by the ordinary constructors carry Xid 0 and get a fresh one.
      if (!X->Req.Xid)
        X->Req.Xid = ++LastXid;
    }
    startAttempt(X);
  }

  /// Server half of an exchange: delivers X->Req to the server the model
  /// routes it to. The server must answer each call exactly once, by
  /// filling X->Reply and calling serverReply(X) (or through replyTo(X)).
  virtual void dispatch(Exchange *X) = 0;

  /// Client half: runs once per operation, when its reply (or a TimedOut
  /// error) arrives in X->Reply. The default settles the attribute cache
  /// with the reply, releases the RPC slot and completes the operation;
  /// an override adds the model's reply handling, then calls it.
  virtual void finish(Exchange *X) {
    settle(X->Req, X->Reply);
    slotDone();
    complete(X);
  }

  /// The model's path for a request submit() lets through: every request
  /// on a client without write-behind, and each op the queue issues.
  virtual void submitDirect(const MetaRequest &Req, Callback Done) = 0;

  /// Hands X->Reply to the caller's completion.
  void complete(Exchange *X) {
    Callback Done = std::move(X->Done);
    Done(std::move(X->Reply));
  }

  /// Answers \p Done with \p Err without leaving the client: requests
  /// that cannot be routed, or that name a handle this client never
  /// issued.
  void failLocally(FsError Err, Callback Done) {
    Sched.after(0, [Err, Done = std::move(Done)]() {
      MetaReply Reply;
      Reply.Err = Err;
      Done(std::move(Reply));
    });
  }

  /// The server answered attempt \p X: the reply hop back to this client.
  void serverReply(Exchange *X) {
    NetworkLink::Delivery RD = FromServer.plan(0);
    if (RD.Dropped) {
      unref(X); // reply lost; a resilient client's timer recovers
      return;
    }
    Sched.after(RD.Delay, [this, X]() { deliver(X); });
  }

  /// A server continuation for APIs that answer with a MetaReply value.
  auto replyTo(Exchange *X) {
    return [this, X](MetaReply R) {
      X->Reply = std::move(R);
      serverReply(X);
    };
  }

  /// Mounts the attribute cache, before mountWriteBehind(): entries expire
  /// after \p Ttl (0: never), a stat they answer takes \p HitCost, and
  /// settle() keeps them coherent with every reply.
  void mountAttrCache(SimDuration Ttl, SimDuration HitCost, AttrFill F) {
    DMB_ASSERT(!WB, "mount the attribute cache before the write-behind queue");
    Cache.emplace(Ttl);
    CacheHitCost = HitCost;
    Fill = F;
  }

  /// Mounts the write-behind queue submit() routes through, behind
  /// \p Policy: Issue sends one op through submitDirect(), AllocXid pins
  /// (ClientId, Xid) at enqueue time, and — when \p Eager is non-null —
  /// ApplyEager applies eager-discipline ops at \p Eager under \p VolId
  /// with the attribute cache kept coherent. No-op when the policy is
  /// disabled, so a client without write-behind carries only the null
  /// pointer.
  void mountWriteBehind(const WriteBehindPolicy &Policy,
                        FileServer *Eager = nullptr, uint32_t VolId = 0);

  /// The attribute cache, when mountAttrCache() mounted one.
  AttrCache *attrCache() { return Cache ? &*Cache : nullptr; }
  /// The fingerprint of the path the open handle \p Fh names, as this
  /// client's caller holds it (HandlePaths); nullopt when unknown.
  std::optional<uint64_t> openPathHash(FileHandle Fh) const {
    return Paths.pathHash(Fh);
  }

  Scheduler &sched() { return Sched; }

  /// Allocates a fresh transaction id. Clients that must know an
  /// operation's Xid before transact() — e.g. to re-issue the same
  /// operation to a different server after a partition-map redirect —
  /// pre-stamp the request with this and transact() keeps it.
  uint64_t allocXid() { return ++LastXid; }

public:
  /// Observability for tests, benches and the fault plan.
  unsigned inFlightRpcs() const { return InFlight; }
  size_t queuedRpcs() const { return Pending.size(); }
  unsigned rpcClientId() const { return ClientIdV; }
  uint64_t retransmits() const { return Retransmits; }
  uint64_t timedOutOps() const { return TimedOutOps; }
  NetworkLink &requestLink() { return ToServer; }
  NetworkLink &replyLink() { return FromServer; }

  /// Installs \p P on both directions of this client's path. Fault rolls
  /// are keyed by send time, and a request and its reply never travel in
  /// the same nanosecond, so the two directions roll independent dice.
  void setFaultPolicy(const FaultPolicy &P) {
    ToServer.setFaultPolicy(P);
    FromServer.setFaultPolicy(P);
  }

private:
  struct PendingRpc {
    std::function<void()> Fn;
    uint64_t Trace = 0; ///< trace id of the queued operation
  };

  SimDuration timeoutFor(unsigned Attempt) const {
    // The backoff train is computed step-by-step in integer sim-time: a
    // real client arms each timer from the previous timer's (tick-rounded)
    // value, so T_{i+1} = floor(T_i * F), saturating at MaxTimeout.
    // Accumulating the whole train in a double and casting once at the end
    // drifts from that sequence for non-power-of-two factors and can
    // overshoot for large attempt counts.
    SimDuration T = Retry.Timeout;
    for (unsigned I = 0; I < Attempt; ++I) {
      T = static_cast<SimDuration>(static_cast<double>(T) *
                                   Retry.BackoffFactor);
      if (T >= Retry.MaxTimeout)
        return Retry.MaxTimeout;
    }
    return T < Retry.MaxTimeout ? T : Retry.MaxTimeout;
  }

  /// Hands \p Req to submitDirect() unless the attribute cache answers it.
  void direct(const MetaRequest &Req, Callback Done) {
    if (!answerFromCache(Req, Done))
      submitDirect(Req, std::move(Done));
  }

  /// Answers a stat or lstat of \p Req from the attribute cache after its
  /// hit cost when it holds fresh attributes for the path, taking \p Done;
  /// returns false, leaving \p Done alone, otherwise. The reply waits in
  /// a pooled exchange record, so the event captures only {this, record}
  /// and allocates nothing.
  [[nodiscard]] bool answerFromCache(const MetaRequest &Req, Callback &Done) {
    if (!Cache || (Req.Op != MetaOp::Stat && Req.Op != MetaOp::Lstat))
      return false;
    std::optional<Attr> A = Cache->lookup(Req.Path, Sched.now());
    if (!A)
      return false;
    Exchange *X = acquireExchange();
    X->Reply = MetaReply();
    X->Reply.A = *A;
    X->Done = std::move(Done);
    Sched.after(CacheHitCost, [this, X]() {
      Callback Done = std::move(X->Done);
      MetaReply Reply = std::move(X->Reply);
      recycle(X);
      Done(std::move(Reply));
    });
    return true;
  }

  /// Fills the attribute cache from \p Reply to \p Req, or drops what the
  /// mutation made stale, and keeps the handle record.
  void settle(const MetaRequest &Req, const MetaReply &Reply);
  /// The handle record's part of settle(): a successful open records the
  /// path its handle names, a close retires the handle.
  void trackHandle(const MetaRequest &Req, const MetaReply &Reply) {
    if (Req.Op == MetaOp::Open && Reply.ok())
      Paths.record(Reply.Fh, Req.Path);
    else if (Req.Op == MetaOp::Close)
      Paths.retire(Req.Fh);
  }

  Exchange *acquireExchange() {
    if (!FreeExchanges) {
      Exchanges.push_back(std::make_unique<Exchange>());
      return Exchanges.back().get();
    }
    Exchange *X = FreeExchanges;
    FreeExchanges = X->NextFree;
    return X;
  }

  /// Drops one reference to \p X. A record goes back to the pool once
  /// nothing names it: an attempt record then, an operation record only
  /// after it completed (an operation whose message was lost without a
  /// retransmit timer stays pending, like before).
  void unref(Exchange *X) {
    if (--X->Refs != 0 || (X->Op == X && !X->Completed))
      return;
    Exchange *Op = X->Op;
    recycle(X);
    if (Op != X)
      unref(Op);
  }

  /// Puts \p X back into the pool.
  void recycle(Exchange *X) {
    X->Done = nullptr;
    X->Attempt = 0;
    X->Completed = false;
    X->NextFree = FreeExchanges;
    FreeExchanges = X;
  }

  /// Sends one attempt: the request hop to dispatch().
  void send(Exchange *A) {
    ++A->Refs;
    NetworkLink::Delivery D = ToServer.plan(0);
    if (D.Dropped) {
      unref(A); // request lost; a resilient client's timer recovers
      return;
    }
    Sched.after(D.Delay + A->SendExtra, [this, A]() { dispatch(A); });
  }

  void startAttempt(Exchange *Op) {
    Exchange *A = Op;
    if (Op->Attempt > 0) {
      A = acquireExchange();
      A->Req = Op->Req;
      A->SendExtra = Op->SendExtra;
      A->ServerFh = Op->ServerFh;
      A->Server = Op->Server;
      A->VolId = Op->VolId;
      A->MountPrefixLen = Op->MountPrefixLen;
      A->Op = Op;
      ++Op->Refs;
    }
    send(A);
    if (!Retry.enabled())
      return;
    ++Op->Refs;
    Sched.after(timeoutFor(Op->Attempt), [this, Op]() {
      if (!Op->Completed) {
        if (Op->Attempt >= Retry.MaxRetransmits) {
          Op->Completed = true;
          ++TimedOutOps;
          Op->Reply = MetaReply();
          Op->Reply.Err = FsError::TimedOut;
          finish(Op);
        } else {
          ++Op->Attempt;
          ++Retransmits;
          startAttempt(Op);
        }
      }
      unref(Op);
    });
  }

  /// The reply of attempt \p A reached this client.
  void deliver(Exchange *A) {
    Exchange *Op = A->Op;
    if (!Op->Completed) { // else an orphan reply of a superseded attempt
      Op->Completed = true;
      if (A != Op)
        Op->Reply = std::move(A->Reply);
      finish(Op);
    }
    unref(A);
  }

  Scheduler &Sched;
  /// The client's retry policy; the links keep their own copy of the
  /// network configuration, and the models their write-behind policy.
  RetryPolicy Retry;
  unsigned ClientIdV;
  unsigned Slots;
  NetworkLink ToServer;
  NetworkLink FromServer;
  unsigned InFlight = 0;
  uint64_t LastXid = 0;
  uint64_t Retransmits = 0;
  uint64_t TimedOutOps = 0;
  RingQueue<PendingRpc> Pending; ///< requests waiting for a slot
  std::vector<std::unique_ptr<Exchange>> Exchanges; ///< the record pool
  Exchange *FreeExchanges = nullptr;
  std::optional<AttrCache> Cache;
  SimDuration CacheHitCost = 0;
  AttrFill Fill = AttrFill::StatOnly;
  HandlePaths Paths; ///< kept only with a cache, which it serves
  std::unique_ptr<WriteBehindQueue> WB;
};

} // namespace dmb

#endif // DMETABENCH_DFS_RPCCLIENTBASE_H
