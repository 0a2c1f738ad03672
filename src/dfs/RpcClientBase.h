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
/// Construction goes through dfs/ClientBuilder.h, and the common
/// write-behind wiring every model used to copy lives in
/// mountWriteBehind() — the model constructors shrink to their
/// model-specific state.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_RPCCLIENTBASE_H
#define DMETABENCH_DFS_RPCCLIENTBASE_H

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
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace dmb {

class FileServer;

/// Base class managing RPC slots and the network round trip.
class RpcClientBase : public ClientFs {
protected:
  explicit RpcClientBase(const ClientBuilder &B)
      : Sched(B.sched()), Config(B.config()), ClientIdV(B.clientId()),
        Slots(Config.RpcSlots ? Config.RpcSlots : 1),
        ToServer(Sched, Config.Net), FromServer(Sched, Config.Net) {}

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
    /// Where the model routes the request: server, filer or shard index,
    /// and the volume id at that server. Single-server models leave them.
    unsigned Server = 0;
    uint32_t VolId = 0;

    /// \name Bookkeeping of RpcClientBase
    /// @{
    /// The record holding the operation's state: the record itself, or,
    /// for a retransmit, the first attempt's record. A retransmit gets a
    /// record of its own so that every attempt's reply travels on its own.
    Exchange *Op = nullptr;
    unsigned Attempt = 0; ///< retransmits so far (operation record)
    unsigned Refs = 0;    ///< scheduled events and continuations naming it
    bool Completed = false;
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
    X->Server = 0;
    X->VolId = 0;
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
    if (Config.Retry.enabled()) {
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
  /// error) arrives in X->Reply. Whoever took the RPC slot releases it,
  /// here or in X->Done. The default completes the operation.
  virtual void finish(Exchange *X) { complete(X); }

  /// Hands X->Reply to the caller's completion.
  void complete(Exchange *X) {
    Callback Done = std::move(X->Done);
    Done(std::move(X->Reply));
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

  /// Mounts \p WB behind \p Policy with the hook wiring every model used
  /// to spell out by hand: Issue routes one op through \p Issue (the
  /// client's normal RPC path), AllocXid pins (ClientId, Xid) at enqueue
  /// time, and — when \p Eager is non-null — ApplyEager applies eager-
  /// discipline ops at \p Eager under \p VolId with \p Cache kept
  /// coherent. No-op when the policy is disabled, so a client without
  /// write-behind carries only the null pointer.
  void mountWriteBehind(
      std::unique_ptr<WriteBehindQueue> &WB, const WriteBehindPolicy &Policy,
      std::function<void(const MetaRequest &, std::function<void(MetaReply)>)>
          Issue,
      FileServer *Eager = nullptr, uint32_t VolId = 0,
      AttrCache *Cache = nullptr);

  Scheduler &sched() { return Sched; }
  SimDuration oneWayLatency() const { return Config.Net.OneWayLatency; }

  /// Allocates a fresh transaction id. Clients that must know an
  /// operation's Xid before transact() — e.g. to re-issue the same
  /// operation to a different server after a partition-map redirect —
  /// pre-stamp the request with this and transact() keeps it.
  uint64_t allocXid() { return ++LastXid; }

public:
  /// Observability for tests, benches and the fault plan.
  unsigned inFlightRpcs() const { return InFlight; }
  size_t queuedRpcs() const { return Pending.size(); }
  const ClientConfig &clientConfig() const { return Config; }
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

  /// FIFO of requests waiting for a slot: a power-of-two ring over a
  /// vector, starting at zero capacity. The previous std::deque allocated
  /// its first ~0.5 KB chunk on construction — per client, which at 10^5+
  /// mounted nodes is tens of megabytes for queues that are empty almost
  /// always and almost everywhere.
  class PendingRing {
  public:
    bool empty() const { return Count == 0; }
    size_t size() const { return Count; }

    void push(PendingRpc Rpc) {
      if (Count == Ring.size())
        grow();
      Ring[(Head + Count) & (Ring.size() - 1)] = std::move(Rpc);
      ++Count;
    }

    PendingRpc pop() {
      PendingRpc Rpc = std::move(Ring[Head]);
      Head = (Head + 1) & (Ring.size() - 1);
      --Count;
      return Rpc;
    }

  private:
    void grow() {
      size_t NewCap = Ring.empty() ? 4 : Ring.size() * 2;
      std::vector<PendingRpc> Bigger(NewCap);
      for (size_t I = 0; I < Count; ++I)
        Bigger[I] = std::move(Ring[(Head + I) & (Ring.size() - 1)]);
      Ring = std::move(Bigger);
      Head = 0;
    }

    std::vector<PendingRpc> Ring;
    size_t Head = 0;
    size_t Count = 0;
  };

  SimDuration timeoutFor(unsigned Attempt) const {
    // The backoff train is computed step-by-step in integer sim-time: a
    // real client arms each timer from the previous timer's (tick-rounded)
    // value, so T_{i+1} = floor(T_i * F), saturating at MaxTimeout.
    // Accumulating the whole train in a double and casting once at the end
    // drifts from that sequence for non-power-of-two factors and can
    // overshoot for large attempt counts.
    SimDuration T = Config.Retry.Timeout;
    for (unsigned I = 0; I < Attempt; ++I) {
      T = static_cast<SimDuration>(static_cast<double>(T) *
                                   Config.Retry.BackoffFactor);
      if (T >= Config.Retry.MaxTimeout)
        return Config.Retry.MaxTimeout;
    }
    return T < Config.Retry.MaxTimeout ? T : Config.Retry.MaxTimeout;
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
    X->Done = nullptr;
    X->Attempt = 0;
    X->Completed = false;
    X->NextFree = FreeExchanges;
    FreeExchanges = X;
    if (Op != X)
      unref(Op);
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
      A->Server = Op->Server;
      A->VolId = Op->VolId;
      A->Op = Op;
      ++Op->Refs;
    }
    send(A);
    if (!Config.Retry.enabled())
      return;
    ++Op->Refs;
    Sched.after(timeoutFor(Op->Attempt), [this, Op]() {
      if (!Op->Completed) {
        if (Op->Attempt >= Config.Retry.MaxRetransmits) {
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
  ClientConfig Config;
  unsigned ClientIdV;
  unsigned Slots;
  NetworkLink ToServer;
  NetworkLink FromServer;
  unsigned InFlight = 0;
  uint64_t LastXid = 0;
  uint64_t Retransmits = 0;
  uint64_t TimedOutOps = 0;
  PendingRing Pending;
  std::vector<std::unique_ptr<Exchange>> Exchanges; ///< the record pool
  Exchange *FreeExchanges = nullptr;
};

} // namespace dmb

#endif // DMETABENCH_DFS_RPCCLIENTBASE_H
