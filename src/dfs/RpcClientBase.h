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

  /// Server-side half of an exchange: receives the (xid-stamped) request
  /// and must eventually run the reply continuation exactly once per call.
  using DispatchFn =
      std::function<void(const MetaRequest &, std::function<void(MetaReply)>)>;

  /// One client<->server exchange: request hop over this client's link,
  /// \p Dispatch at the server, reply hop back, then \p OnReply. The
  /// request message spends \p SendExtra on top of the link delay
  /// (model-specific costs such as OSS object creation or VLDB lookups).
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
  void transact(const MetaRequest &Req, SimDuration SendExtra,
                DispatchFn Dispatch, std::function<void(MetaReply)> OnReply) {
    if (!Config.Retry.enabled()) {
      // Single-attempt path. plan() keeps the traffic counters truthful;
      // with no faults configured it cannot drop and adds no jitter, so
      // the schedule is bit-identical to the fire-and-forget client.
      NetworkLink::Delivery D = ToServer.plan(0);
      if (D.Dropped)
        return;
      Sched.after(D.Delay + SendExtra,
                  [this, Req, Dispatch = std::move(Dispatch),
                   OnReply = std::move(OnReply)]() mutable {
                    Dispatch(Req, [this, OnReply = std::move(OnReply)](
                                      MetaReply Reply) mutable {
                      NetworkLink::Delivery RD = FromServer.plan(0);
                      if (RD.Dropped)
                        return;
                      Sched.after(RD.Delay,
                                  [OnReply = std::move(OnReply),
                                   Reply = std::move(Reply)]() mutable {
                                    OnReply(std::move(Reply));
                                  });
                    });
                  });
      return;
    }
    auto Ex = std::make_shared<Exchange>();
    Ex->Req = Req;
    Ex->Req.ClientId = ClientIdV;
    // A caller-stamped Xid is kept (pinned): a client re-issuing a
    // redirected operation passes the original Xid so the destination
    // server's duplicate-request cache still recognises the op. Requests
    // built by the ordinary constructors carry Xid 0 and get a fresh one.
    Ex->Req.Xid = Req.Xid ? Req.Xid : ++LastXid;
    Ex->SendExtra = SendExtra;
    Ex->Dispatch = std::move(Dispatch);
    Ex->OnReply = std::move(OnReply);
    startAttempt(std::move(Ex));
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

  /// Retry state shared by the attempts of one logical operation.
  struct Exchange {
    MetaRequest Req; ///< same Xid on every attempt
    SimDuration SendExtra = 0;
    DispatchFn Dispatch;
    std::function<void(MetaReply)> OnReply;
    bool Completed = false;
    unsigned Attempt = 0; ///< retransmits so far
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

  void startAttempt(std::shared_ptr<Exchange> Ex) {
    NetworkLink::Delivery D = ToServer.plan(0);
    if (!D.Dropped)
      Sched.after(D.Delay + Ex->SendExtra, [this, Ex]() {
        Ex->Dispatch(Ex->Req, [this, Ex](MetaReply Reply) {
          NetworkLink::Delivery RD = FromServer.plan(0);
          if (RD.Dropped)
            return; // reply lost; the retransmit timer recovers
          Sched.after(RD.Delay, [Ex, Reply = std::move(Reply)]() mutable {
            if (Ex->Completed)
              return; // orphan reply of a superseded attempt
            Ex->Completed = true;
            Ex->OnReply(std::move(Reply));
          });
        });
      });
    Sched.after(timeoutFor(Ex->Attempt), [this, Ex]() {
      if (Ex->Completed)
        return;
      if (Ex->Attempt >= Config.Retry.MaxRetransmits) {
        Ex->Completed = true;
        ++TimedOutOps;
        MetaReply R;
        R.Err = FsError::TimedOut;
        Ex->OnReply(std::move(R));
        return;
      }
      ++Ex->Attempt;
      ++Retransmits;
      startAttempt(Ex);
    });
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
};

} // namespace dmb

#endif // DMETABENCH_DFS_RPCCLIENTBASE_H
