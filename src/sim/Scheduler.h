//===- sim/Scheduler.h - Discrete-event scheduler ----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discrete-event scheduler every simulated component runs on. Events at
/// equal timestamps fire in insertion order, which makes whole benchmark
/// runs deterministic (DESIGN.md, key decision 4).
///
/// The pending queue is the 4-ary heap of sim/EventQueue.h.
///
/// The scheduler is also the anchor of the runtime invariant checks: it
/// feeds the simulated clock and event ordinal into DMB_ASSERT failure
/// reports, and at quiescence (queue drained) it asks every registered
/// primitive whether it leaked state — see SimDiagnostics.
///
/// Three opt-in concurrency analyzers hang off the scheduler (DESIGN.md,
/// "Concurrency correctness"): a seeded tie-break perturbation that
/// permutes same-timestamp event order (any such permutation is a legal
/// schedule, because an event scheduled *by* a running event only enters
/// the queue after its cause executed), a lock-order graph fed by every
/// SimMutex/Resource/SharedProcessor/RPC-slot acquisition, and a
/// happens-before tracker driven by vector clocks at event boundaries.
/// All three are off by default and cost one null-pointer check when off.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_SCHEDULER_H
#define DMETABENCH_SIM_SCHEDULER_H

#include "sim/EventQueue.h"
#include "sim/InplaceFunction.h"
#include "sim/SimDiagnostics.h"
#include "sim/Time.h"
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace dmb {

class OpTraceSink;
enum class TracePoint : uint8_t;
class LockOrderGraph;
class HBTracker;

/// Handle to one scheduled event, returned by at()/after() and accepted
/// by cancel(). The generation makes handles single-use: once the event
/// fires or is cancelled, the handle goes stale and cancel() is a no-op.
/// Default-constructed handles are invalid (cancel() ignores them).
struct EventId {
  static constexpr uint32_t NoSlot = ~0u;
  uint32_t Slot = NoSlot;
  uint32_t Gen = 0;
  bool valid() const { return Slot != NoSlot; }
};

/// Single-threaded event loop over simulated time.
///
/// The hot path is allocation-free at steady state: actions live in a
/// 64-byte small-buffer callback (sim/InplaceFunction.h), events are
/// pooled and recycled through a free list, and the pending queue holds
/// 32-byte (time, tie-key, seq, slot, gen) entries — so pushing and
/// popping never moves callback storage around.
class Scheduler {
public:
  /// Move-only SBO callback: captures up to 64 bytes stay inline;
  /// larger closures fall back to a heap box.
  using Action = InplaceFunction<void(), 64>;
  /// Inspects one primitive's state at quiescence and reports leaks.
  using QuiescenceCheck = std::function<void(SimDiagnostics &)>;

  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Current simulated time.
  SimTime now() const { return Now; }

  /// Schedules \p Fn to run at absolute time \p When. Scheduling into the
  /// past would silently reorder history, so When < now() is a fatal
  /// invariant violation (use after() for clamped relative delays).
  ///
  /// \p When is strongly typed (sim/Time.h): SimTime and signed integral
  /// expressions convert, but unsigned and floating-point arguments are
  /// compile errors — they silently truncate or wrap to wrong times.
  ///
  /// Takes the callable by forwarding reference and constructs it directly
  /// in a pooled event slot: the closure is built exactly once, with no
  /// intermediate Action temporary and no relocation on the way in.
  ///
  /// Returns a handle for cancel(); discarding it is fine and free.
  template <typename F> EventId at(SimTimeArg When, F &&Fn) {
    DMB_ASSERT(When.Value >= Now, "cannot schedule into the past");
    uint32_t Slot = acquireSlot();
    Pool[Slot].Trace = ActiveTrace;
    Pool[Slot].Fn.emplace(std::forward<F>(Fn));
    uint64_t Seq = NextSeq++;
    uint64_t Tie = PerturbSeed ? mixTieKey(PerturbSeed, Seq) : Seq;
    Queue.push(EventQueueEntry{eventOrderKey(When.Value, Tie), Seq, Slot,
                               Pool[Slot].Gen});
    return EventId{Slot, Pool[Slot].Gen};
  }

  /// Schedules \p Fn to run \p Delay from now. Negative delays clamp to 0.
  /// \p Delay is strongly typed exactly like at()'s time argument.
  template <typename F> EventId after(SimDurationArg Delay, F &&Fn) {
    return at(Now + (Delay.Value < 0 ? 0 : Delay.Value),
              std::forward<F>(Fn));
  }

  /// Cancels a pending event. The payload (the captured closure, and any
  /// shared state it pins) is destroyed immediately — not when the queue
  /// entry would have surfaced, which for a far-horizon timer can be
  /// arbitrarily later — and the pool slot is recycled at once. Only the
  /// 32-byte queue entry stays behind, as a tombstone dropped when it
  /// reaches the front. Returns false (and does nothing) if the handle is
  /// invalid, stale, or the event already fired.
  bool cancel(EventId Id);

  /// Runs events until the queue is empty, then records a quiescence
  /// report (see lastDiagnostics()).
  void run();

  /// Runs events with timestamps <= \p Deadline, then sets now() to
  /// \p Deadline (if it advanced that far).
  void runUntil(SimTime Deadline);

  /// Executes the single earliest event. Returns false if none pending.
  bool step();

  /// Number of events waiting to fire (cancelled tombstones excluded).
  size_t pendingEvents() const { return Queue.size() - Tombstones; }

  /// Capacity of the event pool (high-water mark of pending events).
  /// Steady-state stepping allocates only when the pending set grows past
  /// every previous peak; tests pin this. Cancelled events release their
  /// slot immediately, so schedule/cancel churn at far horizons does not
  /// grow the pool either.
  size_t eventPoolCapacity() const { return Pool.size(); }

  /// Total events executed so far (for tests and stats).
  uint64_t executedEvents() const { return Executed; }

  /// Registers a primitive's quiescence check; returns a handle for
  /// removeQuiescenceCheck(). Checks run in registration order.
  uint64_t addQuiescenceCheck(QuiescenceCheck Fn);

  /// Unregisters a check (primitives do this on destruction). Amortized
  /// O(log n): tearing down a big cluster removes every check.
  void removeQuiescenceCheck(uint64_t Id);

  /// Runs every registered check and returns the collected report. Never
  /// aborts: a locked mutex at quiescence is legal mid-scenario (tests
  /// drive the scheduler in stages), so leaks are reported, not fatal.
  SimDiagnostics checkQuiescent() const;

  /// The report recorded by the most recent run() (or a runUntil() that
  /// drained the queue).
  const SimDiagnostics &lastDiagnostics() const { return LastDiag; }

  /// \name Operation tracing (sim/Trace.h)
  ///
  /// The scheduler is the single clock source for trace records, and it
  /// propagates the "current operation" through the event graph: at()
  /// captures the active trace id into the new event, and step() restores
  /// it while the event runs. Components whose internal queues decouple
  /// scheduling context from causality (Resource, RPC slots, mutex
  /// waiters) carry the id alongside each queued item and swap it back in
  /// with swapActiveTrace() when they resume the work.
  ///
  /// All calls are no-ops (and traceBegin returns 0) without a sink.
  /// Recording never schedules events, so tracing cannot perturb timing.
  /// @{

  /// Attaches \p Sink (nullptr detaches). Not owned.
  void setTraceSink(OpTraceSink *Sink) { Trace = Sink; }
  OpTraceSink *traceSink() const { return Trace; }

  /// Opens a record for one operation named \p Op (a static string),
  /// stamps its Submit point at now() and makes it the active trace.
  uint64_t traceBegin(const char *Op);

  /// Stamps \p P at now() for the active trace.
  void traceStamp(TracePoint P);

  /// Stamps \p P at now() for the explicit record \p Id.
  void traceStampOn(uint64_t Id, TracePoint P);

  /// Stamps reply delivery for \p Id and deactivates it if active.
  void traceFinish(uint64_t Id);

  /// The operation the currently running event belongs to (0 = none).
  uint64_t activeTrace() const { return ActiveTrace; }

  /// Replaces the active trace id, returning the previous one. Callers
  /// restore the previous id once the events they schedule on behalf of
  /// \p Id have been created.
  uint64_t swapActiveTrace(uint64_t Id) {
    uint64_t Prev = ActiveTrace;
    ActiveTrace = Id;
    return Prev;
  }
  /// @}

  /// \name Schedule perturbation (sim/ScheduleVerify.h)
  ///
  /// With perturbation enabled, same-timestamp ties are broken by a seeded
  /// pseudo-random key instead of insertion order. Seed 0 is the identity
  /// permutation: the tie key *is* the insertion ordinal, so behavior is
  /// bit-identical to the default scheduler. The seed never leaks into
  /// results or diagnostics, only into tie order.
  /// @{

  /// Selects the tie-break policy. Must be called before any event is
  /// scheduled (enabling mid-run would re-key only future events and make
  /// the schedule depend on the enable point).
  void enableSchedulePerturbation(uint64_t Seed);

  /// True once enableSchedulePerturbation() ran with a nonzero seed.
  bool perturbingSchedules() const { return PerturbSeed != 0; }

  /// One executed event, as recorded by the journal: the fire time, the
  /// insertion ordinal and the trace context it ran under. Two runs of the
  /// same scenario executed the same schedule iff their journals match.
  struct JournalEntry {
    SimTime When = 0;
    uint64_t Seq = 0;
    uint64_t Trace = 0;
    bool operator==(const JournalEntry &) const = default;
  };

  /// Starts recording every executed event (for schedule comparison).
  void enableEventJournal() { Journal = true; }
  const std::vector<JournalEntry> &eventJournal() const { return JournalLog; }
  /// @}

  /// \name Concurrency analyzers (sim/LockOrder.h, sim/HappensBefore.h)
  ///
  /// Both are owned by the scheduler so the sync primitives can feed them
  /// without extra wiring, and both register quiescence checks so their
  /// findings land in the standard diagnostics channel. Null when off.
  /// @{
  void enableLockOrderAnalysis();
  LockOrderGraph *lockOrder() const { return LockGraph.get(); }
  void enableHappensBeforeTracking();
  HBTracker *happensBefore() const { return HB.get(); }
  /// @}

private:
  /// Pooled event payload: the callback plus the trace context it runs
  /// under. Slots are recycled through FreeSlots, so the pool stops
  /// growing once the pending set reaches its high-water mark. Gen counts
  /// releases of the slot (fire or cancel); queue entries carry the
  /// generation they were scheduled under, which is how stale tombstones
  /// of cancelled events are recognized.
  struct Event {
    uint64_t Trace = 0;
    uint32_t Gen = 0;
    Action Fn;
  };

  /// Pops a recycled payload slot, growing the pool only when the pending
  /// set exceeds every previous peak.
  uint32_t acquireSlot() {
    if (!FreeSlots.empty()) {
      uint32_t S = FreeSlots.back();
      FreeSlots.pop_back();
      return S;
    }
    Pool.emplace_back();
    return static_cast<uint32_t>(Pool.size() - 1);
  }

  /// Invalidates outstanding EventIds/queue entries for the slot and
  /// returns it to the free list.
  void releaseSlot(uint32_t Slot) {
    ++Pool[Slot].Gen;
    FreeSlots.push_back(Slot);
  }

  /// The front live entry, dropping any cancelled tombstones that have
  /// surfaced. Null iff nothing is pending.
  const EventQueueEntry *peekLive();

  /// splitmix64 finalizer: cheap, well-mixed, and fully determined by the
  /// (Seed, Seq) pair, so a given seed always yields the same permutation.
  static uint64_t mixTieKey(uint64_t Seed, uint64_t Seq) {
    uint64_t X = Seq + Seed * 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  }

  SimTime Now = 0;
  uint64_t NextSeq = 0;
  uint64_t Executed = 0;
  OpTraceSink *Trace = nullptr;
  uint64_t ActiveTrace = 0;
  HeapEventQueue Queue;    ///< pending entries (sim/EventQueue.h)
  size_t Tombstones = 0;   ///< cancelled entries still inside Queue
  std::vector<Event> Pool; ///< payload slots addressed by queue entries
  std::vector<uint32_t> FreeSlots;
  uint64_t NextCheckId = 0;
  /// In registration order, which is id order, so removal can binary
  /// search. A removed check leaves an empty function behind until the
  /// dead entries make up half the vector and are swept out together.
  std::vector<std::pair<uint64_t, QuiescenceCheck>> QuiescenceChecks;
  size_t DeadChecks = 0;
  SimDiagnostics LastDiag;
  uint64_t PerturbSeed = 0;
  bool Journal = false;
  std::vector<JournalEntry> JournalLog;
  std::unique_ptr<LockOrderGraph> LockGraph;
  std::unique_ptr<HBTracker> HB;
};

} // namespace dmb

#endif // DMETABENCH_SIM_SCHEDULER_H
