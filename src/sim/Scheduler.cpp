//===- sim/Scheduler.cpp --------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/Scheduler.h"
#include "sim/HappensBefore.h"
#include "sim/LockOrder.h"
#include "sim/Trace.h"
#include "support/Assert.h"
#include <algorithm>

using namespace dmb;

// The scheduler whose clock/event ordinal DMB_ASSERT failures report.
// Single-threaded simulation: the most recently constructed (or stepped)
// scheduler is the active one.
static Scheduler *ActiveScheduler = nullptr;

static bool schedulerAssertContext(AssertSimContext &Ctx) {
  if (!ActiveScheduler)
    return false;
  Ctx.TimeNs = ActiveScheduler->now();
  Ctx.EventSeq = ActiveScheduler->executedEvents();
  Ctx.PendingEvents = ActiveScheduler->pendingEvents();
  return true;
}

Scheduler::Scheduler() {
  ActiveScheduler = this;
  setAssertSimContextProvider(&schedulerAssertContext);
}

Scheduler::~Scheduler() {
  if (ActiveScheduler == this)
    ActiveScheduler = nullptr;
}

void Scheduler::enableSchedulePerturbation(uint64_t Seed) {
  DMB_CHECK(NextSeq == 0 && Queue.empty(),
            "schedule perturbation must be enabled before any event is "
            "scheduled");
  PerturbSeed = Seed;
}

const EventQueueEntry *Scheduler::peekLive() {
  // Fast path: with no cancelled events pending, the front is live by
  // definition — skip the payload-generation load, which would otherwise
  // put a data-dependent pool access on the dispatch critical path.
  if (Tombstones == 0)
    return Queue.empty() ? nullptr : &Queue.front();
  for (;;) {
    if (Queue.empty())
      return nullptr;
    const EventQueueEntry &F = Queue.front();
    if (Pool[F.Slot].Gen == F.Gen)
      return &F;
    // Tombstone of a cancelled event: its payload was freed at cancel
    // time; only the 32-byte queue entry lingered until now.
    Queue.pop();
    --Tombstones;
  }
}

bool Scheduler::cancel(EventId Id) {
  if (Id.Slot == EventId::NoSlot || Id.Slot >= Pool.size() ||
      Pool[Id.Slot].Gen != Id.Gen)
    return false;
  // Destroy the closure now: a cancelled far-horizon timer must not pin
  // its captures (retry exchanges, client state) until the dead queue
  // entry happens to surface — that can be arbitrarily far in the future.
  Pool[Id.Slot].Fn.reset();
  Pool[Id.Slot].Trace = 0;
  releaseSlot(Id.Slot);
  ++Tombstones;
  return true;
}

bool Scheduler::step() {
  ActiveScheduler = this;
  const EventQueueEntry *Front = peekLive();
  if (!Front)
    return false;
  EventQueueEntry E = *Front;
  Queue.pop();
  // Move the action out and recycle the slot before running: the action
  // may schedule new events, growing Pool under our feet.
  Action Fn = std::move(Pool[E.Slot].Fn);
  uint64_t EvTrace = Pool[E.Slot].Trace;
  releaseSlot(E.Slot);
  Now = eventKeyWhen(E);
  ++Executed;
  if (Journal)
    JournalLog.push_back(JournalEntry{Now, E.Seq, EvTrace});
  // Events run in the trace context of the operation that scheduled them,
  // so causal chains inherit the operation id across hops.
  ActiveTrace = EvTrace;
  if (HB)
    HB->advance(ActiveTrace);
  Fn();
  ActiveTrace = 0;
  return true;
}

void Scheduler::run() {
  while (step()) {
  }
  LastDiag = checkQuiescent();
}

void Scheduler::runUntil(SimTime Deadline) {
  // Pin the assert context even when no event fires before the deadline:
  // with two schedulers interleaving, failure reports must name the one
  // being driven, not whichever stepped last.
  ActiveScheduler = this;
  const EventQueueEntry *F;
  while ((F = peekLive()) && eventKeyWhen(*F) <= Deadline)
    step();
  if (Now < Deadline)
    Now = Deadline;
  // A drained queue is quiescence, exactly as in run(): record the report
  // instead of leaving lastDiagnostics() stale.
  if (Queue.empty())
    LastDiag = checkQuiescent();
}

uint64_t Scheduler::traceBegin(const char *Op) {
  if (!Trace)
    return 0;
  uint64_t Parent = ActiveTrace;
  ActiveTrace = Trace->beginOp(Op, Now);
  // The new operation starts inside its parent's event, so everything the
  // parent did so far happens-before everything the child will do.
  if (HB)
    HB->beginContext(ActiveTrace, Parent);
  return ActiveTrace;
}

void Scheduler::traceStamp(TracePoint P) {
  if (Trace)
    Trace->stamp(ActiveTrace, P, Now);
}

void Scheduler::traceStampOn(uint64_t Id, TracePoint P) {
  if (Trace)
    Trace->stamp(Id, P, Now);
}

void Scheduler::traceFinish(uint64_t Id) {
  if (!Trace)
    return;
  Trace->finishOp(Id, Now);
  if (ActiveTrace == Id)
    ActiveTrace = 0;
}

void Scheduler::enableLockOrderAnalysis() {
  if (LockGraph)
    return;
  LockGraph = std::make_unique<LockOrderGraph>();
  LockOrderGraph *G = LockGraph.get();
  addQuiescenceCheck([G](SimDiagnostics &D) { G->report(D); });
}

void Scheduler::enableHappensBeforeTracking() {
  if (HB)
    return;
  HB = std::make_unique<HBTracker>();
  HBTracker *T = HB.get();
  addQuiescenceCheck([T](SimDiagnostics &D) { T->report(D); });
}

uint64_t Scheduler::addQuiescenceCheck(QuiescenceCheck Fn) {
  uint64_t Id = NextCheckId++;
  QuiescenceChecks.emplace_back(Id, std::move(Fn));
  return Id;
}

void Scheduler::removeQuiescenceCheck(uint64_t Id) {
  auto It = std::lower_bound(
      QuiescenceChecks.begin(), QuiescenceChecks.end(), Id,
      [](const auto &Entry, uint64_t Key) { return Entry.first < Key; });
  if (It == QuiescenceChecks.end() || It->first != Id || !It->second)
    return;
  It->second = nullptr;
  if (2 * ++DeadChecks >= QuiescenceChecks.size()) {
    std::erase_if(QuiescenceChecks,
                  [](const auto &Entry) { return !Entry.second; });
    DeadChecks = 0;
  }
}

SimDiagnostics Scheduler::checkQuiescent() const {
  SimDiagnostics Diag;
  Diag.AtTime = Now;
  Diag.EventsExecuted = Executed;
  Diag.PendingEvents = pendingEvents();
  for (const auto &Entry : QuiescenceChecks)
    if (Entry.second)
      Entry.second(Diag);
  return Diag;
}
