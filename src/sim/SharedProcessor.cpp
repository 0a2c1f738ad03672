//===- sim/SharedProcessor.cpp --------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/SharedProcessor.h"
#include "sim/LockOrder.h"
#include "support/Assert.h"
#include "support/Format.h"
#include <cmath>

using namespace dmb;

// Work below this many core-seconds counts as finished; it absorbs the
// floating-point error accumulated while advancing task progress.
static constexpr double WorkEpsilon = 1e-12;

SharedProcessor::SharedProcessor(Scheduler &Sched, unsigned NumCores)
    : Sched(Sched), NumCores(NumCores ? NumCores : 1) {
  CheckId = this->Sched.addQuiescenceCheck([this](SimDiagnostics &D) {
    // Active tasks at quiescence have no completion timer left: the
    // processor-sharing clockwork lost track of them.
    if (!Tasks.empty())
      D.addIssue("SharedProcessor",
                 format("%zu task(s) still active at quiescence",
                        Tasks.size()));
  });
}

SharedProcessor::~SharedProcessor() { Sched.removeQuiescenceCheck(CheckId); }

double SharedProcessor::rateFor(const Task &T) const {
  DMB_ASSERT(TotalWeight > 0, "rate query with no active tasks");
  double Fair = static_cast<double>(NumCores) * T.Weight / TotalWeight;
  return Fair > 1.0 ? 1.0 : Fair;
}

void SharedProcessor::advance() {
  SimTime Now = Sched.now();
  double Elapsed = toSeconds(Now - LastAdvance);
  LastAdvance = Now;
  if (Elapsed <= 0 || Tasks.empty())
    return;
  for (Task &T : Tasks) {
    T.RemainingCoreSec -= Elapsed * rateFor(T);
    if (T.RemainingCoreSec < 0)
      T.RemainingCoreSec = 0;
  }
}

void SharedProcessor::scheduleNext() {
  ++Generation;
  if (Tasks.empty())
    return;
  double Earliest = -1;
  for (const Task &T : Tasks) {
    double Eta = T.RemainingCoreSec / rateFor(T);
    if (Earliest < 0 || Eta < Earliest)
      Earliest = Eta;
  }
  SimDuration Delay = static_cast<SimDuration>(std::ceil(Earliest * 1e9));
  uint64_t Gen = Generation;
  Sched.after(Delay, [this, Gen]() { onTimer(Gen); });
}

void SharedProcessor::onTimer(uint64_t Gen) {
  // A newer submit() or completion already rescheduled; ignore stale timers.
  if (Gen != Generation)
    return;
  advance();
  // Collect finished tasks first: their completions may resubmit. The
  // survivors close ranks in place, in submission order.
  size_t Kept = 0;
  for (Task &T : Tasks) {
    if (T.RemainingCoreSec <= WorkEpsilon) {
      TotalWeight -= T.Weight;
      Finished.emplace_back(std::move(T.Done), T.Trace);
      ++Completed;
    } else {
      if (&T != &Tasks[Kept])
        Tasks[Kept] = std::move(T);
      ++Kept;
    }
  }
  Tasks.resize(Kept);
  if (Tasks.empty())
    TotalWeight = 0;
  scheduleNext();
  // One timer event may complete several tasks belonging to different
  // operations: run each completion in its own trace context. A
  // completion only submits (timers fire from the event loop, never from
  // inside another timer), so nothing appends to Finished meanwhile.
  for (auto &[Done, Trace] : Finished) {
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onReleased(this, Trace);
    uint64_t Prev = Sched.swapActiveTrace(Trace);
    Done();
    Sched.swapActiveTrace(Prev);
  }
  Finished.clear();
}

void SharedProcessor::submit(SimDuration Work, double Weight,
                             Completion Done) {
  DMB_ASSERT(Weight > 0, "task weight must be positive");
  if (Work <= 0) {
    // Zero-work tasks complete immediately without perturbing the queue.
    Sched.after(0, std::move(Done));
    return;
  }
  advance();
  uint64_t Ctx = Sched.activeTrace();
  // Processor sharing admits every task at once, so the "acquisition" is
  // granted at submit and held until completion.
  if (LockOrderGraph *G = Sched.lockOrder()) {
    G->onRequest(this, "SharedProcessor", Ctx, Sched.now());
    G->onGranted(this, Ctx);
  }
  Tasks.push_back(Task{toSeconds(Work), Weight, std::move(Done), Ctx});
  TotalWeight += Weight;
  scheduleNext();
}
