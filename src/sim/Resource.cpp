//===- sim/Resource.cpp ---------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/Resource.h"
#include "sim/HappensBefore.h"
#include "sim/LockOrder.h"
#include "sim/Trace.h"
#include "support/Format.h"

using namespace dmb;

Resource::Resource(Scheduler &Sched, std::string Name, unsigned NumServers)
    : Sched(Sched), Name(std::move(Name)),
      NumServers(NumServers ? NumServers : 1) {
  CheckId = this->Sched.addQuiescenceCheck(
      [this](SimDiagnostics &D) { report(D); });
}

Resource::~Resource() { Sched.removeQuiescenceCheck(CheckId); }

void Resource::report(SimDiagnostics &D) const {
  // A busy server at quiescence means its completion event vanished (the
  // simulated analogue of a lost wakeup); queued requests likewise can
  // never start once the event queue is empty.
  if (Busy)
    D.addIssue("Resource " + Name,
               format("%u server(s) still busy at quiescence", Busy));
  if (!Waiting.empty())
    D.addIssue("Resource " + Name,
               format("%zu queued request(s) that can never start",
                      Waiting.size()));
}

void Resource::request(SimDuration Service, Completion Done) {
  Pending P{Service, std::move(Done), Sched.activeTrace()};
  if (LockOrderGraph *G = Sched.lockOrder())
    G->onRequest(this, "Resource " + Name, P.Trace, Sched.now());
  if (Busy < NumServers) {
    startService(std::move(P));
    return;
  }
  Waiting.push(std::move(P));
  sampleState();
}

void Resource::startService(Pending P) {
  ++Busy;
  SimDuration Actual =
      static_cast<SimDuration>(static_cast<double>(P.Service) * Slowdown);
  if (Actual < 0)
    Actual = 0;
  BusyTime += Actual;
  Completion Done = std::move(P.Done);
  Sched.traceStampOn(P.Trace, TracePoint::ServiceStart);
  if (LockOrderGraph *G = Sched.lockOrder())
    G->onGranted(this, P.Trace);
  sampleState();
  // The completion event belongs to the serviced operation, not to
  // whichever operation's completion freed this server.
  uint64_t Prev = Sched.swapActiveTrace(P.Trace);
  Sched.after(Actual, [this, Trace = P.Trace, Done = std::move(Done)]() {
    Sched.traceStampOn(Trace, TracePoint::ServiceEnd);
    if (LockOrderGraph *G = Sched.lockOrder())
      G->onReleased(this, Trace);
    finishOne(Trace);
    Done();
  });
  Sched.swapActiveTrace(Prev);
}

void Resource::finishOne(uint64_t FinishedTrace) {
  --Busy;
  ++Completed;
  if (!Waiting.empty()) {
    Pending Next = Waiting.pop();
    // The server freed by FinishedTrace now serves Next: a real
    // synchronization edge between the two operations.
    if (HBTracker *T = Sched.happensBefore())
      T->syncEdge(FinishedTrace, Next.Trace);
    startService(std::move(Next));
  } else {
    sampleState();
  }
}

void Resource::enableMetrics() {
  Metrics = true;
  Samples.clear();
  sampleState();
}

void Resource::sampleState() {
  if (!Metrics)
    return;
  MetricsSample S{Sched.now(), static_cast<uint32_t>(Waiting.size()), Busy};
  // Coalesce same-instant transitions: only the final state at a given
  // simulated time is observable.
  if (!Samples.empty() && Samples.back().When == S.When)
    Samples.back() = S;
  else
    Samples.push_back(S);
}
