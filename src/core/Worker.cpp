//===- core/Worker.cpp ----------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Worker.h"
#include "sim/HappensBefore.h"
#include "support/Assert.h"

using namespace dmb;

WorkerProcess::WorkerProcess(Scheduler &Sched, WorkerConfig C)
    : Sched(Sched), Config(std::move(C)) {
  DMB_ASSERT(Config.Client, "worker needs a file system client");
  DMB_ASSERT(Config.Cpu, "worker needs a node CPU");
}

void WorkerProcess::runPhase(std::unique_ptr<OpStream> S, bool Rec,
                             SimTime PhaseDeadline,
                             std::function<void()> OnDone) {
  Stream = std::move(S);
  Record = Rec;
  Deadline = PhaseDeadline;
  Done = std::move(OnDone);
  AtOpBoundary = true;
  if (!Stream) {
    // Empty phase: complete via the scheduler to keep ordering uniform.
    Sched.after(0, [this]() {
      std::function<void()> Fn = std::move(Done);
      Fn();
    });
    return;
  }
  step(MetaReply());
}

void WorkerProcess::step(const MetaReply &Last) {
  // Time-limited phases stop at operation boundaries only, so compound
  // operations (open+close) are never cut in half.
  if (Deadline != 0 && AtOpBoundary && Sched.now() >= Deadline) {
    std::function<void()> Fn = std::move(Done);
    Stream.reset();
    Fn();
    return;
  }

  StreamStep Step;
  if (!Stream->next(Last, Step)) {
    std::function<void()> Fn = std::move(Done);
    Stream.reset();
    Fn();
    return;
  }

  Completes = Step.CompletesOp;
  OpCount = Step.OpCount;
  Req = std::move(Step.Req);
  Req.Creds = Config.Creds;
  // Each call costs client-side CPU (interpreter + syscall overhead,
  // \S 4.2.2) — this is what a co-located CPU hog steals (Fig. 4.4).
  Config.Cpu->submit(Config.PerCallOverhead, Config.CpuWeight,
                     [this]() { submitRequest(); });
}

void WorkerProcess::submitRequest() {
  // Bench-phase calls open a span record (no-op without a sink on the
  // scheduler); the id rides the event graph to every hop.
  Trace = Record ? Sched.traceBegin(metaOpName(Req.Op)) : 0;
  Config.Client->submit(Req,
                        [this](MetaReply Reply) { onReply(std::move(Reply)); });
}

void WorkerProcess::onReply(MetaReply Reply) {
  // Bookkeeping runs before traceFinish deactivates the trace so the
  // happens-before hooks see the operation as their context; nothing here
  // stamps or schedules, so timing is unaffected.
  if (!Reply.ok()) {
    ++Failures;
    DMB_HB_WRITE(Sched, Failures, "WorkerProcess.Failures");
  }
  if (Record && Completes) {
    Log.record(Sched.now(), OpCount);
    DMB_HB_WRITE(Sched, Log, "WorkerProcess.TimeLog");
  }
  AtOpBoundary = Completes;
  Sched.traceFinish(Trace);
  step(Reply);
}
