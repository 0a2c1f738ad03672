//===- core/Subtask.cpp ---------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Subtask.h"
#include "support/Assert.h"
#include "support/Format.h"
#include <algorithm>
#include <set>

using namespace dmb;

SubtaskRunner::SubtaskRunner(Scheduler &Sched, SubtaskSpec S)
    : Sched(Sched), Spec(std::move(S)) {
  DMB_ASSERT(Spec.Plugin, "subtask needs a plugin");
  DMB_ASSERT(!Spec.Workers.empty(), "subtask needs workers");
  DMB_ASSERT(Spec.Workers.size() == Spec.WorkDirs.size(),
             "one workdir per worker");
}

SubtaskRunner::~SubtaskRunner() = default;

unsigned SubtaskRunner::partnerOf(unsigned Ordinal) const {
  return (Ordinal + 1) % Spec.Workers.size();
}

void SubtaskRunner::run(std::function<void(SubtaskResult)> OnDone) {
  Done = std::move(OnDone);

  // Build per-process plugin instances and worker engines. Workers issue
  // requests under the run's credentials.
  for (WorkerConfig &W : Spec.Workers)
    W.Creds = Spec.Params.Creds;
  for (unsigned I = 0, E = Spec.Workers.size(); I != E; ++I) {
    PluginContext Ctx;
    Ctx.Rank = Spec.Workers[I].Rank;
    Ctx.Ordinal = I;
    Ctx.TotalWorkers = E;
    Ctx.WorkDir = Spec.WorkDirs[I];
    Ctx.PartnerOrdinal = partnerOf(I);
    Ctx.PartnerWorkDir = Spec.WorkDirs[Ctx.PartnerOrdinal];
    Ctx.ProblemSize = Spec.Params.ProblemSize;
    Ctx.Creds = Spec.Params.Creds;
    Instances.push_back(Spec.Plugin->makeInstance(Ctx));
    Workers.emplace(Sched, Spec.Workers[I]);
  }
  BenchFailures.assign(Workers.size(), 0);

  ensureWorkDirs([this]() { runPhaseAll(0, [this]() { finish(); }); });
}

void SubtaskRunner::ensureWorkDirs(std::function<void()> Then) {
  // Every distinct client (one per node) creates every path component of
  // every distinct working directory before the first barrier: on a shared
  // file system the duplicates return EEXIST; on node-local file systems
  // each OS instance needs its own copy of the directory tree.
  std::set<std::string> Dirs;
  for (uint32_t Id = 0, E = Spec.WorkDirs.distinct(); Id != E; ++Id) {
    const std::string &D = Spec.WorkDirs.distinctAt(Id);
    std::vector<std::string> Parts = split(D, '/');
    std::string Path;
    for (const std::string &P : Parts) {
      if (P.empty())
        continue;
      Path += "/" + P;
      Dirs.insert(Path);
    }
  }
  // Deduplicate clients in Spec.Workers order, NOT via a pointer set's
  // iteration: a std::set<ClientFs *> iterates in address order, which
  // would make the mkdir sequence (and with it the whole schedule) differ
  // between runs. The set is only a membership test; order comes from the
  // workers (linear, not quadratic — a million-worker spec visits here).
  std::vector<ClientFs *> Clients;
  std::set<ClientFs *> SeenClients;
  for (const WorkerConfig &W : Spec.Workers)
    if (SeenClients.insert(W.Client).second)
      Clients.push_back(W.Client);

  auto Pending =
      std::make_shared<std::vector<std::pair<ClientFs *, std::string>>>();
  for (ClientFs *C : Clients)
    for (const std::string &D : Dirs)
      Pending->push_back({C, D});

  auto ThenPtr = std::make_shared<std::function<void()>>(std::move(Then));
  auto Step = std::make_shared<std::function<void()>>();
  // The chain's continuations hold the only strong references; the step
  // function itself captures weakly, or the chain would keep itself alive
  // forever (shared_ptr cycle). Next walks by index: erasing the vector
  // front would be quadratic over hundreds of thousands of mkdirs.
  auto NextIdx = std::make_shared<size_t>(0);
  std::weak_ptr<std::function<void()>> WeakStep = Step;
  *Step = [Pending, NextIdx, ThenPtr, WeakStep]() {
    if (*NextIdx == Pending->size()) {
      (*ThenPtr)();
      return;
    }
    auto [Client, Dir] = (*Pending)[(*NextIdx)++];
    auto Next = WeakStep.lock();
    Client->submit(makeMkdir(Dir), [Next](MetaReply) { (*Next)(); });
  };
  (*Step)();
}

void SubtaskRunner::runPhaseAll(int PhaseIndex, std::function<void()> Then) {
  // Barrier semantics: all workers start the phase at the same simulated
  // time, and the next phase begins only after the last worker finished.
  Remaining = Workers.size();
  auto ThenPtr = std::make_shared<std::function<void()>>(std::move(Then));

  bool IsBench = PhaseIndex == 1;
  SimTime Deadline = 0;
  if (IsBench) {
    // The beforeBench hook runs between the phases (cache dropping).
    for (unsigned I = 0, E = Workers.size(); I != E; ++I)
      Instances[I]->beforeBench(*Spec.Workers[I].Client);
    BenchStart = Sched.now();
    if (Spec.Plugin->isTimeLimited())
      Deadline = BenchStart + Spec.Params.TimeLimit;
  }

  for (unsigned I = 0, E = Workers.size(); I != E; ++I) {
    WorkerProcess &W = Workers[I];
    std::unique_ptr<OpStream> Stream;
    switch (PhaseIndex) {
    case 0:
      Stream = Instances[I]->prepare();
      break;
    case 1:
      Stream = Instances[I]->bench();
      W.resetFailures();
      W.log().start(BenchStart, Spec.Params.LogInterval);
      break;
    case 2:
      Stream = Instances[I]->cleanup();
      break;
    default:
      DMB_ASSERT(false, "invalid phase");
    }
    W.runPhase(std::move(Stream), /*Record=*/IsBench, Deadline,
               [this, &W, I, IsBench, PhaseIndex, ThenPtr]() {
                 if (IsBench) {
                   W.log().finish(Sched.now());
                   // Snapshot failures before cleanup adds expected ones
                   // (e.g. ENOTEMPTY on a shared directory).
                   BenchFailures[I] = W.failedRequests();
                 }
                 if (--Remaining == 0) {
                   if (PhaseIndex < 2)
                     runPhaseAll(PhaseIndex + 1, std::move(*ThenPtr));
                   else
                     (*ThenPtr)();
                 }
               });
  }
}

void SubtaskRunner::finish() {
  SubtaskResult Result;
  Result.Operation = Spec.Operation;
  Result.FileSystem = Spec.FileSystem;
  Result.Label = Spec.Params.Label;
  Result.NumNodes = Spec.NumNodes;
  Result.PerNode = Spec.PerNode;
  Result.BenchStart = BenchStart;
  Result.Interval = Spec.Params.LogInterval;
  Result.Processes.reserve(Workers.size());
  for (unsigned I = 0, E = Workers.size(); I != E; ++I) {
    WorkerProcess &W = Workers[I];
    ProcessTrace Trace;
    Trace.Rank = Spec.Workers[I].Rank;
    Trace.Ordinal = I;
    Trace.Hostname =
        Spec.Workers[I].Hostname ? *Spec.Workers[I].Hostname : std::string();
    Trace.OpsPerInterval = W.log().takeOpsPerInterval();
    Trace.TotalOps = W.log().totalOps();
    Trace.FinishOffset = W.log().finishOffset();
    Trace.FailedRequests = BenchFailures[I];
    Result.Processes.push_back(std::move(Trace));
  }
  Done(std::move(Result));
}
