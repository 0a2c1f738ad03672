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
  return (Ordinal + 1) % Spec.WorkDirs.size();
}

void SubtaskRunner::run(std::function<void(SubtaskResult)> OnDone) {
  Done = std::move(OnDone);

  // Build per-process plugin instances and worker engines. Each worker's
  // configuration moves into its engine.
  unsigned NumWorkers = Spec.Workers.size();
  Instances.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I) {
    PluginContext Ctx;
    Ctx.Rank = Spec.Workers[I].Rank;
    Ctx.Ordinal = I;
    Ctx.TotalWorkers = NumWorkers;
    Ctx.WorkDir = Spec.WorkDirs[I];
    Ctx.PartnerOrdinal = partnerOf(I);
    Ctx.PartnerWorkDir = Spec.WorkDirs[Ctx.PartnerOrdinal];
    Ctx.ProblemSize = Spec.Params.ProblemSize;
    Ctx.Creds = Spec.Params.Creds;
    Instances.push_back(Spec.Plugin->makeInstance(Ctx));
    // Workers issue requests under the run's credentials.
    Spec.Workers[I].Creds = Spec.Params.Creds;
    Workers.emplace(Sched, std::move(Spec.Workers[I]));
  }
  Spec.Workers = std::vector<WorkerConfig>();
  BenchFailures.assign(NumWorkers, 0);

  ensureWorkDirs();
}

void SubtaskRunner::ensureWorkDirs() {
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
  MkdirDirs.assign(Dirs.begin(), Dirs.end());
  // Deduplicate clients in worker order, NOT via a pointer set's
  // iteration: a std::set<ClientFs *> iterates in address order, which
  // would make the mkdir sequence (and with it the whole schedule) differ
  // between runs. The set is only a membership test; order comes from the
  // workers (linear, not quadratic — a million-worker spec visits here).
  std::set<ClientFs *> SeenClients;
  for (size_t I = 0, E = Workers.size(); I != E; ++I)
    if (ClientFs *C = Workers[I].config().Client; SeenClients.insert(C).second)
      MkdirClients.push_back(C);
  NextMkdir = 0;
  nextMkdir();
}

void SubtaskRunner::nextMkdir() {
  // One mkdir at a time, each client's directories in order; the work
  // list is walked by index, never erased from the front.
  if (NextMkdir == MkdirClients.size() * MkdirDirs.size()) {
    MkdirClients = std::vector<ClientFs *>();
    MkdirDirs = std::vector<std::string>();
    runPhaseAll(0);
    return;
  }
  size_t I = NextMkdir++;
  ClientFs *Client = MkdirClients[I / MkdirDirs.size()];
  Client->submit(makeMkdir(MkdirDirs[I % MkdirDirs.size()]),
                 [this](MetaReply) { nextMkdir(); });
}

void SubtaskRunner::runPhaseAll(int PhaseIndex) {
  // Barrier semantics: all workers start the phase at the same simulated
  // time, and the next phase begins only after the last worker finished.
  Phase = PhaseIndex;
  Remaining = Workers.size();

  bool IsBench = PhaseIndex == 1;
  SimTime Deadline = 0;
  if (IsBench) {
    // The beforeBench hook runs between the phases (cache dropping).
    for (unsigned I = 0, E = Workers.size(); I != E; ++I)
      Instances[I]->beforeBench(*Workers[I].config().Client);
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
    // The completion names only the runner and the worker, so it fits
    // std::function's inline buffer.
    W.runPhase(std::move(Stream), /*Record=*/IsBench, Deadline,
               [this, I]() { phaseDone(I); });
  }
}

void SubtaskRunner::phaseDone(unsigned I) {
  if (Phase == 1) {
    WorkerProcess &W = Workers[I];
    W.log().finish(Sched.now());
    // Snapshot failures before cleanup adds expected ones (e.g.
    // ENOTEMPTY on a shared directory).
    BenchFailures[I] = W.failedRequests();
  }
  if (--Remaining != 0)
    return;
  if (Phase < 2)
    runPhaseAll(Phase + 1);
  else
    finish();
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
    const WorkerConfig &Config = W.config();
    ProcessTrace Trace;
    Trace.Rank = Config.Rank;
    Trace.Ordinal = I;
    Trace.Hostname = Config.Hostname ? *Config.Hostname : std::string();
    Trace.OpsPerInterval = W.log().takeOpsPerInterval();
    Trace.TotalOps = W.log().totalOps();
    Trace.FinishOffset = W.log().finishOffset();
    Trace.FailedRequests = BenchFailures[I];
    Result.Processes.push_back(std::move(Trace));
  }
  Done(std::move(Result));
}
