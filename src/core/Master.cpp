//===- core/Master.cpp ----------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Master.h"
#include "analysis/TraceAnalysis.h"
#include "core/EnvProfile.h"
#include "core/Subtask.h"
#include "support/Assert.h"
#include "support/Format.h"

using namespace dmb;

/// Records the per-op latency report into \p Results when the run's
/// scheduler had an OpTraceSink attached.
static void captureTraceSummary(Scheduler &Sched, ResultSet &Results) {
  if (const OpTraceSink *Sink = Sched.traceSink())
    Results.TraceSummary = renderTraceReport(*Sink);
}

Master::Master(Cluster &Cl, const MpiEnvironment &Environment,
               std::string Fs, BenchParams P)
    : C(Cl), Env(Environment), Plc(Environment), FsName(std::move(Fs)),
      Params(std::move(P)) {}

SubtaskResult Master::runSubtask(const PlanEntry &Entry,
                                 const std::string &Operation) {
  BenchmarkPlugin *Plugin = PluginRegistry::global().get(Operation);
  DMB_ASSERT(Plugin, "unknown operation (not in the plugin registry)");

  SubtaskSpec Spec;
  Spec.Operation = Operation;
  Spec.FileSystem = FsName;
  Spec.NumNodes = Entry.NumNodes;
  Spec.PerNode = Entry.PerNode;
  Spec.Plugin = Plugin;
  Spec.Params = Params;

  // Each distinct directory is formatted and interned once, in worker
  // order: the PathList entries, cycled over the workers in execution
  // order, or else one distinct root per subtask, so consecutive
  // combinations stay independent (\S 3.3.3: dependencies between
  // operations are eliminated).
  unsigned NumWorkers = Entry.WorkerRanks.size();
  std::vector<uint32_t> PathListIds; ///< by PathList index, as reached
  uint32_t RootId = 0;
  if (Params.PathList.empty())
    RootId = Spec.WorkDirs.intern(Params.WorkDir +
                                  format("/%s-%u-%u", Operation.c_str(),
                                         Entry.NumNodes, Entry.PerNode));
  Spec.Workers.reserve(NumWorkers);
  Spec.WorkDirs.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I) {
    int Rank = Entry.WorkerRanks[I];
    unsigned NodeIndex = Env.nodeOf(Rank);
    ClusterNode &Node = C.node(NodeIndex);
    WorkerConfig W;
    W.Rank = Rank;
    W.Ordinal = I;
    W.Hostname = &Node.hostname();
    W.Client = Node.mount(FsName);
    DMB_ASSERT(W.Client, "file system not mounted on node");
    W.Cpu = &Node.cpu();
    W.PerCallOverhead = Params.HarnessOverheadPerCall;
    Spec.Workers.push_back(std::move(W));
    if (Params.PathList.empty()) {
      Spec.WorkDirs.pushId(RootId);
      continue;
    }
    size_t K = I % Params.PathList.size();
    if (K == PathListIds.size())
      PathListIds.push_back(Spec.WorkDirs.intern(Params.PathList[K]));
    Spec.WorkDirs.pushId(PathListIds[K]);
  }

  SubtaskRunner Runner(C.scheduler(), std::move(Spec));
  bool Finished = false;
  SubtaskResult Result;
  Runner.run([&](SubtaskResult R) {
    Result = std::move(R);
    Finished = true;
  });
  C.scheduler().run();
  DMB_ASSERT(Finished, "subtask did not complete");
  return Result;
}

ResultSet Master::run() {
  ResultSet Results;
  Results.Label = Params.Label;
  Results.EnvironmentProfile = EnvProfile::capture(C, FsName).render();

  // Three nested loops: nodes x processes-per-node x operations
  // (\S 3.3.3 "Benchmark execution").
  for (const PlanEntry &Entry : Plc.plan(Params.NodeStep, Params.PpnStep))
    for (const std::string &Op : Params.Operations)
      Results.Subtasks.push_back(runSubtask(Entry, Op));
  Results.Diagnostics = C.scheduler().checkQuiescent().render();
  captureTraceSummary(C.scheduler(), Results);
  return Results;
}

ResultSet Master::runCombination(unsigned Nodes, unsigned PerNode) {
  ResultSet Results;
  Results.Label = Params.Label;
  Results.EnvironmentProfile = EnvProfile::capture(C, FsName).render();

  std::optional<std::vector<int>> Sel = Plc.select(Nodes, PerNode);
  if (!Sel)
    return Results; // No such placement: nothing to run (documented API).
  PlanEntry Entry{Nodes, PerNode, std::move(*Sel)};
  for (const std::string &Op : Params.Operations)
    Results.Subtasks.push_back(runSubtask(Entry, Op));
  Results.Diagnostics = C.scheduler().checkQuiescent().render();
  captureTraceSummary(C.scheduler(), Results);
  return Results;
}
