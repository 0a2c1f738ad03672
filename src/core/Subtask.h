//===- core/Subtask.h - One benchmark subtask --------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one subtask — one (operation, nodes, processes-per-node) cell of
/// the execution plan — through its three phases with barriers at phase
/// boundaries, exactly as in thesis Fig. 3.7: "At the beginning and end of
/// every phase, an MPI barrier is used to ensure that all processes start
/// and complete simultaneously. In this manner, all time intervals begin at
/// the same time."
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_CORE_SUBTASK_H
#define DMETABENCH_CORE_SUBTASK_H

#include "core/Params.h"
#include "workload/Plugin.h"
#include "core/Results.h"
#include "core/Worker.h"
#include "core/WorkerArena.h"
#include "sim/Scheduler.h"
#include "support/Interner.h"
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dmb {

/// Per-worker working directories, stored interned. The master derives
/// one directory per subtask (or a short PathList cycle), so at 1M
/// workers the per-worker strings are overwhelmingly duplicates: the
/// table keeps one copy of each distinct path plus a 4-byte id per
/// worker, instead of a 32+-byte std::string per worker. The copies never
/// move, so a PluginContext borrows its directories from here.
class WorkDirTable {
public:
  /// The id of \p Dir, interned; add it to workers with pushId().
  uint32_t intern(std::string_view Dir) { return Pool.intern(Dir); }
  /// Assigns the directory \p Id (from intern()) to the next worker.
  void pushId(uint32_t Id) { Ids.push_back(Id); }
  /// Assigns \p Dir to the next worker.
  void push_back(std::string_view Dir) { pushId(intern(Dir)); }
  void reserve(size_t Workers) { Ids.reserve(Workers); }

  const std::string &operator[](size_t I) const {
    return Pool.name(Ids[I]);
  }
  size_t size() const { return Ids.size(); }

  /// The distinct directories, for mkdir-style deduplicated setup.
  uint32_t distinct() const { return static_cast<uint32_t>(Pool.size()); }
  const std::string &distinctAt(uint32_t Id) const { return Pool.name(Id); }

private:
  Interner Pool;
  std::vector<uint32_t> Ids;
};

/// Everything needed to run one subtask.
struct SubtaskSpec {
  std::string Operation;
  std::string FileSystem;
  unsigned NumNodes = 0;
  unsigned PerNode = 0;
  BenchmarkPlugin *Plugin = nullptr;
  BenchParams Params;
  /// In execution order (Fig. 3.9); the runner moves each into its
  /// WorkerProcess, so a worker's configuration exists once.
  std::vector<WorkerConfig> Workers;
  WorkDirTable WorkDirs; ///< per worker (Fig. 3.10), interned
};

/// Drives a subtask through prepare / doBench / cleanup.
class SubtaskRunner {
public:
  SubtaskRunner(Scheduler &Sched, SubtaskSpec Spec);
  ~SubtaskRunner();

  /// Starts the subtask; \p Done receives the result when finished. The
  /// runner must stay alive until then.
  void run(std::function<void(SubtaskResult)> Done);

private:
  /// Creates every path component of every distinct working directory on
  /// every distinct client, one mkdir at a time, then starts phase 0.
  void ensureWorkDirs();
  void nextMkdir();
  /// Starts phase \p PhaseIndex (0 prepare, 1 bench, 2 cleanup) on every
  /// worker at once.
  void runPhaseAll(int PhaseIndex);
  /// Worker \p I finished the current phase: the barrier counts it.
  void phaseDone(unsigned I);
  void finish();
  /// The partner of worker \p Ordinal: the next worker in round-robin
  /// order, which lives on a different node whenever more than one node
  /// participates (StatMultinodeFiles, \S 3.4.3).
  unsigned partnerOf(unsigned Ordinal) const;

  Scheduler &Sched;
  SubtaskSpec Spec;
  /// Declared before Workers: a worker's stream may borrow from its
  /// instance, so the workers go first.
  std::vector<std::unique_ptr<PluginInstance>> Instances;
  /// Slab-allocated worker state: one chunked allocation per 256 workers
  /// instead of a unique_ptr + malloc each (core/WorkerArena.h).
  SlabArena<WorkerProcess> Workers;
  /// ensureWorkDirs' work list: every directory on every client, in
  /// client-major order; emptied once phase 0 starts.
  std::vector<ClientFs *> MkdirClients;
  std::vector<std::string> MkdirDirs;
  size_t NextMkdir = 0;
  int Phase = -1;
  SimTime BenchStart = 0;
  std::function<void(SubtaskResult)> Done;
  unsigned Remaining = 0;
  std::vector<uint64_t> BenchFailures;
};

} // namespace dmb

#endif // DMETABENCH_CORE_SUBTASK_H
