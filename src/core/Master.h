//===- core/Master.h - Benchmark orchestration -------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The master process of thesis \S 3.3.2-\S 3.3.3: discovers the process
/// placement, profiles the environment, then iterates three nested loops —
/// node options, processes-per-node options and operations — running one
/// subtask per combination and collecting the results.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_CORE_MASTER_H
#define DMETABENCH_CORE_MASTER_H

#include "cluster/Cluster.h"
#include "cluster/Placement.h"
#include "core/Params.h"
#include "core/Results.h"
#include <string>

namespace dmb {

/// Orchestrates a full DMetabench run on a simulated cluster.
class Master {
public:
  /// \p FsName must be mounted on every cluster node (Cluster::
  /// mountEverywhere). \p Env fixes how many MPI slots exist per node.
  Master(Cluster &C, const MpiEnvironment &Env, std::string FsName,
         BenchParams Params);

  /// Runs every (operation x plan-entry) subtask to completion and returns
  /// the result set. Blocks by driving the scheduler.
  ResultSet run();

  /// Runs a single combination for every configured operation (used by
  /// benches that sweep configurations themselves). When the MPI layout
  /// cannot supply \p Nodes x \p PerNode workers, the result set is
  /// returned with no subtasks.
  ResultSet runCombination(unsigned Nodes, unsigned PerNode);

private:
  SubtaskResult runSubtask(const PlanEntry &Entry,
                           const std::string &Operation);

  Cluster &C;
  MpiEnvironment Env;
  Placement Plc;
  std::string FsName;
  BenchParams Params;
};

} // namespace dmb

#endif // DMETABENCH_CORE_MASTER_H
