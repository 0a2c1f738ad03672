//===- core/Results.h - Benchmark result records -----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Raw result records in the shape of thesis Listing 3.3: for every process
/// of every (operation, nodes, processes-per-node) subtask, the cumulative
/// operations completed at each time interval. Results can be rendered to
/// the results-<op>-<nodes>-<procs>.tsv format.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_CORE_RESULTS_H
#define DMETABENCH_CORE_RESULTS_H

#include "core/TimeLog.h"
#include "sim/Time.h"
#include <cstdint>
#include <string>
#include <vector>

namespace dmb {

/// Trace of one worker process in one subtask.
struct ProcessTrace {
  int Rank = 0;
  unsigned Ordinal = 0;
  std::string Hostname;
  /// Operations completed in each LogInterval-wide interval of the bench
  /// phase (not cumulative), as sparse records: the process's TimeLog
  /// counts, moved here when the subtask finishes.
  IntervalCounts OpsPerInterval;
  uint64_t TotalOps = 0;
  /// Offset of the process's completion from the bench-phase start.
  SimDuration FinishOffset = 0;
  uint64_t FailedRequests = 0;

  /// Cumulative operations at boundary of interval \p Index.
  uint64_t cumulativeAt(size_t Index) const {
    return OpsPerInterval.cumulativeAt(Index);
  }
};

/// Result of one subtask (one plan row for one operation; \S 3.3.9).
struct SubtaskResult {
  std::string Operation;
  std::string FileSystem;
  std::string Label;
  unsigned NumNodes = 0;
  unsigned PerNode = 0;
  SimTime BenchStart = 0;
  SimDuration Interval = milliseconds(100);
  std::vector<ProcessTrace> Processes;

  unsigned totalProcesses() const { return Processes.size(); }
  uint64_t totalOps() const;
  /// Number of intervals covered by the slowest process.
  size_t numIntervals() const;
  /// Renders the Listing 3.3 TSV (Hostname Operation ProcessNo Timestamp
  /// OperationsDone).
  std::string toTsv() const;
};

/// All subtask results of a benchmark run plus the recorded environment.
struct ResultSet {
  std::string Label;
  std::string EnvironmentProfile;
  /// Rendered SimDiagnostics quiescence report recorded after the run: a
  /// clean run says so; leaked simulation state (held mutexes, stranded
  /// waiters, lost completions) is itemized here rather than silently
  /// skewing the measurements. Empty when the run never reached the check.
  std::string Diagnostics;
  /// Rendered per-op latency trace report (analysis/TraceAnalysis.h) when
  /// the run was executed with an OpTraceSink attached. Empty otherwise.
  std::string TraceSummary;
  std::vector<SubtaskResult> Subtasks;

  /// Finds a subtask; nullptr when absent.
  const SubtaskResult *find(const std::string &Operation, unsigned Nodes,
                            unsigned PerNode) const;
};

} // namespace dmb

#endif // DMETABENCH_CORE_RESULTS_H
