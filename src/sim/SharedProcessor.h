//===- sim/SharedProcessor.h - Processor-sharing CPU model ------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Models a node's CPUs as a weighted processor-sharing server. Benchmark
/// workers charge their per-operation client work here, so a CPU hog on a
/// node (thesis Fig. 4.4) slows co-located workers, nice levels (\S 4.4)
/// change their share, and intra-node scaling (\S 4.5) saturates once the
/// process count exceeds the core count.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_SHAREDPROCESSOR_H
#define DMETABENCH_SIM_SHAREDPROCESSOR_H

#include "sim/Scheduler.h"
#include "sim/Time.h"
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace dmb {

/// Weighted processor-sharing CPU with \p NumCores cores.
///
/// Each active task I receives rate
///   min(1 core, NumCores * W_I / sum(W))
/// in core-seconds per second, i.e. tasks share fairly under contention but
/// a single task never runs faster than one core.
class SharedProcessor {
public:
  using Completion = std::function<void()>;

  SharedProcessor(Scheduler &Sched, unsigned NumCores);
  ~SharedProcessor();
  SharedProcessor(const SharedProcessor &) = delete;
  SharedProcessor &operator=(const SharedProcessor &) = delete;

  /// Submits a task needing \p Work core-time with scheduling weight
  /// \p Weight (1.0 = default priority). \p Done fires at completion.
  void submit(SimDuration Work, double Weight, Completion Done);

  /// Submits with default weight.
  void submit(SimDuration Work, Completion Done) {
    submit(Work, 1.0, std::move(Done));
  }

  /// Number of currently active tasks.
  size_t activeTasks() const { return Tasks.size(); }

  /// Total tasks completed.
  uint64_t completedTasks() const { return Completed; }

  unsigned numCores() const { return NumCores; }

private:
  struct Task {
    double RemainingCoreSec;
    double Weight;
    Completion Done;
    uint64_t Trace = 0; ///< trace id of the submitting operation
  };

  /// Advances all tasks to now() at their current rates.
  void advance();
  /// Computes a task's current service rate in core-sec per second.
  double rateFor(const Task &T) const;
  /// Re-schedules the next completion event.
  void scheduleNext();
  /// Fires when the earliest task may have finished.
  void onTimer(uint64_t Gen);

  Scheduler &Sched;
  uint64_t CheckId = 0;
  unsigned NumCores;
  /// Active tasks in submission order. Finished ones are compacted out in
  /// place, keeping that order, so the storage is reused.
  std::vector<Task> Tasks;
  /// The completions one timer collected, in submission order; reused.
  std::vector<std::pair<Completion, uint64_t>> Finished;
  double TotalWeight = 0;
  SimTime LastAdvance = 0;
  uint64_t Generation = 0;
  uint64_t Completed = 0;
};

} // namespace dmb

#endif // DMETABENCH_SIM_SHAREDPROCESSOR_H
