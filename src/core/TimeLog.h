//===- core/TimeLog.h - Per-process time-interval logging -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The time-interval logging technique of thesis \S 3.2.5 (Fig. 3.4): every
/// process records how many operations completed in each fixed interval,
/// preserving per-process, time-resolved performance that summary averages
/// destroy. The 0.1 s default matches the supervisor thread's sampling.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_CORE_TIMELOG_H
#define DMETABENCH_CORE_TIMELOG_H

#include "sim/Time.h"
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dmb {

/// Operation-completion log of one worker process for one bench phase.
class TimeLog {
public:
  /// Begins logging at \p PhaseStart with the given interval width.
  void start(SimTime PhaseStart, SimDuration Interval);

  /// Records \p Count completed operations at absolute time \p Now.
  void record(SimTime Now, uint64_t Count = 1);

  /// Marks the process finished at \p Now.
  void finish(SimTime Now);

  /// Operations completed in each interval since the phase start.
  const std::vector<uint64_t> &opsPerInterval() const { return Buckets; }
  /// Moves the per-interval counts out, leaving the log without them.
  std::vector<uint64_t> takeOpsPerInterval() { return std::move(Buckets); }

  /// Cumulative operations completed at interval boundary \p Index+1.
  uint64_t cumulativeAt(size_t Index) const;

  uint64_t totalOps() const { return Total; }
  SimTime phaseStart() const { return Start; }
  SimDuration interval() const { return Interval; }
  /// Time from phase start to the last finish() call.
  SimDuration finishOffset() const { return FinishOffset; }

private:
  SimTime Start = 0;
  SimDuration Interval = milliseconds(100);
  SimDuration FinishOffset = 0;
  uint64_t Total = 0;
  std::vector<uint64_t> Buckets;
};

} // namespace dmb

#endif // DMETABENCH_CORE_TIMELOG_H
