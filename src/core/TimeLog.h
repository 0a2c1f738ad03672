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
/// The counts are kept sparse: one (interval, count) record per interval
/// in which the process completed something, the first record inline. A
/// wide run's typical client completes in one interval whose index grows
/// with its queue position, so a dense bucket per interval made the logs
/// grow with clients squared; the records grow with completions.
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

/// Operations one process completed in one logging interval.
struct IntervalCount {
  uint64_t Index = 0; ///< interval number, counted from the phase start
  uint64_t Count = 0; ///< operations completed in it (never 0 in a record)
};

/// The per-interval operation counts of one process, as sparse records in
/// ascending interval order plus the number of intervals the timeline
/// covers. The dense view, one count per interval from the phase start to
/// the last covered one (thesis Listing 3.3), is the records with zeros in
/// the gaps; consumers sweep the records and render the zeros.
class IntervalCounts {
public:
  /// Adds \p Count operations completed in interval \p Index, which must
  /// not precede an interval added before with operations. A record of 0
  /// operations stores nothing, but still extends the timeline to cover
  /// \p Index, as growing a dense log to that interval did.
  void add(uint64_t Index, uint64_t Count);

  /// Intervals covered: the highest index added plus one (0 when empty).
  uint64_t numIntervals() const { return Length; }
  /// Records of the intervals with completions.
  size_t numRecords() const { return First.Count ? 1 + More.size() : 0; }

  /// Calls \p F(const IntervalCount &) for every record, in interval
  /// order.
  template <typename Fn> void forEachRecord(Fn &&F) const {
    if (First.Count == 0)
      return;
    F(First);
    for (const IntervalCount &R : More)
      F(R);
  }

  /// Calls \p F(Index, Cumulative) for every covered interval in order:
  /// the dense cumulative timeline, rendered from the records.
  template <typename Fn> void forEachCumulative(Fn &&F) const {
    uint64_t Cum = 0, I = 0;
    forEachRecord([&](const IntervalCount &R) {
      for (; I < R.Index; ++I)
        F(I, Cum);
      Cum += R.Count;
      F(I++, Cum);
    });
    for (; I < Length; ++I)
      F(I, Cum);
  }

  /// Operations completed in intervals 0 through \p Index.
  uint64_t cumulativeAt(uint64_t Index) const;

  /// The dense form: the count of every covered interval.
  std::vector<uint64_t> dense() const;
  /// Counts with the dense form \p Dense (constructed traces and worked
  /// examples).
  static IntervalCounts fromDense(const std::vector<uint64_t> &Dense);

private:
  IntervalCount First;             ///< the first record; Count 0 = none
  std::vector<IntervalCount> More; ///< the records after the first
  uint64_t Length = 0;
};

/// Operation-completion log of one worker process for one bench phase.
class TimeLog {
public:
  /// Begins logging at \p PhaseStart with the given interval width.
  void start(SimTime PhaseStart, SimDuration Interval);

  /// Records \p Count completed operations at absolute time \p Now, no
  /// earlier than the previous record with operations.
  void record(SimTime Now, uint64_t Count = 1);

  /// Marks the process finished at \p Now.
  void finish(SimTime Now);

  /// Operations completed in each interval since the phase start.
  const IntervalCounts &opsPerInterval() const { return Counts; }
  /// Moves the per-interval counts out, leaving the log without them.
  IntervalCounts takeOpsPerInterval() {
    return std::exchange(Counts, IntervalCounts());
  }

  /// Cumulative operations completed at interval boundary \p Index+1.
  uint64_t cumulativeAt(size_t Index) const {
    return Counts.cumulativeAt(Index);
  }

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
  IntervalCounts Counts;
};

} // namespace dmb

#endif // DMETABENCH_CORE_TIMELOG_H
