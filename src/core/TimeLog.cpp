//===- core/TimeLog.cpp ---------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/TimeLog.h"
#include "support/Assert.h"
#include <algorithm>

using namespace dmb;

void IntervalCounts::add(uint64_t Index, uint64_t Count) {
  Length = std::max(Length, Index + 1);
  if (Count == 0)
    return;
  if (First.Count == 0) {
    First = {Index, Count};
    return;
  }
  IntervalCount &Last = More.empty() ? First : More.back();
  DMB_ASSERT(Index >= Last.Index, "interval counts added out of order");
  if (Index == Last.Index)
    Last.Count += Count;
  else
    More.push_back({Index, Count});
}

uint64_t IntervalCounts::cumulativeAt(uint64_t Index) const {
  uint64_t Sum = 0;
  forEachRecord([&](const IntervalCount &R) {
    if (R.Index <= Index)
      Sum += R.Count;
  });
  return Sum;
}

std::vector<uint64_t> IntervalCounts::dense() const {
  std::vector<uint64_t> Dense(Length, 0);
  forEachRecord([&](const IntervalCount &R) { Dense[R.Index] = R.Count; });
  return Dense;
}

IntervalCounts IntervalCounts::fromDense(const std::vector<uint64_t> &Dense) {
  IntervalCounts C;
  for (size_t I = 0; I < Dense.size(); ++I)
    C.add(I, Dense[I]);
  return C;
}

void TimeLog::start(SimTime PhaseStart, SimDuration IntervalWidth) {
  DMB_ASSERT(IntervalWidth > 0, "interval must be positive");
  Start = PhaseStart;
  Interval = IntervalWidth;
  Total = 0;
  FinishOffset = 0;
  Counts = IntervalCounts();
}

void TimeLog::record(SimTime Now, uint64_t Count) {
  DMB_ASSERT(Now >= Start, "operation completed before phase start");
  Counts.add(static_cast<uint64_t>((Now - Start) / Interval), Count);
  Total += Count;
}

void TimeLog::finish(SimTime Now) {
  // A finish before the phase start would wrap into a negative offset and
  // poison every stonewall / wall-clock average computed from it.
  DMB_ASSERT(Now >= Start, "phase finished before it started");
  FinishOffset = Now - Start;
}
