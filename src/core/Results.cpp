//===- core/Results.cpp ---------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Results.h"
#include "support/Format.h"
#include <algorithm>

using namespace dmb;

uint64_t SubtaskResult::totalOps() const {
  uint64_t Sum = 0;
  for (const ProcessTrace &P : Processes)
    Sum += P.TotalOps;
  return Sum;
}

size_t SubtaskResult::numIntervals() const {
  size_t Max = 0;
  for (const ProcessTrace &P : Processes)
    Max = std::max<size_t>(Max, P.OpsPerInterval.numIntervals());
  return Max;
}

std::string SubtaskResult::toTsv() const {
  std::string Out =
      "Hostname\tOperation\tProcessNo\tTimestamp\tOperationsDone\n";
  for (const ProcessTrace &P : Processes)
    P.OpsPerInterval.forEachCumulative([&](uint64_t I, uint64_t Cum) {
      Out += format("%s\t%s\t%u\t%.1f\t%llu\n", P.Hostname.c_str(),
                    Operation.c_str(), P.Ordinal,
                    toSeconds(static_cast<SimDuration>(I + 1) * Interval),
                    (unsigned long long)Cum);
    });
  return Out;
}

const SubtaskResult *ResultSet::find(const std::string &Operation,
                                     unsigned Nodes,
                                     unsigned PerNode) const {
  for (const SubtaskResult &S : Subtasks)
    if (S.Operation == Operation && S.NumNodes == Nodes &&
        S.PerNode == PerNode)
      return &S;
  return nullptr;
}
