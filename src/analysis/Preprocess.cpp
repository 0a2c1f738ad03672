//===- analysis/Preprocess.cpp --------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Preprocess.h"
#include "support/Assert.h"
#include "support/Format.h"
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>

using namespace dmb;

namespace {

/// One interval's completions across all processes.
struct IntervalSums {
  uint64_t Total = 0;
  double Sum = 0;   ///< per-process counts, summed in process order
  double SumSq = 0; ///< their squares, summed in process order
};

} // namespace

/// One sweep over every process's records: the per-interval sums of the
/// subtask. A process adds nothing to the intervals it has no record for,
/// and adding 0.0 leaves a double unchanged, so each sum is bit-identical
/// to a loop over processes x intervals in the same process order.
static std::vector<IntervalSums> sweepIntervals(const SubtaskResult &R) {
  std::vector<IntervalSums> Sums(R.numIntervals());
  for (const ProcessTrace &P : R.Processes)
    P.OpsPerInterval.forEachRecord([&Sums](const IntervalCount &Rec) {
      IntervalSums &S = Sums[Rec.Index];
      S.Total += Rec.Count;
      double X = static_cast<double>(Rec.Count);
      S.Sum += X;
      S.SumSq += X * X;
    });
  return Sums;
}

std::vector<IntervalRow> dmb::intervalSummary(const SubtaskResult &R) {
  std::vector<IntervalSums> Sums = sweepIntervals(R);
  std::vector<IntervalRow> Rows;
  Rows.reserve(Sums.size());
  double IntervalSec = toSeconds(R.Interval);
  size_t NumProcs = R.Processes.size();
  uint64_t Cumulative = 0;

  for (size_t I = 0; I < Sums.size(); ++I) {
    const IntervalSums &S = Sums[I];
    Cumulative += S.Total;

    IntervalRow Row;
    Row.TimeSec = static_cast<double>(I + 1) * IntervalSec;
    Row.TotalOps = Cumulative;
    Row.OpsPerSec = static_cast<double>(S.Total) / IntervalSec;
    if (NumProcs > 1) {
      double Mean = S.Sum / static_cast<double>(NumProcs);
      double Var =
          (S.SumSq - S.Sum * Mean) / static_cast<double>(NumProcs - 1);
      if (Var < 0)
        Var = 0;
      // Sample standard deviation, as in Listing 3.4.
      Row.PerProcStddev = std::sqrt(Var);
      Row.PerProcCov = Mean > 0 ? Row.PerProcStddev / Mean : 0;
    }
    Rows.push_back(Row);
  }
  return Rows;
}

/// Smallest interval count k (>= 1) covering the offset \p T.
static size_t boundaryIndexFor(SimDuration T, SimDuration Interval) {
  if (T <= 0)
    return 1;
  return static_cast<size_t>((T + Interval - 1) / Interval);
}

double dmb::stonewallAverage(const SubtaskResult &R) {
  if (R.Processes.empty())
    return 0;
  SimDuration MinFinish = 0;
  bool First = true;
  for (const ProcessTrace &P : R.Processes) {
    if (First || P.FinishOffset < MinFinish) {
      MinFinish = P.FinishOffset;
      First = false;
    }
  }
  size_t K = boundaryIndexFor(MinFinish, R.Interval);
  uint64_t Ops = 0;
  for (const ProcessTrace &P : R.Processes)
    Ops += P.cumulativeAt(K - 1);
  double T = static_cast<double>(K) * toSeconds(R.Interval);
  return T > 0 ? static_cast<double>(Ops) / T : 0;
}

double dmb::averageForFixedOps(const SubtaskResult &R, uint64_t Ops) {
  std::vector<IntervalSums> Sums = sweepIntervals(R);
  uint64_t Cumulative = 0;
  for (size_t I = 0; I < Sums.size(); ++I) {
    Cumulative += Sums[I].Total;
    if (Cumulative >= Ops) {
      double T = static_cast<double>(I + 1) * toSeconds(R.Interval);
      // Listing 3.5 semantics: the average covers the *first Ops
      // operations*, so the numerator is the target, not everything the
      // crossing interval happened to complete — crediting the whole
      // interval would inflate the strong-scaling average.
      return static_cast<double>(Ops) / T;
    }
  }
  return 0; // Never reached (Listing 3.5 prints 0 in this case).
}

double dmb::wallClockAverage(const SubtaskResult &R) {
  SimDuration MaxFinish = 0;
  for (const ProcessTrace &P : R.Processes)
    MaxFinish = std::max(MaxFinish, P.FinishOffset);
  double T = toSeconds(MaxFinish);
  return T > 0 ? static_cast<double>(R.totalOps()) / T : 0;
}

SubtaskSummary dmb::summarize(const SubtaskResult &R) {
  SubtaskSummary S;
  S.Operation = R.Operation;
  S.NumNodes = R.NumNodes;
  S.PerNode = R.PerNode;
  S.TotalProcesses = R.Processes.size();
  S.TotalOps = R.totalOps();
  SimDuration MaxFinish = 0, MinFinish = 0;
  bool First = true;
  for (const ProcessTrace &P : R.Processes) {
    MaxFinish = std::max(MaxFinish, P.FinishOffset);
    if (First || P.FinishOffset < MinFinish) {
      MinFinish = P.FinishOffset;
      First = false;
    }
  }
  S.WallClockSec = toSeconds(MaxFinish);
  S.WallClockOpsPerSec = wallClockAverage(R);
  S.StonewallSec = static_cast<double>(boundaryIndexFor(
                       MinFinish, R.Interval)) *
                   toSeconds(R.Interval);
  S.StonewallOpsPerSec = stonewallAverage(R);
  return S;
}

std::string dmb::intervalSummaryTsv(const SubtaskResult &R) {
  std::string Out;
  for (const IntervalRow &Row : intervalSummary(R))
    Out += format("%s\t%u\t%u\t%.1f\t%llu\t%.0f\t%.1f\t%.3f\n",
                  R.Operation.c_str(), R.NumNodes,
                  R.NumNodes * R.PerNode, Row.TimeSec,
                  (unsigned long long)Row.TotalOps, Row.OpsPerSec,
                  Row.PerProcStddev, Row.PerProcCov);
  return Out;
}

std::string dmb::canonicalResultText(const ResultSet &R) {
  std::string Out;
  for (const SubtaskResult &S : R.Subtasks) {
    Out += format("== %s %s nodes=%u perNode=%u ==\n", S.Operation.c_str(),
                  S.FileSystem.c_str(), S.NumNodes, S.PerNode);
    // Per-process timelines as a *sorted multiset*, without rank or
    // hostname: which rank draws which queue position at a same-timestamp
    // tie is exactly what schedule perturbation permutes, so per-rank
    // identity is legitimately schedule-dependent. The simulation's real
    // invariant is that the set of timelines (and every aggregate built
    // from it) does not change.
    std::vector<std::string> ProcLines;
    ProcLines.reserve(S.Processes.size());
    size_t LinesSize = 0;
    for (const ProcessTrace &P : S.Processes) {
      // "proc\tops=%llu\tfailed=%llu\tfinish=%.6f\t" and the cumulative
      // counts, in one allocation: no cumulative count has more digits
      // than the total. The finish offset stays with snprintf, whose
      // pages every run touches anyway; to_chars' floating-point tables
      // would add to the resident set of every run.
      char Buf[32];
      size_t TotalDigits =
          static_cast<size_t>(std::to_chars(Buf, Buf + 20, P.TotalOps).ptr -
                              Buf);
      std::string Line;
      Line.reserve(96 + P.OpsPerInterval.numIntervals() * (TotalDigits + 1));
      Line.append("proc\tops=").append(Buf, TotalDigits);
      Line.append("\tfailed=");
      Line.append(Buf, std::to_chars(Buf, Buf + 20, P.FailedRequests).ptr);
      Line.append("\tfinish=");
      int FinishSize = std::snprintf(Buf, sizeof(Buf), "%.6f",
                                     toSeconds(P.FinishOffset));
      DMB_ASSERT(FinishSize > 0 && FinishSize < int(sizeof(Buf)),
                 "finish offset out of range");
      Line.append(Buf, size_t(FinishSize)).append(1, '\t');
      P.OpsPerInterval.forEachCumulative([&](uint64_t, uint64_t Cum) {
        Line.append(Buf, std::to_chars(Buf, Buf + 20, Cum).ptr);
        Line += ',';
      });
      LinesSize += Line.size() + 1;
      ProcLines.push_back(std::move(Line));
    }
    std::sort(ProcLines.begin(), ProcLines.end());
    Out.reserve(Out.size() + LinesSize);
    for (const std::string &Line : ProcLines)
      Out.append(Line).append(1, '\n');
    Out += intervalSummaryTsv(S);
    SubtaskSummary Sum = summarize(S);
    Out += format("total_ops\t%llu\n",
                  (unsigned long long)Sum.TotalOps);
    Out += format("wallclock\t%.6f\t%.3f\n", Sum.WallClockSec,
                  Sum.WallClockOpsPerSec);
    Out += format("stonewall\t%.6f\t%.3f\n", Sum.StonewallSec,
                  Sum.StonewallOpsPerSec);
  }
  return Out;
}
