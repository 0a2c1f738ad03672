//===- analysis/Preprocess.cpp --------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Preprocess.h"
#include "support/Format.h"
#include <algorithm>
#include <charconv>
#include <cmath>

using namespace dmb;

std::vector<IntervalRow> dmb::intervalSummary(const SubtaskResult &R) {
  std::vector<IntervalRow> Rows;
  size_t NumIntervals = R.numIntervals();
  double IntervalSec = toSeconds(R.Interval);
  size_t NumProcs = R.Processes.size();
  uint64_t Cumulative = 0;

  for (size_t I = 0; I < NumIntervals; ++I) {
    // Per-process operations completed within interval I.
    double Sum = 0, SumSq = 0;
    uint64_t IntervalTotal = 0;
    for (const ProcessTrace &P : R.Processes) {
      uint64_t Ops = I < P.OpsPerInterval.size() ? P.OpsPerInterval[I] : 0;
      IntervalTotal += Ops;
      double X = static_cast<double>(Ops);
      Sum += X;
      SumSq += X * X;
    }
    Cumulative += IntervalTotal;

    IntervalRow Row;
    Row.TimeSec = static_cast<double>(I + 1) * IntervalSec;
    Row.TotalOps = Cumulative;
    Row.OpsPerSec = static_cast<double>(IntervalTotal) / IntervalSec;
    if (NumProcs > 1) {
      double Mean = Sum / static_cast<double>(NumProcs);
      double Var = (SumSq - Sum * Mean) / static_cast<double>(NumProcs - 1);
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
  size_t NumIntervals = R.numIntervals();
  uint64_t Cumulative = 0;
  for (size_t I = 0; I < NumIntervals; ++I) {
    for (const ProcessTrace &P : R.Processes)
      if (I < P.OpsPerInterval.size())
        Cumulative += P.OpsPerInterval[I];
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
    for (const ProcessTrace &P : S.Processes) {
      std::string Line =
          format("proc\tops=%llu\tfailed=%llu\tfinish=%.6f\t",
                 (unsigned long long)P.TotalOps,
                 (unsigned long long)P.FailedRequests,
                 toSeconds(P.FinishOffset));
      uint64_t Cum = 0;
      char Buf[24];
      for (uint64_t N : P.OpsPerInterval) {
        Cum += N;
        Line.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), Cum).ptr);
        Line += ',';
      }
      ProcLines.push_back(std::move(Line));
    }
    std::sort(ProcLines.begin(), ProcLines.end());
    for (const std::string &Line : ProcLines)
      Out += Line + "\n";
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
