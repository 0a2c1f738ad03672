//===- tests/AnalysisTest.cpp - Preprocessing algebra tests ---------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifies the preprocessing formulas of thesis \S 3.3.9 (Listings
/// 3.3-3.5) on constructed traces: per-interval totals, sample standard
/// deviation, COV, stonewall average and fixed-operation-count averages —
/// including the worked example of \S 3.2.5 (Fig. 3.4: wall-clock 18 vs
/// stonewall 23.3 ops per time unit).
///
//===----------------------------------------------------------------------===//

#include "analysis/Preprocess.h"
#include "core/TimeLog.h"
#include "support/Format.h"
#include "support/Random.h"
#include <algorithm>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>

using namespace dmb;

namespace {

ProcessTrace makeTrace(unsigned Ordinal, std::vector<uint64_t> Buckets,
                       SimDuration Finish) {
  ProcessTrace P;
  P.Rank = static_cast<int>(Ordinal + 1);
  P.Ordinal = Ordinal;
  P.Hostname = "node" + std::to_string(Ordinal);
  P.OpsPerInterval = IntervalCounts::fromDense(Buckets);
  for (uint64_t B : Buckets)
    P.TotalOps += B;
  P.FinishOffset = Finish;
  return P;
}

/// Two processes, interval 0.1 s: p0 does 10+10 ops (finishes at 0.2 s),
/// p1 does 20 ops (finishes at 0.1 s).
SubtaskResult twoProcResult() {
  SubtaskResult R;
  R.Operation = "StatFiles";
  R.FileSystem = "nfs";
  R.NumNodes = 2;
  R.PerNode = 1;
  R.Interval = milliseconds(100);
  R.Processes.push_back(makeTrace(0, {10, 10}, milliseconds(200)));
  R.Processes.push_back(makeTrace(1, {20}, milliseconds(100)));
  return R;
}

TEST(Analysis, IntervalRowsTotalsAndRates) {
  std::vector<IntervalRow> Rows = intervalSummary(twoProcResult());
  ASSERT_EQ(2u, Rows.size());
  EXPECT_DOUBLE_EQ(0.1, Rows[0].TimeSec);
  EXPECT_EQ(30u, Rows[0].TotalOps);
  EXPECT_DOUBLE_EQ(300.0, Rows[0].OpsPerSec);
  EXPECT_EQ(40u, Rows[1].TotalOps);
  EXPECT_DOUBLE_EQ(100.0, Rows[1].OpsPerSec);
}

TEST(Analysis, SampleStddevAndCovMatchListing34Convention) {
  std::vector<IntervalRow> Rows = intervalSummary(twoProcResult());
  // Interval 0: per-process ops {10, 20}: mean 15, sample stddev
  // sqrt(((10-15)^2 + (20-15)^2)/(2-1)) = sqrt(50).
  EXPECT_NEAR(7.0711, Rows[0].PerProcStddev, 1e-3);
  EXPECT_NEAR(0.4714, Rows[0].PerProcCov, 1e-3);
  // Interval 1: {10, 0}: mean 5, stddev sqrt(50), COV sqrt(2) — the COV
  // rises when some processes have finished (Fig. 3.11 discussion).
  EXPECT_NEAR(7.0711, Rows[1].PerProcStddev, 1e-3);
  EXPECT_NEAR(1.4142, Rows[1].PerProcCov, 1e-3);
}

TEST(Analysis, StonewallAverage) {
  // First process finishes at 0.1 s; 30 ops by then => 300 ops/s.
  EXPECT_DOUBLE_EQ(300.0, stonewallAverage(twoProcResult()));
}

TEST(Analysis, WallClockAverage) {
  // 40 ops in 0.2 s => 200 ops/s (the "global throughput" of \S 3.2.5).
  EXPECT_DOUBLE_EQ(200.0, wallClockAverage(twoProcResult()));
}

TEST(Analysis, FixedOpsAverages) {
  SubtaskResult R = twoProcResult();
  // 30 ops reached at the 0.1 s boundary.
  EXPECT_DOUBLE_EQ(300.0, averageForFixedOps(R, 30));
  // Target 25 also crosses at 0.1 s, but the average covers the first 25
  // ops only: 25/0.1, not the 30 the interval happened to complete.
  EXPECT_DOUBLE_EQ(250.0, averageForFixedOps(R, 25));
  // 40 ops reached at 0.2 s.
  EXPECT_DOUBLE_EQ(200.0, averageForFixedOps(R, 40));
  // Never reached: Listing 3.5 prints 0.
  EXPECT_DOUBLE_EQ(0.0, averageForFixedOps(R, 50));
}

TEST(Analysis, FixedOpsAverageClampsToTarget) {
  // Fig. 3.4 data (\S 3.2.5): totals per unit are 19, 45, 70, 85, 90. A
  // fixed-ops target of 60 crosses at the third boundary, so the strong
  // scaling average is 60/3 = 20 ops/unit — crediting everything the
  // crossing interval completed (70/3 = 23.3) would overstate it.
  SubtaskResult R;
  R.Operation = "Example";
  R.NumNodes = 3;
  R.PerNode = 1;
  R.Interval = seconds(1.0);
  R.Processes.push_back(makeTrace(0, {5, 8, 5, 7, 5}, seconds(5.0)));
  R.Processes.push_back(makeTrace(1, {8, 10, 12}, seconds(3.0)));
  R.Processes.push_back(makeTrace(2, {6, 8, 8, 8}, seconds(4.0)));
  EXPECT_NEAR(20.0, averageForFixedOps(R, 60), 1e-9);
  // A target falling exactly on a boundary total divides evenly.
  EXPECT_NEAR(45.0 / 2.0, averageForFixedOps(R, 45), 1e-9);
}

TEST(Analysis, SummaryBundle) {
  SubtaskSummary S = summarize(twoProcResult());
  EXPECT_EQ("StatFiles", S.Operation);
  EXPECT_EQ(2u, S.TotalProcesses);
  EXPECT_EQ(40u, S.TotalOps);
  EXPECT_DOUBLE_EQ(0.2, S.WallClockSec);
  EXPECT_DOUBLE_EQ(200.0, S.WallClockOpsPerSec);
  EXPECT_DOUBLE_EQ(0.1, S.StonewallSec);
  EXPECT_DOUBLE_EQ(300.0, S.StonewallOpsPerSec);
}

TEST(Analysis, Figure34WorkedExample) {
  // The illustration of \S 3.2.5: three processes, 30 ops each, five time
  // units; wall-clock average 18 ops/unit, stonewall 23.3 ops/unit.
  SubtaskResult R;
  R.Operation = "Example";
  R.NumNodes = 3;
  R.PerNode = 1;
  R.Interval = seconds(1.0);
  R.Processes.push_back(
      makeTrace(0, {5, 8, 5, 7, 5}, seconds(5.0))); // 0,5,13,18,25,30
  R.Processes.push_back(makeTrace(1, {8, 10, 12}, seconds(3.0)));
  R.Processes.push_back(
      makeTrace(2, {6, 8, 8, 8}, seconds(4.0))); // 0,6,14,22,30

  EXPECT_NEAR(18.0, wallClockAverage(R), 1e-9);     // 90 ops / 5 units
  EXPECT_NEAR(70.0 / 3.0, stonewallAverage(R), 1e-9); // 70 ops @ 3 units
  // Totals per interval: 19, 45, 70, 85, 90 (the "Total" axis of Fig 3.4).
  std::vector<IntervalRow> Rows = intervalSummary(R);
  ASSERT_EQ(5u, Rows.size());
  EXPECT_EQ(19u, Rows[0].TotalOps);
  EXPECT_EQ(45u, Rows[1].TotalOps);
  EXPECT_EQ(70u, Rows[2].TotalOps);
  EXPECT_EQ(85u, Rows[3].TotalOps);
  EXPECT_EQ(90u, Rows[4].TotalOps);
}

TEST(Analysis, StonewallExactBoundaryFinishDoesNotShiftUp) {
  // A process finishing *exactly* on an interval boundary stonewalls at
  // that boundary; rounding it into the next interval would silently mix
  // in post-stonewall ops.
  SubtaskResult R;
  R.Operation = "MakeFiles";
  R.NumNodes = 2;
  R.PerNode = 1;
  R.Interval = milliseconds(100);
  R.Processes.push_back(makeTrace(0, {20}, milliseconds(100)));
  R.Processes.push_back(makeTrace(1, {10, 10}, milliseconds(200)));
  SubtaskSummary S = summarize(R);
  EXPECT_DOUBLE_EQ(0.1, S.StonewallSec); // not 0.2
  EXPECT_DOUBLE_EQ(300.0, stonewallAverage(R));
}

TEST(Analysis, StonewallWorkedExample) {
  // The worked stonewall number of \S 3.3.2: with 0.1 s intervals, the
  // faster process finishes exactly at 1.0 s with 22,191 ops completed in
  // total across processes — the stonewall average is exactly 22,191.0
  // ops/s, pinned here as a bit-exact value.
  SubtaskResult R;
  R.Operation = "MakeFiles";
  R.NumNodes = 2;
  R.PerNode = 1;
  R.Interval = milliseconds(100);
  std::vector<uint64_t> P0(10, 1110);
  P0[9] = 1106; // sums to 11,096
  std::vector<uint64_t> P1(15, 1110);
  P1[9] = 1105; // first ten sum to 11,095
  for (size_t I = 10; I < P1.size(); ++I)
    P1[I] = 500; // the slower process keeps going to 1.5 s
  R.Processes.push_back(makeTrace(0, std::move(P0), seconds(1.0)));
  R.Processes.push_back(makeTrace(1, std::move(P1), seconds(1.5)));
  EXPECT_DOUBLE_EQ(22191.0, stonewallAverage(R));
}

TEST(Analysis, SingleProcessHasNoCov) {
  SubtaskResult R;
  R.Interval = milliseconds(100);
  R.Processes.push_back(makeTrace(0, {10, 10}, milliseconds(200)));
  for (const IntervalRow &Row : intervalSummary(R)) {
    EXPECT_DOUBLE_EQ(0.0, Row.PerProcStddev);
    EXPECT_DOUBLE_EQ(0.0, Row.PerProcCov);
  }
}

TEST(Analysis, EmptyResultIsSafe) {
  SubtaskResult R;
  R.Interval = milliseconds(100);
  EXPECT_TRUE(intervalSummary(R).empty());
  EXPECT_DOUBLE_EQ(0.0, stonewallAverage(R));
  EXPECT_DOUBLE_EQ(0.0, wallClockAverage(R));
  EXPECT_DOUBLE_EQ(0.0, averageForFixedOps(R, 10));
}

TEST(Analysis, TsvRendersOneRowPerInterval) {
  std::string Tsv = intervalSummaryTsv(twoProcResult());
  EXPECT_EQ(2, std::count(Tsv.begin(), Tsv.end(), '\n'));
  EXPECT_NE(std::string::npos, Tsv.find("StatFiles"));
}

TEST(Analysis, ResultTsvMatchesListing33Shape) {
  std::string Tsv = twoProcResult().toTsv();
  // Header plus three data lines (two intervals for p0, one for p1).
  EXPECT_EQ(4, std::count(Tsv.begin(), Tsv.end(), '\n'));
  EXPECT_NE(std::string::npos, Tsv.find("Hostname\tOperation"));
  EXPECT_NE(std::string::npos, Tsv.find("node0\tStatFiles\t0\t0.1\t10"));
  EXPECT_NE(std::string::npos, Tsv.find("node0\tStatFiles\t0\t0.2\t20"));
  EXPECT_NE(std::string::npos, Tsv.find("node1\tStatFiles\t1\t0.1\t20"));
}

//===----------------------------------------------------------------------===//
// Differential check: sparse time logs against the dense implementation
//===----------------------------------------------------------------------===//

/// The dense form the logs had before they went sparse: one bucket per
/// interval, grown by resize on every record. The functions below are the
/// consumers' dense implementations, kept here as the reference.
struct DenseTrace {
  int Rank = 0;
  unsigned Ordinal = 0;
  std::string Hostname;
  std::vector<uint64_t> Buckets;
  uint64_t TotalOps = 0;
  SimDuration FinishOffset = 0;
  uint64_t FailedRequests = 0;
};

struct DenseResult {
  std::string Operation;
  std::string FileSystem;
  unsigned NumNodes = 0;
  unsigned PerNode = 0;
  SimDuration Interval = milliseconds(100);
  std::vector<DenseTrace> Processes;
};

void denseRecord(std::vector<uint64_t> &Buckets, SimTime Start,
                 SimDuration Interval, SimTime Now, uint64_t Count) {
  size_t Index = static_cast<size_t>((Now - Start) / Interval);
  if (Buckets.size() <= Index)
    Buckets.resize(Index + 1, 0);
  Buckets[Index] += Count;
}

uint64_t denseCumulativeAt(const DenseTrace &P, size_t Index) {
  uint64_t Sum = 0;
  for (size_t I = 0; I <= Index && I < P.Buckets.size(); ++I)
    Sum += P.Buckets[I];
  return Sum;
}

size_t denseNumIntervals(const DenseResult &R) {
  size_t Max = 0;
  for (const DenseTrace &P : R.Processes)
    Max = std::max(Max, P.Buckets.size());
  return Max;
}

std::vector<IntervalRow> denseIntervalSummary(const DenseResult &R) {
  std::vector<IntervalRow> Rows;
  size_t NumIntervals = denseNumIntervals(R);
  double IntervalSec = toSeconds(R.Interval);
  size_t NumProcs = R.Processes.size();
  uint64_t Cumulative = 0;
  for (size_t I = 0; I < NumIntervals; ++I) {
    double Sum = 0, SumSq = 0;
    uint64_t IntervalTotal = 0;
    for (const DenseTrace &P : R.Processes) {
      uint64_t Ops = I < P.Buckets.size() ? P.Buckets[I] : 0;
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
      Row.PerProcStddev = std::sqrt(Var);
      Row.PerProcCov = Mean > 0 ? Row.PerProcStddev / Mean : 0;
    }
    Rows.push_back(Row);
  }
  return Rows;
}

size_t denseBoundaryIndexFor(SimDuration T, SimDuration Interval) {
  if (T <= 0)
    return 1;
  return static_cast<size_t>((T + Interval - 1) / Interval);
}

SimDuration denseMinFinish(const DenseResult &R) {
  SimDuration Min = 0;
  bool First = true;
  for (const DenseTrace &P : R.Processes)
    if (First || P.FinishOffset < Min) {
      Min = P.FinishOffset;
      First = false;
    }
  return Min;
}

double denseStonewallAverage(const DenseResult &R) {
  if (R.Processes.empty())
    return 0;
  size_t K = denseBoundaryIndexFor(denseMinFinish(R), R.Interval);
  uint64_t Ops = 0;
  for (const DenseTrace &P : R.Processes)
    Ops += denseCumulativeAt(P, K - 1);
  double T = static_cast<double>(K) * toSeconds(R.Interval);
  return T > 0 ? static_cast<double>(Ops) / T : 0;
}

double denseAverageForFixedOps(const DenseResult &R, uint64_t Ops) {
  size_t NumIntervals = denseNumIntervals(R);
  uint64_t Cumulative = 0;
  for (size_t I = 0; I < NumIntervals; ++I) {
    for (const DenseTrace &P : R.Processes)
      if (I < P.Buckets.size())
        Cumulative += P.Buckets[I];
    if (Cumulative >= Ops)
      return static_cast<double>(Ops) /
             (static_cast<double>(I + 1) * toSeconds(R.Interval));
  }
  return 0;
}

std::string denseToTsv(const DenseResult &R) {
  std::string Out =
      "Hostname\tOperation\tProcessNo\tTimestamp\tOperationsDone\n";
  for (const DenseTrace &P : R.Processes) {
    uint64_t Cum = 0;
    for (size_t I = 0, E = P.Buckets.size(); I != E; ++I) {
      Cum += P.Buckets[I];
      Out += format("%s\t%s\t%u\t%.1f\t%llu\n", P.Hostname.c_str(),
                    R.Operation.c_str(), P.Ordinal,
                    toSeconds(static_cast<SimDuration>(I + 1) * R.Interval),
                    (unsigned long long)Cum);
    }
  }
  return Out;
}

std::string denseIntervalSummaryTsv(const DenseResult &R) {
  std::string Out;
  for (const IntervalRow &Row : denseIntervalSummary(R))
    Out += format("%s\t%u\t%u\t%.1f\t%llu\t%.0f\t%.1f\t%.3f\n",
                  R.Operation.c_str(), R.NumNodes, R.NumNodes * R.PerNode,
                  Row.TimeSec, (unsigned long long)Row.TotalOps,
                  Row.OpsPerSec, Row.PerProcStddev, Row.PerProcCov);
  return Out;
}

std::string denseCanonicalResultText(const std::vector<DenseResult> &Set) {
  std::string Out;
  for (const DenseResult &S : Set) {
    Out += format("== %s %s nodes=%u perNode=%u ==\n", S.Operation.c_str(),
                  S.FileSystem.c_str(), S.NumNodes, S.PerNode);
    std::vector<std::string> ProcLines;
    for (const DenseTrace &P : S.Processes) {
      std::string Line =
          format("proc\tops=%llu\tfailed=%llu\tfinish=%.6f\t",
                 (unsigned long long)P.TotalOps,
                 (unsigned long long)P.FailedRequests,
                 toSeconds(P.FinishOffset));
      uint64_t Cum = 0;
      for (uint64_t N : P.Buckets) {
        Cum += N;
        Line += format("%llu,", (unsigned long long)Cum);
      }
      ProcLines.push_back(std::move(Line));
    }
    std::sort(ProcLines.begin(), ProcLines.end());
    for (const std::string &Line : ProcLines)
      Out += Line + "\n";
    Out += denseIntervalSummaryTsv(S);
    uint64_t TotalOps = 0;
    SimDuration MaxFinish = 0;
    for (const DenseTrace &P : S.Processes) {
      TotalOps += P.TotalOps;
      MaxFinish = std::max(MaxFinish, P.FinishOffset);
    }
    double WallSec = toSeconds(MaxFinish);
    double WallRate = WallSec > 0 ? static_cast<double>(TotalOps) / WallSec
                                  : 0;
    double StonewallSec =
        static_cast<double>(
            denseBoundaryIndexFor(denseMinFinish(S), S.Interval)) *
        toSeconds(S.Interval);
    Out += format("total_ops\t%llu\n", (unsigned long long)TotalOps);
    Out += format("wallclock\t%.6f\t%.3f\n", WallSec, WallRate);
    Out += format("stonewall\t%.6f\t%.3f\n", StonewallSec,
                  denseStonewallAverage(S));
  }
  return Out;
}

/// Bitwise equality: the sparse sweep must reproduce every double, not
/// only approximate it.
bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// One random subtask, logged through TimeLog (the sparse result) and
/// through the dense reference at the same time. The logs mix gaps
/// between non-empty intervals, 0-op records past the last non-empty
/// interval, batched counts, empty logs and completions exactly on
/// interval boundaries.
void randomSubtask(Rng &R, unsigned Index, SubtaskResult &Sparse,
                   DenseResult &Dense) {
  static const SimDuration Intervals[] = {milliseconds(100), seconds(1.0),
                                          microseconds(700)};
  Sparse.Operation = Dense.Operation = format("Op%u", Index);
  Sparse.FileSystem = Dense.FileSystem = "fs";
  Sparse.NumNodes = Dense.NumNodes = 1 + static_cast<unsigned>(R.below(3));
  Sparse.PerNode = Dense.PerNode = 1 + static_cast<unsigned>(R.below(4));
  SimDuration Interval = Intervals[R.below(3)];
  Sparse.Interval = Dense.Interval = Interval;
  SimTime Start = static_cast<SimTime>(R.below(1000)) * Interval / 7;
  unsigned NumProcs = static_cast<unsigned>(R.below(7)); // 0 = empty result
  for (unsigned P = 0; P < NumProcs; ++P) {
    TimeLog Log;
    Log.start(Start, Interval);
    DenseTrace D;
    D.Rank = static_cast<int>(P + 1);
    D.Ordinal = P;
    D.Hostname = format("node%u", P % 3);
    SimTime Now = Start;
    unsigned Records = R.below(5) == 0 ? 0 : static_cast<unsigned>(R.below(40));
    for (unsigned K = 0; K < Records; ++K) {
      switch (R.below(5)) {
      case 0: // the same instant
        break;
      case 1: // exactly on the next interval boundary
        Now = Start + ((Now - Start) / Interval + 1) * Interval;
        break;
      case 2: // a gap of several empty intervals
        Now += static_cast<SimDuration>(2 + R.below(30)) * Interval;
        break;
      case 3: // just before a boundary
        Now = Start + ((Now - Start) / Interval + 1) * Interval - 1;
        break;
      default:
        Now += static_cast<SimDuration>(R.below(Interval));
        break;
      }
      uint64_t Count = R.below(4) == 0   ? 0
                       : R.below(3) == 0 ? 1 + R.below(1000) // batched
                                         : 1;
      Log.record(Now, Count);
      denseRecord(D.Buckets, Start, Interval, Now, Count);
    }
    if (R.below(3) == 0) {
      // A 0-op record past the last non-empty interval still extends the
      // timeline.
      Now += static_cast<SimDuration>(1 + R.below(20)) * Interval;
      Log.record(Now, 0);
      denseRecord(D.Buckets, Start, Interval, Now, 0);
    }
    Now += static_cast<SimDuration>(R.below(3)) * Interval / 2;
    Log.finish(Now);
    D.TotalOps = Log.totalOps();
    D.FinishOffset = Log.finishOffset();
    D.FailedRequests = R.below(4) == 0 ? R.below(5) : 0;

    ProcessTrace T;
    T.Rank = D.Rank;
    T.Ordinal = D.Ordinal;
    T.Hostname = D.Hostname;
    T.OpsPerInterval = Log.takeOpsPerInterval();
    T.TotalOps = D.TotalOps;
    T.FinishOffset = D.FinishOffset;
    T.FailedRequests = D.FailedRequests;
    Sparse.Processes.push_back(std::move(T));
    Dense.Processes.push_back(std::move(D));
  }
}

TEST(AnalysisDifferential, SparseLogsMatchTheDenseImplementation) {
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Rng R(Seed);
    ResultSet Set;
    std::vector<DenseResult> DenseSet;
    unsigned NumSubtasks = 1 + static_cast<unsigned>(R.below(3));
    for (unsigned I = 0; I < NumSubtasks; ++I) {
      SubtaskResult Sparse;
      DenseResult Dense;
      randomSubtask(R, I, Sparse, Dense);
      Set.Subtasks.push_back(std::move(Sparse));
      DenseSet.push_back(std::move(Dense));
    }
    for (size_t I = 0; I < NumSubtasks; ++I) {
      const SubtaskResult &S = Set.Subtasks[I];
      const DenseResult &D = DenseSet[I];
      ASSERT_EQ(denseNumIntervals(D), S.numIntervals());
      for (size_t P = 0; P < S.Processes.size(); ++P) {
        const ProcessTrace &T = S.Processes[P];
        ASSERT_EQ(D.Processes[P].Buckets, T.OpsPerInterval.dense());
        for (size_t K = 0; K <= S.numIntervals() + 1; ++K)
          ASSERT_EQ(denseCumulativeAt(D.Processes[P], K), T.cumulativeAt(K));
      }
      std::vector<IntervalRow> Rows = intervalSummary(S);
      std::vector<IntervalRow> DenseRows = denseIntervalSummary(D);
      ASSERT_EQ(DenseRows.size(), Rows.size());
      for (size_t K = 0; K < Rows.size(); ++K) {
        EXPECT_TRUE(sameBits(DenseRows[K].TimeSec, Rows[K].TimeSec));
        EXPECT_EQ(DenseRows[K].TotalOps, Rows[K].TotalOps);
        EXPECT_TRUE(sameBits(DenseRows[K].OpsPerSec, Rows[K].OpsPerSec));
        EXPECT_TRUE(
            sameBits(DenseRows[K].PerProcStddev, Rows[K].PerProcStddev));
        EXPECT_TRUE(sameBits(DenseRows[K].PerProcCov, Rows[K].PerProcCov));
      }
      EXPECT_TRUE(sameBits(denseStonewallAverage(D), stonewallAverage(S)));
      uint64_t Total = S.totalOps();
      for (uint64_t Ops : {uint64_t(0), uint64_t(1), Total / 3, Total / 2,
                           Total, Total + 1, 1 + R.below(Total + 1)})
        EXPECT_TRUE(sameBits(denseAverageForFixedOps(D, Ops),
                             averageForFixedOps(S, Ops)))
            << "ops " << Ops;
      EXPECT_EQ(denseToTsv(D), S.toTsv());
      EXPECT_EQ(denseIntervalSummaryTsv(D), intervalSummaryTsv(S));
    }
    EXPECT_EQ(denseCanonicalResultText(DenseSet), canonicalResultText(Set));
  }
}

} // namespace
