//===- bench/bench_averaging.cpp - E02: Figs. 3.2-3.4, Listings 3.3-3.5 ---===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the averaging comparison of \S 3.2.5: the worked example of
/// Fig. 3.4 (wall-clock 18 vs stonewall 23.3 ops per unit), and a straggler
/// run (Fig. 3.2 (b)) where the global average hides a slow process that
/// time-interval logging exposes. Also prints the Listing 3.4-style
/// per-interval summary from a live simulated run.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace dmbbench;

static SubtaskResult fig34Example() {
  SubtaskResult R;
  R.Operation = "Fig3.4";
  R.FileSystem = "example";
  R.NumNodes = 3;
  R.PerNode = 1;
  R.Interval = seconds(1.0);
  auto Add = [&R](unsigned Ord, std::vector<uint64_t> Buckets,
                  double Finish) {
    ProcessTrace P;
    P.Ordinal = Ord;
    P.Rank = static_cast<int>(Ord + 1);
    P.Hostname = format("node%u", Ord);
    P.OpsPerInterval = IntervalCounts::fromDense(Buckets);
    for (uint64_t B : Buckets)
      P.TotalOps += B;
    P.FinishOffset = seconds(Finish);
    R.Processes.push_back(std::move(P));
  };
  Add(0, {5, 8, 5, 7, 5}, 5.0);
  Add(1, {8, 10, 12}, 3.0);
  Add(2, {6, 8, 8, 8}, 4.0);
  return R;
}

int main() {
  banner("E02 bench_averaging", "thesis Figs. 3.2-3.4, Listings 3.3-3.5",
         "Global vs stonewall vs time-interval averaging.");

  // Part 1: the worked example of Fig. 3.4.
  SubtaskResult Example = fig34Example();
  std::printf("Fig. 3.4 worked example (3 processes, 30 ops each):\n");
  std::printf("  wall-clock average : %.1f ops/unit   (paper: 18)\n",
              wallClockAverage(Example));
  std::printf("  stonewall average  : %.1f ops/unit   (paper: 23.3)\n\n",
              stonewallAverage(Example));
  TextTable T;
  T.setHeader({"t", "total ops", "ops/unit", "per-proc stddev", "COV"});
  for (const IntervalRow &Row : intervalSummary(Example))
    T.addRow({format("%.0f", Row.TimeSec),
              format("%llu", (unsigned long long)Row.TotalOps),
              format("%.0f", Row.OpsPerSec),
              format("%.1f", Row.PerProcStddev),
              format("%.3f", Row.PerProcCov)});
  printTable(T);

  // Part 2: a live straggler run (Fig. 3.2 (b)): three workers on NFS,
  // one slowed by a CPU hog. Averages hide it; the COV shows it.
  Scheduler S;
  Cluster C(S, 3, 4);
  NfsFs Nfs(S);
  C.mountEverywhere(Nfs);
  // Hog node 2's CPU for the whole run.
  CpuHog Hog(S, C.node(2).cpu(), /*Weight=*/64.0, 0, seconds(120.0));
  BenchParams P;
  P.Operations = {"StatNocacheFiles"};
  P.ProblemSize = 4000;
  P.HarnessOverheadPerCall = microseconds(50);
  ResultSet Res = runCombo(C, "nfs", P, 3, 1);
  const SubtaskResult &Sub = Res.Subtasks[0];

  std::printf("Live straggler run (3 workers, CPU hog on one node):\n");
  std::printf("  wall-clock average : %.0f ops/s\n", wallClockAverage(Sub));
  std::printf("  stonewall average  : %.0f ops/s\n", stonewallAverage(Sub));
  TextTable L;
  L.setHeader({"process", "host", "total ops", "finish [s]"});
  for (const ProcessTrace &Proc : Sub.Processes)
    L.addRow({format("%u", Proc.Ordinal), Proc.Hostname,
              format("%llu", (unsigned long long)Proc.TotalOps),
              format("%.2f", toSeconds(Proc.FinishOffset))});
  printTable(L);
  std::printf("Per-interval log (every 10th interval; Listing 3.4 shape):\n");
  TextTable I;
  I.setHeader({"t [s]", "total ops", "ops/s", "COV"});
  std::vector<IntervalRow> Rows = intervalSummary(Sub);
  for (size_t K = 0; K < Rows.size(); K += 10)
    I.addRow({format("%.1f", Rows[K].TimeSec),
              format("%llu", (unsigned long long)Rows[K].TotalOps),
              format("%.0f", Rows[K].OpsPerSec),
              format("%.3f", Rows[K].PerProcCov)});
  printTable(I);
  std::printf("Expected shape: the straggler stretches wall-clock vs "
              "stonewall, and the COV\nstays elevated while the slowed "
              "process lags (§4.2.3).\n");
  return 0;
}
