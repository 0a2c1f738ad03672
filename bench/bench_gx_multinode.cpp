//===- bench/bench_gx_multinode.cpp - E15: §4.7.2 -------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces \S 4.7.2 "Multi-node operations on Ontap GX": sixteen client
/// nodes against the 8-filer cluster. With every process working in one
/// volume the owning D-blade is the bottleneck; with a per-process path
/// list (\S 3.3.6) spreading volumes over all filers, throughput scales
/// with the cluster — namespace aggregation turns volume placement into
/// the parallelism knob.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace dmbbench;

namespace {

double gxMultiRate(bool SpreadVolumes, unsigned Nodes) {
  Scheduler S;
  Cluster C(S, 16, 8);
  VolumeFs Gx(S, gxOptions());
  Gx.setupUniform(0, 16);
  C.mountEverywhere(Gx);
  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.TimeLimit = seconds(10.0);
  P.ProblemSize = 1000000;
  if (SpreadVolumes) {
    for (unsigned V = 0; V < 16; ++V)
      P.PathList.push_back(format("/vol%u", V));
  } else {
    P.PathList = {"/vol0"};
  }
  ResultSet Res = runCombo(C, "ontapgx", P, Nodes, 1);
  return rateOf(Res);
}

} // namespace

int main() {
  banner("E15 bench_gx_multinode", "thesis §4.7.2",
         "Ontap GX, multiple nodes: one shared volume vs per-process "
         "volumes across all 8 filers.");

  TextTable T;
  T.setHeader({"nodes", "one volume ops/s", "spread volumes ops/s",
               "spread/one"});
  ChartSeries One{"all processes in one volume", {}};
  ChartSeries Spread{"per-process volumes (path list)", {}};
  for (unsigned Nodes : {1u, 2u, 4u, 8u, 16u}) {
    double A = gxMultiRate(false, Nodes);
    double B = gxMultiRate(true, Nodes);
    One.Points.push_back({double(Nodes), A});
    Spread.Points.push_back({double(Nodes), B});
    T.addRow({format("%u", Nodes), ops(A), ops(B), format("%.2f", B / A)});
  }
  printTable(T);

  ChartOptions Opt;
  Opt.Title = "GX multi-node file creation (cf. Fig. 3.13 chart type)";
  Opt.XLabel = "number of nodes";
  Opt.YLabel = "total ops/s";
  std::printf("%s\n", renderAsciiChart({One, Spread}, Opt).c_str());

  std::printf("Expected shape: the single-volume series flattens at one "
              "D-blade's capacity;\nthe path-list series keeps scaling "
              "across the 8 filers (§4.7.2).\n");
  return 0;
}
