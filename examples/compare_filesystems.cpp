//===- examples/compare_filesystems.cpp - Multi-FS comparison -------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison workflow of thesis Ch. 4: mount all six file system
/// models on one cluster and measure a mix of metadata operations on each,
/// printing a Fig. 3.12-style performance-vs-processes chart for file
/// creation.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include "support/Format.h"
#include "support/TextTable.h"
#include <cstdio>

using namespace dmb;

int main() {
  Scheduler S;
  Cluster C(S, 4, 8);
  NfsFs Nfs(S);
  LustreFs Lustre(S);
  CxfsFs Cxfs(S);
  VolumeFs Afs(S, afsOptions());
  LocalFsModel Local(S);
  C.mountEverywhere(Nfs);
  C.mountEverywhere(Lustre);
  C.mountEverywhere(Cxfs);
  C.mountEverywhere(Afs);
  C.mountEverywhere(Local);

  const char *FileSystems[] = {"localfs", "nfs", "lustre", "cxfs", "afs"};
  const char *Operations[] = {"MakeFiles", "StatNocacheFiles",
                              "DeleteFiles", "MakeDirs"};

  MpiEnvironment Env = MpiEnvironment::uniform(4, 3);

  std::printf("Metadata performance, 2 nodes x 2 processes (stonewall "
              "ops/s):\n\n");
  TextTable T;
  T.setHeader({"file system", "MakeFiles", "StatNocacheFiles",
               "DeleteFiles", "MakeDirs"});
  for (const char *Fs : FileSystems) {
    std::vector<std::string> Row = {Fs};
    for (const char *Op : Operations) {
      BenchParams P;
      P.Operations = {Op};
      P.ProblemSize = 2000;
      P.TimeLimit = seconds(5.0);
      Master M(C, Env, Fs, P);
      ResultSet Res = M.runCombination(2, 2);
      Row.push_back(format("%.0f", stonewallAverage(Res.Subtasks[0])));
    }
    T.addRow(std::move(Row));
  }
  std::fputs(T.render().c_str(), stdout);

  // Performance-vs-processes chart for creation on the networked systems.
  std::printf("\n");
  std::vector<ScalingInput> Inputs;
  std::vector<ResultSet> Keep; // keep results alive for the chart
  Keep.reserve(3);
  for (const char *Fs : {"nfs", "lustre", "cxfs"}) {
    BenchParams P;
    P.Operations = {"MakeFiles"};
    P.TimeLimit = seconds(5.0);
    P.ProblemSize = 100000;
    Master M(C, Env, Fs, P);
    Keep.push_back(M.run());
  }
  const char *Labels[] = {"MakeFiles on nfs", "MakeFiles on lustre",
                          "MakeFiles on cxfs"};
  for (size_t I = 0; I < Keep.size(); ++I) {
    ScalingInput In;
    In.Label = Labels[I];
    for (const SubtaskResult &Sub : Keep[I].Subtasks)
      In.Subtasks.push_back(&Sub);
    Inputs.push_back(std::move(In));
  }
  std::printf("%s", renderProcessScalingChart(
                        Inputs, "File creation vs total processes")
                        .c_str());
  return 0;
}
