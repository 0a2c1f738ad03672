//===- bench/bench_plugin_matrix.cpp - E18: Table 3.5 x Ch. 4 systems -----===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs every pre-defined plugin of Table 3.5 on every file system model
/// of Ch. 4 (2 nodes x 2 processes) and prints the stonewall ops/s matrix
/// — the "operation x file system" overview the thesis assembles across
/// its measurement sections.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace dmbbench;

int main() {
  banner("E18 bench_plugin_matrix", "thesis Table 3.5 / Ch. 4",
         "All ten pre-defined operations on all six file system models "
         "(2 nodes x 2 ppn,\nstonewall ops/s; MakeFiles-family time "
         "limited to 5 s, fixed-size plugins 2000 ops/proc).");

  std::vector<std::string> Operations = {
      "MakeFiles",       "MakeFiles64byte",  "MakeFiles65byte",
      "MakeDirs",        "MakeOnedirFiles",  "DeleteFiles",
      "StatFiles",       "StatNocacheFiles", "StatMultinodeFiles",
      "OpenCloseFiles"};
  const char *FileSystems[] = {"localfs", "nfs",     "lustre",
                               "cxfs",    "ontapgx", "afs"};

  TextTable T;
  T.setHeader({"operation", "localfs", "nfs", "lustre", "cxfs", "ontapgx",
               "afs"});
  for (const std::string &Op : Operations) {
    std::vector<std::string> Row = {Op};
    for (const char *Fs : FileSystems) {
      Scheduler S;
      Cluster C(S, 2, 8);
      NfsFs Nfs(S);
      LustreFs Lustre(S);
      CxfsFs Cxfs(S);
      VolumeFs Gx(S, gxOptions());
      VolumeFs Afs(S, afsOptions());
      LocalFsModel Local(S);
      C.mountEverywhere(Nfs);
      C.mountEverywhere(Lustre);
      C.mountEverywhere(Cxfs);
      C.mountEverywhere(Gx);
      C.mountEverywhere(Afs);
      C.mountEverywhere(Local);
      BenchParams P;
      P.Operations = {Op};
      P.ProblemSize = 2000;
      P.TimeLimit = seconds(5.0);
      ResultSet Res = runCombo(C, Fs, P, 2, 2);
      const SubtaskResult &Sub = Res.Subtasks[0];
      // StatMultinodeFiles cannot work on node-local file systems.
      bool Invalid = Op == "StatMultinodeFiles" &&
                     std::string(Fs) == "localfs";
      Row.push_back(Invalid ? "n/a" : ops(wallClockAverage(Sub)));
    }
    T.addRow(std::move(Row));
  }
  printTable(T);

  std::printf("Expected shape: localfs orders of magnitude above the "
              "networked systems; cached\nStatFiles fastest everywhere a "
              "client cache exists; AFS slowest per volume\n(single-"
              "threaded fileserver); nocache/multinode stats pay full "
              "RPCs.\n");
  return 0;
}
