//===- tools/dmetabench.cpp - Command-line front end ----------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dmetabench command-line tool, mirroring the invocation of thesis
/// Listing 3.2 on the simulated cluster:
///
///   dmetabench --np 15 --nodes 5 --fs nfs
///       --ppnstep 5 --problemsize 10000
///       --operations MakeFiles,StatFiles
///       --workdir /mnt/nfs/testdirectory
///       --label first-nfs-benchmark --outdir results
///
/// (one shell command; wrapped here because a trailing backslash in a //
/// comment is a -Wcomment line splice).
///
/// Runs the full execution plan, prints Listing 3.5-style summaries and a
/// chart, and writes the result files of \S 3.3.9 to --outdir.
///
/// The "trace" verb (dmetabench trace [options]) runs the same plan with
/// an operation trace sink attached and additionally prints the per-op
/// latency report (p50/p95/p99/max plus the span breakdown) and the
/// latency-breakdown chart; --outdir then also receives trace.txt.
///
/// The "verify-schedules" verb (dmetabench verify-schedules [--schedules N]
/// [--seed S]) reruns built-in tier-1 scenarios for six file system models
/// (nfs, lustre, afs, gx, cxfs, localfs) under N permuted same-timestamp
/// schedules (sim/ScheduleVerify.h) and fails if any rerun's interval TSVs
/// or summaries differ from the default schedule.
///
//===----------------------------------------------------------------------===//

#include "core/ResultsIO.h"
#include "dmetabench/DMetabench.h"
#include "support/Format.h"
#include "support/TextTable.h"
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace dmb;

namespace {

struct CliOptions {
  unsigned Np = 9;             ///< total MPI slots
  unsigned Nodes = 3;          ///< cluster nodes
  unsigned Cores = 8;          ///< cores per node
  std::string Fs = "nfs";      ///< nfs|lustre|lustre-wb|cxfs|afs|gx|sharded|localfs
  unsigned Volumes = 8;        ///< volumes for afs/gx
  double LatencyUs = 0;        ///< override one-way RPC latency (0 = keep)
  bool Extensions = false;     ///< register extension plugins
  bool Chart = false;          ///< render a scaling chart
  std::string OutDir;          ///< write result files here
  BenchParams Params;
};

void usage() {
  std::fputs(
      "usage: dmetabench [trace|verify-schedules] [options]\n"
      "  trace                record per-operation span traces and print\n"
      "                       the latency report and breakdown chart\n"
      "  verify-schedules     rerun built-in tier-1 scenarios (nfs, lustre,\n"
      "                       afs, gx, cxfs, localfs) under permuted\n"
      "                       same-timestamp schedules and check\n"
      "                       bit-identical results (options: --schedules N\n"
      "                       [default 8], --seed S [default 1])\n"
      "  --np N               total MPI slots (default 9)\n"
      "  --nodes N            cluster nodes (default 3)\n"
      "  --cores N            cores per node (default 8)\n"
      "  --fs NAME            nfs|lustre|lustre-wb|cxfs|afs|gx|sharded|localfs\n"
      "  --volumes N          volumes for afs/gx (default 8)\n"
      "  --latency-us X       override one-way RPC latency (nfs/lustre)\n"
      "  --operations A,B     plugin list (default MakeFiles)\n"
      "  --problemsize N      ops per process / dir rollover (default 5000)\n"
      "  --timelimit SEC      MakeFiles-family budget (default 60)\n"
      "  --ppnstep N          processes-per-node step (default 1)\n"
      "  --nodestep N         node-count step (default 1)\n"
      "  --workdir PATH       shared working directory\n"
      "  --pathlist A,B,...   per-process working paths\n"
      "  --label NAME         result-set label\n"
      "  --outdir DIR         write results-*.tsv / summary.tsv there\n"
      "  --extensions         register BulkStatFiles/ReaddirFiles\n"
      "  --chart              print a performance-vs-processes chart\n"
      "  --list-operations    print registered plugins and exit\n",
      stderr);
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opt) {
  auto Value = [&](int &I) -> const char * {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Argv[I]);
      return nullptr;
    }
    return Argv[++I];
  };
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const char *V = nullptr;
    if (!std::strcmp(Arg, "--help") || !std::strcmp(Arg, "-h")) {
      usage();
      std::exit(0);
    }
    if (!std::strcmp(Arg, "--list-operations")) {
      registerExtensionPlugins(PluginRegistry::global());
      for (const std::string &Name : PluginRegistry::global().names())
        std::printf("%s\n", Name.c_str());
      std::exit(0);
    }
    if (!std::strcmp(Arg, "--extensions")) {
      Opt.Extensions = true;
    } else if (!std::strcmp(Arg, "--chart")) {
      Opt.Chart = true;
    } else if (!std::strcmp(Arg, "--np")) {
      if (!(V = Value(I)))
        return false;
      Opt.Np = std::strtoul(V, nullptr, 10);
    } else if (!std::strcmp(Arg, "--nodes")) {
      if (!(V = Value(I)))
        return false;
      Opt.Nodes = std::strtoul(V, nullptr, 10);
    } else if (!std::strcmp(Arg, "--cores")) {
      if (!(V = Value(I)))
        return false;
      Opt.Cores = std::strtoul(V, nullptr, 10);
    } else if (!std::strcmp(Arg, "--fs")) {
      if (!(V = Value(I)))
        return false;
      Opt.Fs = V;
    } else if (!std::strcmp(Arg, "--volumes")) {
      if (!(V = Value(I)))
        return false;
      Opt.Volumes = std::strtoul(V, nullptr, 10);
    } else if (!std::strcmp(Arg, "--latency-us")) {
      if (!(V = Value(I)))
        return false;
      Opt.LatencyUs = std::strtod(V, nullptr);
    } else if (!std::strcmp(Arg, "--operations")) {
      if (!(V = Value(I)))
        return false;
      Opt.Params.Operations = split(V, ',');
    } else if (!std::strcmp(Arg, "--problemsize")) {
      if (!(V = Value(I)))
        return false;
      Opt.Params.ProblemSize = std::strtoull(V, nullptr, 10);
    } else if (!std::strcmp(Arg, "--timelimit")) {
      if (!(V = Value(I)))
        return false;
      Opt.Params.TimeLimit = seconds(std::strtod(V, nullptr));
    } else if (!std::strcmp(Arg, "--ppnstep")) {
      if (!(V = Value(I)))
        return false;
      Opt.Params.PpnStep = std::strtoul(V, nullptr, 10);
    } else if (!std::strcmp(Arg, "--nodestep")) {
      if (!(V = Value(I)))
        return false;
      Opt.Params.NodeStep = std::strtoul(V, nullptr, 10);
    } else if (!std::strcmp(Arg, "--workdir")) {
      if (!(V = Value(I)))
        return false;
      Opt.Params.WorkDir = V;
    } else if (!std::strcmp(Arg, "--pathlist")) {
      if (!(V = Value(I)))
        return false;
      Opt.Params.PathList = split(V, ',');
    } else if (!std::strcmp(Arg, "--label")) {
      if (!(V = Value(I)))
        return false;
      Opt.Params.Label = V;
    } else if (!std::strcmp(Arg, "--outdir")) {
      if (!(V = Value(I)))
        return false;
      Opt.OutDir = V;
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", Arg);
      usage();
      return false;
    }
  }
  return true;
}

/// Builds the requested file system model; returns its mount name.
std::unique_ptr<DistributedFs> makeFs(Scheduler &S, const CliOptions &Opt) {
  if (Opt.Fs == "nfs") {
    NfsOptions O;
    if (Opt.LatencyUs > 0)
      O.Client.Net.OneWayLatency = static_cast<SimDuration>(Opt.LatencyUs * 1000);
    return std::make_unique<NfsFs>(S, O);
  }
  if (Opt.Fs == "lustre" || Opt.Fs == "lustre-wb") {
    LustreOptions O;
    if (Opt.Fs == "lustre-wb") {
      // The classic write-back cache: the write-behind queue's eager
      // discipline.
      O.Client.WriteBehind.Enabled = true;
      O.Client.WriteBehind.DeferIssue = false;
    }
    if (Opt.LatencyUs > 0)
      O.Client.Net.OneWayLatency = static_cast<SimDuration>(Opt.LatencyUs * 1000);
    return std::make_unique<LustreFs>(S, O);
  }
  if (Opt.Fs == "cxfs")
    return std::make_unique<CxfsFs>(S);
  if (Opt.Fs == "afs") {
    // Two volumes per fileserver, beside the root-volume server.
    unsigned Servers = std::max(1u, Opt.Volumes / 2);
    auto Cell = std::make_unique<VolumeFs>(S, afsOptions());
    Cell->setupUniform(Servers, 2 * Servers);
    return Cell;
  }
  if (Opt.Fs == "gx") {
    auto Gx = std::make_unique<VolumeFs>(S, gxOptions());
    Gx->setupUniform(0, Opt.Volumes);
    return Gx;
  }
  if (Opt.Fs == "sharded") {
    ShardedOptions O;
    if (Opt.LatencyUs > 0)
      O.Client.Net.OneWayLatency = static_cast<SimDuration>(Opt.LatencyUs * 1000);
    return std::make_unique<ShardedFs>(S, O);
  }
  if (Opt.Fs == "localfs")
    return std::make_unique<LocalFsModel>(S);
  return nullptr;
}

/// One built-in scenario for the verify-schedules verb: a small tier-1
/// benchmark combination rendered through canonicalResultText().
ScheduleScenario makeVerifyScenario(std::string Name, std::string FsName,
                                    std::vector<std::string> Ops,
                                    uint64_t ProblemSize, unsigned Nodes,
                                    unsigned Ppn) {
  ScheduleScenario Sc;
  Sc.Name = std::move(Name);
  Sc.Run = [FsName = std::move(FsName), Ops = std::move(Ops), ProblemSize,
            Nodes, Ppn](Scheduler &S) {
    Cluster C(S, Nodes, 4);
    CliOptions Opt;
    Opt.Fs = FsName;
    std::unique_ptr<DistributedFs> Fs = makeFs(S, Opt);
    C.mountEverywhere(*Fs);
    BenchParams P;
    P.Operations = Ops;
    P.ProblemSize = ProblemSize;
    P.TimeLimit = seconds(2.0);
    // One extra rank per node: rank 0 becomes the master (§3.3.4) and is
    // not placeable as a worker.
    MpiEnvironment Env = MpiEnvironment::uniform(Nodes, Ppn + 1);
    Master M(C, Env, Fs->name(), P);
    ResultSet Res = M.runCombination(Nodes, Ppn);
    return canonicalResultText(Res);
  };
  return Sc;
}

int runVerifySchedules(int Argc, char **Argv) {
  ScheduleVerifyOptions Opt;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (!std::strcmp(Arg, "--help") || !std::strcmp(Arg, "-h")) {
      usage();
      return 0;
    }
    if (!std::strcmp(Arg, "--schedules") && I + 1 < Argc) {
      Opt.Schedules = std::strtoul(Argv[++I], nullptr, 10);
    } else if (!std::strcmp(Arg, "--seed") && I + 1 < Argc) {
      Opt.BaseSeed = std::strtoull(Argv[++I], nullptr, 10);
    } else {
      std::fprintf(stderr, "error: unknown verify-schedules option %s\n",
                   Arg);
      usage();
      return 2;
    }
  }
  // The tier-1 scenarios of tests/IntegrationTest.cpp in miniature: the
  // protocol-mediated baseline and the writeback variant whose consistency
  // points add background timer traffic, then one small MakeFiles run per
  // remaining model family.
  std::vector<ScheduleScenario> Scenarios;
  Scenarios.push_back(makeVerifyScenario("nfs-makefiles-statfiles", "nfs",
                                         {"MakeFiles", "StatFiles"}, 300, 2,
                                         2));
  Scenarios.push_back(makeVerifyScenario("lustre-makefiles", "lustre",
                                         {"MakeFiles"}, 300, 2, 2));
  for (const char *FsName : {"afs", "gx", "cxfs", "localfs"})
    Scenarios.push_back(makeVerifyScenario(std::string(FsName) + "-makefiles",
                                           FsName, {"MakeFiles"}, 200, 2, 2));
  bool AllOk = true;
  for (const ScheduleScenario &Sc : Scenarios) {
    ScheduleVerifyResult R = verifySchedules(Sc, Opt);
    std::printf("verify-schedules: %s\n", R.Report.c_str());
    AllOk = AllOk && R.passed();
  }
  return AllOk ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc > 1 && !std::strcmp(Argv[1], "verify-schedules"))
    return runVerifySchedules(Argc - 1, Argv + 1);
  // The optional "trace" verb comes before the flags.
  bool Trace = Argc > 1 && !std::strcmp(Argv[1], "trace");
  CliOptions Opt;
  if (!parseArgs(Trace ? Argc - 1 : Argc, Trace ? Argv + 1 : Argv, Opt))
    return 1;
  if (Opt.Extensions)
    registerExtensionPlugins(PluginRegistry::global());

  for (const std::string &Op : Opt.Params.Operations)
    if (!PluginRegistry::global().get(Op)) {
      std::fprintf(stderr,
                   "error: unknown operation '%s' (see --list-operations)\n",
                   Op.c_str());
      return 1;
    }

  Scheduler S;
  OpTraceSink Sink;
  if (Trace)
    S.setTraceSink(&Sink);
  Cluster C(S, Opt.Nodes, Opt.Cores);
  std::unique_ptr<DistributedFs> Fs = makeFs(S, Opt);
  if (!Fs) {
    std::fprintf(stderr, "error: unknown file system '%s'\n",
                 Opt.Fs.c_str());
    return 1;
  }
  C.mountEverywhere(*Fs);

  // Distribute the MPI slots over the nodes like a block hostfile.
  unsigned PerNode = (Opt.Np + Opt.Nodes - 1) / Opt.Nodes;
  std::vector<unsigned> Layout;
  for (unsigned R = 0; R < Opt.Np; ++R)
    Layout.push_back(R / PerNode);
  MpiEnvironment Env{Layout};

  Master M(C, Env, Fs->name(), Opt.Params);
  ResultSet Results = M.run();

  std::printf("%s\n", Results.EnvironmentProfile.c_str());
  TextTable T;
  T.setHeader({"operation", "nodes", "ppn", "procs", "total ops",
               "wall [s]", "stonewall ops/s"});
  for (const SubtaskResult &Sub : Results.Subtasks) {
    SubtaskSummary Sum = summarize(Sub);
    T.addRow({Sum.Operation, format("%u", Sum.NumNodes),
              format("%u", Sum.PerNode), format("%u", Sum.TotalProcesses),
              format("%llu", (unsigned long long)Sum.TotalOps),
              format("%.2f", Sum.WallClockSec),
              format("%.0f", Sum.StonewallOpsPerSec)});
  }
  std::fputs(T.render().c_str(), stdout);

  if (Trace) {
    std::printf("\n%s", Results.TraceSummary.c_str());
    std::printf("\n%s", renderLatencyBreakdownChart(
                            traceStats(Sink),
                            "mean latency breakdown on " + Fs->name())
                            .c_str());
  }

  if (Opt.Chart) {
    for (const std::string &Op : Opt.Params.Operations) {
      ScalingInput In;
      In.Label = Op + " on " + Fs->name();
      for (const SubtaskResult &Sub : Results.Subtasks)
        if (Sub.Operation == Op)
          In.Subtasks.push_back(&Sub);
      std::printf("\n%s", renderProcessScalingChart(
                              {In}, Op + ": performance vs processes")
                              .c_str());
    }
  }

  if (!Opt.OutDir.empty()) {
    if (!writeResultSet(Results, Opt.OutDir)) {
      std::fprintf(stderr, "error: could not write results to %s\n",
                   Opt.OutDir.c_str());
      return 1;
    }
    std::printf("\nresults written to %s/\n", Opt.OutDir.c_str());
  }
  return 0;
}
