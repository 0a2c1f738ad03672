//===- bench/bench_engine_throughput.cpp ----------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// E28: the repo's first raw-performance baseline. Two numbers:
///
///   1. raw scheduler events/sec — interleaved self-rescheduling event
///      chains whose callbacks carry a realistic (~40-byte) capture, so
///      the cost measured is exactly the enqueue/dispatch hot path
///      (callback storage, event pooling, heap maintenance). The default
///      of 16 chains matches the tier-1 scenarios' measured pending-set
///      depth (2 nodes x 4 ppn keeps 7-9 events pending; 16 doubles that
///      for headroom) — use --chains to probe deeper queues;
///   2. end-to-end simulated metadata ops per wall-clock second for the
///      two tier-1 Master scenarios (nfs MakeFiles+StatFiles, lustre
///      MakeFiles) at >= 1e6 simulated operations each at full size.
///
/// Unlike every other bench this one measures *host* performance, so its
/// numbers vary by machine; the simulation itself stays deterministic.
/// Writes BENCH_engine.json (see --out) so the perf trajectory of the
/// engine accumulates per PR (tools/run_checks.sh runs a reduced smoke).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>

using namespace dmbbench;

namespace {

/// Host wall clock, in seconds. The only sanctioned use in the tree:
/// throughput of the engine itself can only be measured against real time.
double wallSeconds() {
  using Clock =
      std::chrono::steady_clock; // dmeta-analyze: allow(wall-clock) host time
  return std::chrono::duration< // dmeta-analyze: allow(wall-clock) host time
             double>(
             Clock::now().time_since_epoch())
      .count();
}

/// One self-rescheduling event chain. The capture (~40 bytes: a pointer,
/// a countdown and three accumulators) models a typical simulation event
/// context — small, but beyond std::function's inline buffer.
struct Chain {
  Scheduler *S = nullptr;
  uint64_t Remaining = 0;
  uint64_t Acc0 = 0, Acc1 = 0, Acc2 = 0;

  void fire() {
    Acc0 += Remaining;
    Acc1 ^= Acc0 >> 3;
    Acc2 += Acc1 & 0xff;
    if (--Remaining == 0)
      return;
    // Varying delays keep many chains interleaved in the queue, so heap
    // maintenance runs against a realistically deep pending set.
    S->after(static_cast<SimDuration>(50 + (Remaining % 17)),
             [C = *this]() mutable { C.fire(); });
  }
};

struct RawResult {
  uint64_t Events = 0;
  double WallSec = 0;
  double EventsPerSec = 0;
};

RawResult rawSchedulerThroughput(uint64_t TargetEvents, unsigned Chains) {
  Scheduler S;
  uint64_t PerChain = TargetEvents / Chains;
  for (unsigned I = 0; I < Chains; ++I) {
    Chain C;
    C.S = &S;
    C.Remaining = PerChain;
    C.Acc0 = I;
    S.after(static_cast<SimDuration>(I), [C]() mutable { C.fire(); });
  }
  double T0 = wallSeconds();
  S.run();
  double T1 = wallSeconds();

  RawResult R;
  R.Events = S.executedEvents();
  R.WallSec = T1 - T0;
  R.EventsPerSec =
      R.WallSec > 0 ? static_cast<double>(R.Events) / R.WallSec : 0;
  return R;
}

struct ScenarioResult {
  uint64_t SimOps = 0;
  double WallSec = 0;
  double OpsPerWallSec = 0;
  double SimOpsPerSec = 0; ///< simulated throughput (determinism check aid)
};

/// Runs one tier-1 Master combination and reports simulated metadata ops
/// retired per wall-clock second — the client-scale number MetaFlow-style
/// studies live on.
ScenarioResult runScenario(const std::string &FsName,
                           std::vector<std::string> Ops,
                           uint64_t ProblemSize, double TimeLimitSec,
                           unsigned Nodes, unsigned Ppn) {
  Scheduler S;
  Cluster C(S, Nodes, 4);
  std::unique_ptr<DistributedFs> Fs;
  if (FsName == "nfs")
    Fs = std::make_unique<NfsFs>(S);
  else
    Fs = std::make_unique<LustreFs>(S);
  C.mountEverywhere(*Fs);

  BenchParams P;
  P.Operations = std::move(Ops);
  // MakeFiles is time-limited (ProblemSize is only the directory
  // rollover); StatFiles is fixed-size at ProblemSize per process.
  P.ProblemSize = ProblemSize;
  P.TimeLimit = seconds(TimeLimitSec);
  MpiEnvironment Env = MpiEnvironment::uniform(Nodes, Ppn + 1);
  Master M(C, Env, Fs->name(), P);

  double T0 = wallSeconds();
  ResultSet Res = M.runCombination(Nodes, Ppn);
  double T1 = wallSeconds();

  ScenarioResult R;
  R.WallSec = T1 - T0;
  double SimSec = 0;
  for (const SubtaskResult &Sub : Res.Subtasks) {
    SubtaskSummary Sum = summarize(Sub);
    R.SimOps += Sum.TotalOps;
    SimSec += Sum.WallClockSec; // "wall" inside the simulation = sim time
  }
  R.OpsPerWallSec =
      R.WallSec > 0 ? static_cast<double>(R.SimOps) / R.WallSec : 0;
  R.SimOpsPerSec = SimSec > 0 ? static_cast<double>(R.SimOps) / SimSec : 0;
  return R;
}

std::string jsonScenario(const ScenarioResult &R) {
  return format("{\"sim_ops\": %llu, \"wall_s\": %.3f, "
                "\"ops_per_wall_sec\": %.0f, \"sim_ops_per_sec\": %.0f}",
                (unsigned long long)R.SimOps, R.WallSec, R.OpsPerWallSec,
                R.SimOpsPerSec);
}

/// Peak resident set size (VmHWM) in kilobytes, or 0 when /proc is not
/// readable. The high-water mark is monotonic, so running curve points in
/// ascending client order lets the delta across the largest point isolate
/// its incremental footprint.
long readVmHwmKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtol(Line.c_str() + 6, nullptr, 10);
  return 0;
}

struct CurvePoint {
  unsigned Clients = 0;
  unsigned Nodes = 0;
  unsigned Ppn = 0;
  uint64_t SimOps = 0;
  uint64_t Events = 0;
  /// Master::runCombination alone: what the scale-curve guard compares.
  double WallSec = 0;
  double EventsPerSec = 0;
  /// The whole point, phase by phase, the way perfbench splits a run:
  /// setup is the Scheduler, Cluster and file system construction, the
  /// mount and the Master constructor; gather is the Listing 3.4 and 3.5
  /// summaries; teardown is every destructor. (perfbench's gather also
  /// renders the dense canonical result text, whose size grows with
  /// clients squared here: each client's timeline runs to its queue
  /// position.)
  double SetupSec = 0;
  double GatherSec = 0;
  double TeardownSec = 0;
  double TotalSec = 0;
  size_t Intervals = 0; ///< rows of the Listing 3.4 summaries
};

/// One scale-out point: a full Master combination with Clients simulated
/// worker processes (8 per node) against a single NFS server. The
/// per-worker problem is kept tiny — the point measures the engine's cost
/// per client (events retired per wall second and bytes of state), not
/// file system throughput.
CurvePoint runCurvePoint(unsigned Clients) {
  unsigned Ppn = 8;
  unsigned Nodes = std::max(1u, Clients / Ppn);
  BenchParams P;
  P.Operations = {"MakeFiles"};
  P.ProblemSize = 1000;
  P.TimeLimit = seconds(0.01);
  MpiEnvironment Env = MpiEnvironment::uniform(Nodes, Ppn + 1);

  double T0 = wallSeconds();
  auto S = std::make_unique<Scheduler>();
  auto C = std::make_unique<Cluster>(*S, Nodes, Ppn);
  auto Fs = std::make_unique<NfsFs>(*S);
  C->mountEverywhere(*Fs);
  auto M = std::make_unique<Master>(*C, Env, Fs->name(), P);
  double T1 = wallSeconds();
  auto Res = std::make_unique<ResultSet>(M->runCombination(Nodes, Ppn));
  double T2 = wallSeconds();
  uint64_t SimOps = 0;
  size_t Rows = 0;
  for (const SubtaskResult &Sub : Res->Subtasks) {
    SimOps += summarize(Sub).TotalOps;
    Rows += intervalSummary(Sub).size();
  }
  double T3 = wallSeconds();
  uint64_t Events = S->executedEvents();
  // Reverse order of construction.
  Res.reset();
  M.reset();
  Fs.reset();
  C.reset();
  S.reset();
  double T4 = wallSeconds();

  CurvePoint Pt;
  Pt.Clients = Nodes * Ppn;
  Pt.Nodes = Nodes;
  Pt.Ppn = Ppn;
  Pt.SimOps = SimOps;
  Pt.Events = Events;
  Pt.Intervals = Rows;
  Pt.WallSec = T2 - T1;
  Pt.EventsPerSec =
      Pt.WallSec > 0 ? static_cast<double>(Pt.Events) / Pt.WallSec : 0;
  Pt.SetupSec = T1 - T0;
  Pt.GatherSec = T3 - T2;
  Pt.TeardownSec = T4 - T3;
  Pt.TotalSec = T4 - T0;
  return Pt;
}

/// The phase fields of \p Pt, as JSON members.
std::string jsonPhases(const CurvePoint &Pt) {
  return format("\"setup_s\": %.3f, \"run_s\": %.3f, \"gather_s\": %.3f, "
                "\"teardown_s\": %.3f, \"total_s\": %.3f",
                Pt.SetupSec, Pt.WallSec, Pt.GatherSec, Pt.TeardownSec,
                Pt.TotalSec);
}

/// Runs the one curve point of \p Clients clients and nothing else, so
/// that the process's peak resident set is that point's, and writes it
/// to \p Out.
int runIsolatedPoint(uint64_t Clients, const std::string &Out) {
  CurvePoint Pt = runCurvePoint(static_cast<unsigned>(Clients));
  long HwmKb = readVmHwmKb();
  long BytesPerClient = Pt.Clients ? HwmKb * 1024L / long(Pt.Clients) : 0;
  std::printf("isolated point: %u clients (%u nodes x %u): %llu sim ops, "
              "%llu events, %zu intervals; setup %.3f s, run %.3f s, "
              "gather %.3f s, teardown %.3f s, total %.3f s; VmHWM %ld kB "
              "= %ld bytes per client\n",
              Pt.Clients, Pt.Nodes, Pt.Ppn, (unsigned long long)Pt.SimOps,
              (unsigned long long)Pt.Events, Pt.Intervals, Pt.SetupSec,
              Pt.WallSec, Pt.GatherSec, Pt.TeardownSec, Pt.TotalSec, HwmKb,
              BytesPerClient);
  std::string Json = format(
      "{\"clients\": %u, \"nodes\": %u, \"ppn\": %u, \"sim_ops\": %llu, "
      "\"events\": %llu, \"intervals\": %zu, %s, \"vmhwm_kb\": %ld, "
      "\"vmhwm_bytes_per_client\": %ld}\n",
      Pt.Clients, Pt.Nodes, Pt.Ppn, (unsigned long long)Pt.SimOps,
      (unsigned long long)Pt.Events, Pt.Intervals, jsonPhases(Pt).c_str(),
      HwmKb, BytesPerClient);
  std::ofstream(Out) << Json;
  std::printf("wrote %s\n", Out.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t RawEvents = 4000000;
  unsigned Chains = 16;
  // Defaults put each scenario at 1e6+ simulated metadata ops: MakeFiles
  // runs the full time limit at the servers' saturation rate; StatFiles
  // adds ProblemSize fixed-size stats per worker process.
  uint64_t ProblemSize = 65536;
  double TimeLimitSec = 75.0;
  uint64_t CurveMax = 1048576;
  uint64_t Point = 0;
  std::string Out = "BENCH_engine.json";
  std::string Label = "current";

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    auto Val = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (!std::strcmp(Arg, "--events"))
      RawEvents = std::strtoull(Val(), nullptr, 10);
    else if (!std::strcmp(Arg, "--chains"))
      Chains = std::strtoul(Val(), nullptr, 10);
    else if (!std::strcmp(Arg, "--problemsize"))
      ProblemSize = std::strtoull(Val(), nullptr, 10);
    else if (!std::strcmp(Arg, "--timelimit"))
      TimeLimitSec = std::strtod(Val(), nullptr);
    else if (!std::strcmp(Arg, "--curve-max"))
      CurveMax = std::strtoull(Val(), nullptr, 10);
    else if (!std::strcmp(Arg, "--point"))
      Point = std::strtoull(Val(), nullptr, 10);
    else if (!std::strcmp(Arg, "--out"))
      Out = Val();
    else if (!std::strcmp(Arg, "--label"))
      Label = Val();
    else {
      std::fprintf(stderr,
                   "usage: bench_engine_throughput [--events N] [--chains N]"
                   " [--problemsize N] [--timelimit SEC] [--curve-max N]"
                   " [--point N] [--out FILE] [--label NAME]\n");
      return 2;
    }
  }
  if (Chains == 0)
    Chains = 1;
  if (Point) {
    // Eight processes per node; 4M clients would need about 13 GB.
    if (Point < 8 || Point > (1u << 22)) {
      std::fprintf(stderr, "bench_engine_throughput: --point takes 8 to "
                           "4194304 clients\n");
      return 2;
    }
    return runIsolatedPoint(Point, Out);
  }

  banner("E28-engine-throughput", "ROADMAP north star",
         "Raw scheduler events/sec and end-to-end simulated metadata "
         "ops per wall-clock second (nfs + lustre tier-1 scenarios)");

  RawResult Raw = rawSchedulerThroughput(RawEvents, Chains);
  std::printf("raw scheduler: %llu events in %.3f s -> %.0f events/s\n",
              (unsigned long long)Raw.Events, Raw.WallSec,
              Raw.EventsPerSec);

  ScenarioResult Nfs = runScenario("nfs", {"MakeFiles", "StatFiles"},
                                   ProblemSize, TimeLimitSec, 2, 4);
  std::printf("nfs MakeFiles+StatFiles: %llu sim ops in %.3f s wall -> "
              "%.0f ops/s wall (sim rate %.0f ops/s)\n",
              (unsigned long long)Nfs.SimOps, Nfs.WallSec,
              Nfs.OpsPerWallSec, Nfs.SimOpsPerSec);

  ScenarioResult Lustre =
      runScenario("lustre", {"MakeFiles"}, ProblemSize, TimeLimitSec, 2, 4);
  std::printf("lustre MakeFiles: %llu sim ops in %.3f s wall -> "
              "%.0f ops/s wall (sim rate %.0f ops/s)\n",
              (unsigned long long)Lustre.SimOps, Lustre.WallSec,
              Lustre.OpsPerWallSec, Lustre.SimOpsPerSec);

  // Clients-vs-throughput scale curve (ROADMAP item 2): geometric client
  // counts up to --curve-max, each a full Master combination. Ascending
  // order makes the VmHWM delta across the largest point its incremental
  // footprint -> bytes per client.
  std::vector<CurvePoint> Curve;
  long BytesPerClient = 0;
  for (uint64_t Clients : {1024ull, 4096ull, 16384ull, 65536ull, 262144ull,
                           1048576ull}) {
    if (Clients > CurveMax)
      break;
    long HwmBefore = readVmHwmKb();
    CurvePoint Pt = runCurvePoint(static_cast<unsigned>(Clients));
    long HwmAfter = readVmHwmKb();
    std::printf("scale %7u clients (%6u nodes x %u): %llu sim ops, "
                "%llu events in %.3f s -> %.0f events/s (total %.3f s: "
                "setup %.3f, gather %.3f, teardown %.3f)\n",
                Pt.Clients, Pt.Nodes, Pt.Ppn,
                (unsigned long long)Pt.SimOps,
                (unsigned long long)Pt.Events, Pt.WallSec, Pt.EventsPerSec,
                Pt.TotalSec, Pt.SetupSec, Pt.GatherSec, Pt.TeardownSec);
    if (HwmAfter > HwmBefore && Pt.Clients > 0)
      BytesPerClient =
          (HwmAfter - HwmBefore) * 1024L / static_cast<long>(Pt.Clients);
    Curve.push_back(Pt);
  }
  if (!Curve.empty())
    std::printf("bytes per client at %u clients: %ld\n",
                Curve.back().Clients, BytesPerClient);

  std::string CurveJson = "[";
  for (size_t I = 0; I < Curve.size(); ++I) {
    const CurvePoint &Pt = Curve[I];
    CurveJson += format("%s\n    {\"clients\": %u, \"nodes\": %u, "
                        "\"ppn\": %u, \"sim_ops\": %llu, \"events\": %llu, "
                        "\"wall_s\": %.3f, \"events_per_sec\": %.0f, %s}",
                        I ? "," : "", Pt.Clients, Pt.Nodes, Pt.Ppn,
                        (unsigned long long)Pt.SimOps,
                        (unsigned long long)Pt.Events, Pt.WallSec,
                        Pt.EventsPerSec, jsonPhases(Pt).c_str());
  }
  CurveJson += "\n  ]";

  std::string Json = format(
      "{\n"
      "  \"bench\": \"engine_throughput\",\n"
      "  \"label\": \"%s\",\n"
      "  \"config\": {\"raw_events\": %llu, \"chains\": %u,\n"
      "             \"problemsize\": %llu, \"timelimit_s\": %.1f},\n"
      "  \"raw_scheduler\": {\"events\": %llu, \"wall_s\": %.3f, "
      "\"events_per_sec\": %.0f},\n"
      "  \"nfs_makefiles_statfiles\": %s,\n"
      "  \"lustre_makefiles\": %s,\n"
      "  \"scale_curve\": %s,\n"
      "  \"bytes_per_client\": %ld\n"
      "}\n",
      Label.c_str(), (unsigned long long)RawEvents, Chains,
      (unsigned long long)ProblemSize, TimeLimitSec,
      (unsigned long long)Raw.Events, Raw.WallSec, Raw.EventsPerSec,
      jsonScenario(Nfs).c_str(), jsonScenario(Lustre).c_str(),
      CurveJson.c_str(), BytesPerClient);

  std::ofstream(Out) << Json;
  std::printf("\nwrote %s\n", Out.c_str());
  return 0;
}
