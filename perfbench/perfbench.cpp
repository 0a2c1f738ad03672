//===- perfbench/perfbench.cpp - One timed repetition of a workload -------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring half of the end-to-end benchmark (run.py is the other
/// half). One invocation runs one repetition of one workload in this
/// fresh, single-threaded process and prints one JSON line: the host wall
/// time of every phase of the whole run — build, mount, run, gather and
/// teardown, each destructor timed on its own — the output digest, the
/// checks, the simulated identity counts and the process's peak RSS.
///
/// Only public API is driven, and every layer is timed from outside,
/// around the calls into it. With --traced the node mounts are wrapped in
/// TimedClient, a ClientFs decorator that splits the run phase into the
/// self time of client submits, of reply callbacks and of everything else.
/// With --replay the decorator instead records every request; after
/// teardown they are replayed through FileServer::execute on a fresh
/// volume, which times the fs layer on its own, and the scheduler's raw
/// dispatch is timed at the workload's measured pending-set depth. The
/// decorator must not perturb the simulation: run.py checks that every
/// mode yields the same output digest.
///
/// Usage: perfbench --workload NAME [--seed N] [--traced|--replay]
///
//===----------------------------------------------------------------------===//

#include "dfs/PartitionMap.h"
#include "dmetabench/DMetabench.h"
#include "support/Format.h"
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

using namespace dmb;

namespace {

/// Host monotonic clock in nanoseconds. The benchmark measures the
/// engine itself, which only real time can do.
int64_t hostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// One workload: a Master combination on one deployment. All are closed
/// loops — each simulated worker issues its next op when the previous one
/// returns — on the default SchedulerConfig.
struct Workload {
  std::string Name;
  bool Lustre = false;
  unsigned Nodes = 0;
  unsigned Ppn = 0;
  unsigned Cores = 0;
  BenchParams Params;
  /// lustre_wb_lossy only: the loss window (sim seconds) and its drop
  /// probability; the workload seed drives the fault rolls.
  double LossFrom = 0, LossTo = 0, LossProbability = 0;
};

std::optional<Workload> makeWorkload(const std::string &Name) {
  Workload W;
  W.Name = Name;
  if (Name == "nfs_create_stat") {
    // The tier-1 NFS scenario, scaled to about a second of host time.
    W.Nodes = 2;
    W.Ppn = 4;
    W.Cores = 4;
    W.Params.Operations = {"MakeFiles", "StatFiles"};
    W.Params.ProblemSize = 8192;
    W.Params.TimeLimit = seconds(7.5);
  } else if (Name == "wide_create") {
    // One create per client: MakeFiles with a 10 ms budget, 16,384
    // clients, so that a 30 s run holds about 25 repetitions.
    W.Nodes = 2048;
    W.Ppn = 8;
    W.Cores = 8;
    W.Params.Operations = {"MakeFiles"};
    W.Params.ProblemSize = 1000;
    W.Params.TimeLimit = seconds(0.01);
  } else if (Name == "lustre_wb_lossy") {
    W.Lustre = true;
    W.Nodes = 2;
    W.Ppn = 4;
    W.Cores = 4;
    W.Params.Operations = {"MakeFiles"};
    W.Params.ProblemSize = 8192;
    W.Params.TimeLimit = seconds(2.0);
    W.LossFrom = 0.5;
    W.LossTo = 1.0;
    W.LossProbability = 0.3;
  } else {
    return std::nullopt;
  }
  return W;
}

std::unique_ptr<DistributedFs> makeFs(const Workload &W, Scheduler &S,
                                      uint64_t Seed) {
  if (!W.Lustre)
    return std::make_unique<NfsFs>(S);
  LustreOptions O;
  O.Client.WriteBehind.Enabled = true; // deferred discipline (the default)
  O.Client.Retry.Timeout = milliseconds(25);
  O.Client.Retry.MaxRetransmits = 30;
  O.Client.Net.Faults.Seed = Seed;
  O.Client.Net.Faults.Windows = {
      {seconds(W.LossFrom), seconds(W.LossTo), W.LossProbability}};
  O.Mds.DuplicateRequestCacheSize = 1 << 16;
  auto L = std::make_unique<LustreFs>(S, O);
  L->mds().enableJournal();
  return L;
}

//===----------------------------------------------------------------------===//
// Tracing: self time over nested spans, and the client decorator
//===----------------------------------------------------------------------===//

/// Layers the decorator separates within the run phase.
enum Layer : unsigned { Outside, ClientSubmit, ReplyCallback, NumLayers };

/// One request as the decorator saw it, for the fs replay.
struct RecordedOp {
  MetaRequest Req;
  FileHandle ReplyFh = InvalidHandle;
  uint64_t DoneSeq = 0; ///< completion order; 0 = never completed
};

/// Exclusive ("self") host time per layer over properly nested spans: a
/// span's self time is its duration minus the spans nested inside it, so
/// a reply callback that submits the next request is not charged for the
/// submit, and the run phase's self time outside every span is what is
/// left for event dispatch, network delivery, server service and the
/// rest of the engine.
class LayerTrace {
public:
  void begin() { Frames.assign(1, Frame{Outside, hostNs(), 0}); }
  /// Closes the outermost frame; returns the traced interval in ns.
  int64_t end() {
    int64_t Total = hostNs() - Frames.front().Start;
    SelfNs[Outside] += Total - Frames.front().Child;
    Frames.clear();
    return Total;
  }

  void enter(Layer L) { Frames.push_back(Frame{L, hostNs(), 0}); }
  /// Closes the innermost span and returns its self time in ns.
  int64_t exit() {
    Frame F = Frames.back();
    Frames.pop_back();
    int64_t Incl = hostNs() - F.Start;
    int64_t Self = Incl - F.Child;
    SelfNs[F.L] += Self;
    Frames.back().Child += Incl;
    return Self;
  }

  int64_t selfNs(Layer L) const { return SelfNs[L]; }

  std::vector<int64_t> SubmitSelfNs;
  uint64_t CallbackCalls = 0;
  /// Requests for the fs replay; recorded only when Record is set, in a
  /// run of its own, so that copying them does not inflate the spans.
  bool Record = false;
  std::deque<RecordedOp> Ops;
  uint64_t Completed = 0;

private:
  struct Frame {
    Layer L;
    int64_t Start;
    int64_t Child;
  };
  std::vector<Frame> Frames;
  int64_t SelfNs[NumLayers] = {};
};

/// Transparent timing decorator around one node's mount. Every FsAdmin
/// call is forwarded, so the wrapped client behaves exactly like the
/// inner one.
class TimedClient final : public ClientFs {
public:
  TimedClient(std::unique_ptr<ClientFs> Inner, LayerTrace &T)
      : Inner(std::move(Inner)), T(T) {}

  void submit(const MetaRequest &Req, Callback Done) override {
    size_t Idx = T.Ops.size();
    if (T.Record)
      T.Ops.push_back(RecordedOp{Req, InvalidHandle, 0});
    T.enter(ClientSubmit);
    Inner->submit(Req, [&T = T, Idx, Done = std::move(Done)](MetaReply R) {
      if (T.Record) {
        T.Ops[Idx].ReplyFh = R.Fh;
        T.Ops[Idx].DoneSeq = ++T.Completed;
      }
      T.enter(ReplyCallback);
      Done(std::move(R));
      ++T.CallbackCalls;
      T.exit();
    });
    T.SubmitSelfNs.push_back(T.exit());
  }

  void dropCaches() override { Inner->dropCaches(); }
  CacheStats cacheStats() const override { return Inner->cacheStats(); }
  uint64_t crashAndRecover(const std::string &Volume) override {
    return Inner->crashAndRecover(Volume);
  }
  std::string describe() const override { return Inner->describe(); }

  ClientFs &inner() { return *Inner; }

private:
  std::unique_ptr<ClientFs> Inner;
  LayerTrace &T;
};

ClientFs &unwrap(ClientFs &C) {
  if (auto *TC = dynamic_cast<TimedClient *>(&C))
    return TC->inner();
  return C;
}

//===----------------------------------------------------------------------===//
// Identity counts
//===----------------------------------------------------------------------===//

/// Simulated quantities: they repeat exactly from run to run, traced or
/// not, and a pure performance change must not move them.
struct Counts {
  uint64_t CacheHits = 0, CacheMisses = 0;
  uint64_t Retransmits = 0, TimedOut = 0;
  uint64_t WbEnqueued = 0, WbCoalesced = 0, WbIssued = 0, WbFlushes = 0;
  uint64_t ServerRequests = 0, DrcHits = 0, CpCount = 0;
  double ServerCpuBusyFrac = 0;
  uint64_t Events = 0;
  uint64_t PeakPending = 0;
};

const WriteBehindQueue *writeBehindOf(ClientFs &C) {
  if (auto *N = dynamic_cast<NfsClient *>(&C))
    return N->writeBehind();
  if (auto *L = dynamic_cast<LustreClient *>(&C))
    return L->writeBehind();
  return nullptr;
}

Counts collectCounts(Scheduler &S, Cluster &C, DistributedFs &Fs) {
  Counts K;
  for (unsigned I = 0; I < C.numNodes(); ++I) {
    ClientFs *Mount = C.node(I).mount(Fs.name());
    if (!Mount)
      continue;
    ClientFs &Client = unwrap(*Mount);
    FsAdmin::CacheStats CS = Client.cacheStats();
    K.CacheHits += CS.Hits;
    K.CacheMisses += CS.Misses;
    if (auto *Rpc = dynamic_cast<RpcClientBase *>(&Client)) {
      K.Retransmits += Rpc->retransmits();
      K.TimedOut += Rpc->timedOutOps();
    }
    if (const WriteBehindQueue *WB = writeBehindOf(Client)) {
      K.WbEnqueued += WB->enqueuedOps();
      K.WbCoalesced += WB->coalescedOps();
      K.WbIssued += WB->issuedOps();
      K.WbFlushes += WB->flushes();
    }
  }
  if (auto *Server = dynamic_cast<FileServer *>(Fs.admin())) {
    K.ServerRequests = Server->processedRequests();
    K.DrcHits = Server->drcHits();
    K.CpCount = Server->consistencyPointCount();
    double Capacity = static_cast<double>(S.now()) *
                      static_cast<double>(Server->cpu().numServers());
    K.ServerCpuBusyFrac =
        Capacity > 0
            ? static_cast<double>(Server->cpu().totalBusyTime()) / Capacity
            : 0;
  }
  K.Events = S.executedEvents();
  K.PeakPending = S.eventPoolCapacity();
  return K;
}

//===----------------------------------------------------------------------===//
// fs replay and sim dispatch microbenchmarks (replay runs only)
//===----------------------------------------------------------------------===//

struct ReplayResult {
  uint64_t Ops = 0;
  int64_t Ns = 0;
  std::map<std::string, std::pair<uint64_t, int64_t>> ByOp; ///< count, ns
};

/// Replays the completed requests in completion order on a fresh volume
/// with the server's volume config, timing each FileServer::execute call.
/// Completion order respects causality: a closed-loop worker submits its
/// next request only after the previous one completed. File handles are
/// remapped from the recorded replies to the replay's own.
ReplayResult replayFs(std::deque<RecordedOp> Ops, const FsConfig &Config) {
  std::erase_if(Ops, [](const RecordedOp &Op) { return Op.DoneSeq == 0; });
  std::sort(Ops.begin(), Ops.end(),
            [](const RecordedOp &A, const RecordedOp &B) {
              return A.DoneSeq < B.DoneSeq;
            });
  LocalFileSystem Vol(Config);
  std::unordered_map<FileHandle, FileHandle> FhMap;
  ReplayResult R;
  SimTime Now = 0;
  for (RecordedOp &Op : Ops) {
    if (Op.Req.Fh != InvalidHandle) {
      auto It = FhMap.find(Op.Req.Fh);
      Op.Req.Fh = It == FhMap.end() ? InvalidHandle : It->second;
    }
    OpCost Cost;
    int64_t T0 = hostNs();
    MetaReply Reply = FileServer::execute(Vol, Op.Req, Now, Cost);
    int64_t Ns = hostNs() - T0;
    Now += microseconds(1);
    if (Op.Req.Op == MetaOp::Open && Op.ReplyFh != InvalidHandle)
      FhMap[Op.ReplyFh] = Reply.Fh;
    ++R.Ops;
    R.Ns += Ns;
    auto &Slot = R.ByOp[metaOpName(Op.Req.Op)];
    ++Slot.first;
    Slot.second += Ns;
  }
  return R;
}

/// One self-rescheduling event chain with a ~40-byte capture, as in the
/// E28 raw-scheduler bench.
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
    S->after(static_cast<SimDuration>(50 + (Remaining % 17)),
             [C = *this]() mutable { C.fire(); });
  }
};

/// Host ns per dispatched event with \p Chains interleaved chains, i.e. a
/// pending set as deep as the workload's measured peak.
double dispatchNsPerEvent(uint64_t Chains) {
  Chains = std::max<uint64_t>(Chains, 1);
  uint64_t PerChain = std::max<uint64_t>(2000000 / Chains, 16);
  Scheduler S;
  for (uint64_t I = 0; I < Chains; ++I) {
    Chain C;
    C.S = &S;
    C.Remaining = PerChain;
    C.Acc0 = I;
    S.after(static_cast<SimDuration>(I % 1024), [C]() mutable { C.fire(); });
  }
  int64_t T0 = hostNs();
  S.run();
  int64_t Ns = hostNs() - T0;
  return S.executedEvents() ? static_cast<double>(Ns) /
                                  static_cast<double>(S.executedEvents())
                            : 0;
}

//===----------------------------------------------------------------------===//
// One repetition
//===----------------------------------------------------------------------===//

long readVmHwmKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtol(Line.c_str() + 6, nullptr, 10);
  return 0;
}

/// Builds one flat JSON object, key by key.
class JsonObject {
public:
  JsonObject &add(const char *Key, uint64_t V) {
    return raw(Key, format("%llu", (unsigned long long)V));
  }
  JsonObject &add(const char *Key, int64_t V) {
    return raw(Key, format("%lld", (long long)V));
  }
  JsonObject &add(const char *Key, double V) {
    return raw(Key, format("%.17g", V));
  }
  JsonObject &add(const char *Key, bool V) {
    return raw(Key, V ? "true" : "false");
  }
  JsonObject &add(const char *Key, const std::string &V) {
    return raw(Key, "\"" + V + "\"");
  }
  JsonObject &add(const char *Key, const JsonObject &V) {
    return raw(Key, V.str());
  }
  std::string str() const { return "{" + Body + "}"; }

private:
  JsonObject &raw(const char *Key, const std::string &Value) {
    Body += format("%s\"%s\": %s", Body.empty() ? "" : ", ", Key,
                   Value.c_str());
    return *this;
  }
  std::string Body;
};

/// Nearest-rank percentile \p Q of \p Sorted (ascending, non-empty).
int64_t percentile(const std::vector<int64_t> &Sorted, double Q) {
  return Sorted[static_cast<size_t>(Q *
                                    static_cast<double>(Sorted.size() - 1))];
}

/// What one repetition measures besides the end-to-end phases.
enum class Mode {
  Plain,  ///< no decorator: the end-to-end numbers
  Traced, ///< decorated mounts: per-layer self times of the run phase
  Replay, ///< decorated mounts recording requests: fs replay + dispatch
};

int runRep(const Workload &W, uint64_t Seed, Mode Md) {
  bool Decorated = Md != Mode::Plain;
  LayerTrace Trace;
  Trace.Record = Md == Mode::Replay;

  // --- setup ---
  int64_t T0 = hostNs();
  auto S = std::make_unique<Scheduler>();
  int64_t T1 = hostNs();
  std::unique_ptr<DistributedFs> Fs = makeFs(W, *S, Seed);
  int64_t T2 = hostNs();
  auto C = std::make_unique<Cluster>(*S, W.Nodes, W.Cores);
  int64_t T3 = hostNs();
  if (Decorated) {
    for (unsigned I = 0; I < C->numNodes(); ++I)
      C->node(I).addMount(Fs->name(), std::make_unique<TimedClient>(
                                          Fs->makeClient(I), Trace));
  } else {
    C->mountEverywhere(*Fs);
  }
  int64_t T4 = hostNs();
  auto M = std::make_unique<Master>(
      *C, MpiEnvironment::uniform(W.Nodes, W.Ppn + 1), Fs->name(), W.Params);
  int64_t T5 = hostNs();

  // --- run ---
  Trace.begin();
  auto Res = std::make_unique<ResultSet>(M->runCombination(W.Nodes, W.Ppn));
  Trace.end();
  int64_t T6 = hostNs();

  // --- gather ---
  uint64_t SimOps = 0;
  for (const SubtaskResult &Sub : Res->Subtasks)
    SimOps += summarize(Sub).TotalOps;
  uint64_t Digest = fnv1a64(canonicalResultText(*Res));
  int64_t T7 = hostNs();

  // Output checks and identity counts: outside every timed phase.
  Counts K = collectCounts(*S, *C, *Fs);
  FsConfig VolConfig;
  if (auto *Server = dynamic_cast<FileServer *>(Fs->admin()))
    VolConfig = Server->config().VolumeDefaults;
  bool FsckClean = true;
  if (W.Lustre) {
    LocalFileSystem *Vol =
        static_cast<LustreFs &>(*Fs).mds().volume(LustreFs::VolumeName);
    FsckClean = Vol && Vol->fsck().clean();
  }
  uint64_t Failed = 0;
  for (const SubtaskResult &Sub : Res->Subtasks)
    for (const ProcessTrace &P : Sub.Processes)
      Failed += P.FailedRequests;
  bool DiagClean = Res->Diagnostics.find(": no issues") != std::string::npos;
  bool Complete = Res->Subtasks.size() == W.Params.Operations.size();

  // --- teardown: every destructor, in reverse order of construction ---
  int64_t T8 = hostNs();
  Res.reset();
  M.reset();
  int64_t T9 = hostNs();
  C.reset();
  int64_t T10 = hostNs();
  Fs.reset();
  int64_t T11 = hostNs();
  S.reset();
  int64_t T12 = hostNs();

  JsonObject Phases;
  Phases.add("sched_ctor", T1 - T0)
      .add("fs_build", T2 - T1)
      .add("cluster_build", T3 - T2)
      .add("mount", T4 - T3)
      .add("master_ctor", T5 - T4)
      .add("run", T6 - T5)
      .add("gather", T7 - T6)
      .add("teardown_master", T9 - T8)
      .add("teardown_cluster", T10 - T9)
      .add("teardown_fs", T11 - T10)
      .add("teardown_sched", T12 - T11)
      .add("setup", T5 - T0)
      .add("total", (T7 - T0) + (T12 - T8));
  JsonObject Counters;
  Counters.add("cache_hits", K.CacheHits)
      .add("cache_misses", K.CacheMisses)
      .add("retransmits", K.Retransmits)
      .add("timed_out", K.TimedOut)
      .add("wb_enqueued", K.WbEnqueued)
      .add("wb_coalesced", K.WbCoalesced)
      .add("wb_issued", K.WbIssued)
      .add("wb_flushes", K.WbFlushes)
      .add("server_requests", K.ServerRequests)
      .add("drc_hits", K.DrcHits)
      .add("cp_count", K.CpCount)
      .add("server_cpu_busy_frac", K.ServerCpuBusyFrac)
      .add("events", K.Events)
      .add("peak_pending", K.PeakPending);
  JsonObject Out;
  Out.add("workload", W.Name)
      .add("seed", Seed)
      .add("mode", std::string(Md == Mode::Plain    ? "plain"
                               : Md == Mode::Traced ? "traced"
                                                    : "replay"))
      .add("seeded", W.Lustre)
      .add("digest", format("%016llx", (unsigned long long)Digest))
      .add("complete", Complete)
      .add("sim_ops", SimOps)
      .add("failed_requests", Failed)
      .add("diagnostics_clean", DiagClean)
      .add("fsck_clean", FsckClean)
      .add("phases_ns", Phases)
      .add("counts", Counters);

  if (Md == Mode::Traced) {
    std::vector<int64_t> Sorted = std::move(Trace.SubmitSelfNs);
    std::sort(Sorted.begin(), Sorted.end());
    JsonObject Spans;
    Spans.add("submits", static_cast<uint64_t>(Sorted.size()))
        .add("submit_self_ns", Trace.selfNs(ClientSubmit))
        .add("submit_ns_p50", Sorted.empty() ? 0 : percentile(Sorted, 0.5))
        .add("submit_ns_p99_9",
             Sorted.empty() ? 0 : percentile(Sorted, 0.999))
        .add("callback_calls", Trace.CallbackCalls)
        .add("callback_self_ns", Trace.selfNs(ReplyCallback))
        .add("outside_self_ns", Trace.selfNs(Outside));
    Out.add("spans", Spans);
  } else if (Md == Mode::Replay) {
    ReplayResult Replay = replayFs(std::move(Trace.Ops), VolConfig);
    JsonObject ByOp;
    for (const auto &[Name, CountNs] : Replay.ByOp)
      ByOp.add(Name.c_str(), JsonObject()
                                 .add("ops", CountNs.first)
                                 .add("ns", CountNs.second));
    JsonObject Rep;
    Rep.add("ops", Replay.Ops)
        .add("ns", Replay.Ns)
        .add("by_op", ByOp)
        .add("dispatch_ns_per_event", dispatchNsPerEvent(K.PeakPending));
    Out.add("replay", Rep);
  }
  Out.add("vmhwm_kb", static_cast<int64_t>(readVmHwmKb()));
  std::printf("%s\n", Out.str().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name;
  uint64_t Seed = 1;
  Mode Md = Mode::Plain;
  bool BadArg = false;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--workload") && I + 1 < Argc)
      Name = Argv[++I];
    else if (!std::strcmp(Argv[I], "--seed") && I + 1 < Argc)
      Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (!std::strcmp(Argv[I], "--traced"))
      Md = Mode::Traced;
    else if (!std::strcmp(Argv[I], "--replay"))
      Md = Mode::Replay;
    else
      BadArg = true;
  }
  std::optional<Workload> W = makeWorkload(Name);
  if (!W || BadArg) {
    std::fprintf(stderr, "usage: perfbench --workload nfs_create_stat|"
                         "wide_create|lustre_wb_lossy [--seed N] "
                         "[--traced|--replay]\n");
    return 2;
  }
  return runRep(*W, Seed, Md);
}
