//===- tests/AllocTest.cpp - Heap allocations per metadata op -------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the host heap traffic of the op path. This binary replaces the
/// global operator new with a counting one, so it is its own executable.
/// One client runs N and then 2N create+close+stat+unlink cycles; the
/// difference, divided by N, is the marginal allocation count of one
/// cycle, which must stay within a budget. A continuation that outgrows
/// its inline buffer, or a request copied into a heap closure, shows up
/// here as a jump in that count. The same hooks track live heap bytes,
/// which pin what one file costs the server's file system, and both pin
/// what one simulated process costs a wide run (the same difference
/// between runs of N and 2N clients).
///
//===----------------------------------------------------------------------===//

#include "dfs/Journal.h"
#include "dmetabench/DMetabench.h"
#include "workload/Postmark.h"
#include <algorithm>
#include <cstdlib>
#include <gtest/gtest.h>
#include <malloc.h>
#include <new>

using namespace dmb;

namespace {
uint64_t Allocations = 0;
int64_t LiveBytes = 0; ///< usable bytes of the blocks operator new holds
int64_t PeakLiveBytes = 0; ///< LiveBytes' high-water mark

void release(void *P) {
  if (P)
    LiveBytes -= static_cast<int64_t>(malloc_usable_size(P));
  std::free(P);
}
} // namespace

void *operator new(std::size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1)) {
    LiveBytes += static_cast<int64_t>(malloc_usable_size(P));
    PeakLiveBytes = std::max(PeakLiveBytes, LiveBytes);
    return P;
  }
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }

namespace {

/// \p Cycles create+close+stat+unlink cycles on one name, with a write
/// between the create and the close when \p WriteBytes is not 0.
/// The path stays within the small-string buffer, so building a request
/// allocates nothing.
class CycleStream final : public OpStream {
public:
  CycleStream(int Cycles, uint64_t WriteBytes)
      : Left(Cycles), WriteBytes(WriteBytes) {}

  bool next(const MetaReply &Last, StreamStep &Out) override {
    switch (Step++) {
    case 0:
      if (Left == 0)
        return false;
      --Left;
      Out.Req = makeOpen("/f", OpenWrite | OpenCreate);
      return true;
    case 1:
      Fh = Last.Fh;
      if (WriteBytes) {
        Out.Req = makeWrite(Fh, WriteBytes);
        return true;
      }
      ++Step;
      [[fallthrough]];
    case 2:
      Out.Req = makeClose(Fh);
      return true;
    case 3:
      Out.Req = makeStat("/f");
      return true;
    default:
      Out.Req = makeUnlink("/f");
      Out.CompletesOp = true;
      Step = 0;
      return true;
    }
  }

private:
  int Left;
  uint64_t WriteBytes;
  FileHandle Fh = InvalidHandle;
  unsigned Step = 0;
};

/// Marginal allocations per cycle of one worker process on a warmed-up
/// client of \p Fs: the whole op path from WorkerProcess::step through
/// the client, the network hops and the server back to the worker. Each
/// cycle writes \p WriteBytes to the file it creates.
double allocationsPerCycle(Scheduler &S, DistributedFs &Fs,
                           uint64_t WriteBytes = 0) {
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  SharedProcessor Cpu(S, 1);
  WorkerConfig Config;
  Config.Client = Client.get();
  Config.Cpu = &Cpu;
  WorkerProcess Worker(S, Config);
  auto Run = [&](int Cycles) {
    bool Finished = false;
    uint64_t Before = Allocations;
    Worker.runPhase(std::make_unique<CycleStream>(Cycles, WriteBytes),
                    /*Record=*/false,
                    /*Deadline=*/0, [&Finished]() { Finished = true; });
    S.run();
    EXPECT_TRUE(Finished);
    EXPECT_EQ(0u, Worker.failedRequests());
    return Allocations - Before;
  };
  constexpr int N = 2000;
  Run(N); // warm up pools, tables and caches
  uint64_t Once = Run(N);
  uint64_t Twice = Run(2 * N);
  return static_cast<double>(Twice - Once) / N;
}

// Each budget is this tree's count (gcc 12, libstdc++) plus about 25%:
// 2 allocations per cycle on NFS, 3 on Lustre with retransmit timers, 3 on
// AFS and on GX, and 3 on the lustre_wb_lossy client path and on its eager
// variant. What is left there is simulated state: the inode and the
// open-file record of the create, on Lustre the htree entry, and on AFS
// and GX the node of the client's handle table. The sharded service
// (36.25), CXFS (19) and an NFS re-export of NFS (11) are pinned at their
// counts as they stand, which still include closures that box a request
// or a completion; the server parks their replies in a ReplyPark (23 and
// 40.25 when it boxed the reply and the callback into the CPU
// completion).

TEST(AllocBudget, NfsCreateCloseStatUnlink) {
  Scheduler S;
  NfsFs Fs(S);
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 2.5);
}

// The same cycle with a 10-byte write: the server's post-op attributes
// refresh the cached entry through the client's record of which path the
// handle names, and neither allocates (2 per cycle, as without it).
TEST(AllocBudget, NfsCreateWriteCloseStatUnlink) {
  Scheduler S;
  NfsFs Fs(S);
  double PerCycle = allocationsPerCycle(S, Fs, /*WriteBytes=*/10);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 2.5);
}

TEST(AllocBudget, LustreWithRetransmitTimer) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.Retry.Timeout = milliseconds(25);
  LustreFs Fs(S, Opts);
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 3.75);
}

// The two volume-location configurations: AFS sends straight to the
// owning fileserver and keeps callback promises; GX goes through an
// N-blade.
TEST(AllocBudget, AfsCreateCloseStatUnlink) {
  Scheduler S;
  VolumeFs Fs(S, afsOptions());
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 3.75);
}

TEST(AllocBudget, GxCreateCloseStatUnlink) {
  Scheduler S;
  VolumeFs Fs(S, gxOptions());
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 3.75);
}

// The client path of perfbench's lustre_wb_lossy workload without its loss
// window: deferred write-behind, a journaling MDS with a 64k-entry
// duplicate-request cache, and a 25 ms retransmit timer.
TEST(AllocBudget, LustreWriteBehindJournalRetransmitTimer) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.Retry.Timeout = milliseconds(25);
  Opts.Client.Retry.MaxRetransmits = 30;
  Opts.Mds.DuplicateRequestCacheSize = 1 << 16;
  LustreFs Fs(S, Opts);
  Fs.mds().enableJournal();
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 3.75);
}

// The same with the eager discipline (lustre-wb): the server applies each
// op at enqueue and the local ack of a creating open carries the server's
// attributes, parked in the queue's ReplyPark until the ack fires (4.002
// when the event boxed the whole reply).
TEST(AllocBudget, LustreEagerWriteBehindJournal) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  LustreFs Fs(S, Opts);
  Fs.mds().enableJournal();
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 3.75);
}

TEST(AllocBudget, ShardedCreateCloseStatUnlink) {
  Scheduler S;
  ShardedFs Fs(S);
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 45.25);
}

TEST(AllocBudget, CxfsCreateCloseStatUnlink) {
  Scheduler S;
  CxfsFs Fs(S);
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 23.75);
}

TEST(AllocBudget, ReexportOfNfsCreateCloseStatUnlink) {
  Scheduler S;
  NfsFs Inner(S);
  ReexportFs Fs(S, Inner);
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 13.75);
}

// Live heap bytes per empty file in one hashed directory: its inode, its
// directory entry and its share of the directory's table and of the
// inode table. Budget: this tree's 248 bytes (gcc 12, glibc usable block
// sizes) plus about 25%; node-based tables and a 248-byte inode took 341.
TEST(HeapBudget, BytesPerFileInOneHashedDirectory) {
  LocalFileSystem Fs; // hashed directories by default
  OpCtx Ctx;
  ASSERT_EQ(FsError::Ok, Fs.mkdir(Ctx, "/d", 0755));
  constexpr int N = 20000;
  // Short names: the request paths and entry names need no heap.
  std::vector<std::string> Paths;
  for (int I = 0; I < N; ++I)
    Paths.push_back("/d/" + std::to_string(I));
  int64_t Before = LiveBytes;
  for (const std::string &P : Paths) {
    Result<FileHandle> Fh = Fs.open(Ctx, P, OpenWrite | OpenCreate);
    ASSERT_TRUE(Fh.ok());
    ASSERT_EQ(FsError::Ok, Fs.close(Ctx, *Fh));
  }
  double PerFile = static_cast<double>(LiveBytes - Before) / N;
  RecordProperty("live_bytes_per_file", std::to_string(PerFile));
  EXPECT_LE(PerFile, 310.0);
}

// Live heap bytes per cached reply in a server's duplicate-request cache:
// its ring slot, its key's share of the index, and a request path too long
// for the string's inline buffer; a chmod reply carries no attributes, so
// it takes no slot of the attribute pool. Budget: this tree's 164 bytes
// (gcc 12, glibc usable block sizes) plus about 25%; an entry with an
// Attr of its own took 252, and a node per entry holding a whole
// MetaReply, with a FIFO of keys beside it, 338.
TEST(HeapBudget, BytesPerCachedDrcReply) {
  constexpr int N = 4096;
  Scheduler S;
  ServerConfig Config;
  Config.DuplicateRequestCacheSize = N;
  FileServer Srv(S, Config);
  LocalFileSystem &Vol = Srv.addVolume("v");
  const std::string Path = "/drc/" + std::string(29, 'f');
  ASSERT_EQ(34u, Path.size());
  OpCtx Ctx;
  ASSERT_EQ(FsError::Ok, Vol.mkdir(Ctx, "/drc", 0755));
  Result<FileHandle> Fh = Vol.open(Ctx, Path, OpenWrite | OpenCreate);
  ASSERT_TRUE(Fh.ok());
  ASSERT_EQ(FsError::Ok, Vol.close(Ctx, *Fh));
  MetaRequest Chmod;
  Chmod.Op = MetaOp::Chmod;
  Chmod.Path = Path;
  Chmod.Mode = 0600;
  Chmod.ClientId = 1;
  // One request in flight at a time, so the CPU queue stays empty; the
  // first, without an Xid, warms up the event queue and skips the cache.
  uint64_t Replied = 0;
  auto Serve = [&]() {
    Srv.process(0, Chmod, [&Replied](MetaReply R) {
      EXPECT_EQ(FsError::Ok, R.Err);
      ++Replied;
    });
    S.run();
  };
  Serve();
  int64_t Before = LiveBytes;
  for (int I = 1; I <= N; ++I) {
    Chmod.Xid = I;
    Serve();
  }
  EXPECT_EQ(uint64_t(N) + 1, Replied);
  EXPECT_EQ(size_t(N), Srv.drcSize());
  double PerReply = static_cast<double>(LiveBytes - Before) / N;
  RecordProperty("live_bytes_per_cached_reply", std::to_string(PerReply));
  EXPECT_LE(PerReply, 205.0);
}

// Live heap bytes per record of a metadata journal: creating opens with a
// path too long for the string's inline buffer, appended straight to the
// journal. A record is 80 bytes and its path goes to the arena, whose
// last 64 KiB chunk is partly filled at this count. Budget: this tree's
// 128 bytes (gcc 12, glibc usable block sizes) plus about 25%; a record
// holding a whole MetaRequest, in a std::deque, took 262.
TEST(HeapBudget, BytesPerJournalRecord) {
  constexpr int N = 4096;
  std::vector<MetaRequest> Creates;
  for (int I = 0; I < N; ++I) {
    std::string Name = std::to_string(I);
    Creates.push_back(makeOpen("/jnl/" + std::string(29 - Name.size(), 'f') +
                                   Name,
                               OpenWrite | OpenCreate));
    ASSERT_EQ(34u, Creates.back().Path.size());
  }
  MetadataJournal J;
  int64_t Before = LiveBytes;
  for (int I = 0; I < N; ++I)
    ASSERT_TRUE(J.append("v", Creates[I], I).has_value());
  double PerRecord = static_cast<double>(LiveBytes - Before) / N;
  RecordProperty("live_bytes_per_journal_record", std::to_string(PerRecord));
  EXPECT_LE(PerRecord, 160.0);
}

/// The heap traffic of one run shaped like perfbench's wide_create: NFS,
/// eight processes per node, MakeFiles with a 10 ms budget (one create per
/// client), and the gather (summaries and the canonical result text),
/// from the Scheduler's construction to the last destructor.
struct RunCost {
  uint64_t Allocations = 0;
  int64_t PeakBytes = 0; ///< peak live bytes above the start
  int64_t HeldBytes = 0; ///< live bytes left above the start at the end
};

RunCost wideCreateRun(unsigned Clients) {
  constexpr unsigned Ppn = 8;
  unsigned Nodes = Clients / Ppn;
  uint64_t Before = Allocations;
  int64_t LiveBefore = LiveBytes;
  PeakLiveBytes = LiveBytes;
  {
    Scheduler S;
    NfsFs Fs(S);
    Cluster C(S, Nodes, Ppn);
    C.mountEverywhere(Fs);
    BenchParams P;
    P.Operations = {"MakeFiles"};
    P.ProblemSize = 1000;
    P.TimeLimit = seconds(0.01);
    Master M(C, MpiEnvironment::uniform(Nodes, Ppn + 1), Fs.name(), P);
    ResultSet Res = M.runCombination(Nodes, Ppn);
    EXPECT_EQ(1u, Res.Subtasks.size());
    EXPECT_EQ(uint64_t(Clients), summarize(Res.Subtasks.at(0)).TotalOps);
    EXPECT_FALSE(canonicalResultText(Res).empty());
  }
  return {Allocations - Before, PeakLiveBytes - LiveBefore,
          LiveBytes - LiveBefore};
}

/// The marginal cost of one simulated process: the difference between a
/// run with 2N clients and one with N, divided by N. It covers the
/// process's share of the cluster (a node and a mount per eight), its
/// worker, plugin instance, streams and time log, and its share of the
/// server's tables, events and results.
RunCost perProcessCost() {
  constexpr unsigned N = 2048;
  wideCreateRun(N); // warm up the plugin registry
  RunCost Once = wideCreateRun(N);
  RunCost Twice = wideCreateRun(2 * N);
  EXPECT_EQ(0, Once.HeldBytes);
  EXPECT_EQ(0, Twice.HeldBytes);
  return {(Twice.Allocations - Once.Allocations) / N,
          (Twice.PeakBytes - Once.PeakBytes) / static_cast<int64_t>(N), 0};
}

// Budget: this tree's 33 allocations per process (gcc 12, libstdc++) plus
// 25%. A dense time log, a phase completion that outgrew std::function's
// buffer, streams built from a std::function and shared state, instances
// that copied their context's strings, a second WorkerConfig, a work
// directory formatted per worker and a canonical line built by format()
// took 58.
TEST(AllocBudget, AllocationsPerSimulatedProcess) {
  RunCost PerProcess = perProcessCost();
  RecordProperty("allocations_per_process",
                 std::to_string(PerProcess.Allocations));
  EXPECT_LE(PerProcess.Allocations, 41u);
}

// Budget: this tree's 2,914 peak live bytes per process (gcc 12, glibc
// usable block sizes) plus 5%; the same plumbing took 3,367.
TEST(HeapBudget, PeakBytesPerSimulatedProcess) {
  RunCost PerProcess = perProcessCost();
  RecordProperty("peak_bytes_per_process",
                 std::to_string(PerProcess.PeakBytes));
  EXPECT_LE(PerProcess.PeakBytes, 3060);
}

// A process that completes in one interval, however far from the phase
// start, keeps its count inline: neither the log nor the trace it moves
// into holds a heap block.
TEST(HeapBudget, TimeLogSingleRecordHoldsNoHeapBlock) {
  uint64_t Before = Allocations;
  int64_t LiveBefore = LiveBytes;
  {
    TimeLog Log;
    Log.start(seconds(1.0), milliseconds(100));
    Log.record(seconds(1.0) + seconds(3600.0), 3);
    Log.record(seconds(1.0) + seconds(7200.0), 0); // extends, stores nothing
    Log.finish(seconds(1.0) + seconds(7200.0));
    ProcessTrace Trace;
    Trace.OpsPerInterval = Log.takeOpsPerInterval();
    EXPECT_EQ(72001u, Trace.OpsPerInterval.numIntervals());
    EXPECT_EQ(1u, Trace.OpsPerInterval.numRecords());
    EXPECT_EQ(3u, Trace.cumulativeAt(72000));
    EXPECT_EQ(LiveBefore, LiveBytes);
  }
  EXPECT_EQ(Before, Allocations);
}

// Every plugin's phase streams cost one allocation each, the built-ins,
// the extensions and Postmark alike: the stream object, which owns its
// state and borrows the instance's directory (no std::function, no
// shared state, no copied path).
TEST(AllocBudget, PluginStreamsAllocateOncePerPhase) {
  // Longer than the small-string buffer, as a real work directory is.
  const std::string WorkDir = "/dmetabench/" + std::string(40, 'w');
  PluginContext Ctx;
  Ctx.Ordinal = 12345;
  Ctx.TotalWorkers = 20000;
  Ctx.WorkDir = WorkDir;
  Ctx.PartnerOrdinal = 12346;
  Ctx.PartnerWorkDir = WorkDir;
  Ctx.ProblemSize = 100;
  PluginRegistry Registry;
  registerBuiltinPlugins(Registry);
  registerExtensionPlugins(Registry);
  registerPostmarkPlugin(Registry);
  ASSERT_EQ(13u, Registry.names().size());
  for (const std::string &Name : Registry.names()) {
    std::unique_ptr<PluginInstance> I = Registry.get(Name)->makeInstance(Ctx);
    for (int Phase = 0; Phase < 3; ++Phase) {
      uint64_t Before = Allocations;
      std::unique_ptr<OpStream> Stream = Phase == 0   ? I->prepare()
                                         : Phase == 1 ? I->bench()
                                                      : I->cleanup();
      EXPECT_LE(Allocations - Before, 1u) << Name << " phase " << Phase;
    }
  }
}

} // namespace
