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
/// here as a jump in that count.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>

using namespace dmb;

namespace {
uint64_t Allocations = 0;
} // namespace

void *operator new(std::size_t Size) {
  ++Allocations;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// \p Cycles create+close+stat+unlink cycles on one name.
/// The path stays within the small-string buffer, so building a request
/// allocates nothing.
class CycleStream final : public OpStream {
public:
  explicit CycleStream(int Cycles) : Left(Cycles) {}

  bool next(const MetaReply &Last, StreamStep &Out) override {
    switch (Step++ % 4) {
    case 0:
      if (Left == 0)
        return false;
      --Left;
      Out.Req = makeOpen("/f", OpenWrite | OpenCreate);
      return true;
    case 1:
      Out.Req = makeClose(Last.Fh);
      return true;
    case 2:
      Out.Req = makeStat("/f");
      return true;
    default:
      Out.Req = makeUnlink("/f");
      Out.CompletesOp = true;
      return true;
    }
  }

private:
  int Left;
  unsigned Step = 0;
};

/// Marginal allocations per cycle of one worker process on a warmed-up
/// client of \p Fs: the whole op path from WorkerProcess::step through
/// the client, the network hops and the server back to the worker.
double allocationsPerCycle(Scheduler &S, DistributedFs &Fs) {
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  SharedProcessor Cpu(S, 1);
  WorkerConfig Config;
  Config.Client = Client.get();
  Config.Cpu = &Cpu;
  WorkerProcess Worker(S, Config);
  auto Run = [&](int Cycles) {
    bool Finished = false;
    uint64_t Before = Allocations;
    Worker.runPhase(std::make_unique<CycleStream>(Cycles), /*Record=*/false,
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
// 13 allocations per cycle on NFS, and 15 on Lustre with retransmit
// timers.

TEST(AllocBudget, NfsCreateCloseStatUnlink) {
  Scheduler S;
  NfsFs Fs(S);
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 16.0);
}

TEST(AllocBudget, LustreWithRetransmitTimer) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.Retry.Timeout = milliseconds(25);
  LustreFs Fs(S, Opts);
  double PerCycle = allocationsPerCycle(S, Fs);
  RecordProperty("allocations_per_cycle", std::to_string(PerCycle));
  EXPECT_LE(PerCycle, 19.0);
}

} // namespace
