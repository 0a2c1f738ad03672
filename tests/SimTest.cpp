//===- tests/SimTest.cpp - Unit tests for src/sim --------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/InplaceFunction.h"
#include "sim/Mutex.h"
#include "sim/Network.h"
#include "sim/Resource.h"
#include "sim/Scheduler.h"
#include "sim/SharedProcessor.h"
#include "sim/Time.h"
#include <algorithm>
#include <functional>
#include <gtest/gtest.h>
#include <memory>
#include <utility>
#include <vector>

using namespace dmb;

namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(1000, microseconds(1));
  EXPECT_EQ(1000000, milliseconds(1));
  EXPECT_EQ(1000000000, seconds(1.0));
  EXPECT_DOUBLE_EQ(0.5, toSeconds(milliseconds(500)));
  EXPECT_DOUBLE_EQ(2.5, toMilliseconds(microseconds(2500)));
}

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler S;
  std::vector<int> Order;
  S.at(milliseconds(30), [&] { Order.push_back(3); });
  S.at(milliseconds(10), [&] { Order.push_back(1); });
  S.at(milliseconds(20), [&] { Order.push_back(2); });
  S.run();
  EXPECT_EQ((std::vector<int>{1, 2, 3}), Order);
  EXPECT_EQ(milliseconds(30), S.now());
}

TEST(Scheduler, TiesFireInInsertionOrder) {
  Scheduler S;
  std::vector<int> Order;
  for (int I = 0; I < 10; ++I)
    S.at(milliseconds(5), [&, I] { Order.push_back(I); });
  S.run();
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(I, Order[I]);
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler S;
  int Fired = 0;
  S.after(milliseconds(1), [&] {
    ++Fired;
    S.after(milliseconds(1), [&] { ++Fired; });
  });
  S.run();
  EXPECT_EQ(2, Fired);
  EXPECT_EQ(milliseconds(2), S.now());
}

TEST(Scheduler, RunUntilStopsAndAdvancesClock) {
  Scheduler S;
  int Fired = 0;
  S.at(milliseconds(10), [&] { ++Fired; });
  S.at(milliseconds(30), [&] { ++Fired; });
  S.runUntil(milliseconds(20));
  EXPECT_EQ(1, Fired);
  EXPECT_EQ(milliseconds(20), S.now());
  EXPECT_EQ(1u, S.pendingEvents());
  S.run();
  EXPECT_EQ(2, Fired);
}

TEST(Resource, SingleServerSerializes) {
  Scheduler S;
  Resource R(S, "disk", 1);
  std::vector<SimTime> Completions;
  for (int I = 0; I < 3; ++I)
    R.request(milliseconds(10), [&] { Completions.push_back(S.now()); });
  S.run();
  ASSERT_EQ(3u, Completions.size());
  EXPECT_EQ(milliseconds(10), Completions[0]);
  EXPECT_EQ(milliseconds(20), Completions[1]);
  EXPECT_EQ(milliseconds(30), Completions[2]);
  EXPECT_EQ(3u, R.completedRequests());
}

TEST(Resource, MultiServerRunsInParallel) {
  Scheduler S;
  Resource R(S, "cpu", 2);
  std::vector<SimTime> Completions;
  for (int I = 0; I < 4; ++I)
    R.request(milliseconds(10), [&] { Completions.push_back(S.now()); });
  S.run();
  ASSERT_EQ(4u, Completions.size());
  EXPECT_EQ(milliseconds(10), Completions[0]);
  EXPECT_EQ(milliseconds(10), Completions[1]);
  EXPECT_EQ(milliseconds(20), Completions[2]);
  EXPECT_EQ(milliseconds(20), Completions[3]);
}

TEST(Resource, SlowdownStretchesService) {
  Scheduler S;
  Resource R(S, "disk", 1);
  R.setSlowdown(3.0);
  SimTime Done = 0;
  R.request(milliseconds(10), [&] { Done = S.now(); });
  S.run();
  EXPECT_EQ(milliseconds(30), Done);
}

TEST(Resource, QueueLengthObservable) {
  Scheduler S;
  Resource R(S, "disk", 1);
  for (int I = 0; I < 5; ++I)
    R.request(milliseconds(10), [] {});
  EXPECT_EQ(1u, R.busyServers());
  EXPECT_EQ(4u, R.queueLength());
  S.run();
  EXPECT_EQ(0u, R.busyServers());
  EXPECT_EQ(0u, R.queueLength());
}

TEST(Resource, BusyTimeAccounting) {
  Scheduler S;
  Resource R(S, "disk", 2);
  for (int I = 0; I < 3; ++I)
    R.request(milliseconds(5), [] {});
  S.run();
  EXPECT_EQ(milliseconds(15), R.totalBusyTime());
}

TEST(Resource, StartOrderMatchesRequestOrderAcrossRingGrowthAndWrap) {
  // One server, so completions come in start order. Waves of requests
  // between partial runs make the waiting ring wrap around its end and
  // grow while it holds a wrapped sequence.
  Scheduler S;
  Resource R(S, "disk", 1);
  std::vector<int> Started;
  int Next = 0;
  size_t MaxQueued = 0;
  for (int Wave = 0; Wave < 40; ++Wave) {
    for (int I = 0; I < Wave % 7 + 1; ++I) {
      int Id = Next++;
      R.request(milliseconds(10), [&Started, Id] { Started.push_back(Id); });
    }
    MaxQueued = std::max(MaxQueued, R.queueLength());
    S.runUntil(S.now() + milliseconds(10) * (Wave % 4));
  }
  S.run();
  ASSERT_EQ(size_t(Next), Started.size());
  for (int I = 0; I < Next; ++I)
    EXPECT_EQ(I, Started[I]);
  EXPECT_GT(MaxQueued, 8u); // grew past its first two sizes
  EXPECT_EQ(milliseconds(10) * Next, S.now());
}

TEST(SharedProcessor, SingleTaskRunsAtFullCoreSpeed) {
  Scheduler S;
  SharedProcessor Cpu(S, 4);
  SimTime Done = 0;
  Cpu.submit(seconds(1.0), [&] { Done = S.now(); });
  S.run();
  // One task on a 4-core machine still runs at 1-core speed.
  EXPECT_NEAR(1.0, toSeconds(Done), 1e-6);
}

TEST(SharedProcessor, TwoTasksOnTwoCoresDontInterfere) {
  Scheduler S;
  SharedProcessor Cpu(S, 2);
  std::vector<SimTime> Done;
  Cpu.submit(seconds(1.0), [&] { Done.push_back(S.now()); });
  Cpu.submit(seconds(1.0), [&] { Done.push_back(S.now()); });
  S.run();
  ASSERT_EQ(2u, Done.size());
  EXPECT_NEAR(1.0, toSeconds(Done[0]), 1e-6);
  EXPECT_NEAR(1.0, toSeconds(Done[1]), 1e-6);
}

TEST(SharedProcessor, OvercommitSharesFairly) {
  Scheduler S;
  SharedProcessor Cpu(S, 1);
  std::vector<SimTime> Done;
  Cpu.submit(seconds(1.0), [&] { Done.push_back(S.now()); });
  Cpu.submit(seconds(1.0), [&] { Done.push_back(S.now()); });
  S.run();
  // Two equal tasks sharing one core both finish at t=2s.
  ASSERT_EQ(2u, Done.size());
  EXPECT_NEAR(2.0, toSeconds(Done[0]), 1e-6);
  EXPECT_NEAR(2.0, toSeconds(Done[1]), 1e-6);
}

TEST(SharedProcessor, WeightsBiasShare) {
  Scheduler S;
  SharedProcessor Cpu(S, 1);
  SimTime HeavyDone = 0, LightDone = 0;
  // Weight 3 vs 1: heavy gets 75% of the core.
  Cpu.submit(seconds(0.75), 3.0, [&] { HeavyDone = S.now(); });
  Cpu.submit(seconds(0.75), 1.0, [&] { LightDone = S.now(); });
  S.run();
  // Heavy finishes at t=1s (0.75 work / 0.75 rate); then light has
  // 0.75 - 0.25 = 0.5 remaining and runs alone: done at 1.5s.
  EXPECT_NEAR(1.0, toSeconds(HeavyDone), 1e-6);
  EXPECT_NEAR(1.5, toSeconds(LightDone), 1e-6);
}

TEST(SharedProcessor, LateArrivalSlowsExisting) {
  Scheduler S;
  SharedProcessor Cpu(S, 1);
  SimTime FirstDone = 0;
  Cpu.submit(seconds(1.0), [&] { FirstDone = S.now(); });
  S.at(seconds(0.5), [&] { Cpu.submit(seconds(1.0), [] {}); });
  S.run();
  // First task: 0.5s alone + 0.5s remaining at half speed = 1.5s total.
  EXPECT_NEAR(1.5, toSeconds(FirstDone), 1e-6);
}

TEST(SharedProcessor, ZeroWorkCompletesImmediately) {
  Scheduler S;
  SharedProcessor Cpu(S, 1);
  bool Fired = false;
  Cpu.submit(0, [&] { Fired = true; });
  S.run();
  EXPECT_TRUE(Fired);
  EXPECT_EQ(0, S.now());
}

TEST(SharedProcessor, OneTimerCompletesInSubmissionOrderAndResubmitsWait) {
  // Eight cores, so every task runs at full core speed. B and D finish on
  // the 1 ms timer, A, C and E on the 2 ms one; B's completion submits G,
  // which is not batched with B and D but finishes at 2 ms, after the
  // tasks submitted before it.
  Scheduler S;
  SharedProcessor Cpu(S, 8);
  std::vector<std::pair<char, SimTime>> Order;
  auto Record = [&Order, &S](char Name) {
    return [&Order, &S, Name] { Order.push_back({Name, S.now()}); };
  };
  Cpu.submit(milliseconds(2), Record('A'));
  Cpu.submit(milliseconds(1), [&] {
    Order.push_back({'B', S.now()});
    Cpu.submit(milliseconds(1), Record('G'));
  });
  Cpu.submit(milliseconds(2), Record('C'));
  Cpu.submit(milliseconds(1), Record('D'));
  Cpu.submit(milliseconds(2), Record('E'));
  S.run();
  std::vector<std::pair<char, SimTime>> Expected = {
      {'B', milliseconds(1)}, {'D', milliseconds(1)}, {'A', milliseconds(2)},
      {'C', milliseconds(2)}, {'E', milliseconds(2)}, {'G', milliseconds(2)}};
  EXPECT_EQ(Expected, Order);
  EXPECT_EQ(6u, Cpu.completedTasks());
  EXPECT_EQ(0u, Cpu.activeTasks());
}

TEST(SharedProcessor, ManyTasksAllComplete) {
  Scheduler S;
  SharedProcessor Cpu(S, 8);
  int Done = 0;
  for (int I = 0; I < 100; ++I)
    Cpu.submit(milliseconds(10 + I), [&] { ++Done; });
  S.run();
  EXPECT_EQ(100, Done);
  EXPECT_EQ(100u, Cpu.completedTasks());
}

TEST(Mutex, ImmediateAcquisitionWhenFree) {
  Scheduler S;
  SimMutex M(S);
  bool Held = false;
  M.lock([&] { Held = true; });
  EXPECT_TRUE(M.isLocked());
  S.run();
  EXPECT_TRUE(Held);
  M.unlock();
  EXPECT_FALSE(M.isLocked());
}

TEST(Mutex, FifoWaiters) {
  Scheduler S;
  SimMutex M(S);
  std::vector<int> Order;
  M.lock([&] {
    Order.push_back(0);
    // Hold for 10ms, then release.
    S.after(milliseconds(10), [&] { M.unlock(); });
  });
  for (int I = 1; I <= 3; ++I)
    M.lock([&, I] {
      Order.push_back(I);
      M.unlock();
    });
  EXPECT_EQ(3u, M.waiterCount());
  S.run();
  EXPECT_EQ((std::vector<int>{0, 1, 2, 3}), Order);
  EXPECT_FALSE(M.isLocked());
}

TEST(Mutex, SerializesCriticalSections) {
  Scheduler S;
  SimMutex M(S);
  int Inside = 0, MaxInside = 0, Completed = 0;
  for (int I = 0; I < 5; ++I)
    M.lock([&] {
      ++Inside;
      MaxInside = std::max(MaxInside, Inside);
      S.after(milliseconds(5), [&] {
        --Inside;
        ++Completed;
        M.unlock();
      });
    });
  S.run();
  EXPECT_EQ(5, Completed);
  EXPECT_EQ(1, MaxInside);
  EXPECT_EQ(milliseconds(25), S.now());
}

TEST(Network, LatencyOnly) {
  Scheduler S;
  NetworkLink Link(S, microseconds(200));
  SimTime Delivered = 0;
  Link.send(0, [&] { Delivered = S.now(); });
  S.run();
  EXPECT_EQ(microseconds(200), Delivered);
}

TEST(Scheduler, AfterWithNegativeDelayClampsToNow) {
  Scheduler S;
  S.after(milliseconds(10), [] {});
  S.run();
  SimTime Fired = -1;
  S.after(milliseconds(-5), [&] { Fired = S.now(); });
  S.run();
  EXPECT_EQ(milliseconds(10), Fired);
}

TEST(SchedulerDeathTest, SchedulingIntoThePastAborts) {
  Scheduler S;
  S.after(milliseconds(10), [] {});
  S.run();
  // The failure report carries the simulated clock and event ordinal so
  // the violation can be replayed.
  EXPECT_DEATH(S.at(milliseconds(5), [] {}),
               "cannot schedule into the past.*sim time");
}

TEST(Scheduler, RunRecordsCleanDiagnostics) {
  Scheduler S;
  S.after(milliseconds(1), [] {});
  S.run();
  EXPECT_TRUE(S.lastDiagnostics().clean());
  EXPECT_NE(std::string::npos,
            S.lastDiagnostics().render().find("no issues"));
  EXPECT_EQ(1u, S.lastDiagnostics().EventsExecuted);
}

TEST(Scheduler, RunUntilRecordsDiagnosticsOnDrain) {
  // runUntil() that drains the queue reaches quiescence exactly as run()
  // does, so lastDiagnostics() must reflect this run — not a stale report
  // from an earlier one.
  Scheduler S;
  S.after(milliseconds(1), [] {});
  S.run();
  EXPECT_EQ(1u, S.lastDiagnostics().EventsExecuted);
  S.after(milliseconds(1), [] {});
  S.after(milliseconds(2), [] {});
  S.runUntil(milliseconds(10)); // Drains both events.
  EXPECT_TRUE(S.lastDiagnostics().clean());
  EXPECT_EQ(3u, S.lastDiagnostics().EventsExecuted);
}

TEST(Scheduler, RunUntilKeepsDiagnosticsWhileEventsRemain) {
  Scheduler S;
  S.after(milliseconds(1), [] {});
  S.run();
  S.after(milliseconds(20), [] {});
  S.runUntil(milliseconds(10)); // Deadline hit with one event pending.
  // Not quiescent: the previous complete run's report stays in place.
  EXPECT_EQ(1u, S.lastDiagnostics().EventsExecuted);
  S.run();
  EXPECT_EQ(2u, S.lastDiagnostics().EventsExecuted);
}

TEST(SchedulerDeathTest, RunUntilPinsAssertContextAcrossSchedulers) {
  // Two schedulers: after B merely advances its clock with runUntil (no
  // event fires), a failed assert must still report *B*'s clock, not
  // A's — the regression was runUntil leaving ActiveScheduler stale.
  Scheduler A, B;
  A.after(milliseconds(1), [] {});
  A.run(); // A owns the assert context now.
  B.after(seconds(2.0), [] {});
  B.runUntil(seconds(1.0)); // No event fires; B must take over.
  EXPECT_DEATH(B.at(milliseconds(5), [] {}),
               "sim time 1\\.000000000s");
}

TEST(Scheduler, QuiescenceReportsHeldMutexAndStrandedWaiters) {
  Scheduler S;
  SimMutex M(S, "cxfs-token");
  M.lock([] {});
  M.lock([] {}); // Second acquirer queues behind the (never-released) hold.
  S.run();
  const SimDiagnostics &D = S.lastDiagnostics();
  ASSERT_FALSE(D.clean());
  EXPECT_EQ(2u, D.Issues.size());
  std::string Report = D.render();
  EXPECT_NE(std::string::npos, Report.find("cxfs-token"));
  EXPECT_NE(std::string::npos, Report.find("still locked"));
  EXPECT_NE(std::string::npos, Report.find("stranded waiter"));
  // Drain properly so the destruction checks pass.
  M.unlock();
  S.run();
  M.unlock();
  EXPECT_TRUE(S.checkQuiescent().clean());
}

// Regression (pre-fix quadratic): every SharedProcessor, Resource and
// SimMutex destructor unregisters its check, so tearing down a cluster
// removes them all, mostly in registration order. A removal that scans the
// registry makes this case run for minutes; its ctest TIMEOUT catches that.
TEST(Scheduler, QuiescenceCheckRemovalIsNotQuadratic) {
  constexpr uint64_t N = uint64_t(1) << 17;
  auto Kept = [](uint64_t I) { return I % 4096 == 7 && I != 4096 + 7; };
  Scheduler S;
  std::vector<uint64_t> Ids, Ran, Want;
  for (uint64_t I = 0; I < N; ++I)
    Ids.push_back(S.addQuiescenceCheck(
        [&Ran, I](SimDiagnostics &) { Ran.push_back(I); }));
  // A few removals out of order first: the newest check, one from the
  // middle, and one the in-order sweep below would keep.
  for (uint64_t I : {N - 1, N / 2 + 1, uint64_t(4096 + 7)})
    S.removeQuiescenceCheck(Ids[I]);
  // Then registration order; removing an id a second time is a no-op.
  for (uint64_t I = 0; I < N; ++I)
    if (!Kept(I))
      S.removeQuiescenceCheck(Ids[I]);
  for (uint64_t I = 0; I < N; ++I)
    if (Kept(I))
      Want.push_back(I);
  EXPECT_TRUE(S.checkQuiescent().clean());
  EXPECT_EQ(Want, Ran);
}

TEST(Resource, QuiescenceReportsInFlightWork) {
  Scheduler S;
  Resource R(S, "disk", 1);
  for (int I = 0; I < 3; ++I)
    R.request(milliseconds(10), [] {});
  // Truncate the run mid-service: one request on the server, two queued.
  S.runUntil(milliseconds(5));
  SimDiagnostics D = S.checkQuiescent();
  ASSERT_EQ(2u, D.Issues.size());
  std::string Report = D.render();
  EXPECT_NE(std::string::npos, Report.find("disk"));
  EXPECT_NE(std::string::npos, Report.find("busy"));
  EXPECT_EQ(1u, D.PendingEvents);
  S.run();
  EXPECT_TRUE(S.lastDiagnostics().clean());
}

TEST(SharedProcessor, QuiescenceReportsActiveTasks) {
  Scheduler S;
  SharedProcessor Cpu(S, 1);
  Cpu.submit(seconds(1.0), [] {});
  S.runUntil(milliseconds(100));
  SimDiagnostics D = S.checkQuiescent();
  ASSERT_FALSE(D.clean());
  EXPECT_NE(std::string::npos, D.render().find("task(s) still active"));
  S.run();
  EXPECT_TRUE(S.lastDiagnostics().clean());
}

TEST(MutexDeathTest, DoubleUnlockAborts) {
  Scheduler S;
  SimMutex M(S);
  M.lock([] {});
  S.run();
  M.unlock();
  EXPECT_DEATH(M.unlock(), "double unlock");
}

TEST(MutexDeathTest, DestroyWhileLockedAborts) {
  EXPECT_DEATH(
      {
        Scheduler S;
        SimMutex M(S, "leaked");
        M.lock([] {});
        S.run();
        // M goes out of scope still locked.
      },
      "destroyed while still locked");
}

TEST(InplaceFunction, SmallCapturesStayInline) {
  using Fn = InplaceFunction<void()>;
  // The typical event capture — an object pointer, an id, a value — fits
  // the 64-byte buffer and must not allocate.
  struct Small {
    void *Obj;
    uint64_t Id;
    int64_t Value;
    void operator()() {}
  };
  static_assert(Fn::fitsInline<Small>());
  struct Big {
    char Payload[128];
    void operator()() {}
  };
  static_assert(!Fn::fitsInline<Big>());

  int Calls = 0;
  Fn F([&Calls] { ++Calls; });
  ASSERT_TRUE(static_cast<bool>(F));
  F();
  F();
  EXPECT_EQ(2, Calls);
}

TEST(InplaceFunction, HeapFallbackStillWorks) {
  // Oversized closures transparently box on the heap, same semantics.
  struct Big {
    char Pad[100] = {};
    int *Out;
    void operator()() { *Out = 7; }
  };
  static_assert(!InplaceFunction<void()>::fitsInline<Big>());
  int Result = 0;
  InplaceFunction<void()> F(Big{{}, &Result});
  F();
  EXPECT_EQ(7, Result);
}

TEST(InplaceFunction, MoveOnlyCapturesAreAccepted) {
  // std::function rejects move-only captures; the event loop needs them.
  auto P = std::make_unique<int>(42);
  InplaceFunction<int()> F([P = std::move(P)] { return *P; });
  EXPECT_EQ(42, F());
}

TEST(InplaceFunction, MoveRelocatesAndEmptiesSource) {
  int Calls = 0;
  InplaceFunction<void()> A([&Calls] { ++Calls; });
  InplaceFunction<void()> B(std::move(A));
  EXPECT_FALSE(static_cast<bool>(A));
  EXPECT_TRUE(static_cast<bool>(B));
  B();
  EXPECT_EQ(1, Calls);

  InplaceFunction<void()> C;
  C = std::move(B);
  EXPECT_FALSE(static_cast<bool>(B));
  C();
  EXPECT_EQ(2, Calls);
}

TEST(InplaceFunction, EmplaceReplacesTheHeldCallable) {
  // Destruction of the old callable must run before the new one lands —
  // the slot-recycling path of the scheduler's event pool.
  struct Probe {
    int *Dtors;
    Probe(int *D) : Dtors(D) {}
    Probe(Probe &&O) noexcept : Dtors(O.Dtors) { O.Dtors = nullptr; }
    ~Probe() {
      if (Dtors)
        ++*Dtors;
    }
    void operator()() {}
  };
  int Dtors = 0;
  InplaceFunction<void()> F;
  F.emplace(Probe(&Dtors));
  EXPECT_EQ(0, Dtors);
  int Ran = 0;
  F.emplace([&Ran] { ++Ran; });
  EXPECT_EQ(1, Dtors); // Old callable destroyed on replacement.
  F();
  EXPECT_EQ(1, Ran);
}

TEST(Scheduler, EventPoolRecyclesSlots) {
  // A long sequential chain reuses a handful of pool slots; the pool must
  // not grow with the total number of events ever scheduled.
  Scheduler S;
  int Fired = 0;
  std::function<void()> Chain = [&] {
    if (++Fired < 10000)
      S.after(microseconds(1), [&] { Chain(); });
  };
  S.after(0, [&] { Chain(); });
  S.run();
  EXPECT_EQ(10000, Fired);
  EXPECT_LE(S.eventPoolCapacity(), 16u);
}

TEST(Network, SerializationAddsToLatency) {
  Scheduler S;
  // 1 MB at 125 MB/s = 8 ms of serialization.
  NetworkLink Link(S, milliseconds(1), 125e6);
  SimTime Delivered = 0;
  Link.send(1000000, [&] { Delivered = S.now(); });
  S.run();
  EXPECT_EQ(milliseconds(9), Delivered);
  EXPECT_EQ(1u, Link.messagesSent());
  EXPECT_EQ(1000000u, Link.bytesSent());
}

} // namespace
