//===- tests/EventQueueTest.cpp - Event-queue suite -----------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pending queue's contract is exact key order: the 4-ary heap must pop
/// every entry in (When, TieKey) order at any horizon, with pushes and pops
/// interleaved. These tests check it at the queue level with adversarial
/// key sets against a sorted copy of the same keys, and check the
/// scheduler's generation-validated cancellation on top of it.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <gtest/gtest.h>
#include <memory>
#include <set>

using namespace dmb;

namespace {

// --- Queue-level order -----------------------------------------------------

/// Deterministic 64-bit mix (splitmix64 finalizer) for adversarial key
/// sets; dmeta-analyze's randomness rule bans stdlib randomness in tests.
uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

EventQueueEntry makeEntry(SimTime When, uint64_t Tie) {
  return EventQueueEntry{eventOrderKey(When, Tie), Tie,
                         static_cast<uint32_t>(Tie), 0};
}

/// Pushes \p Entries into a heap, popping once after every third push so
/// later pushes land below, between and above keys already popped, and
/// checks each pop against a sorted copy of the keys still pending.
void expectKeyOrder(const std::vector<EventQueueEntry> &Entries) {
  HeapEventQueue Heap;
  std::multiset<unsigned __int128> Pending;
  auto PopMatchesMin = [&] {
    unsigned __int128 Want = *Pending.begin();
    Pending.erase(Pending.begin());
    return Heap.pop().Key == Want;
  };
  size_t I = 0;
  for (const EventQueueEntry &E : Entries) {
    Heap.push(E);
    Pending.insert(E.Key);
    if (++I % 3 == 0) {
      ASSERT_TRUE(PopMatchesMin()) << "pop after push " << I;
    }
  }
  while (!Heap.empty()) {
    ASSERT_TRUE(PopMatchesMin()) << Pending.size() << " keys left";
  }
  EXPECT_TRUE(Pending.empty());
}

TEST(EventQueue, MixedHorizonsMatchHeapAtEveryLevelCount) {
  std::vector<EventQueueEntry> Entries;
  uint64_t Tie = 0;
  for (unsigned I = 0; I < 2000; ++I) {
    uint64_t R = mix64(I);
    // Spread timestamps across radically different scales: one shared
    // tick, then up to 2^8, 2^16, 2^32 and 2^56 ns.
    SimTime When = 0;
    switch (I % 5) {
    case 0:
      When = 7;
      break;
    case 1:
      When = static_cast<SimTime>(R % 256);
      break;
    case 2:
      When = static_cast<SimTime>(R % 65536);
      break;
    case 3:
      When = static_cast<SimTime>(R % (1ULL << 32));
      break;
    case 4:
      When = static_cast<SimTime>(R % (1ULL << 56));
      break;
    }
    Entries.push_back(makeEntry(When, Tie++));
  }
  expectKeyOrder(Entries);
}

TEST(EventQueue, SameTickTiesPopInKeyOrder) {
  // All entries share one timestamp; only the tie key differs, in a
  // scrambled (non-insertion) order.
  std::vector<EventQueueEntry> Entries;
  for (unsigned I = 0; I < 500; ++I)
    Entries.push_back(makeEntry(milliseconds(3), mix64(I)));
  expectKeyOrder(Entries);
}

TEST(EventQueue, FarFuturePastWheelHorizonOverflowsCorrectly) {
  // Seconds- and hours-scale entries, one pair on the same tick, must
  // drain in exact key order behind the near-term ones.
  std::vector<EventQueueEntry> Entries;
  uint64_t Tie = 0;
  Entries.push_back(makeEntry(seconds(3600.0), Tie++));
  Entries.push_back(makeEntry(5, Tie++));
  Entries.push_back(makeEntry(seconds(1.0), Tie++));
  Entries.push_back(makeEntry(seconds(3600.0), Tie++)); // same tick
  Entries.push_back(makeEntry(200, Tie++));
  Entries.push_back(makeEntry(seconds(7200.0), Tie++));
  expectKeyOrder(Entries);
}

// --- Cancellation --------------------------------------------------------

TEST(EventQueueCancel, CancelledEventDoesNotFire) {
  Scheduler S;
  int Fired = 0;
  EventId Id = S.after(milliseconds(5), [&Fired] { Fired += 100; });
  S.after(milliseconds(5), [&Fired] { ++Fired; });
  EXPECT_EQ(2u, S.pendingEvents());
  EXPECT_TRUE(S.cancel(Id));
  EXPECT_EQ(1u, S.pendingEvents());
  EXPECT_FALSE(S.cancel(Id)); // stale handle: single-use
  S.run();
  EXPECT_EQ(1, Fired);
  EXPECT_EQ(2u, S.executedEvents() + 1); // tombstone never executed
}

TEST(EventQueueCancel, CancelThenRescheduleKeepsExactOrder) {
  // Cancelling must not disturb the order of survivors, and a new event
  // that recycles the cancelled slot must fire normally.
  Scheduler S;
  std::vector<int> Order;
  S.at(milliseconds(1), [&Order] { Order.push_back(1); });
  EventId Doomed = S.at(seconds(100.0), [&Order] { Order.push_back(-1); });
  S.at(milliseconds(2), [&Order] { Order.push_back(2); });
  EXPECT_TRUE(S.cancel(Doomed));
  // Rescheduled: recycles Doomed's pool slot at a fresh generation.
  S.at(seconds(100.0), [&Order] { Order.push_back(3); });
  S.at(milliseconds(3), [&Order] { Order.push_back(4); });
  S.run();
  EXPECT_EQ((std::vector<int>{1, 2, 4, 3}), Order);
  EXPECT_TRUE(S.checkQuiescent().clean());
}

TEST(EventQueueCancel, DefaultAndStaleHandlesAreNoOps) {
  Scheduler S;
  EXPECT_FALSE(S.cancel(EventId()));
  int Fired = 0;
  EventId Id = S.after(0, [&Fired] { ++Fired; });
  S.run();
  EXPECT_EQ(1, Fired);
  EXPECT_FALSE(S.cancel(Id)); // already fired
}

// Regression (pre-fix failing): a cancelled event's payload used to stay
// alive inside the pool until its queue entry surfaced — for a far-horizon
// timer, essentially forever. cancel() must destroy the captured closure
// immediately and recycle the slot without growing the pool.
TEST(EventQueueCancel, CancelReleasesPayloadImmediatelyAtFarHorizon) {
  Scheduler S;
  auto Payload = std::make_shared<int>(7);
  EventId Id = S.at(seconds(86400.0), [Payload] { (void)*Payload; });
  EXPECT_EQ(2, Payload.use_count());
  EXPECT_TRUE(S.cancel(Id));
  // The closure (and its shared_ptr ref) is gone NOW, not at t=86400s.
  EXPECT_EQ(1, Payload.use_count());
}

TEST(EventQueueCancel, ScheduleCancelChurnDoesNotGrowThePool) {
  Scheduler S;
  // Keep one real event so the run has work to do.
  int Fired = 0;
  S.after(milliseconds(1), [&Fired] { ++Fired; });
  for (unsigned I = 0; I < 10000; ++I) {
    EventId Id = S.at(seconds(86400.0) + I, [] {});
    ASSERT_TRUE(S.cancel(Id));
  }
  // Each cancel recycles its slot at once, so churn reuses one slot
  // instead of allocating ten thousand.
  EXPECT_LE(S.eventPoolCapacity(), 4u);
  EXPECT_EQ(1u, S.pendingEvents());
  S.runUntil(milliseconds(2));
  EXPECT_EQ(1, Fired);
  EXPECT_EQ(0u, S.pendingEvents());
}

} // namespace
