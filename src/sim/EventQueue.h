//===- sim/EventQueue.h - The pending-event queue ----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scheduler's pending-event queue: a 4-ary min-heap over one 128-bit
/// ordering key per entry, (When << 64) | TieKey — a strict total order,
/// so the pop sequence is fully determined by the keys, including under
/// seeded tie-break perturbation.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_EVENTQUEUE_H
#define DMETABENCH_SIM_EVENTQUEUE_H

#include "sim/Time.h"
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dmb {

/// One pending event: a single 128-bit ordering key plus the scheduler
/// pool slot of the payload. Small and trivially copyable, so queue
/// reshuffles never touch callback storage.
///
/// Key packs (When << 64) | TieKey. The tie key is the insertion ordinal,
/// or under perturbation a splitmix64 mix of it — a bijection either way,
/// so tie keys are distinct and Key is a strict total order identical to
/// lexicographic (When, TieKey, Seq). Collapsing the compare to one
/// scalar matters: heap sifts are latency-bound on the compare chain, and
/// a 128-bit compare is one cmp/sbb instead of a three-field cascade.
///
/// Gen is the payload slot's generation at scheduling time. Cancelling an
/// event frees its payload and bumps the slot generation immediately; the
/// queue entry stays behind as a 32-byte tombstone that the scheduler
/// recognizes (Gen mismatch) and drops when it surfaces.
struct EventQueueEntry {
  unsigned __int128 Key;
  uint64_t Seq; ///< insertion ordinal (journal + diagnostics)
  uint32_t Slot;
  uint32_t Gen;
};

inline unsigned __int128 eventOrderKey(SimTime When, uint64_t Tie) {
  // When >= 0 always (at() rejects the past, time starts at 0), so the
  // unsigned cast preserves order.
  return (static_cast<unsigned __int128>(static_cast<uint64_t>(When)) << 64) |
         Tie;
}

inline SimTime eventKeyWhen(const EventQueueEntry &E) {
  return static_cast<SimTime>(static_cast<uint64_t>(E.Key >> 64));
}

/// The pending queue: a 4-ary min-heap over the 128-bit key.
/// 4-ary halves the tree depth of a binary heap, and each sift level is
/// one data-dependent key compare — the dominant cost of deep pending
/// sets — so fewer levels directly buys events/sec.
class HeapEventQueue {
public:
  bool empty() const { return Heap.empty(); }
  size_t size() const { return Heap.size(); }
  const EventQueueEntry &front() const { return Heap.front(); }

  /// Sift-up into the 4-ary heap (children of I are 4I+1 .. 4I+4). The
  /// walk is hole-based: parents slide down and the entry is written once.
  void push(EventQueueEntry E) {
    size_t I = Heap.size();
    Heap.push_back(E); // reserve the new leaf; overwritten by the walk
    while (I > 0) {
      size_t Parent = (I - 1) >> 2;
      if (!(E.Key < Heap[Parent].Key))
        break;
      Heap[I] = Heap[Parent];
      I = Parent;
    }
    Heap[I] = E;
  }

  /// Floyd's bottom-up 4-ary sift-down. The displaced last leaf almost
  /// always belongs back near the bottom, so instead of comparing it at
  /// every level (a data-dependent branch per level), the hole walks
  /// straight down through the smallest children — selected with
  /// conditional moves on single-scalar keys — and the leaf then sifts
  /// up, usually zero levels. Inline so the scheduler's step() loop can
  /// fold it into the dispatch path.
  EventQueueEntry pop() {
    EventQueueEntry Top = Heap.front();
    EventQueueEntry Last = Heap.back();
    Heap.pop_back();
    size_t N = Heap.size();
    if (N == 0)
      return Top;
    size_t I = 0, C;
    while ((C = 4 * I + 1) + 4 <= N) {
      size_t M01 = C + static_cast<size_t>(Heap[C + 1].Key < Heap[C].Key);
      size_t M23 =
          C + 2 + static_cast<size_t>(Heap[C + 3].Key < Heap[C + 2].Key);
      size_t Min = Heap[M23].Key < Heap[M01].Key ? M23 : M01;
      Heap[I] = Heap[Min];
      I = Min;
    }
    if (C < N) {
      // Partial group: only ever the deepest level (its children would
      // lie past N).
      size_t Min = C;
      for (size_t K = C + 1; K < N; ++K)
        if (Heap[K].Key < Heap[Min].Key)
          Min = K;
      Heap[I] = Heap[Min];
      I = Min;
    }
    while (I > 0) {
      size_t Parent = (I - 1) >> 2;
      if (!(Last.Key < Heap[Parent].Key))
        break;
      Heap[I] = Heap[Parent];
      I = Parent;
    }
    Heap[I] = Last;
    return Top;
  }

private:
  std::vector<EventQueueEntry> Heap;
};

} // namespace dmb

#endif // DMETABENCH_SIM_EVENTQUEUE_H
