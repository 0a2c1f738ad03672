//===- support/RingQueue.h - FIFO ring over a reused vector -----*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree's one FIFO ring: the queue of requests waiting for an RPC slot
/// in RpcClientBase, the waiting queue of a sim Resource and the stalled
/// enqueues of a write-behind queue, which fills slots in place.
///
/// A power-of-two ring over a vector, starting at zero capacity. It grows
/// by doubling and never shrinks, so a queue that has seen its high-water
/// mark pushes and pops without allocating. A std::deque, by contrast,
/// allocates its first ~0.5 KB chunk on construction — per client, which
/// at 10^5+ mounted nodes is tens of megabytes for queues that are empty
/// almost always and almost everywhere — and frees and re-allocates a
/// chunk each time the queue drains past a chunk boundary.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_RINGQUEUE_H
#define DMETABENCH_SUPPORT_RINGQUEUE_H

#include "support/Assert.h"
#include <cstddef>
#include <utility>
#include <vector>

namespace dmb {

/// FIFO queue of \p T in a growable ring. \p T must be
/// default-constructible and movable; a popped slot keeps its moved-from
/// value until a later push overwrites it.
template <typename T> class RingQueue {
public:
  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  void push(T V) {
    if (Count == Ring.size())
      grow();
    Ring[(Head + Count) & (Ring.size() - 1)] = std::move(V);
    ++Count;
  }

  /// Appends a slot and returns it with whatever a popped element left
  /// there, so that assigning into it reuses that element's buffers.
  T &pushSlot() {
    if (Count == Ring.size())
      grow();
    return Ring[(Head + Count++) & (Ring.size() - 1)];
  }

  /// The oldest element.
  T &front() {
    DMB_ASSERT(Count != 0, "RingQueue::front on an empty queue");
    return Ring[Head];
  }

  /// Removes the oldest element, leaving it in its slot.
  void dropFront() {
    DMB_ASSERT(Count != 0, "RingQueue::dropFront on an empty queue");
    Head = (Head + 1) & (Ring.size() - 1);
    --Count;
  }

  /// Removes and returns the oldest element.
  T pop() {
    DMB_ASSERT(Count != 0, "RingQueue::pop on an empty queue");
    T V = std::move(Ring[Head]);
    Head = (Head + 1) & (Ring.size() - 1);
    --Count;
    return V;
  }

private:
  void grow() {
    size_t NewCap = Ring.empty() ? 4 : Ring.size() * 2;
    std::vector<T> Bigger(NewCap);
    for (size_t I = 0; I < Count; ++I)
      Bigger[I] = std::move(Ring[(Head + I) & (Ring.size() - 1)]);
    Ring = std::move(Bigger);
    Head = 0;
  }

  std::vector<T> Ring;
  size_t Head = 0;
  size_t Count = 0;
};

} // namespace dmb

#endif // DMETABENCH_SUPPORT_RINGQUEUE_H
