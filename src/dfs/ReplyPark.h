//===- dfs/ReplyPark.h - Replies waiting for their event --------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reply callbacks and the replies they will receive, parked in reused
/// slots until an event delivers them. The event captures only its owner
/// and the slot, which fits any completion's inline buffer, where a
/// closure holding the callback and a whole MetaReply would be boxed on
/// the heap once per reply.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_REPLYPARK_H
#define DMETABENCH_DFS_REPLYPARK_H

#include "dfs/Message.h"
#include <cstdint>
#include <functional>
#include <vector>

namespace dmb {

class ReplyPark {
public:
  using Callback = std::function<void(MetaReply)>;

  /// Parks \p Done with \p Reply; returns the slot to deliver.
  uint32_t park(Callback Done, MetaReply Reply) {
    uint32_t Slot;
    if (Free.empty()) {
      Slot = static_cast<uint32_t>(Slots.size());
      Slots.emplace_back();
    } else {
      Slot = Free.back();
      Free.pop_back();
    }
    Slots[Slot].Done = std::move(Done);
    Slots[Slot].Reply = std::move(Reply);
    return Slot;
  }

  /// Frees \p Slot, then calls its callback with its reply: the callback
  /// may park the next one.
  void deliver(uint32_t Slot) {
    Callback Done = std::move(Slots[Slot].Done);
    MetaReply Reply = std::move(Slots[Slot].Reply);
    Free.push_back(Slot);
    Done(std::move(Reply));
  }

private:
  struct Parked {
    Callback Done;
    MetaReply Reply;
  };
  std::vector<Parked> Slots;
  std::vector<uint32_t> Free; ///< slots not in use
};

} // namespace dmb

#endif // DMETABENCH_DFS_REPLYPARK_H
