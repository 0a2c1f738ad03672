//===- dfs/DuplicateRequestCache.h - Retransmit reply cache -----*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A server's duplicate-request cache (DRC, thesis \S 2.6.4, RFC 1813
/// style): the replies to non-idempotent requests, keyed by the 64-bit
/// (ClientId, Xid) word, so that a retransmitted create, remove or rename
/// is answered with its original reply instead of being applied twice.
///
/// The entries sit in a FIFO ring of the configured capacity, in order of
/// first insertion, and a FlatTable maps each key to its slot. The ring
/// is reserved at the first insertion, so a server that never sees an Xid
/// pays nothing. Once the ring is full, a new key first evicts the oldest
/// entry and then takes its slot, so the slot's path buffer is reused,
/// the index never holds more keys than the capacity, and a cache that
/// churns at capacity allocates only for paths longer than the last
/// occupant's.
///
/// An entry keeps the fixed-size part of a reply: the ops a server caches
/// never fill Text, Entries or EntryAttrs. Only open replies carry
/// attributes, so an entry holds an index into a pool of attributes,
/// used only when they differ from Attr{}, instead of an Attr of its own;
/// a freed pool slot goes on a free list for the next one.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_DUPLICATEREQUESTCACHE_H
#define DMETABENCH_DFS_DUPLICATEREQUESTCACHE_H

#include "dfs/Message.h"
#include "support/Assert.h"
#include "support/FlatTable.h"
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dmb {

/// FIFO-bounded cache of replies, keyed by (ClientId, Xid).
class DuplicateRequestCache {
public:
  /// What the cache keeps of a reply.
  struct CachedReply {
    FsError Err = FsError::Ok;
    Attr A;
    FileHandle Fh = InvalidHandle;
    uint64_t Bytes = 0;

    /// The fixed-size part of \p R, which must carry no payload.
    static CachedReply of(const MetaReply &R) {
      DMB_ASSERT(R.Text.empty() && R.Entries.empty() && R.EntryAttrs.empty(),
                 "DRC: a cached reply carries no Text, Entries or EntryAttrs");
      return CachedReply{R.Err, R.A, R.Fh, R.Bytes};
    }

    /// The reply as the server first sent it.
    MetaReply reply() const {
      MetaReply R;
      R.Err = Err;
      R.A = A;
      R.Fh = Fh;
      R.Bytes = Bytes;
      return R;
    }
  };

  /// One cached reply.
  struct Entry {
    uint64_t Key = 0;
    uint64_t SeqPlus1 = 0; ///< journal seq + 1; 0 = not journaled
    /// \name The reply's fixed fields, all but its attributes
    /// @{
    FileHandle Fh = InvalidHandle;
    uint64_t Bytes = 0;
    /// @}
    std::string Path; ///< request path, keys migration extraction
    MetaOp Op = MetaOp::Stat; ///< decides migration eligibility
    uint32_t VolId = 0;
    FsError Err = FsError::Ok;
    /// The reply's attributes in the pool, or NoAttr for Attr{}.
    uint32_t AttrSlot = NoAttr;
  };
  static constexpr uint32_t NoAttr = ~0u;
  static_assert(sizeof(Entry) == 80,
                "a cached reply keeps its attributes in the pool");

  /// A cache of at most \p Capacity entries; 0 makes it unusable.
  explicit DuplicateRequestCache(size_t Capacity) : Capacity(Capacity) {}

  /// The entry cached under \p Key, or nullptr.
  const Entry *find(uint64_t Key) const {
    const Slot *S = Index.find(Key);
    return S ? &Ring[S->Pos] : nullptr;
  }

  /// The reply cached in \p E, an entry of this cache.
  CachedReply reply(const Entry &E) const {
    return CachedReply{E.Err,
                       E.AttrSlot == NoAttr ? Attr() : Attrs[E.AttrSlot],
                       E.Fh, E.Bytes};
  }

  /// Caches \p Reply to the request \p Key of \p Op on \p Path in volume
  /// \p VolId, anchored to journal record \p SeqPlus1 - 1 (0 = none). A
  /// key already cached is refreshed in place and keeps its place in the
  /// eviction order. A new key takes the slot after the newest entry; in
  /// a full ring that is the oldest entry's slot, which it evicts first.
  /// Returns true when the key was new.
  bool insert(uint64_t Key, MetaOp Op, const CachedReply &Reply,
              std::string_view Path, uint32_t VolId, uint64_t SeqPlus1) {
    DMB_ASSERT(Capacity != 0, "DRC: insert into a zero-capacity cache");
    Slot *S = Index.find(Key);
    bool Added = S == nullptr;
    if (Added) {
      size_t Pos;
      if (Count == Capacity) {
        // Full: the oldest entry gives up its slot before the new key
        // enters the index.
        Pos = Head;
        Index.erase(Ring[Head].Key);
        Head = wrap(Head + 1);
      } else {
        if (Ring.empty())
          Ring.reserve(Capacity);
        Pos = wrap(Head + Count);
        if (Pos == Ring.size())
          Ring.emplace_back();
        ++Count;
      }
      S = Index.tryEmplace(Key).first;
      S->Pos = Pos;
      ++Insertions;
    }
    Entry &E = Ring[S->Pos];
    E.Key = Key;
    E.SeqPlus1 = SeqPlus1;
    E.Fh = Reply.Fh;
    E.Bytes = Reply.Bytes;
    E.Path.assign(Path);
    E.Op = Op;
    E.VolId = VolId;
    E.Err = Reply.Err;
    setAttr(E, Reply.A);
    return Added;
  }

  /// Removes every entry \p Drop accepts; the others keep their order.
  /// \p Drop may read the entry's reply() and move from an entry it
  /// accepts. Returns how many it removed.
  template <typename Pred> size_t removeIf(Pred &&Drop) {
    size_t Kept = 0;
    for (size_t I = 0; I != Count; ++I) {
      size_t From = wrap(Head + I);
      uint64_t Key = Ring[From].Key;
      if (Drop(Ring[From])) {
        Index.erase(Key);
        releaseAttr(Ring[From]);
        continue;
      }
      // Close ranks: a swap leaves the removed entry's buffers in the
      // freed slot for a later insertion.
      size_t To = wrap(Head + Kept);
      if (To != From) {
        std::swap(Ring[To], Ring[From]);
        Index.find(Key)->Pos = To;
      }
      ++Kept;
    }
    size_t Removed = Count - Kept;
    Count = Kept;
    DMB_ASSERT(Index.size() == Count, "DRC: index out of sync with the ring");
    return Removed;
  }

  /// Calls \p F on every entry, oldest first.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t I = 0; I != Count; ++I)
      F(Ring[wrap(Head + I)]);
  }

  /// Cached keys.
  size_t size() const { return Index.size(); }
  /// Entries in the eviction ring; always size().
  size_t ringLength() const { return Count; }
  /// Keys inserted new, over the cache's lifetime.
  uint64_t insertions() const { return Insertions; }
  /// Pool slots holding an entry's attributes.
  size_t pooledAttrs() const { return Attrs.size() - FreeAttrs.size(); }

private:
  /// Where a key's entry sits in the ring.
  struct Slot {
    uint64_t Key = 0;
    size_t Pos = 0;
  };

  /// Stores \p A as \p E's attributes: in its pool slot, taking one when
  /// it has none, unless \p A is Attr{} (compared field by field: the
  /// padding of an Attr is not part of its value).
  void setAttr(Entry &E, const Attr &A) {
    if (A == Attr()) {
      releaseAttr(E);
      return;
    }
    if (E.AttrSlot == NoAttr) {
      if (FreeAttrs.empty()) {
        E.AttrSlot = static_cast<uint32_t>(Attrs.size());
        Attrs.emplace_back();
      } else {
        E.AttrSlot = FreeAttrs.back();
        FreeAttrs.pop_back();
      }
    }
    Attrs[E.AttrSlot] = A;
  }

  /// Returns \p E's pool slot, if any, to the free list.
  void releaseAttr(Entry &E) {
    if (E.AttrSlot == NoAttr)
      return;
    FreeAttrs.push_back(E.AttrSlot);
    E.AttrSlot = NoAttr;
  }

  /// \p P reduced into the ring, for \p P < 2 * Capacity.
  size_t wrap(size_t P) const { return P >= Capacity ? P - Capacity : P; }

  size_t Capacity;
  /// Slots in FIFO order from Head, wrapping at Capacity. A slot is
  /// constructed on first use, and Head stays 0 until the ring is full
  /// once, so the next slot is always one that exists or the next one to
  /// append.
  std::vector<Entry> Ring;
  size_t Head = 0;
  size_t Count = 0;
  uint64_t Insertions = 0;
  FlatTable<Slot, &Slot::Key> Index;
  std::vector<Attr> Attrs; ///< the attribute pool
  std::vector<uint32_t> FreeAttrs; ///< pool slots no entry holds
};

} // namespace dmb

#endif // DMETABENCH_DFS_DUPLICATEREQUESTCACHE_H
