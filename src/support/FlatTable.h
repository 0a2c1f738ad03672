//===- support/FlatTable.h - Open-addressing string-keyed table -*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tree's one open-addressing hash table. Hashed directories, client
/// attribute caches, the write-behind path indexes and the interner key
/// it by strings; the server's duplicate-request cache keys it by the
/// 64-bit (ClientId, Xid) word.
///
/// Entries live in a dense array. A power-of-two slot array holds (hash,
/// index) pairs and is searched by linear probing, and an erase closes its
/// gap by backward-shift deletion, so there are no tombstones. A key is
/// hashed once per operation: its slot keeps 31 bits of the hash, which
/// filter key comparisons and re-place the slot when the array grows, and
/// a parallel array keeps them per entry.
///
/// An erased entry stays where it is, with its storage (a key string's
/// buffer too), on a free list; the next insertion reuses it, and the
/// dense array grows only when none is left. So a table that churns at a
/// steady size allocates nothing, and no entry gets an allocation of its
/// own.
///
/// Stability rule: find() and erase() move no entry. An insertion reuses
/// an erased entry when there is one and otherwise appends, which may grow
/// the dense array and so move every entry. A pointer or reference to an
/// entry stays valid until the next insertion, or until that entry is
/// erased.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_FLATTABLE_H
#define DMETABENCH_SUPPORT_FLATTABLE_H

#include "support/Assert.h"
#include <cstdint>
#include <functional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace dmb {

/// The default key hash: std::hash over a string key's characters, and
/// the splitmix64 finalizer over an integer key, so that the low bits the
/// table keeps depend on every bit of the key.
struct FlatKeyHash {
  uint64_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
  uint64_t operator()(uint64_t K) const {
    K = (K ^ (K >> 30)) * 0xbf58476d1ce4e5b9ull;
    K = (K ^ (K >> 27)) * 0x94d049bb133111ebull;
    return K ^ (K >> 31);
  }
};

/// A hash table of \p T entries, keyed by their member \p Key: an
/// integer, a std::string, or a std::string_view into storage the owner
/// keeps alive. \p T must be default-constructible and movable; \p HashFn
/// maps a key to 64 bits, of which the table keeps the low 31.
template <typename T, auto Key, typename HashFn = FlatKeyHash>
class FlatTable {
  using KeyType = std::remove_cvref_t<decltype(std::declval<T &>().*Key)>;
  /// How a key is passed in: an integer by value, a string as a view.
  using KeyArg = std::conditional_t<std::is_integral_v<KeyType>, KeyType,
                                    std::string_view>;

public:
  /// Number of (live) entries.
  size_t size() const { return Live; }
  /// Slot-array length (0 before the first insertion); for tests.
  size_t slotCount() const { return Slots.size(); }
  /// Dense-array length, erased entries included; for tests.
  size_t entryCount() const { return Entries.size(); }

  /// Calls \p F on every entry, in dense-array order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (size_t I = 0, E = Entries.size(); I != E; ++I)
      if (Meta[I] & LiveBit)
        F(Entries[I]);
  }

  /// The entry keyed \p K, or nullptr.
  T *find(KeyArg K) {
    return const_cast<T *>(std::as_const(*this).find(K));
  }
  const T *find(KeyArg K) const {
    size_t S = 0;
    uint32_t I = indexOf(K, hashOf(K), S);
    return I == Free ? nullptr : &Entries[I];
  }

  /// The entry whose key hashes to all 64 bits of \p H, or nullptr: a
  /// lookup by a key's fingerprint where the key itself is not kept. Two
  /// keys of one table sharing 64 bits of hash are taken not to occur.
  T *findByHash(uint64_t H) {
    if (Slots.empty())
      return nullptr;
    uint32_t Short = static_cast<uint32_t>(H) | LiveBit;
    for (size_t S = Short & mask();; S = (S + 1) & mask()) {
      const Slot &Sl = Slots[S];
      if (Sl.Index == Free)
        return nullptr;
      if (Sl.Hash == Short && HashFn{}(KeyArg(Entries[Sl.Index].*Key)) == H)
        return &Entries[Sl.Index];
    }
  }

  /// The entry keyed \p K, adding a value-initialized one with that key
  /// when there is none; the flag says whether it was added.
  std::pair<T *, bool> tryEmplace(KeyArg K) {
    uint32_t H = hashOf(K);
    size_t S = 0;
    if (uint32_t Found = indexOf(K, H, S); Found != Free)
      return {&Entries[Found], false};
    uint32_t I = takeEntry();
    T &E = Entries[I];
    // A reused entry starts over, but its key keeps its buffer.
    KeyType Kept = std::move(E.*Key);
    E = T();
    Kept = K;
    E.*Key = std::move(Kept);
    place(S, H, I);
    return {&E, true};
  }

  /// Moves \p Entry in unless an entry with its key exists; returns the
  /// entry with that key and whether \p Entry was added.
  std::pair<T *, bool> insert(T Entry) {
    uint32_t H = hashOf(Entry.*Key);
    size_t S = 0;
    if (uint32_t Found = indexOf(Entry.*Key, H, S); Found != Free)
      return {&Entries[Found], false};
    uint32_t I = takeEntry();
    Entries[I] = std::move(Entry);
    place(S, H, I);
    return {&Entries[I], true};
  }

  /// Erases the entry keyed \p K; false when there is none.
  bool erase(KeyArg K) {
    size_t S = 0;
    if (indexOf(K, hashOf(K), S) == Free)
      return false;
    eraseSlot(S);
    return true;
  }

  /// Erases \p E, an entry of this table, without hashing its key again.
  void erase(const T *E) {
    DMB_ASSERT(E >= Entries.data() && E < Entries.data() + Entries.size() &&
                   (Meta[E - Entries.data()] & LiveBit),
               "FlatTable::erase: not a live entry of this table");
    eraseSlot(slotOf(static_cast<uint32_t>(E - Entries.data())));
  }

  /// Erases every entry \p P accepts; returns how many.
  template <typename Pred> size_t eraseIf(Pred &&P) {
    size_t Erased = 0;
    for (uint32_t I = 0, E = static_cast<uint32_t>(Entries.size()); I != E;
         ++I) {
      if ((Meta[I] & LiveBit) && P(std::as_const(Entries[I]))) {
        eraseSlot(slotOf(I));
        ++Erased;
      }
    }
    return Erased;
  }

  /// Erases everything and releases the storage.
  void clear() {
    Entries = {};
    Meta = {};
    Slots = {};
    FreeHead = NoFree;
    Live = 0;
  }

private:
  /// An entry's position in the slot array: its key's hash and its index
  /// in the dense array (Free for an empty slot).
  struct Slot {
    uint32_t Hash = 0;
    uint32_t Index = Free;
  };
  static constexpr uint32_t Free = ~0u;
  /// Set in every hash; clear in a Meta word that links the free list.
  static constexpr uint32_t LiveBit = 1u << 31;
  static constexpr uint32_t NoFree = LiveBit - 1; ///< end of the free list
  static constexpr size_t MinSlots = 4;

  static uint32_t hashOf(KeyArg K) {
    return static_cast<uint32_t>(HashFn{}(K)) | LiveBit;
  }

  size_t mask() const { return Slots.size() - 1; }

  /// The dense index of the entry keyed \p K (hash \p H), or Free. \p S
  /// is set to its slot, or to the free slot ending its probe sequence
  /// (the slot array is never full, so the probe ends; 0 while it is
  /// empty).
  uint32_t indexOf(KeyArg K, uint32_t H, size_t &S) const {
    if (Slots.empty()) {
      S = 0;
      return Free;
    }
    for (S = H & mask();; S = (S + 1) & mask()) {
      const Slot &Sl = Slots[S];
      if (Sl.Index == Free ||
          (Sl.Hash == H && KeyArg(Entries[Sl.Index].*Key) == K))
        return Sl.Index;
    }
  }

  /// The first free slot of hash \p H's probe sequence.
  size_t probeFree(uint32_t H) const {
    size_t S = H & mask();
    while (Slots[S].Index != Free)
      S = (S + 1) & mask();
    return S;
  }

  /// The slot of live entry \p I.
  size_t slotOf(uint32_t I) const {
    size_t S = Meta[I] & mask();
    while (Slots[S].Index != I)
      S = (S + 1) & mask();
    return S;
  }

  /// An erased entry off the free list, or a new one at the end.
  uint32_t takeEntry() {
    if (FreeHead != NoFree) {
      uint32_t I = FreeHead;
      FreeHead = Meta[I];
      return I;
    }
    DMB_ASSERT(Entries.size() < NoFree, "FlatTable: too many entries");
    Entries.emplace_back();
    Meta.push_back(NoFree);
    return static_cast<uint32_t>(Entries.size() - 1);
  }

  /// Makes entry \p I live under hash \p H in free slot \p S, doubling the
  /// slot array first when it would pass three quarters full.
  void place(size_t S, uint32_t H, uint32_t I) {
    if ((Live + 1) * 4 > Slots.size() * 3) {
      grow();
      S = probeFree(H);
    }
    Slots[S] = Slot{H, I};
    Meta[I] = H;
    ++Live;
  }

  /// Doubles the slot array and re-places every live entry from its kept
  /// hash.
  void grow() {
    Slots.assign(Slots.empty() ? MinSlots : Slots.size() * 2, Slot());
    for (uint32_t I = 0, E = static_cast<uint32_t>(Entries.size()); I != E;
         ++I)
      if (Meta[I] & LiveBit)
        Slots[probeFree(Meta[I])] = Slot{Meta[I], I};
  }

  /// Empties slot \p S by backward-shift deletion and puts its entry on
  /// the free list.
  void eraseSlot(size_t S) {
    uint32_t I = Slots[S].Index;
    size_t Hole = S;
    for (size_t J = (Hole + 1) & mask(); Slots[J].Index != Free;
         J = (J + 1) & mask()) {
      // Slot J may fill the hole unless its home lies cyclically in
      // (Hole, J]: then its probe sequence would no longer reach it.
      size_t Home = Slots[J].Hash & mask();
      if (((J - Home) & mask()) >= ((J - Hole) & mask())) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
    }
    Slots[Hole] = Slot();
    Meta[I] = FreeHead;
    FreeHead = I;
    --Live;
  }

  std::vector<T> Entries;
  /// Per entry: its hash (LiveBit set) while live, else the next erased
  /// entry on the free list.
  std::vector<uint32_t> Meta;
  std::vector<Slot> Slots;
  uint32_t FreeHead = NoFree;
  uint32_t Live = 0;
};

} // namespace dmb

#endif // DMETABENCH_SUPPORT_FLATTABLE_H
