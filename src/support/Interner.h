//===- support/Interner.h - String interning to dense ids -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interns strings into small dense integer ids, so hot paths that used to
/// key std::map<std::string, ...> lookups off a name (volume routing in
/// FileServer, per-op grouping in the trace sink) can index a flat vector
/// instead. Ids are assigned in first-intern order, are stable for the
/// interner's lifetime, and are only meaningful within the interner that
/// produced them — two servers may well assign the same volume name
/// different ids.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_INTERNER_H
#define DMETABENCH_SUPPORT_INTERNER_H

#include "support/Assert.h"
#include "support/FlatTable.h"
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace dmb {

/// Append-only string-to-id table with O(1) lookups both ways.
class Interner {
public:
  /// Returned by find() when the string was never interned.
  static constexpr uint32_t None = ~0u;

  /// Returns the id of \p S, interning it first if needed.
  uint32_t intern(std::string_view S) {
    auto [E, Added] = Ids.tryEmplace(S);
    if (Added) {
      // Re-key the new entry to the kept copy: same characters, so its
      // slot stays where the hash put it.
      E->Name = Names.emplace_back(S);
      E->Id = static_cast<uint32_t>(Names.size() - 1);
    }
    return E->Id;
  }

  /// Returns the id of \p S, or None when it was never interned.
  uint32_t find(std::string_view S) const {
    const NameRef *E = Ids.find(S);
    return E ? E->Id : None;
  }

  /// The string behind \p Id (must be a live id from this interner). The
  /// reference stays valid for the interner's lifetime.
  const std::string &name(uint32_t Id) const {
    DMB_ASSERT(Id < Names.size(), "Interner::name: id out of range");
    return Names[Id];
  }

  /// Number of distinct strings interned (ids are 0 .. size()-1).
  uint32_t size() const { return static_cast<uint32_t>(Names.size()); }

private:
  struct NameRef {
    std::string_view Name; ///< into Names
    uint32_t Id = 0;
  };

  /// The strings in id order; a deque never moves its elements.
  std::deque<std::string> Names;
  FlatTable<NameRef, &NameRef::Name> Ids;
};

} // namespace dmb

#endif // DMETABENCH_SUPPORT_INTERNER_H
