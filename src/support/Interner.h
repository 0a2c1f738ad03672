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
#include "support/StringHash.h"
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dmb {

/// Append-only string-to-id table with O(1) lookups both ways.
class Interner {
public:
  /// Returned by find() when the string was never interned.
  static constexpr uint32_t None = ~0u;

  /// Returns the id of \p S, interning it first if needed.
  uint32_t intern(std::string_view S) {
    auto It = Map.find(S);
    if (It != Map.end())
      return It->second;
    uint32_t Id = static_cast<uint32_t>(Names.size());
    // unordered_map nodes are stable, so the key's address can back the
    // id -> name vector without a second copy of the string.
    auto [Ins, _] = Map.emplace(std::string(S), Id);
    Names.push_back(&Ins->first);
    return Id;
  }

  /// Returns the id of \p S, or None when it was never interned.
  uint32_t find(std::string_view S) const {
    auto It = Map.find(S);
    return It == Map.end() ? None : It->second;
  }

  /// The string behind \p Id (must be a live id from this interner).
  const std::string &name(uint32_t Id) const {
    DMB_ASSERT(Id < Names.size(), "Interner::name: id out of range");
    return *Names[Id];
  }

  /// Number of distinct strings interned (ids are 0 .. size()-1).
  uint32_t size() const { return static_cast<uint32_t>(Names.size()); }

private:
  StringMap<uint32_t> Map;
  std::vector<const std::string *> Names;
};

} // namespace dmb

#endif // DMETABENCH_SUPPORT_INTERNER_H
