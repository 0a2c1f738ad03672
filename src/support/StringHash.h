//===- support/StringHash.h - Transparent string-keyed hash maps -*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A transparent hash for std::string keys, so an unordered map keyed by
/// std::string can be searched with a std::string_view (a parent-path
/// slice, an interned name) without building a temporary string.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_STRINGHASH_H
#define DMETABENCH_SUPPORT_STRINGHASH_H

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dmb {

/// Hashes std::string and std::string_view alike (heterogeneous lookup).
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view S) const {
    return std::hash<std::string_view>{}(S);
  }
};

/// std::string-keyed hash map whose find/count/erase accept a string_view.
template <typename V>
using StringMap =
    std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

} // namespace dmb

#endif // DMETABENCH_SUPPORT_STRINGHASH_H
