//===- support/Result.h - Error-or-value return type ------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small ErrorOr-style result type. The project follows the LLVM rule of
/// not using exceptions, so every fallible operation returns Result<T> (or a
/// bare FsError when there is no payload).
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SUPPORT_RESULT_H
#define DMETABENCH_SUPPORT_RESULT_H

#include "support/Assert.h"
#include "support/Error.h"
#include <utility>
#include <variant>

namespace dmb {

/// Holds either a value of type T or an FsError describing why the
/// operation failed. Modeled after llvm::ErrorOr.
template <typename T> class [[nodiscard]] Result {
public:
  /*implicit*/ Result(FsError E) : Storage(E) {
    DMB_ASSERT(E != FsError::Ok, "use a value for success");
  }
  /*implicit*/ Result(T Value) : Storage(std::move(Value)) {}

  /// True when the operation succeeded and a value is present.
  bool ok() const { return std::holds_alternative<T>(Storage); }
  explicit operator bool() const { return ok(); }

  /// The error code; FsError::Ok when the operation succeeded.
  FsError error() const {
    if (ok())
      return FsError::Ok;
    return std::get<FsError>(Storage);
  }

  T &get() {
    DMB_ASSERT(ok(), "accessing value of failed Result");
    return std::get<T>(Storage);
  }
  const T &get() const {
    DMB_ASSERT(ok(), "accessing value of failed Result");
    return std::get<T>(Storage);
  }

  T &operator*() { return get(); }
  const T &operator*() const { return get(); }
  T *operator->() { return &get(); }
  const T *operator->() const { return &get(); }

  /// Returns the contained value or \p Default when failed.
  T valueOr(T Default) const { return ok() ? get() : std::move(Default); }

private:
  std::variant<FsError, T> Storage;
};

/// Convenience for operations without a payload: FsError::Ok means success.
inline bool succeeded(FsError E) { return E == FsError::Ok; }
inline bool failed(FsError E) { return E != FsError::Ok; }

} // namespace dmb

#endif // DMETABENCH_SUPPORT_RESULT_H
