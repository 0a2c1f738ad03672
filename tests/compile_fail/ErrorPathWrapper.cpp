//===- tests/compile_fail/ErrorPathWrapper.cpp ----------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Must not compile: discarding the result of an `auto` wrapper that
/// forwards a Result<T>. The wrapper's deduced return type is Result<T>, a
/// [[nodiscard]] type, so -Werror rejects the discard one call removed
/// from the function that produced the error.
///
//===----------------------------------------------------------------------===//

#include "support/Result.h"

dmb::Result<int> openFile(int Fh);

auto openChecked(int Fh) { return openFile(Fh); }

void discardsWrappedResult() { openChecked(7); }
