//===- tests/compile_fail/DiscardedError.cpp ------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Must not compile: a call statement that discards an FsError. FsError is
/// a [[nodiscard]] type, so -Werror rejects the discard even though the
/// function itself carries no annotation.
///
//===----------------------------------------------------------------------===//

#include "support/Error.h"

dmb::FsError closeQuiet(int Fh);

void discardsCloseError() { closeQuiet(3); }
