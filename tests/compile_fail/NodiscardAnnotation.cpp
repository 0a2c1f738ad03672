//===- tests/compile_fail/NodiscardAnnotation.cpp -------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Must not compile: a MetaReply-returning function declared without
/// [[nodiscard]], whose reply a caller discards. MetaReply is a
/// [[nodiscard]] type, so no declaration needs the annotation for -Werror
/// to reject the discard.
///
//===----------------------------------------------------------------------===//

#include "dfs/Message.h"

dmb::MetaReply dropReply(int Fh);

void discardsReply() { dropReply(3); }
