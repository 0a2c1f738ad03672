//===- workload/StreamHelpers.h - Internal plugin-stream helpers ----*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the built-in plugins (core/Plugins.cpp) and
/// the extension plugins (core/ExtensionPlugins.cpp): lambda-driven op
/// streams and the standard prepare/cleanup file-set streams of
/// Listing 3.1. Private to src/core.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_WORKLOAD_STREAMHELPERS_H
#define DMETABENCH_WORKLOAD_STREAMHELPERS_H

#include "workload/Plugin.h"
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace dmb {

/// An OpStream driven by a stateful callable.
class CallbackStream : public OpStream {
public:
  using Generator = std::function<bool(const MetaReply &, StreamStep &)>;

  explicit CallbackStream(Generator G) : G(std::move(G)) {}

  bool next(const MetaReply &Last, StreamStep &Out) override {
    return G(Last, Out);
  }

private:
  Generator G;
};

/// Wraps a generator lambda into an OpStream.
std::unique_ptr<OpStream> makeStream(CallbackStream::Generator G);

/// A phase with no operations.
std::unique_ptr<OpStream> emptyStream();

/// The per-process working directory: <workdir>/p<ordinal>.
std::string ownDir(const PluginContext &Ctx);

/// The path <own>/d<dir>/<index> of object \p Index in subdirectory \p Dir
/// of \p Own, built in one string without printf: request paths are made
/// once per operation.
std::string objectPath(std::string_view Own, uint64_t Dir, uint64_t Index);

/// Stream creating <own>, <own>/d0 and \p NumFiles empty files named
/// 0..N-1 inside d0 (the prepare phase of Listing 3.1).
std::unique_ptr<OpStream> makeFileSetPrepare(std::string Own,
                                             uint64_t NumFiles);

/// Stream removing the \p NumFiles prepared files plus d0 and <own>.
std::unique_ptr<OpStream> makeFileSetCleanup(std::string Own,
                                             uint64_t NumFiles);

} // namespace dmb

#endif // DMETABENCH_WORKLOAD_STREAMHELPERS_H
