//===- workload/StreamHelpers.h - Internal plugin-stream helpers ----*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal helpers shared by the built-in plugins (workload/Plugins.cpp),
/// the extension plugins (workload/ExtensionPlugins.cpp) and Postmark: the
/// per-process directory, request paths built in one string, and the
/// standard prepare/cleanup file-set streams of Listing 3.1. Private to
/// src/workload.
///
/// Lifetime rule: a phase's stream is destroyed when its phase ends, and
/// every stream before the instances (core/Subtask.h), so a stream may
/// borrow from the instance that made it; an instance may borrow the work
/// directories of its PluginContext for the whole subtask.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_WORKLOAD_STREAMHELPERS_H
#define DMETABENCH_WORKLOAD_STREAMHELPERS_H

#include "workload/Plugin.h"
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace dmb {

/// A process's own directory, <workdir>/p<ordinal>: the borrowed work
/// directory and the ordinal, rendered into each request path, so that an
/// instance holds no path string of its own.
class ProcessDir {
public:
  ProcessDir(std::string_view WorkDir, unsigned Ordinal)
      : WorkDir(WorkDir), Ordinal(Ordinal) {}
  explicit ProcessDir(const PluginContext &Ctx)
      : ProcessDir(Ctx.WorkDir, Ctx.Ordinal) {}

  /// Each path is built in one allocation. <own>:
  std::string path() const;
  /// <own>/<Prefix><N>: "d" names a subdirectory, "f" a Postmark file.
  std::string child(std::string_view Prefix, uint64_t N) const;
  /// <own>/d<Dir>/<Index>: object \p Index of subdirectory \p Dir.
  std::string object(uint64_t Dir, uint64_t Index) const;

private:
  std::string_view WorkDir;
  unsigned Ordinal;
};

/// Stream creating <own>, <own>/d0 and \p NumFiles empty files named
/// 0..N-1 inside d0 (the prepare phase of Listing 3.1). Borrows \p Own.
std::unique_ptr<OpStream> makeFileSetPrepare(const ProcessDir &Own,
                                             uint64_t NumFiles);

/// Stream removing the \p NumFiles prepared files plus d0 and <own>.
/// Borrows \p Own.
std::unique_ptr<OpStream> makeFileSetCleanup(const ProcessDir &Own,
                                             uint64_t NumFiles);

} // namespace dmb

#endif // DMETABENCH_WORKLOAD_STREAMHELPERS_H
