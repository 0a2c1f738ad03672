//===- workload/ExtensionPlugins.cpp - Beyond Table 3.5 -----------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extension plugins implementing the thesis's outlook chapter:
///  * BulkStatFiles — retrieves all file attributes of a directory with
///    one readdirplus request instead of per-file stat() round trips, the
///    "inherently parallel metadata operation" of \S 5.3.2. One logical
///    operation per file statted, so results compare directly against
///    StatFiles/StatNocacheFiles.
///  * ReaddirFiles — repeated full directory listings (the
///    data-management scan workload of \S 2.8.3).
///
//===----------------------------------------------------------------------===//

#include "workload/Plugin.h"
#include "workload/StreamHelpers.h"

using namespace dmb;

namespace {

/// Base sharing the standard prepared file set.
class PreparedSetInstance : public PluginInstance {
public:
  explicit PreparedSetInstance(const PluginContext &Ctx)
      : Own(Ctx), NumFiles(Ctx.ProblemSize) {}

  std::unique_ptr<OpStream> prepare() override {
    return makeFileSetPrepare(Own, NumFiles);
  }

  std::unique_ptr<OpStream> cleanup() override {
    return makeFileSetCleanup(Own, NumFiles);
  }

protected:
  ProcessDir Own;
  uint64_t NumFiles;
};

/// \p Times listings of the prepared directory <own>/d0, each completing
/// \p OpCount operations.
class ListingStream final : public OpStream {
public:
  ListingStream(const ProcessDir &Own, MetaRequest (*Make)(std::string),
                uint64_t Times, uint64_t OpCount)
      : Own(Own), Make(Make), Remaining(Times), OpCount(OpCount) {}

  bool next(const MetaReply &, StreamStep &Out) override {
    if (Remaining == 0)
      return false;
    --Remaining;
    Out.Req = Make(Own.child("d", 0));
    Out.CompletesOp = true;
    Out.OpCount = OpCount;
    return true;
  }

private:
  const ProcessDir &Own;
  MetaRequest (*Make)(std::string);
  uint64_t Remaining;
  uint64_t OpCount;
};

/// One readdirplus request covers the whole prepared directory; the
/// completion counts one operation per entry statted.
class BulkStatInstance : public PreparedSetInstance {
public:
  using PreparedSetInstance::PreparedSetInstance;

  void beforeBench(ClientFs &Client) override {
    // Like StatNocacheFiles: measure the protocol, not the local cache.
    Client.dropCaches();
  }

  std::unique_ptr<OpStream> bench() override {
    return std::make_unique<ListingStream>(Own, makeReaddirPlus,
                                           /*Times=*/1, NumFiles);
  }
};

/// Iterated full directory listings.
class ReaddirInstance : public PreparedSetInstance {
public:
  using PreparedSetInstance::PreparedSetInstance;

  std::unique_ptr<OpStream> bench() override {
    // List the directory 100 times; each full listing is one operation.
    return std::make_unique<ListingStream>(Own, makeReaddir, /*Times=*/100,
                                           /*OpCount=*/1);
  }
};

template <typename InstanceT>
class ExtensionPlugin : public BenchmarkPlugin {
public:
  explicit ExtensionPlugin(std::string Name) : Name(std::move(Name)) {}

  std::string name() const override { return Name; }
  std::unique_ptr<PluginInstance>
  makeInstance(const PluginContext &Ctx) override {
    return std::make_unique<InstanceT>(Ctx);
  }

private:
  std::string Name;
};

} // namespace

void dmb::registerExtensionPlugins(PluginRegistry &Registry) {
  Registry.add(std::make_unique<ExtensionPlugin<BulkStatInstance>>(
      "BulkStatFiles"));
  Registry.add(
      std::make_unique<ExtensionPlugin<ReaddirInstance>>("ReaddirFiles"));
}
