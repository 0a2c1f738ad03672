//===- dfs/LustreFs.h - Lustre parallel file system model -------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Lustre deployment of thesis \S 4.1.2: a dedicated metadata server
/// (MDS) plus object storage servers (OSS). All metadata operations are
/// delegated to the MDS (Table 2.5, parallel file system column); file data
/// is striped over OSSes but irrelevant to metadata benchmarking beyond
/// object creation cost. Optionally the client acks mutations from its
/// write-back cache before the MDS commits (\S 2.6.4: "Lustre keeps a copy
/// of all operations in the client cache until the server has committed
/// everything to disk") — the subject of \S 4.8.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_LUSTREFS_H
#define DMETABENCH_DFS_LUSTREFS_H

#include "dfs/AttrCache.h"
#include "dfs/ClientConfig.h"
#include "dfs/DistributedFs.h"
#include "dfs/FileServer.h"
#include "dfs/RpcClientBase.h"
#include "dfs/WriteBehind.h"
#include "sim/Scheduler.h"
#include <memory>

namespace dmb {

/// Tunables of the Lustre deployment.
struct LustreOptions {
  /// Client construction: 75 us one-way, 8 RPC slots, fire-and-forget
  /// (enable Client.Retry for resilience).
  ClientConfig Client = makeClientConfig(microseconds(75), 8);
  SimDuration AttrCacheTtl = seconds(1.0); ///< ldlm lock validity window
  SimDuration CacheHitCost = microseconds(2);

  /// \name Write-back metadata caching (experiment E17, \S 4.8)
  /// @{
  bool WritebackMetadata = false;
  unsigned MaxDirtyOps = 2048;            ///< client dirty-op limit
  SimDuration LocalAckCost = microseconds(10); ///< cached completion cost
  /// @}

  ServerConfig Mds;
  unsigned NumOss = 12; ///< as at LRZ; affects object-creation cost only
  SimDuration OssObjectCreateCost = microseconds(15);

  LustreOptions();
};

/// Returns the MDS server profile: 4 service threads, journal commit.
ServerConfig makeMdsConfig(const std::string &Name = "mds");

/// The deployed Lustre file system.
class LustreFs final : public DistributedFs {
public:
  LustreFs(Scheduler &Sched, LustreOptions Options = LustreOptions());

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override;
  std::string name() const override { return "lustre"; }

  FileServer &mds() { return Mds; }
  FsAdmin *admin() override { return &Mds; }
  const LustreOptions &options() const { return Options; }

  static constexpr const char *VolumeName = "lustre0";

private:
  Scheduler &Sched;
  LustreOptions Options;
  FileServer Mds;
};

/// Per-node Lustre client.
class LustreClient final : public RpcClientBase {
public:
  LustreClient(const ClientBuilder &B, FileServer &Mds,
               const LustreOptions &Options);

  void submit(const MetaRequest &Req, Callback Done) override;
  void dropCaches() override { Cache.clear(); }
  CacheStats cacheStats() const override {
    return {Cache.hits(), Cache.misses()};
  }
  std::string describe() const override;

  /// Mutations acked locally but not yet committed on the MDS.
  unsigned dirtyOps() const { return WB ? WB->dirtyOps() : 0; }

  /// The write-behind queue, when one is mounted (legacy WritebackMetadata
  /// or ClientConfig::WriteBehind). nullptr on a synchronous client.
  const WriteBehindQueue *writeBehind() const {
    return WB.get();
  }

private:
  void rpc(const MetaRequest &Req, Callback Done);
  void submitDirect(const MetaRequest &Req, Callback Done);
  void dispatch(Exchange *X) override;
  void finish(Exchange *X) override;

  FileServer &Mds;
  uint32_t VolId; ///< interned VolumeName, resolved once at mount
  LustreOptions Options;
  unsigned NodeIndex;
  AttrCache Cache;
  std::unique_ptr<WriteBehindQueue> WB;
};

} // namespace dmb

#endif // DMETABENCH_DFS_LUSTREFS_H
