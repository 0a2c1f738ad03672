//===- dfs/ReexportFs.h - Hybrid NFS re-export model -------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hybrid concept of thesis \S 2.5.4: a SAN or parallel file system is
/// used directly by trusted machines and *re-exported* to everything else
/// over NFS. "This re-export model is very popular because it presents a
/// clean, well-specified interface ... without the large-scale
/// disadvantages of proprietary client software."
///
/// Clients talk plain NFS to a gateway node; the gateway runs the inner
/// file system's real client and forwards every request. Metadata pays
/// both protocol stacks — the price of the clean interface.
///
/// A client's RPC is one pooled exchange of RpcClientBase: the gateway hop
/// (nfsd CPU, the inner client's operation, nfsd CPU again) is its server
/// half, and every step names only the client and the exchange.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_REEXPORTFS_H
#define DMETABENCH_DFS_REEXPORTFS_H

#include "dfs/ClientConfig.h"
#include "dfs/DistributedFs.h"
#include "dfs/RpcClientBase.h"
#include "sim/Resource.h"
#include "sim/Scheduler.h"
#include <memory>

namespace dmb {

/// Tunables of the re-export gateway.
struct ReexportOptions {
  /// Client construction: 100 us one-way to the gateway, 16 RPC slots.
  ClientConfig Client = makeClientConfig(microseconds(100), 16);
  unsigned GatewayThreads = 4;                  ///< nfsd threads
  SimDuration GatewayCostPerRequest = microseconds(25); ///< translation
  SimDuration AttrCacheTtl = seconds(30.0); ///< gateway-side NFS semantics
  SimDuration CacheHitCost = microseconds(2);
};

/// An NFS re-export of another deployed file system. The inner file
/// system must outlive this object.
class ReexportFs final : public DistributedFs {
public:
  /// \p GatewayNodeIndex is the node index the gateway's inner client is
  /// created for (its OS instance/cache on the inner file system).
  ReexportFs(Scheduler &Sched, DistributedFs &Inner,
             ReexportOptions Options = ReexportOptions(),
             unsigned GatewayNodeIndex = 1000);

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override;
  std::string name() const override {
    return "nfs-reexport-" + Inner.name();
  }

  /// The gateway's service queue (nfsd threads), for observation.
  Resource &gatewayCpu() { return GatewayCpu; }
  uint64_t forwardedRequests() const { return Forwarded; }

  /// Administration reaches through to the inner file system's servers.
  FsAdmin *admin() override { return Inner.admin(); }

private:
  friend class ReexportClient;

  Scheduler &Sched;
  DistributedFs &Inner;
  ReexportOptions Options;
  Resource GatewayCpu;
  std::unique_ptr<ClientFs> InnerClient; ///< the gateway's mount
  uint64_t Forwarded = 0;
};

/// Per-node NFS client of the re-export.
class ReexportClient final : public RpcClientBase {
public:
  ReexportClient(const ClientBuilder &B, ReexportFs &Gateway);

  std::string describe() const override;

private:
  void submitDirect(const MetaRequest &Req, Callback Done) override;
  void dispatch(Exchange *X) override;

  ReexportFs &Gateway;
  unsigned NodeIndex;
};

} // namespace dmb

#endif // DMETABENCH_DFS_REEXPORTFS_H
