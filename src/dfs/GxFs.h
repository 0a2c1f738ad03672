//===- dfs/GxFs.h - NetApp Ontap GX cluster model ----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Ontap GX storage cluster of the HLRB II (thesis \S 4.1.3, Fig. 4.3):
/// internal namespace aggregation. Clients speak plain NFS to *one* filer
/// (its N-blade); requests whose volume lives on another filer's D-blade
/// are forwarded over a dedicated cluster interconnect, at roughly 75%
/// efficiency. Parallelism across volumes spreads load over all D-blades
/// (\S 4.7.1-4.7.2).
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_GXFS_H
#define DMETABENCH_DFS_GXFS_H

#include "dfs/AttrCache.h"
#include "dfs/ClientConfig.h"
#include "dfs/DistributedFs.h"
#include "dfs/FileServer.h"
#include "dfs/MountTable.h"
#include "dfs/RpcClientBase.h"
#include "sim/Scheduler.h"
#include <memory>
#include <vector>

namespace dmb {

/// Tunables of the GX cluster.
struct GxOptions {
  unsigned NumFilers = 8;
  /// Client construction: 100 us one-way to the N-blade, 16 RPC slots.
  ClientConfig Client = makeClientConfig(microseconds(100), 16);
  SimDuration ClusterHopLatency = microseconds(50); ///< N-blade <-> D-blade
  SimDuration NbladeCost = microseconds(20);  ///< protocol translation
  SimDuration ForwardExtraCost = microseconds(15); ///< remote-volume penalty
  SimDuration AttrCacheTtl = seconds(30.0);
  SimDuration CacheHitCost = microseconds(2);
  ServerConfig FilerDefaults;

  GxOptions();
};

/// The deployed GX cluster. Must outlive its clients.
class GxFs final : public DistributedFs {
public:
  GxFs(Scheduler &Sched, GxOptions Options = GxOptions());

  /// Creates a volume on filer \p FilerIndex mounted at \p MountPrefix.
  void addVolume(const std::string &MountPrefix, unsigned FilerIndex);
  /// Convenience: \p NumVolumes volumes /vol0../volN round-robin on filers.
  void setupUniformVolumes(unsigned NumVolumes);

  /// Moves the volume mounted at \p MountPrefix to \p NewFiler, updating
  /// the VLDB — transparent to clients, which resolve per request
  /// (\S 2.5.1: "volumes can be moved transparently between servers").
  /// Handles opened before the move return EBADF/ESTALE. Returns false
  /// when the prefix or filer is unknown.
  bool moveVolume(const std::string &MountPrefix, unsigned NewFiler);

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override;
  std::string name() const override { return "ontapgx"; }

  FileServer &filer(unsigned Index) { return *Filers[Index]; }
  /// Administrative access targets filer 0 (the root-volume filer); for
  /// other filers use filer(I) directly.
  FsAdmin *admin() override {
    return Filers.empty() ? nullptr : Filers[0].get();
  }
  unsigned numFilers() const { return Filers.size(); }
  const MountTable &vldb() const { return Vldb; }
  const GxOptions &options() const { return Options; }

private:
  Scheduler &Sched;
  GxOptions Options;
  std::vector<std::unique_ptr<FileServer>> Filers;
  MountTable Vldb;
};

/// Per-node GX client (a normal NFS client pointed at one filer).
class GxClient final : public RpcClientBase {
public:
  GxClient(const ClientBuilder &B, GxFs &Cluster);

  void dropCaches() override { Cache.clear(); }
  std::string describe() const override;

  /// The filer whose N-blade this node mounts.
  unsigned nbladeIndex() const { return Nblade; }

private:
  /// Handle, route, cache, then rpc().
  void submitDirect(const MetaRequest &Req, Callback Done) override;
  /// Sends \p Req to volume \p VolId of filer \p OwnerIndex, relative to
  /// the volume root; \p Full is the request as submitted, with the full
  /// paths the cache is keyed by.
  void rpc(unsigned OwnerIndex, uint32_t VolId, const MetaRequest &Req,
           const MetaRequest &Full, Callback Done);
  void dispatch(Exchange *X) override;

  GxFs &Cluster;
  unsigned NodeIndex;
  unsigned Nblade;
  AttrCache Cache;
  ClientHandles Handles;
};

} // namespace dmb

#endif // DMETABENCH_DFS_GXFS_H
