//===- dfs/CxfsFs.h - CXFS SAN file system model -----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CXFS SAN file system of the HLRB II (thesis \S 4.1.3): clients read
/// and write data directly on the SAN, but *all* metadata operations are
/// delegated to a central metadata server (\S 2.5.2). Before an operation a
/// node must obtain the relevant token; within one OS instance this
/// serializes metadata operations, which is why CXFS intra-node scaling is
/// flat in \S 4.5.3.
///
/// The token stands in for the RPC slot: each operation holds it from
/// before its request leaves until its reply (or a timeout) completes it,
/// and in between it is one pooled exchange of RpcClientBase, under the
/// client's fault and retry policies like every other model's RPC.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_CXFSFS_H
#define DMETABENCH_DFS_CXFSFS_H

#include "dfs/ClientBuilder.h"
#include "dfs/ClientConfig.h"
#include "dfs/DistributedFs.h"
#include "dfs/FileServer.h"
#include "dfs/RpcClientBase.h"
#include "sim/Mutex.h"
#include "sim/Scheduler.h"
#include <memory>

namespace dmb {

/// Tunables of the CXFS deployment.
struct CxfsOptions {
  /// Client construction: 60 us one-way dedicated metadata network. The
  /// token serializes the node's metadata ops, so the slot count is moot;
  /// with Client.Retry enabled a lost RPC is retransmitted under the token,
  /// and an operation that times out releases it.
  ClientConfig Client = makeClientConfig(microseconds(60), 1);
  SimDuration TokenOverhead = microseconds(25); ///< token acquire/release
  ServerConfig Mds;

  CxfsOptions();
};

/// Returns the metadata-controller profile.
ServerConfig makeCxfsMdsConfig(const std::string &Name = "cxfs-mds");

/// The deployed CXFS file system.
class CxfsFs final : public DistributedFs {
public:
  CxfsFs(Scheduler &Sched, CxfsOptions Options = CxfsOptions());

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override;
  std::string name() const override { return "cxfs"; }

  FileServer &mds() { return Mds; }
  FsAdmin *admin() override { return &Mds; }
  const CxfsOptions &options() const { return Options; }

  static constexpr const char *VolumeName = "san0";

private:
  Scheduler &Sched;
  CxfsOptions Options;
  FileServer Mds;
};

/// Per-node CXFS client: token-serialized metadata RPCs to the MDS.
class CxfsClient final : public RpcClientBase {
public:
  CxfsClient(const ClientBuilder &B, FileServer &Mds,
             const CxfsOptions &Options);

  std::string describe() const override;

private:
  void submitDirect(const MetaRequest &Req, Callback Done) override;
  void dispatch(Exchange *X) override;
  /// Releases the token and completes: the token, not an RPC slot, is what
  /// the operation held.
  void finish(Exchange *X) override;

  FileServer &Mds;
  uint32_t VolId; ///< interned VolumeName, resolved once at mount
  SimDuration TokenOverhead;
  unsigned NodeIndex;
  SimMutex Token; ///< node-wide metadata token
};

} // namespace dmb

#endif // DMETABENCH_DFS_CXFSFS_H
