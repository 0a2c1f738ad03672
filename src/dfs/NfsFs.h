//===- dfs/NfsFs.h - NFS over a WAFL filer model -----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The NFS(v3) deployment of the LRZ Linux cluster (thesis \S 4.1.2): a
/// single NetApp-style filer running a WAFL-like backend (NVRAM log,
/// consistency points, 64-byte inline files, hashed directories) serving
/// all cluster nodes. Clients implement close-to-open semantics with a
/// TTL-based attribute cache and synchronous metadata RPCs (\S 2.6.4: "NFS
/// specifies synchronous behavior for all metadata operations").
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_NFSFS_H
#define DMETABENCH_DFS_NFSFS_H

#include "dfs/ClientConfig.h"
#include "dfs/DistributedFs.h"
#include "dfs/FileServer.h"
#include "dfs/RpcClientBase.h"
#include "sim/Scheduler.h"
#include <memory>

namespace dmb {

/// Tunables of the NFS deployment.
struct NfsOptions {
  /// Client construction: 100 us one-way GigE LAN, 16 sunrpc slots,
  /// fire-and-forget (enable Client.Retry for resilience).
  ClientConfig Client = makeClientConfig(microseconds(100), 16);
  SimDuration AttrCacheTtl = seconds(30.0);
  SimDuration CacheHitCost = microseconds(2); ///< local stat from cache
  /// Filer hardware profile; see makeFilerConfig().
  ServerConfig Server;

  NfsOptions();
};

/// Returns the FAS3050-like server profile used by default: dual CPU,
/// NVRAM-backed synchronous metadata, consistency points, hashed (WAFL)
/// directories, 64-byte inline file data.
ServerConfig makeFilerConfig(const std::string &Name = "fas3050");

/// The deployed NFS file system.
class NfsFs final : public DistributedFs {
public:
  NfsFs(Scheduler &Sched, NfsOptions Options = NfsOptions());

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override;
  std::string name() const override { return "nfs"; }

  /// The filer, for disturbance injection and observation.
  FileServer &server() { return Server; }
  FsAdmin *admin() override { return &Server; }
  const NfsOptions &options() const { return Options; }

  /// Name of the single exported volume.
  static constexpr const char *VolumeName = "root";

private:
  Scheduler &Sched;
  NfsOptions Options;
  FileServer Server;
};

/// Per-node NFS client: an attribute cache that also keeps the post-op
/// attributes of open and readdirplus replies, and synchronous RPCs.
class NfsClient final : public RpcClientBase {
public:
  NfsClient(const ClientBuilder &B, FileServer &Server,
            const NfsOptions &Options);

  std::string describe() const override;

private:
  void submitDirect(const MetaRequest &Req, Callback Done) override;
  void dispatch(Exchange *X) override;

  FileServer &Server;
  uint32_t VolId; ///< interned VolumeName, resolved once at mount
  unsigned NodeIndex;
};

} // namespace dmb

#endif // DMETABENCH_DFS_NFSFS_H
