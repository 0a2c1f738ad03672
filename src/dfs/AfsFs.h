//===- dfs/AfsFs.h - AFS cell model ------------------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An AFS-like cell (thesis \S 2.5.1, \S 4.7.3): external namespace
/// aggregation where the *client* consults a volume location database and
/// contacts the file server owning each volume. Caching is callback-based
/// (server-driven invalidation, no TTL) with open-to-close semantics; each
/// volume is served by a single-threaded user-space fileserver process, so
/// parallelism exists only *across* volumes.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_AFSFS_H
#define DMETABENCH_DFS_AFSFS_H

#include "dfs/AttrCache.h"
#include "dfs/ClientConfig.h"
#include "dfs/DistributedFs.h"
#include "dfs/FileServer.h"
#include "dfs/MountTable.h"
#include "dfs/RpcClientBase.h"
#include "sim/Scheduler.h"
#include <memory>
#include <set>
#include <vector>

namespace dmb {

class AfsClient;

/// Tunables of the AFS cell.
struct AfsOptions {
  /// Client construction: 150 us one-way (WAN-ish cell), 4 RPC slots.
  ClientConfig Client = makeClientConfig(microseconds(150), 4);
  SimDuration CacheHitCost = microseconds(3);
  /// First access to a volume resolves it in the VLDB (cached afterwards).
  SimDuration VldbLookupCost = microseconds(80);
  ServerConfig ServerDefaults;

  AfsOptions();
};

/// Returns the per-volume fileserver profile: single service thread
/// (user-space fileserver), comparatively expensive operations.
ServerConfig makeAfsServerConfig(const std::string &Name = "afs-fs");

/// The AFS cell: servers + VLDB + callback registry.
///
/// The cell must stay alive while clients have requests in flight, but
/// teardown order is otherwise free: a cell destroyed before its clients
/// detaches them first (see AfsClient::cellDestroyed).
class AfsFs final : public DistributedFs {
public:
  AfsFs(Scheduler &Sched, AfsOptions Options = AfsOptions());
  ~AfsFs() override;

  /// Adds a fileserver; returns its index.
  unsigned addServer(const std::string &Name);
  /// Creates a volume on server \p ServerIndex, mounted at \p MountPrefix.
  void addVolume(const std::string &MountPrefix, unsigned ServerIndex);
  /// Convenience: \p NumServers servers with \p VolumesPerServer volumes
  /// each, mounted at /vol0, /vol1, ... round-robin across servers.
  void setupUniform(unsigned NumServers, unsigned VolumesPerServer);

  /// Moves a volume to another fileserver, updating the VLDB (\S 2.5.1).
  /// Clients resolve per request, so path operations continue unchanged;
  /// handles opened before the move return EBADF/ESTALE.
  bool moveVolume(const std::string &MountPrefix, unsigned NewServer);

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override;
  std::string name() const override { return "afs"; }

  FileServer &server(unsigned Index) { return *Servers[Index]; }
  /// Administrative access targets server 0 (the root-volume server); for
  /// other servers use server(I) directly.
  FsAdmin *admin() override {
    return Servers.empty() ? nullptr : Servers[0].get();
  }
  unsigned numServers() const { return Servers.size(); }
  const MountTable &vldb() const { return Vldb; }
  const AfsOptions &options() const { return Options; }

  /// Callback break: a successful mutation \p Op of \p Path (and \p
  /// Path2) drops the entries it made stale from every client's cache,
  /// the mutating client's own included.
  void breakCallbacks(MetaOp Op, std::string_view Path,
                      std::string_view Path2);

  /// \name Client registry (managed by AfsClient)
  /// @{
  void registerClient(AfsClient *C) { Clients.push_back(C); }
  void unregisterClient(AfsClient *C);
  /// @}

private:
  Scheduler &Sched;
  AfsOptions Options;
  std::vector<std::unique_ptr<FileServer>> Servers;
  MountTable Vldb;
  std::vector<AfsClient *> Clients;
};

/// Per-node AFS cache manager.
class AfsClient final : public RpcClientBase {
public:
  AfsClient(const ClientBuilder &B, AfsFs &Cell);
  ~AfsClient() override;

  void dropCaches() override { Cache.clear(); }
  std::string describe() const override;

  /// Invalidation entry point for callback breaks: what a successful
  /// mutation \p Op (or a creating open) of \p Path and \p Path2 makes
  /// stale.
  void dropStale(MetaOp Op, std::string_view Path, std::string_view Path2);

  /// Called by ~AfsFs on clients that outlive the cell (e.g. when a
  /// Cluster holding the clients is destroyed after the cell): the dying
  /// destructor must not call back into it.
  void cellDestroyed() { CellAlive = false; }

private:
  /// Handle, route, cache, then rpc().
  void submitDirect(const MetaRequest &Req, Callback Done) override;
  /// Sends \p Req to volume \p VolId of server \p ServerIndex, relative
  /// to the volume root, after the VLDB lookup cost \p Vldb; \p Full is
  /// the request as submitted, with the full paths the cache is keyed by.
  void rpc(unsigned ServerIndex, uint32_t VolId, SimDuration Vldb,
           const MetaRequest &Req, const MetaRequest &Full, Callback Done);
  void dispatch(Exchange *X) override;
  SimDuration vldbCost(const std::string &Volume);

  AfsFs &Cell;
  bool CellAlive = true;
  unsigned NodeIndex;
  AttrCache Cache; ///< callback-based: no TTL
  std::set<std::string> KnownVolumes;
  ClientHandles Handles;
};

} // namespace dmb

#endif // DMETABENCH_DFS_AFSFS_H
