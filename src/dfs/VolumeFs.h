//===- dfs/VolumeFs.h - Volume-location cluster model ------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Namespace aggregation over a volume location database (thesis
/// \S 2.5.1): several servers each hold whole volumes, and a VLDB maps
/// every mount prefix of the one namespace to the server owning that
/// volume. AFS and NetApp Ontap GX are two configurations of this model:
///
/// - AFS (\S 4.7.3) aggregates externally: the client consults the VLDB
///   itself, paying a lookup on its first access to each volume, and sends
///   each request straight to the owning fileserver. Each volume server is
///   a single-threaded user-space process, so parallelism exists only
///   across volumes. The client cache holds callback promises: it fills
///   from stat replies, and only the cell's callback breaks empty it.
/// - Ontap GX (\S 4.1.3, Fig. 4.3) aggregates internally: the client
///   speaks plain NFS to one filer's N-blade, which translates the request
///   and hands it to its own D-blade or forwards it over the cluster
///   interconnect to the owning filer's, at roughly 75% efficiency
///   (\S 4.7.1-4.7.2). The client cache is NFS's TTL cache.
///
/// afsOptions() and gxOptions() are the two configurations.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_VOLUMEFS_H
#define DMETABENCH_DFS_VOLUMEFS_H

#include "dfs/ClientConfig.h"
#include "dfs/DistributedFs.h"
#include "dfs/FileServer.h"
#include "dfs/MountTable.h"
#include "dfs/RpcClientBase.h"
#include "sim/Scheduler.h"
#include "support/FlatTable.h"
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dmb {

class VolumeClient;

/// Who consults the VLDB (\S 2.5.1). It also fixes how the client cache
/// stays coherent: by callback promises under external aggregation (AFS),
/// by NFS's rules under internal (GX), where an entry lives until it
/// expires or the client's own mutation makes it stale.
enum class Aggregation {
  External, ///< the client, which sends to the owning server (AFS)
  Internal, ///< the N-blade the client mounts, which forwards (GX)
};

/// Tunables of a volume-location cluster.
struct VolumeOptions {
  Aggregation Mode = Aggregation::External;
  /// Servers at construction; server 0 holds the root volume "/".
  unsigned NumServers = 1;
  ClientConfig Client; ///< link, RPC slots and retries of every client
  /// The profile of every server; server I is named Server.Name + I.
  ServerConfig Server;
  /// Expiry of a cached entry; 0: never.
  SimDuration AttrCacheTtl = 0;
  SimDuration CacheHitCost = 0; ///< a stat answered from the cache
  /// External aggregation: a client's first access to a volume resolves it
  /// in the VLDB; later accesses use the client's copy.
  SimDuration VldbLookupCost = 0;
  /// \name Internal aggregation
  /// @{
  SimDuration NbladeCost = 0;        ///< protocol translation
  SimDuration ForwardExtraCost = 0;  ///< remote-volume penalty, each way
  SimDuration ClusterHopLatency = 0; ///< N-blade <-> D-blade, one way
  /// @}
};

/// An AFS cell: one root-volume server to start, user-space fileservers
/// (a single service thread, comparatively expensive operations), 150 us
/// one way (a WAN-ish cell), 4 RPC slots, callback promises on cache
/// entries that never expire, and an 80 us VLDB lookup.
VolumeOptions afsOptions();

/// The HLRB II's Ontap GX cluster: 8 filers (makeFilerConfig() without
/// consistency points, which keeps scaling experiments free of their
/// noise), 100 us one way to the N-blade, 16 RPC slots, NFS's 30 s
/// attribute cache, 20 us N-blade translation, 15 us forwarding penalty
/// and 50 us cluster hops.
VolumeOptions gxOptions();

/// The cluster: servers, VLDB and, under external aggregation, the
/// callback promises made to clients, which it names by slot. A cluster
/// destroyed before its clients detaches them first; it must not go while
/// their requests are in flight.
class VolumeFs final : public DistributedFs {
public:
  VolumeFs(Scheduler &Sched, VolumeOptions Options);
  ~VolumeFs() override;

  /// Creates a volume on server \p ServerIndex, mounted at \p MountPrefix.
  void addVolume(const std::string &MountPrefix, unsigned ServerIndex);
  /// Adds \p NewServers servers, then mounts /vol0 .. /vol<NumVolumes-1>
  /// round-robin over the servers just added, or over all servers when it
  /// adds none: volume k on server First + k mod Count.
  void setupUniform(unsigned NewServers, unsigned NumVolumes);
  /// Moves the volume mounted at \p MountPrefix to \p NewServer, updating
  /// the VLDB — transparent to clients, which resolve per request
  /// (\S 2.5.1: "volumes can be moved transparently between servers").
  /// Handles opened before the move return EBADF/ESTALE. Returns false
  /// when the prefix or server is unknown.
  bool moveVolume(const std::string &MountPrefix, unsigned NewServer);

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override;
  std::string name() const override;

  FileServer &server(unsigned Index) { return *Servers[Index]; }
  unsigned numServers() const { return Servers.size(); }
  /// Administrative access targets server 0 (the root-volume server); for
  /// other servers use server(I) directly.
  FsAdmin *admin() override { return Servers[0].get(); }
  const MountTable &vldb() const { return Vldb; }
  const VolumeOptions &options() const { return Options; }

  /// Holder records of the callback promises, pooled: live, lapsed and
  /// free ones alike.
  size_t promiseRecords() const { return Holders.size(); }
  /// Client caches the callback breaks have visited so far.
  uint64_t callbacksBroken() const { return Broken; }

private:
  friend class VolumeClient;

  /// A client's slot: null once the client is gone. Its generation moves
  /// on when the client drops its caches, so every promise made to it
  /// before lapses at once.
  struct ClientSlot {
    VolumeClient *Client = nullptr;
    uint32_t Gen = 0;
  };
  /// A client a path was promised to, as of generation Gen of its slot.
  /// Next links the promise's holders, or the free records.
  struct Holder {
    uint32_t Slot = 0;
    uint32_t Gen = 0;
    uint32_t Next = 0;
  };
  /// The callback promise on one path (\S 4.7.3): who holds it. Lapsed
  /// holders are pruned once they may make up half the list, so a prune
  /// is paid for by the registrations before it.
  struct Promise {
    std::string Path;
    uint32_t First = NoHolder;
    uint32_t Length = 0;
    uint32_t PruneAt = 2;
  };
  static constexpr uint32_t NoHolder = ~0u;

  void addServer();
  /// The client in \p Slot cached \p Path, which it did not hold.
  void promise(std::string_view Path, uint32_t Slot);
  /// Callback break after a successful mutation \p Op (or a creating
  /// open): every cache holding a promise the mutation makes stale drops
  /// that entry, the mutating client's own included, and the promise is
  /// gone. A rename breaks the promises at or below either name, a link
  /// those of both names, anything else that of \p Path.
  void breakCallbacks(MetaOp Op, std::string_view Path,
                      std::string_view Path2);
  /// The same for a store (a write or ftruncate by handle), which breaks
  /// the promise on the path with fingerprint \p PathHash (HandlePaths).
  void breakStore(uint64_t PathHash);
  /// Breaks \p P, which the caller then erases.
  void breakPromise(const Promise &P);
  bool live(const Holder &H) const {
    return Slots[H.Slot].Client && Slots[H.Slot].Gen == H.Gen;
  }
  void freeHolder(uint32_t H) {
    Holders[H].Next = FreeHolders;
    FreeHolders = H;
  }

  Scheduler &Sched;
  VolumeOptions Options;
  std::vector<std::unique_ptr<FileServer>> Servers;
  MountTable Vldb;
  std::vector<ClientSlot> Slots;
  FlatTable<Promise, &Promise::Path> Promises;
  std::vector<Holder> Holders;
  uint32_t FreeHolders = NoHolder;
  uint64_t Broken = 0;
};

/// Per-node client: handle → route → cache → RPC, under either aggregation.
class VolumeClient final : public RpcClientBase {
public:
  VolumeClient(const ClientBuilder &B, VolumeFs &Cell);
  ~VolumeClient() override;

  void dropCaches() override;
  std::string describe() const override;

  /// Internal aggregation: the filer whose N-blade this node mounts.
  unsigned nbladeIndex() const { return Nblade; }

private:
  friend class VolumeFs;

  void submitDirect(const MetaRequest &Req, Callback Done) override;
  void dispatch(Exchange *X) override;
  void finish(Exchange *X) override;
  /// Hands X's request to X->Server's volume X->VolId; \p Done fires when
  /// the server has finished it.
  void execute(Exchange *X, std::function<void()> Done);

  VolumeFs *Cell; ///< null once the cluster is gone
  unsigned NodeIndex;
  unsigned Nblade;
  uint32_t Slot;
  ClientHandles Handles;
  /// By VLDB entry: volumes whose location this client has looked up.
  std::vector<bool> KnownVolumes;
  /// The request as the server sees it, rewritten per RPC: the server
  /// executes a request at arrival, so one scratch copy suffices. It names
  /// the volume's paths and the server's handle; the caller's request in
  /// the exchange keeps the full paths and the client-local handle, which
  /// key the cache and the handle record.
  MetaRequest ServerReq;
};

} // namespace dmb

#endif // DMETABENCH_DFS_VOLUMEFS_H
