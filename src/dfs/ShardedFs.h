//===- dfs/ShardedFs.h - Sharded metadata service ----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scale-out metadata service of ROADMAP item 1 (thesis \S 5.5 outlook):
/// N FileServer shards behind a GIGA+/IndexFS-style partition map. Every
/// directory starts as one partition on one shard and splits incrementally
/// once a partition exceeds a configurable entry threshold; split partitions
/// spread over the shards by a deterministic placement function, so a
/// single hot directory fans out instead of saturating one MDS (the E08/E09
/// bottleneck).
///
/// Clients cache each directory's partition bitmap and route requests
/// themselves. Replies carry the authoritative map epoch; a request routed
/// with an outdated bitmap is answered with FsError::StaleMap, after which
/// the client refreshes the directory's bitmap (a control-plane round trip)
/// and re-issues the operation — with the *same* (ClientId, Xid), so the
/// destination shard's duplicate-request cache still recognises a
/// retransmitted operation that executed before its entries migrated.
/// Split migrations move the affected duplicate-request-cache entries along
/// with the entries themselves for exactly that reason.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_SHARDEDFS_H
#define DMETABENCH_DFS_SHARDEDFS_H

#include "cluster/ShardPlacement.h"
#include "dfs/ClientConfig.h"
#include "dfs/DistributedFs.h"
#include "dfs/FileServer.h"
#include "dfs/PartitionMap.h"
#include "dfs/RpcClientBase.h"
#include "sim/Scheduler.h"
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace dmb {

/// Tunables of the sharded metadata service.
struct ShardedOptions {
  unsigned NumShards = 4;
  /// A partition splits once its live entry count exceeds this.
  unsigned SplitThreshold = 512;
  /// Cap on partitions per directory (<= PartitionMap::MaxPartitions).
  unsigned MaxPartitionsPerDir = PartitionMap::MaxPartitions;
  ShardPlacement::Policy Placement = ShardPlacement::Policy::RoundRobin;
  /// Client construction: 100 us one-way LAN, 16 RPC slots,
  /// fire-and-forget (enable Client.Retry for resilience).
  ClientConfig Client = makeClientConfig(microseconds(100), 16);
  /// Control-plane round trip for a client refreshing one directory's
  /// partition bitmap after a StaleMap redirect. The map service is
  /// modelled as reliable (replicated), so refreshes never fault.
  SimDuration MapFetchLatency = microseconds(200);
  /// Redirects one operation may take before the client reports StaleMap.
  unsigned MaxRedirects = 8;
  /// Shard CPU time to reject a stale-routed request.
  SimDuration StaleReplyCost = microseconds(10);
  /// Coordinator-to-shard hop for fan-out operations (readdir, rmdir
  /// emptiness checks) — one hop per partition touched.
  SimDuration InterShardHop = microseconds(50);
  /// Foreground split cost charged on the splitting shard, ahead of the
  /// triggering operation's own service: Base + PerEntry * SplitThreshold.
  /// Deliberately a function of the *threshold*, not of the entries that
  /// actually moved: the moved set at a same-timestamp tie depends on the
  /// tie order, the threshold does not — schedule invariance requires the
  /// charged time to be identical either way.
  SimDuration SplitBaseCost = microseconds(500);
  SimDuration SplitPerEntryCost = microseconds(20);
  /// Ingest quantum of a shard's RPC layer, modelling the NIC
  /// interrupt-coalescing window: requests delivered within one quantum
  /// are admitted as a single batch in canonical (ClientId, Xid) order.
  /// This makes a shard's service order a function of arrival times and
  /// request identities alone — never of event tie order. Single-MDS
  /// models are tie-robust by rank symmetry (a tie swap relabels ranks);
  /// sharding breaks that symmetry because names hash to different
  /// shards, so the admission order itself must be canonical for
  /// verifySchedules invariance to hold. Must be positive.
  SimDuration ArrivalQuantum = microseconds(1);
  /// Shard hardware profile; see makeShardConfig().
  ServerConfig ShardDefaults;

  ShardedOptions();
};

/// Returns the per-shard MDS profile: the FAS3050-like filer head of
/// makeFilerConfig() without the consistency-point model (shards commit
/// through their metadata journal instead).
ServerConfig makeShardConfig(const std::string &Name = "mds-shard");

/// The deployed sharded metadata service.
class ShardedFs final : public DistributedFs, public FsAdmin {
public:
  ShardedFs(Scheduler &Sched, ShardedOptions Options = ShardedOptions());

  std::unique_ptr<ClientFs> makeClient(unsigned NodeIndex) override;
  std::string name() const override { return "sharded"; }
  /// Shard-spanning admin surface: crashAndRecover() routes by volume name
  /// ("shard<i>"), cache operations aggregate over all shards.
  FsAdmin *admin() override { return this; }
  uint64_t crashAndRecover(const std::string &Volume) override;

  /// Shard access for disturbance injection and observation.
  FileServer &shard(unsigned Index) { return *Shards[Index]; }
  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }
  /// Volume name of shard \p Index ("shard<i>").
  static std::string volumeName(unsigned Index);

  const ShardedOptions &options() const { return Options; }
  const ShardPlacement &placement() const { return Place; }
  const PartitionMap &partitionMap() const { return Map; }

  /// \name Observability
  /// @{
  uint64_t splitCount() const { return Splits; }
  uint64_t migratedEntries() const { return MigratedEntries; }
  uint64_t staleReplies() const { return StaleReplies; }
  uint64_t mapEpoch() const { return Map.epoch(); }
  /// @}

  /// \name Client-facing protocol surface
  /// Used by ShardedClient; conceptually the wire between client and
  /// service.
  /// @{

  /// Server-side arrival of \p R at shard \p Shard. The request joins the
  /// shard's current ingest batch and is admitted one ArrivalQuantum
  /// later, in canonical (ClientId, Xid) order with everything else that
  /// arrived in the same quantum; admission then runs the
  /// duplicate-request probe, routing validation against the
  /// authoritative map (StaleMap on mismatch), the fan-out paths for
  /// readdir/rmdir, and the forward into the shard's FileServer.
  /// \p Reply fires exactly once.
  void dispatchAtShard(unsigned Shard, const MetaRequest &R,
                       std::function<void(MetaReply)> Reply);

  /// Control-plane fetch of a directory's current partition bitmap (1 — a
  /// single partition 0 — for unknown directories). The client charges
  /// Options.MapFetchLatency per fetch.
  uint64_t fetchBitmap(uint64_t DirToken) const;
  /// @}

private:
  friend class ShardedClient;

  /// One request waiting in a shard's ingest batch, with the trace id of
  /// the operation it belongs to (restored around its admission).
  struct PendingArrival {
    MetaRequest Req;
    std::function<void(MetaReply)> Reply;
    uint64_t Trace = 0;
  };
  /// All requests delivered to one shard at one timestamp; admitted
  /// together one ArrivalQuantum later.
  struct ArrivalBatch {
    SimTime When = 0;
    std::vector<PendingArrival> Items;
  };

  /// Admits the oldest pending ingest batch of \p Shard in canonical
  /// request order.
  void flushArrivals(unsigned Shard);
  /// The admission path behind dispatchAtShard() (see there).
  void dispatchNow(unsigned Shard, const MetaRequest &R,
                   std::function<void(MetaReply)> Reply);

  /// Executes \p Req directly on a shard volume (server-internal work:
  /// partition directories, migrations), journaling successful journalable
  /// requests as committed records so crash recovery rebuilds them.
  /// Returns the reply and, via \p SeqPlus1Out, the journal anchor
  /// (seq + 1, 0 if not journaled).
  MetaReply execDirect(unsigned Shard, const MetaRequest &Req,
                       uint64_t *SeqPlus1Out = nullptr);
  /// Appends and commits \p Req on \p Shard's journal without executing it
  /// — the anchor for migrated DRC entries of already-deleted paths.
  /// Replay tolerates these records (errors are ignored). Returns seq + 1.
  uint64_t journalAnchor(unsigned Shard, const MetaRequest &Req);

  /// Creates the physical partition directory (idempotent).
  void ensurePartitionDir(uint64_t DirToken, unsigned Partition);
  /// Mutation watcher (same body on every shard): maintains per-partition
  /// entry counts, registers/unregisters directories, triggers splits.
  void onMutation(const MetaRequest &Req);
  /// Counts an insert into \p Partition of \p D and splits if over the
  /// threshold.
  void noteInsert(GigaDir &D, unsigned Partition);
  /// Splits \p Partition of \p D repeatedly while the count stays above
  /// the threshold and the radix allows.
  void maybeSplit(GigaDir &D, unsigned Partition);
  void splitPartition(GigaDir &D, unsigned Partition, unsigned Child);
  /// Moves one entry between partition directories during a split; returns
  /// the destination create record's journal anchor (seq + 1, 0 if none).
  uint64_t migrateEntry(unsigned SrcShard, unsigned DstShard,
                        const std::string &SrcDir, const std::string &DstDir,
                        const std::string &Name);

  /// Fan-out implementations (coordinator = the shard owning partition 0).
  void dispatchReaddir(unsigned Shard, const MetaRequest &R,
                       std::function<void(MetaReply)> Reply);
  void dispatchRmdir(unsigned Shard, const MetaRequest &R,
                     std::function<void(MetaReply)> Reply);

  /// Forwards \p R into the shard's FileServer, stamping the current map
  /// epoch onto the reply.
  void forward(unsigned Shard, const MetaRequest &R,
               std::function<void(MetaReply)> Reply);
  /// Answers \p Reply with \p Err from shard \p Shard after the (small)
  /// rejection cost, stamping the current map epoch.
  void replyError(unsigned Shard, FsError Err,
                  std::function<void(MetaReply)> Reply);
  /// replyError(StaleMap), counted.
  void replyStale(unsigned Shard, std::function<void(MetaReply)> Reply);

  Scheduler &Sched;
  ShardedOptions Options;
  ShardPlacement Place;
  PartitionMap Map;
  std::vector<std::unique_ptr<FileServer>> Shards;
  std::vector<uint32_t> VolIds; ///< interned volume id per shard
  /// Per-shard ingest batches, oldest first. Arrivals always append to
  /// the newest batch (time moves forward); flushes pop the oldest.
  std::vector<std::deque<ArrivalBatch>> Ingest;
  uint64_t Splits = 0;
  uint64_t MigratedEntries = 0;
  uint64_t StaleReplies = 0;
};

/// Per-node client of the sharded metadata service: translates virtual
/// paths to physical partition paths with its cached bitmaps, routes to
/// the owning shard, and follows StaleMap redirects with pinned Xids.
class ShardedClient final : public RpcClientBase {
public:
  ShardedClient(const ClientBuilder &B, ShardedFs &Fs);

  /// Drops the cached partition bitmaps — subsequent operations on split
  /// directories pay a redirect, like any cold client.
  void dropCaches() override;
  std::string describe() const override;

  /// Stale-map redirects this client has followed.
  uint64_t staleMapRetries() const { return StaleRetries; }
  /// Directory bitmaps currently cached.
  size_t cachedDirCount() const { return BitmapCache.size(); }

private:
  /// One routing decision: where the translated request goes, or the
  /// error to answer client-side.
  struct Route {
    FsError Err = FsError::Ok;
    unsigned Shard = 0;
    uint64_t DirToken = 0;  ///< bitmap to refresh on StaleMap
    uint64_t DirToken2 = 0; ///< secondary bitmap (rename/link), 0 = none
    MetaRequest Phys;
  };

  Route route(const MetaRequest &Req) const;
  uint64_t bitmapFor(uint64_t DirToken) const;
  /// The routed issue path behind submit(): handle-op forwarding and
  /// redirect-following path ops. Honors a pre-pinned Req.Xid (the
  /// write-behind queue pins one per op at enqueue).
  void submitDirect(const MetaRequest &Req, Callback Done) override;
  /// Issues one routed attempt; follows StaleMap redirects re-using
  /// \p Xid until RedirectsLeft runs out. Runs under one RPC slot.
  void attempt(const MetaRequest &Req, uint64_t Xid, unsigned RedirectsLeft,
               Callback Done);
  void dispatch(Exchange *X) override;
  /// Only completes: the caller's completion releases the RPC slot, which
  /// a redirected operation holds across its attempts.
  void finish(Exchange *X) override { complete(X); }

  ShardedFs &Fs;
  unsigned NodeIndex;
  std::unordered_map<uint64_t, uint64_t> BitmapCache;
  uint64_t CachedEpoch = 0;
  uint64_t StaleRetries = 0;
  ClientHandles Handles;
};

} // namespace dmb

#endif // DMETABENCH_DFS_SHARDEDFS_H
