//===- dfs/FileServer.h - Simulated file server ------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A generic simulated file server: one or more volumes (each a real
/// LocalFileSystem), a CPU queue, and an optional WAFL-style NVRAM /
/// consistency-point model (thesis \S 4.2.3: the sawtooth of Fig. 4.6).
/// Every distributed file system model composes one or more FileServers.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_DFS_FILESERVER_H
#define DMETABENCH_DFS_FILESERVER_H

#include "dfs/DuplicateRequestCache.h"
#include "dfs/FsAdmin.h"
#include "dfs/Journal.h"
#include "dfs/Message.h"
#include "dfs/ReplyPark.h"
#include "fs/CostModel.h"
#include "fs/LocalFileSystem.h"
#include "sim/Resource.h"
#include "sim/Scheduler.h"
#include "support/Interner.h"
#include "support/Random.h"
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dmb {

/// Configuration of one simulated server.
struct ServerConfig {
  std::string Name = "server";
  unsigned CpuThreads = 2;   ///< concurrent request service units
  CostModel Costs;           ///< OpCost -> service time mapping
  FsConfig VolumeDefaults;   ///< config applied to addVolume()

  /// \name WAFL-style NVRAM + consistency points (\S 4.2.3)
  /// @{
  bool EnableConsistencyPoints = false;
  SimDuration CpInterval = seconds(10.0);     ///< max time between CPs
  uint64_t NvramCapacityBytes = 64 * 1024 * 1024; ///< CP at half-full
  double CpSlowdown = 3.5;   ///< CPU slowdown while a CP flushes
  double CpFlushBytesPerSec = 60e6; ///< flush rate -> CP duration
  uint64_t LogBytesPerMutation = 4096; ///< NVRAM log growth per mutation
  /// @}

  /// Extra latency charged to every *mutating* op for stable-storage commit
  /// (NFS: synchronous metadata, \S 2.6.4; NVRAM acks make this small).
  SimDuration CommitLatency = microseconds(30);

  /// \name Duplicate-request cache (DRC)
  /// Retransmit protection for resilient clients (RFC 1813-style): replies
  /// to non-idempotent requests are cached keyed by (ClientId, Xid) so a
  /// retransmitted create/remove/rename is answered from the cache instead
  /// of double-applied. Only requests stamped by a RetryPolicy-enabled
  /// client carry an Xid; the fire-and-forget path never touches the DRC.
  /// @{
  unsigned DuplicateRequestCacheSize = 1024; ///< entries; 0 disables
  SimDuration DrcHitCost = microseconds(10); ///< service time of a replay
  /// @}
};

/// Simulated file server processing MetaRequests against its volumes.
class FileServer : public FsAdmin {
public:
  using Callback = std::function<void(MetaReply)>;

  FileServer(Scheduler &Sched, ServerConfig Config);

  /// Adds a volume with the server's default FsConfig; returns it.
  LocalFileSystem &addVolume(const std::string &Name);
  /// Adds a volume with an explicit config.
  LocalFileSystem &addVolume(const std::string &Name, FsConfig Config);
  /// Looks up a volume; nullptr when absent.
  LocalFileSystem *volume(const std::string &Name);

  /// \name Interned volume routing
  ///
  /// Volume routing sits on the request hot path, so names are interned
  /// into dense ids at registration and requests route through an
  /// id-indexed vector — no string hashing or tree walk per request. Ids
  /// are stable for the server's lifetime (surviving removeVolume /
  /// adoptVolume moves), so clients resolve the id once at mount and pass
  /// it to process()/processEager() afterwards. The string overloads
  /// remain and simply resolve the id per call.
  /// @{

  /// The dense id for \p Name, interning it if never seen. Never fails.
  uint32_t volumeId(std::string_view Name) { return VolumeIds.intern(Name); }
  /// The name behind an id previously returned by volumeId().
  const std::string &volumeName(uint32_t VolId) const {
    return VolumeIds.name(VolId);
  }
  /// Looks up a volume by id; nullptr when never added or detached.
  LocalFileSystem *volume(uint32_t VolId) {
    return VolId < Volumes.size() ? Volumes[VolId].get() : nullptr;
  }
  /// @}

  /// \name Volume mobility (\S 2.5.1: volumes move between servers)
  /// @{
  /// Detaches a volume (requests for it then return ESTALE here).
  std::unique_ptr<LocalFileSystem> removeVolume(const std::string &Name);
  /// Attaches an existing volume under \p Name.
  void adoptVolume(const std::string &Name,
                   std::unique_ptr<LocalFileSystem> Vol);
  /// @}

  /// Processes \p Req against the volume \p VolId (from volumeId()). The
  /// reply callback fires after CPU queueing + service (+ commit latency
  /// for mutations). The callback and the reply wait in a ReplyPark
  /// meanwhile, so the CPU completion holds no heap block of its own.
  void process(uint32_t VolId, const MetaRequest &Req, Callback Done);
  /// The same, with the reply stored by the caller: it is moved into
  /// \p Reply when the request executes (at arrival), and \p Done fires
  /// when the callback of the overload above would. \p Reply must stay
  /// alive and untouched until then.
  void process(uint32_t VolId, const MetaRequest &Req, MetaReply &Reply,
               std::function<void()> Done);
  /// String-keyed convenience overload of the above.
  void process(const std::string &Volume, const MetaRequest &Req,
               Callback Done);

  /// Write-back flavour: executes \p Req immediately (state changes and the
  /// reply are available now), while CPU time and commit drain
  /// asynchronously; \p Committed fires when the server has finished the
  /// work. This models clients that ack metadata from their cache before
  /// the server commits (Lustre, \S 2.6.4 / \S 4.8).
  MetaReply processEager(uint32_t VolId, const MetaRequest &Req,
                         std::function<void()> Committed);
  /// String-keyed convenience overload of the above.
  MetaReply processEager(const std::string &Volume, const MetaRequest &Req,
                         std::function<void()> Committed);

  /// Enqueues non-benchmark work (snapshot chunks, streaming writes) that
  /// competes with request service — the disturbance injectors use this.
  void injectWork(SimDuration Service, std::function<void()> Done = {});

  /// While enabled, every request's service time gains an exponentially
  /// distributed extra with the given mean — the per-request jitter of
  /// internal maintenance such as snapshot copy-on-write (\S 4.2.3 /
  /// Fig. 4.5). Pass 0 to disable.
  void setServiceJitter(SimDuration Mean, uint64_t Seed = 1);

  /// Load control / quality of service (thesis \S 5.4): admits at most
  /// \p OpsPerSec requests per second from tenant \p Uid; excess requests
  /// are delayed before touching the CPU. Pass 0 to remove the limit.
  void setTenantRateLimit(uint32_t Uid, double OpsPerSec);

  /// \name Metadata journaling and crash recovery (thesis \S 2.7)
  /// @{
  /// Enables the write-ahead metadata journal. Journalable mutations are
  /// logged at execution and committed when the server finishes the
  /// operation (asynchronous logging, \S 2.7.1).
  void enableJournal();
  /// The journal; nullptr unless enableJournal() was called.
  MetadataJournal *journal() { return Journal.get(); }
  /// Simulates a crash of \p Volume: the volume is replaced by a fresh
  /// store rebuilt by replaying the journal's committed records. Returns
  /// the number of appended-but-uncommitted (lost) records, or ~0ULL when
  /// journaling is off or the volume does not exist. The duplicate-request
  /// cache is modelled as journaled alongside the metadata log: entries
  /// whose journal record committed survive the crash (so retransmits of
  /// durable ops still replay their original reply), while entries for
  /// uncommitted or unjournaled ops are lost with the volume.
  uint64_t crashAndRecover(const std::string &Volume) override;
  /// @}

  /// Change notification (thesis \S 2.8.3, FAM / file-policy servers):
  /// \p Watcher fires after every successful mutation with the volume and
  /// the request. Watchers live as long as the server.
  void watchMutations(
      std::function<void(const std::string &, const MetaRequest &)>
          Watcher);

  /// \name DRC migration (sharded metadata service)
  /// When a directory partition migrates to another shard, the cached
  /// replies for the moved paths must follow it: a client whose reply was
  /// lost retransmits through a stale-map redirect to the new owner, and
  /// only the new owner's cache can replay the original reply instead of
  /// re-executing the operation.
  /// @{
  struct DrcExport {
    uint64_t Key = 0;
    MetaOp Op = MetaOp::Stat;
    DuplicateRequestCache::CachedReply Reply;
    std::string Path;
  };
  /// Removes and returns the entries of \p VolId whose request path
  /// satisfies \p Match, sorted by key. The entries left keep their
  /// eviction order.
  std::vector<DrcExport>
  extractDrcEntries(uint32_t VolId,
                    const std::function<bool(const std::string &)> &Match);
  /// Inserts a migrated entry under this server's \p VolId. \p SeqPlus1
  /// anchors it to a committed record of this server's journal (0 = no
  /// anchor: the entry is pruned by the next crash of the volume).
  void adoptDrcEntry(uint32_t VolId, uint64_t Key, MetaOp Op,
                     const DuplicateRequestCache::CachedReply &Reply,
                     std::string_view Path, uint64_t SeqPlus1);
  /// @}

  /// Read-only duplicate-request probe (no hit accounting, no CPU charge):
  /// true when a reply for \p Req's (ClientId, Xid) is cached here. Routing
  /// layers consult this before rejecting a request as mis-routed — a
  /// retransmit of an operation that executed *here* must be answered from
  /// this cache even if its entries have since migrated away.
  bool drcHolds(const MetaRequest &Req) const {
    return Req.Xid != 0 && Req.ClientId != 0 &&
           Config.DuplicateRequestCacheSize &&
           Drc.find(drcKey(Req)) != nullptr;
  }

  /// \name Observability
  /// @{
  Resource &cpu() { return Cpu; }
  const ServerConfig &config() const { return Config; }
  uint64_t processedRequests() const { return Processed; }
  uint64_t consistencyPointCount() const { return CpCount; }
  bool consistencyPointActive() const { return CpActive; }
  uint64_t dirtyLogBytes() const { return DirtyBytes; }
  uint64_t drcHits() const { return DrcHits; }
  uint64_t drcInsertions() const { return Drc.insertions(); }
  size_t drcSize() const { return Drc.size(); }
  size_t drcEvictQueueSize() const { return Drc.ringLength(); }
  /// @}

  /// Executes \p Req directly against \p Vol (no queueing). Exposed for the
  /// clients that run parts of an operation locally (e.g. write-back
  /// replay) and for tests.
  static MetaReply execute(LocalFileSystem &Vol, const MetaRequest &Req,
                           SimTime Now, OpCost &Cost);

private:
  /// Executes \p Req at arrival and queues its service. \p Finish takes
  /// the reply (MetaReply &&) and returns the completion, a
  /// std::function<void()>, to run once the server has finished the work.
  template <typename FinishFn>
  void admit(uint32_t VolId, const MetaRequest &Req, FinishFn &&Finish);
  void noteMutation(const MetaRequest &Req);
  void maybeStartConsistencyPoint();
  void startConsistencyPoint();

  /// True when a retransmit of \p Op could observe a different result if
  /// re-executed (mutations and handle-allocating/consuming ops). Pure
  /// path reads re-execute harmlessly and skip the DRC, as in real NFS
  /// servers.
  static bool drcCacheable(MetaOp Op);
  /// DRC key: ClientIds are small and Xids dense per client, so packing
  /// them into one word is collision-free at simulation scales.
  static uint64_t drcKey(const MetaRequest &Req) {
    return (uint64_t(Req.ClientId) << 40) ^ Req.Xid;
  }

  Scheduler &Sched;
  ServerConfig Config;
  Resource Cpu;
  Interner VolumeIds; ///< volume name -> dense id (ids stable for life)
  std::vector<std::unique_ptr<LocalFileSystem>> Volumes; ///< by volume id;
                                                         ///< null = detached
  uint64_t Processed = 0;

  // Consistency-point state.
  uint64_t DirtyBytes = 0;
  bool CpActive = false;
  uint64_t CpCount = 0;
  bool CpTimerArmed = false;

  // Per-request service jitter (disturbance modelling).
  SimDuration JitterMean = 0;
  Rng JitterRng;

  // Per-tenant admission control (\S 5.4). A handful of tenants at most,
  // checked on every request: a flat vector with a linear scan (and an
  // empty() fast path) beats a tree of heap nodes.
  struct RateLimit {
    uint32_t Uid = 0;
    SimDuration Period = 0;
    SimTime NextAdmission = 0;
  };
  std::vector<RateLimit> TenantLimits;
  RateLimit *tenantLimit(uint32_t Uid) {
    for (RateLimit &L : TenantLimits)
      if (L.Uid == Uid)
        return &L;
    return nullptr;
  }

  // Journaling (\S 2.7) and change notification (\S 2.8.3).
  std::unique_ptr<MetadataJournal> Journal;
  /// The completions of journaled requests, parked from execution until
  /// their record commits (per-volume log-prefix rule): released in commit
  /// order by the journal's onCommit hook, at the CPU completion for a
  /// record a crash discarded in service, or in seq order by the crash
  /// sweep for one it discarded while held. A ring indexed by seq over the
  /// window [ParkedLo, ParkedLo + size): parked seqs only grow, and an
  /// empty slot is a released ack or a record that never had one.
  std::vector<std::function<void()>> ParkedAcks;
  uint64_t ParkedLo = 0; ///< no ack is parked below this seq
  std::function<void()> &parkedSlot(uint64_t Seq) {
    return ParkedAcks[Seq & (ParkedAcks.size() - 1)];
  }
  void parkAck(uint64_t Seq, std::function<void()> Ack);
  /// Removes and returns the ack parked under \p Seq (empty for none).
  std::function<void()> takeAck(uint64_t Seq);
  /// The CPU finished journaled request \p Seq: its stable write is done.
  void persisted(uint64_t Seq);
  std::vector<std::function<void(const std::string &, const MetaRequest &)>>
      Watchers;

  /// The replies of the Callback overload of process(), parked with their
  /// callbacks from execution until the CPU finishes the request.
  ReplyPark Replies;

  /// Duplicate-request cache, FIFO-bounded by the configured size.
  DuplicateRequestCache Drc;
  uint64_t DrcHits = 0;
};

} // namespace dmb

#endif // DMETABENCH_DFS_FILESERVER_H
