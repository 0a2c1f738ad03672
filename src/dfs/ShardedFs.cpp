//===- dfs/ShardedFs.cpp --------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/ShardedFs.h"
#include "dfs/NfsFs.h"
#include "support/Assert.h"
#include "support/Format.h"
#include <algorithm>
#include <bit>
#include <optional>
#include <tuple>
#include <utility>

using namespace dmb;

ServerConfig dmb::makeShardConfig(const std::string &Name) {
  // Same head as the single-filer MDS so E30's scale-out comparison is
  // apples-to-apples; shards commit through their metadata journal, the
  // consistency-point sawtooth stays a single-filer story.
  ServerConfig C = makeFilerConfig(Name);
  C.EnableConsistencyPoints = false;
  return C;
}

ShardedOptions::ShardedOptions() : ShardDefaults(makeShardConfig()) {}

//===----------------------------------------------------------------------===//
// ShardedFs
//===----------------------------------------------------------------------===//

std::string ShardedFs::volumeName(unsigned Index) {
  return format("shard%u", Index);
}

ShardedFs::ShardedFs(Scheduler &Sched, ShardedOptions Opts)
    : Sched(Sched), Options(std::move(Opts)),
      Place{Options.NumShards ? Options.NumShards : 1, Options.Placement} {
  DMB_ASSERT(Options.NumShards > 0, "sharded service needs >= 1 shard");
  DMB_ASSERT(Options.MaxPartitionsPerDir >= 1 &&
                 Options.MaxPartitionsPerDir <= PartitionMap::MaxPartitions,
             "partition cap outside the presence bitmap");
  DMB_ASSERT(Options.ArrivalQuantum > 0,
             "the ingest quantum orders same-timestamp arrivals; zero "
             "would flush a batch into its own timestamp's event ties");
  Ingest.resize(Options.NumShards);
  for (unsigned I = 0; I < Options.NumShards; ++I) {
    ServerConfig C = Options.ShardDefaults;
    C.Name = format("mds-shard%u", I);
    Shards.push_back(std::make_unique<FileServer>(Sched, C));
    FileServer &S = *Shards.back();
    S.addVolume(volumeName(I));
    VolIds.push_back(S.volumeId(volumeName(I)));
    S.enableJournal();
    S.watchMutations(
        [this](const std::string &, const MetaRequest &R) { onMutation(R); });
    MetaReply Giga = execDirect(I, makeMkdir("/giga"));
    DMB_ASSERT(Giga.ok(), "creating /giga on a fresh shard volume");
  }
  GigaDir &Root = Map.registerDir("/");
  ensurePartitionDir(Root.Token, 0);
}

std::unique_ptr<ClientFs> ShardedFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<ShardedClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), *this);
}

uint64_t ShardedFs::crashAndRecover(const std::string &Volume) {
  for (unsigned I = 0; I < Shards.size(); ++I)
    if (volumeName(I) == Volume)
      return Shards[I]->crashAndRecover(Volume);
  return ~0ULL;
}

uint64_t ShardedFs::fetchBitmap(uint64_t DirToken) const {
  const GigaDir *D = Map.dir(DirToken);
  return D ? D->Bitmap : 1;
}

MetaReply ShardedFs::execDirect(unsigned Shard, const MetaRequest &Req,
                                uint64_t *SeqPlus1Out) {
  if (SeqPlus1Out)
    *SeqPlus1Out = 0;
  LocalFileSystem *Vol = Shards[Shard]->volume(VolIds[Shard]);
  DMB_ASSERT(Vol, "shard volume detached");
  OpCost Cost;
  MetaReply Reply = FileServer::execute(*Vol, Req, Sched.now(), Cost);
  if (Reply.ok()) {
    if (MetadataJournal *J = Shards[Shard]->journal()) {
      if (std::optional<uint64_t> Seq =
              J->append(volumeName(Shard), Req, Sched.now())) {
        // Server-internal work is durable the moment it happens: migrations
        // must not be lost while the operations that observed them survive.
        J->commit(*Seq);
        if (SeqPlus1Out)
          *SeqPlus1Out = *Seq + 1;
      }
    }
  }
  return Reply;
}

uint64_t ShardedFs::journalAnchor(unsigned Shard, const MetaRequest &Req) {
  MetadataJournal *J = Shards[Shard]->journal();
  if (!J)
    return 0;
  std::optional<uint64_t> Seq = J->append(volumeName(Shard), Req, Sched.now());
  if (!Seq)
    return 0;
  J->commit(*Seq);
  return *Seq + 1;
}

void ShardedFs::ensurePartitionDir(uint64_t DirToken, unsigned Partition) {
  unsigned Shard = Place.shardFor(DirToken, Partition);
  MetaReply R = execDirect(
      Shard, makeMkdir(PartitionMap::partitionDirName(DirToken, Partition)));
  DMB_ASSERT(R.ok() || R.Err == FsError::Exists, "partition directory create");
}

void ShardedFs::forward(unsigned Shard, const MetaRequest &R,
                        std::function<void(MetaReply)> Reply) {
  Shards[Shard]->process(
      VolIds[Shard], R, [this, Reply = std::move(Reply)](MetaReply Rep) {
        Rep.MapEpoch = Map.epoch();
        Reply(std::move(Rep));
      });
}

void ShardedFs::replyError(unsigned Shard, FsError Err,
                           std::function<void(MetaReply)> Reply) {
  uint64_t Epoch = Map.epoch();
  Shards[Shard]->injectWork(Options.StaleReplyCost,
                            [Err, Epoch, Reply = std::move(Reply)]() {
                              MetaReply R;
                              R.Err = Err;
                              R.MapEpoch = Epoch;
                              Reply(std::move(R));
                            });
}

void ShardedFs::replyStale(unsigned Shard,
                           std::function<void(MetaReply)> Reply) {
  ++StaleReplies;
  replyError(Shard, FsError::StaleMap, std::move(Reply));
}

void ShardedFs::dispatchAtShard(unsigned Shard, const MetaRequest &R,
                                std::function<void(MetaReply)> Reply) {
  DMB_ASSERT(Shard < Shards.size(), "bad shard index");
  // Join the shard's ingest batch for this timestamp; a fresh batch
  // schedules its own admission one quantum out. The flush runs strictly
  // after every delivery it covers (the quantum is positive), so the
  // batch's content — and with it the admission order — is the same
  // whatever order the deliveries themselves executed in.
  std::deque<ArrivalBatch> &Q = Ingest[Shard];
  if (Q.empty() || Q.back().When != Sched.now()) {
    Q.push_back(ArrivalBatch{Sched.now(), {}});
    Sched.after(Options.ArrivalQuantum,
                [this, Shard]() { flushArrivals(Shard); });
  }
  Q.back().Items.push_back(
      PendingArrival{R, std::move(Reply), Sched.activeTrace()});
}

void ShardedFs::flushArrivals(unsigned Shard) {
  std::deque<ArrivalBatch> &Q = Ingest[Shard];
  DMB_ASSERT(!Q.empty(), "ingest flush without a batch");
  ArrivalBatch B = std::move(Q.front());
  Q.pop_front();
  // Canonical admission order: request identity, nothing schedule-
  // derived. Paths order before Xids deliberately — processes sharing a
  // node's client draw Xids from one counter, so when two of them issue
  // in the same timestamp tie the *values* they draw depend on the tie
  // order; their paths (distinct working directories) do not. The Xid
  // only disambiguates requests identical in every semantic field, where
  // either order replies identically.
  std::sort(B.Items.begin(), B.Items.end(),
            [](const PendingArrival &A, const PendingArrival &C) {
              const MetaRequest &X = A.Req, &Y = C.Req;
              return std::tie(X.ClientId, X.Path, X.Path2, X.Op, X.Fh,
                              X.Xid) < std::tie(Y.ClientId, Y.Path, Y.Path2,
                                                Y.Op, Y.Fh, Y.Xid);
            });
  for (PendingArrival &P : B.Items) {
    uint64_t Prev = Sched.swapActiveTrace(P.Trace);
    dispatchNow(Shard, P.Req, std::move(P.Reply));
    Sched.swapActiveTrace(Prev);
  }
}

void ShardedFs::dispatchNow(unsigned Shard, const MetaRequest &R,
                            std::function<void(MetaReply)> Reply) {
  PartitionMap::ParsedPath P;
  if (R.Path.empty() || !PartitionMap::parse(R.Path, P)) {
    // Handle-based operations (no path) route by the handle the client
    // recorded; nothing to validate here.
    forward(Shard, R, std::move(Reply));
    return;
  }
  // A retransmit of an operation that executed on this shard is answered
  // from the duplicate-request cache even when its entries migrated away
  // afterwards — the cached reply is that operation's truth, and the split
  // that moved the entries moved the *other* keys' replies along.
  if (Shards[Shard]->drcHolds(R)) {
    forward(Shard, R, std::move(Reply));
    return;
  }
  // Routing validation, structural rather than an epoch comparison: what
  // matters is whether the physical path the client computed is where the
  // entry lives under the authoritative map right now. Unknown directories
  // pass through — the partition machinery has nothing to say, the real
  // store produces the NoEnt.
  if (const GigaDir *D = Map.dir(P.Token)) {
    if (P.Leaf.empty()) {
      if (!((D->Bitmap >> P.Partition) & 1) ||
          Place.shardFor(P.Token, P.Partition) != Shard) {
        replyStale(Shard, std::move(Reply));
        return;
      }
    } else {
      unsigned Part =
          PartitionMap::partitionOf(PartitionMap::hashName(P.Leaf), D->Bitmap);
      if (Part != P.Partition || Place.shardFor(P.Token, Part) != Shard) {
        replyStale(Shard, std::move(Reply));
        return;
      }
    }
  }
  if (R.Op == MetaOp::Rename || R.Op == MetaOp::Link) {
    PartitionMap::ParsedPath P2;
    if (PartitionMap::parse(R.Path2, P2) && !P2.Leaf.empty()) {
      if (const GigaDir *D2 = Map.dir(P2.Token)) {
        unsigned Part = PartitionMap::partitionOf(
            PartitionMap::hashName(P2.Leaf), D2->Bitmap);
        if (Part != P2.Partition || Place.shardFor(P2.Token, Part) != Shard) {
          replyStale(Shard, std::move(Reply));
          return;
        }
      }
    }
    if (R.Op == MetaOp::Rename) {
      // Renaming a directory would re-token its whole partition subtree;
      // rejected like a cross-volume move (\S 2.6.3: NFS3ERR_XDEV).
      MetaRequest Probe;
      Probe.Op = MetaOp::Lstat;
      Probe.Path = R.Path;
      MetaReply St = execDirect(Shard, Probe);
      if (St.ok() && St.A.Type == FileType::Directory) {
        replyError(Shard, FsError::XDev, std::move(Reply));
        return;
      }
    }
  }
  if ((R.Op == MetaOp::Readdir || R.Op == MetaOp::ReaddirPlus) &&
      P.Leaf.empty()) {
    dispatchReaddir(Shard, R, std::move(Reply));
    return;
  }
  if (R.Op == MetaOp::Rmdir && !P.Leaf.empty()) {
    dispatchRmdir(Shard, R, std::move(Reply));
    return;
  }
  forward(Shard, R, std::move(Reply));
}

void ShardedFs::dispatchReaddir(unsigned Shard, const MetaRequest &R,
                                std::function<void(MetaReply)> Reply) {
  PartitionMap::ParsedPath P;
  bool Parsed = PartitionMap::parse(R.Path, P);
  DMB_ASSERT(Parsed, "fan-out readdir needs a partition path");
  const GigaDir *D = Map.dir(P.Token);
  if (!D || D->Bitmap == 1) {
    // Unknown or single-partition directory: an ordinary request against
    // the partition directory itself.
    forward(Shard, R, std::move(Reply));
    return;
  }
  // Coordinator fan-out: partition 0's owner collects the other partitions'
  // listings (one hop each) and serves the merged result from its CPU.
  unsigned Hops = static_cast<unsigned>(std::popcount(D->Bitmap)) - 1;
  uint64_t Token = P.Token;
  Sched.after(
      Options.InterShardHop * Hops,
      [this, Shard, Token, Req = R, Reply = std::move(Reply)]() mutable {
        // Re-read the map: a split (or removal) may have happened while the
        // gather hops were in flight; the real directories are the truth.
        const GigaDir *D2 = Map.dir(Token);
        MetaReply Merged;
        OpCost Cost;
        if (!D2) {
          Merged.Err = FsError::NoEnt;
        } else {
          bool First = true;
          for (unsigned Part = 0; Part < PartitionMap::MaxPartitions;
               ++Part) {
            if (!((D2->Bitmap >> Part) & 1))
              continue;
            MetaRequest Sub = Req;
            Sub.ClientId = 0; // internal sub-reads never touch a DRC
            Sub.Xid = 0;
            Sub.Path = PartitionMap::partitionDirName(Token, Part);
            MetaReply Rep =
                execDirect(Place.shardFor(Token, Part), Sub);
            if (!Rep.ok())
              continue; // lost with an unrecovered crash window; skip
            Cost.InodesTouched += 1;
            for (DirEntry &E : Rep.Entries) {
              Cost.DirEntriesScanned += 1;
              // Dot entries appear in every partition; keep one pair.
              if (!First && (E.Name == "." || E.Name == ".."))
                continue;
              Merged.Entries.push_back(std::move(E));
            }
            for (auto &EA : Rep.EntryAttrs) {
              Cost.InodesTouched += 1;
              Merged.EntryAttrs.push_back(std::move(EA));
            }
            First = false;
          }
          std::sort(Merged.Entries.begin(), Merged.Entries.end(),
                    [](const DirEntry &A, const DirEntry &B) {
                      return A.Name < B.Name;
                    });
          std::sort(Merged.EntryAttrs.begin(), Merged.EntryAttrs.end(),
                    [](const auto &A, const auto &B) {
                      return A.first < B.first;
                    });
        }
        Merged.MapEpoch = Map.epoch();
        SimDuration Service =
            Shards[Shard]->config().Costs.serviceTime(Cost);
        Shards[Shard]->injectWork(
            Service, [Merged = std::move(Merged),
                      Reply = std::move(Reply)]() mutable {
              Reply(std::move(Merged));
            });
      });
}

void ShardedFs::dispatchRmdir(unsigned Shard, const MetaRequest &R,
                              std::function<void(MetaReply)> Reply) {
  PartitionMap::ParsedPath P;
  bool Parsed = PartitionMap::parse(R.Path, P);
  DMB_ASSERT(Parsed && !P.Leaf.empty(), "fan-out rmdir needs a marker path");
  const GigaDir *PD = Map.dir(P.Token);
  const GigaDir *CD = nullptr;
  uint64_t ChildTok = 0;
  if (PD) {
    std::string ChildV =
        PD->VPath == "/" ? "/" + P.Leaf : PD->VPath + "/" + P.Leaf;
    ChildTok = fnv1a64(ChildV);
    CD = Map.dir(ChildTok);
  }
  if (!CD) {
    // Not a registered directory: the marker itself decides (NoEnt,
    // NotDir, or a DRC replay of an earlier successful rmdir).
    forward(Shard, R, std::move(Reply));
    return;
  }
  // Emptiness spans the child's partitions. The per-partition counts only
  // drive split decisions and may drift across crashes; emptiness is
  // checked against the real partition directories.
  unsigned Hops = static_cast<unsigned>(std::popcount(CD->Bitmap));
  Sched.after(
      Options.InterShardHop * Hops,
      [this, Shard, ChildTok, Req = R, Reply = std::move(Reply)]() mutable {
        const GigaDir *C2 = Map.dir(ChildTok);
        if (!C2) { // removed while the check hops were in flight
          forward(Shard, Req, std::move(Reply));
          return;
        }
        uint64_t Bitmap = C2->Bitmap;
        for (unsigned Part = 0; Part < PartitionMap::MaxPartitions; ++Part) {
          if (!((Bitmap >> Part) & 1))
            continue;
          MetaReply Listing = execDirect(
              Place.shardFor(ChildTok, Part),
              makeReaddir(PartitionMap::partitionDirName(ChildTok, Part)));
          if (!Listing.ok())
            continue;
          for (const DirEntry &E : Listing.Entries)
            if (E.Name != "." && E.Name != "..") {
              replyError(Shard, FsError::NotEmpty, std::move(Reply));
              return;
            }
        }
        // Empty: drop the partition directories (journaled on their
        // shards), then the marker through the regular path so the DRC,
        // journal and watchers see the operation.
        for (unsigned Part = 0; Part < PartitionMap::MaxPartitions; ++Part) {
          if (!((Bitmap >> Part) & 1))
            continue;
          MetaReply Rm = execDirect(
              Place.shardFor(ChildTok, Part),
              makeRmdir(PartitionMap::partitionDirName(ChildTok, Part)));
          DMB_ASSERT(Rm.ok() || Rm.Err == FsError::NoEnt,
                     "partition directory removal");
        }
        forward(Shard, Req, std::move(Reply));
      });
}

void ShardedFs::onMutation(const MetaRequest &Req) {
  PartitionMap::ParsedPath P;
  switch (Req.Op) {
  case MetaOp::Mkdir: {
    if (!PartitionMap::parse(Req.Path, P) || P.Leaf.empty())
      return;
    GigaDir *D = Map.dir(P.Token);
    if (!D)
      return;
    // A new directory: register it and materialize its partition 0 so it
    // is listable (and statable) immediately.
    std::string ChildV =
        D->VPath == "/" ? "/" + P.Leaf : D->VPath + "/" + P.Leaf;
    GigaDir &Child = Map.registerDir(ChildV);
    ensurePartitionDir(Child.Token, 0);
    noteInsert(*D, P.Partition);
    return;
  }
  case MetaOp::Open:
    // Creating opens insert an entry. An O_CREAT open of an *existing*
    // file counts too — the watcher cannot tell — so counts overestimate
    // under open-heavy re-access; they only drive split decisions.
    if (!(Req.Flags & OpenCreate))
      return;
    [[fallthrough]];
  case MetaOp::Symlink: {
    if (!PartitionMap::parse(Req.Path, P) || P.Leaf.empty())
      return;
    if (GigaDir *D = Map.dir(P.Token))
      noteInsert(*D, P.Partition);
    return;
  }
  case MetaOp::Link: {
    if (!PartitionMap::parse(Req.Path2, P) || P.Leaf.empty())
      return;
    if (GigaDir *D = Map.dir(P.Token))
      noteInsert(*D, P.Partition);
    return;
  }
  case MetaOp::Unlink:
  case MetaOp::Remove: {
    if (!PartitionMap::parse(Req.Path, P) || P.Leaf.empty())
      return;
    GigaDir *D = Map.dir(P.Token);
    if (D && D->Count[P.Partition] > 0)
      --D->Count[P.Partition];
    return;
  }
  case MetaOp::Rmdir: {
    if (!PartitionMap::parse(Req.Path, P) || P.Leaf.empty())
      return;
    GigaDir *D = Map.dir(P.Token);
    if (!D)
      return;
    if (D->Count[P.Partition] > 0)
      --D->Count[P.Partition];
    std::string ChildV =
        D->VPath == "/" ? "/" + P.Leaf : D->VPath + "/" + P.Leaf;
    Map.unregisterDir(fnv1a64(ChildV));
    return;
  }
  case MetaOp::Rename: {
    // Entry leaves the source partition, enters the target's. A rename
    // onto an existing entry replaces it — the insert then overcounts by
    // one, which the advisory counts tolerate.
    if (PartitionMap::parse(Req.Path, P) && !P.Leaf.empty()) {
      GigaDir *D = Map.dir(P.Token);
      if (D && D->Count[P.Partition] > 0)
        --D->Count[P.Partition];
    }
    if (PartitionMap::parse(Req.Path2, P) && !P.Leaf.empty())
      if (GigaDir *D = Map.dir(P.Token))
        noteInsert(*D, P.Partition);
    return;
  }
  default:
    return;
  }
}

void ShardedFs::noteInsert(GigaDir &D, unsigned Partition) {
  if (Partition >= PartitionMap::MaxPartitions)
    return;
  ++D.Count[Partition];
  maybeSplit(D, Partition);
}

void ShardedFs::maybeSplit(GigaDir &D, unsigned Partition) {
  while (D.Count[Partition] > Options.SplitThreshold) {
    unsigned Child =
        PartitionMap::splitChild(D, Partition, Options.MaxPartitionsPerDir);
    if (Child >= PartitionMap::MaxPartitions)
      return; // radix or cap exhausted: the partition stays oversized
    splitPartition(D, Partition, Child);
  }
}

void ShardedFs::splitPartition(GigaDir &D, unsigned Partition,
                               unsigned Child) {
  unsigned SrcShard = Place.shardFor(D.Token, Partition);
  unsigned DstShard = Place.shardFor(D.Token, Child);
  unsigned OldDepth = D.Depth[Partition];
  std::string SrcDir = PartitionMap::partitionDirName(D.Token, Partition);
  std::string DstDir = PartitionMap::partitionDirName(D.Token, Child);

  MetaReply MkChild = execDirect(DstShard, makeMkdir(DstDir));
  DMB_ASSERT(MkChild.ok() || MkChild.Err == FsError::Exists,
             "child partition directory create");

  // The directory index lists name-sorted: migration order is a function
  // of namespace state, not of hash-map iteration order.
  MetaReply Listing = execDirect(SrcShard, makeReaddir(SrcDir));
  unsigned Moved = 0;
  std::unordered_map<std::string, uint64_t> CreateSeqByLeaf;
  if (Listing.ok()) {
    for (const DirEntry &E : Listing.Entries) {
      if (E.Name == "." || E.Name == "..")
        continue;
      if (!PartitionMap::movesOnSplit(PartitionMap::hashName(E.Name),
                                      OldDepth))
        continue;
      CreateSeqByLeaf[E.Name] =
          migrateEntry(SrcShard, DstShard, SrcDir, DstDir, E.Name);
      ++Moved;
    }
  }

  // Cached replies for the moved names follow the entries: a client whose
  // reply was lost will retransmit through a stale-map redirect to the new
  // owner, and only the new owner's cache can replay the original reply.
  std::vector<FileServer::DrcExport> Exports =
      Shards[SrcShard]->extractDrcEntries(
          VolIds[SrcShard], [&](const std::string &Path) {
            PartitionMap::ParsedPath PP;
            return PartitionMap::parse(Path, PP) && PP.Token == D.Token &&
                   PP.Partition == Partition && !PP.Leaf.empty() &&
                   PartitionMap::movesOnSplit(
                       PartitionMap::hashName(PP.Leaf), OldDepth);
          });
  for (FileServer::DrcExport &Ex : Exports) {
    std::string Leaf = Ex.Path.substr(Ex.Path.rfind('/') + 1);
    std::string NewPath = DstDir + "/" + Leaf;
    uint64_t Anchor = 0;
    switch (Ex.Op) {
    case MetaOp::Mkdir:
    case MetaOp::Symlink: {
      // Anchored to the migration record that re-created the entry on the
      // destination. A cached create whose entry no longer exists (created
      // and removed again) is dropped: re-anchoring it would make crash
      // replay resurrect the entry.
      auto It = CreateSeqByLeaf.find(Leaf);
      if (It == CreateSeqByLeaf.end() || It->second == 0)
        continue;
      Anchor = It->second;
      break;
    }
    case MetaOp::Unlink:
    case MetaOp::Remove:
    case MetaOp::Rmdir: {
      // The entry is gone, so there is no migration record; anchor with a
      // synthetic committed one. Replay re-deletes (or fails with NoEnt),
      // both tolerated by the redo pass.
      MetaRequest A;
      A.Op = Ex.Op;
      A.Path = NewPath;
      Anchor = journalAnchor(DstShard, A);
      break;
    }
    default:
      // Everything else (creating opens, attribute updates, renames)
      // re-executes benignly after a redirect; not carried across.
      continue;
    }
    Shards[DstShard]->adoptDrcEntry(VolIds[DstShard], Ex.Key, Ex.Op,
                                    std::move(Ex.Reply), std::move(NewPath),
                                    Anchor);
  }

  D.Count[Partition] =
      D.Count[Partition] > Moved ? D.Count[Partition] - Moved : 0;
  D.Count[Child] += Moved;
  Map.commitSplit(D, Partition, Child);
  ++Splits;
  MigratedEntries += Moved;

  // The split's cost (scan, moves, map update) is charged as foreground
  // work on the splitting shard, queued ahead of the triggering
  // operation's own service — a create that trips the threshold pays for
  // the split it caused. Fixed (threshold-based) by design: see
  // ShardedOptions.
  Shards[SrcShard]->injectWork(
      Options.SplitBaseCost +
      Options.SplitPerEntryCost *
          static_cast<SimDuration>(Options.SplitThreshold));
}

uint64_t ShardedFs::migrateEntry(unsigned SrcShard, unsigned DstShard,
                                 const std::string &SrcDir,
                                 const std::string &DstDir,
                                 const std::string &Name) {
  std::string From = SrcDir + "/" + Name;
  std::string To = DstDir + "/" + Name;
  MetaRequest Probe;
  Probe.Op = MetaOp::Lstat;
  Probe.Path = From;
  MetaReply St = execDirect(SrcShard, Probe);
  if (!St.ok())
    return 0;
  uint64_t Seq = 0;
  switch (St.A.Type) {
  case FileType::Directory: {
    // Subdirectory markers are empty placeholder directories — the
    // subdirectory's contents live in its own partition directories.
    MetaReply Mk = execDirect(DstShard, makeMkdir(To, St.A.Mode), &Seq);
    DMB_ASSERT(Mk.ok() || Mk.Err == FsError::Exists, "marker migration");
    MetaReply Rm = execDirect(SrcShard, makeRmdir(From));
    DMB_ASSERT(Rm.ok(), "source marker removal during split");
    break;
  }
  case FileType::Symlink: {
    MetaRequest RL;
    RL.Op = MetaOp::Readlink;
    RL.Path = From;
    MetaReply Link = execDirect(SrcShard, RL);
    MetaReply Mk = execDirect(DstShard, makeSymlink(Link.Text, To), &Seq);
    DMB_ASSERT(Mk.ok() || Mk.Err == FsError::Exists, "symlink migration");
    MetaReply Rm = execDirect(SrcShard, makeUnlink(From));
    DMB_ASSERT(Rm.ok(), "source symlink removal during split");
    break;
  }
  case FileType::Regular: {
    MetaReply Open = execDirect(
        DstShard, makeOpen(To, OpenCreate | OpenWrite, St.A.Mode), &Seq);
    if (Open.ok()) {
      if (St.A.Size > 0) {
        MetaRequest Trunc;
        Trunc.Op = MetaOp::Ftruncate;
        Trunc.Fh = Open.Fh;
        Trunc.Bytes = St.A.Size;
        MetaReply T = execDirect(DstShard, Trunc);
        DMB_ASSERT(T.ok(), "size carry-over during split");
      }
      MetaReply Close = execDirect(DstShard, makeClose(Open.Fh));
      DMB_ASSERT(Close.ok(), "migration handle close");
    }
    // POSIX unlink-while-open semantics let the source copy go even with
    // live client handles; those handles keep the unlinked inode alive.
    MetaReply Rm = execDirect(SrcShard, makeUnlink(From));
    DMB_ASSERT(Rm.ok(), "source entry removal during split");
    break;
  }
  }
  return Seq;
}

//===----------------------------------------------------------------------===//
// ShardedClient
//===----------------------------------------------------------------------===//

ShardedClient::ShardedClient(const ClientBuilder &B, ShardedFs &Fs)
    : RpcClientBase(B), Fs(Fs), NodeIndex(B.nodeIndex()) {
  WriteBehindPolicy Policy = Fs.options().Client.WriteBehind;
  // The sharded service has no single-server eager path; write-behind
  // here is always the deferred pipeline.
  Policy.DeferIssue = true;
  mountWriteBehind(WB, Policy,
                   [this](const MetaRequest &R,
                          std::function<void(MetaReply)> Reply) {
                     submitDirect(R, std::move(Reply));
                   });
}

std::string ShardedClient::describe() const {
  return format("sharded node=%u shards=%u", NodeIndex, Fs.numShards());
}

void ShardedClient::dropCaches() {
  // The partition-bitmap cache is this client's cache: dropping it makes
  // every split directory cost a redirect again, like any cold client.
  BitmapCache.clear();
  CachedEpoch = 0;
}

uint64_t ShardedClient::bitmapFor(uint64_t DirToken) const {
  auto It = BitmapCache.find(DirToken);
  return It == BitmapCache.end() ? 1 : It->second;
}

void ShardedClient::failLocally(FsError Err, Callback Done) {
  sched().after(0, [Err, Done = std::move(Done)]() {
    MetaReply R;
    R.Err = Err;
    Done(std::move(R));
  });
}

ShardedClient::Route ShardedClient::route(const MetaRequest &Req) const {
  Route R;
  R.Phys = Req;
  const std::string &Path = Req.Path;
  if (Path.empty() || Path.front() != '/') {
    R.Err = FsError::NoEnt;
    return R;
  }
  // Listings read the target directory's partitions; partition 0's owner
  // coordinates the fan-out.
  if (Req.Op == MetaOp::Readdir || Req.Op == MetaOp::ReaddirPlus) {
    uint64_t Tok = fnv1a64(Path);
    R.DirToken = Tok;
    R.Shard = Fs.placement().shardFor(Tok, 0);
    R.Phys.Path = PartitionMap::partitionDirName(Tok, 0);
    return R;
  }
  if (Path == "/") {
    if (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat) {
      // The root has no marker entry; partition 0 stands in for it.
      uint64_t Tok = fnv1a64(Path);
      R.DirToken = Tok;
      R.Shard = Fs.placement().shardFor(Tok, 0);
      R.Phys.Path = PartitionMap::partitionDirName(Tok, 0);
      return R;
    }
    R.Err = Req.Op == MetaOp::Mkdir ? FsError::Exists : FsError::Busy;
    return R;
  }
  auto Translate = [this](const std::string &VPath, uint64_t &TokOut,
                          std::string &PhysOut, unsigned &ShardOut) {
    size_t Slash = VPath.rfind('/');
    std::string Leaf = VPath.substr(Slash + 1);
    if (Leaf.empty())
      return false;
    TokOut = fnv1a64(Slash == 0 ? std::string("/") : VPath.substr(0, Slash));
    unsigned Part = PartitionMap::partitionOf(PartitionMap::hashName(Leaf),
                                              bitmapFor(TokOut));
    PhysOut = PartitionMap::partitionDirName(TokOut, Part) + "/" + Leaf;
    ShardOut = Fs.placement().shardFor(TokOut, Part);
    return true;
  };
  if (!Translate(Path, R.DirToken, R.Phys.Path, R.Shard)) {
    R.Err = FsError::NoEnt;
    return R;
  }
  if (Req.Op == MetaOp::Rename || Req.Op == MetaOp::Link) {
    unsigned Shard2 = 0;
    if (Req.Path2.empty() || Req.Path2.front() != '/' || Req.Path2 == "/" ||
        !Translate(Req.Path2, R.DirToken2, R.Phys.Path2, Shard2)) {
      R.Err = FsError::Invalid;
      return R;
    }
    if (Shard2 != R.Shard) {
      // A single server-side operation cannot span two shards (\S 2.6.3:
      // NFS3ERR_XDEV), as with the volume-based models.
      R.Err = FsError::XDev;
      return R;
    }
  }
  return R;
}

void ShardedClient::submit(const MetaRequest &Req, Callback Done) {
  if (WB) {
    if (Req.Op == MetaOp::Fsync) {
      WB->fsync(Req, std::move(Done));
      return;
    }
    if (WB->shouldQueue(Req)) {
      WB->enqueue(Req, std::move(Done));
      return;
    }
    if (WB->needsDrain(Req)) {
      WB->drainFor(Req, [this, Req, Done = std::move(Done)]() mutable {
        submitDirect(WB->translate(Req), std::move(Done));
      });
      return;
    }
    submitDirect(WB->translate(Req), std::move(Done));
    return;
  }
  submitDirect(Req, std::move(Done));
}

/// Operations that act on an open handle and carry no path to route by.
static bool needsHandle(MetaOp Op) {
  switch (Op) {
  case MetaOp::Close:
  case MetaOp::Write:
  case MetaOp::Read:
  case MetaOp::Seek:
  case MetaOp::Ftruncate:
  case MetaOp::Lock:
  case MetaOp::Unlock:
    return true;
  default:
    return false;
  }
}

void ShardedClient::submitDirect(const MetaRequest &Req, Callback Done) {
  // No handle at all (a write-behind handle whose open failed or whose
  // close retired it) gets the same answer as an unknown one, not a
  // routing error for the missing path.
  if (Req.Fh == InvalidHandle && needsHandle(Req.Op)) {
    failLocally(FsError::BadFd, std::move(Done));
    return;
  }
  // Handle-based operations go to the shard that issued the handle.
  if (Req.Fh != InvalidHandle && Req.Op != MetaOp::Open) {
    auto It = Handles.find(Req.Fh);
    if (It == Handles.end()) {
      failLocally(FsError::BadFd, std::move(Done));
      return;
    }
    HandleInfo Info = It->second;
    if (Req.Op == MetaOp::Close)
      Handles.erase(It);
    MetaRequest Fwd = Req;
    Fwd.Fh = Info.ServerFh;
    withSlot([this, Fwd = std::move(Fwd), Info, Done = std::move(Done)]() mutable {
      transact(Fwd, 0,
               [this, Info](const MetaRequest &R,
                            std::function<void(MetaReply)> Reply) {
                 Fs.dispatchAtShard(Info.Shard, R, std::move(Reply));
               },
               [this, Done = std::move(Done)](MetaReply Reply) mutable {
                 slotDone();
                 Done(std::move(Reply));
               });
    });
    return;
  }
  // Errors the first routing pass can already see (bad paths, cross-shard
  // renames) are answered without consuming a slot.
  Route Rt = route(Req);
  if (Rt.Err != FsError::Ok) {
    failLocally(Rt.Err, std::move(Done));
    return;
  }
  // The Xid is allocated before the first attempt and pinned across
  // redirects: every re-issue of this operation — to whichever shard the
  // refreshed map points at — carries the same DRC identity. A request
  // arriving with an Xid already stamped (the write-behind queue pins one
  // at enqueue) keeps it.
  uint64_t Xid = Req.Xid ? Req.Xid : allocXid();
  withSlot([this, Req, Xid, Done = std::move(Done)]() mutable {
    attempt(Req, Xid, Fs.options().MaxRedirects,
            [this, Done = std::move(Done)](MetaReply Reply) mutable {
              slotDone();
              Done(std::move(Reply));
            });
  });
}

void ShardedClient::attempt(const MetaRequest &Req, uint64_t Xid,
                            unsigned RedirectsLeft, Callback Done) {
  // Re-route on every attempt: a refresh may have changed the partition,
  // the physical path, and the owning shard.
  Route Rt = route(Req);
  if (Rt.Err != FsError::Ok) {
    failLocally(Rt.Err, std::move(Done));
    return;
  }
  Rt.Phys.ClientId = rpcClientId();
  Rt.Phys.Xid = Xid;
  Rt.Phys.MapEpoch = CachedEpoch;
  unsigned Shard = Rt.Shard;
  uint64_t Tok = Rt.DirToken;
  uint64_t Tok2 = Rt.DirToken2;
  transact(
      Rt.Phys, 0,
      [this, Shard](const MetaRequest &R,
                    std::function<void(MetaReply)> Reply) {
        Fs.dispatchAtShard(Shard, R, std::move(Reply));
      },
      [this, Req, Xid, RedirectsLeft, Shard, Tok, Tok2,
       Done = std::move(Done)](MetaReply Reply) mutable {
        if (Reply.Err == FsError::StaleMap && RedirectsLeft > 0) {
          ++StaleRetries;
          // Refresh the routed directories' bitmaps from the map service —
          // a reliable control-plane round trip (fixed latency, not subject
          // to the data-path fault policy) — then re-issue under the same
          // Xid.
          sched().after(
              Fs.options().MapFetchLatency,
              [this, Req, Xid, RedirectsLeft, Tok, Tok2,
               Done = std::move(Done)]() mutable {
                BitmapCache[Tok] = Fs.fetchBitmap(Tok);
                if (Tok2)
                  BitmapCache[Tok2] = Fs.fetchBitmap(Tok2);
                CachedEpoch = Fs.mapEpoch();
                attempt(Req, Xid, RedirectsLeft - 1, std::move(Done));
              });
          return;
        }
        if (Reply.ok() && Req.Op == MetaOp::Open) {
          // Wrap the server handle so handles from different shards cannot
          // collide at the client.
          FileHandle Local = NextLocalFh++;
          Handles[Local] = HandleInfo{Shard, Reply.Fh};
          Reply.Fh = Local;
        }
        Done(std::move(Reply));
      });
}
