//===- tests/DfsTest.cpp - Tests for the distributed FS models ------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantics tests for the six file system models: RPC flow, caching and
/// coherence, namespace aggregation, EXDEV, write-back draining, token
/// serialization and consistency points.
///
//===----------------------------------------------------------------------===//

#include "dfs/AttrCache.h"
#include "dfs/CxfsFs.h"
#include "dfs/FileServer.h"
#include "dfs/LocalFsModel.h"
#include "dfs/LustreFs.h"
#include "dfs/NfsFs.h"
#include "dfs/ReexportFs.h"
#include "dfs/ShardedFs.h"
#include "dfs/VolumeFs.h"
#include "sim/Trace.h"
#include "support/Random.h"
#include <algorithm>
#include <deque>
#include <gtest/gtest.h>
#include <map>
#include <vector>

using namespace dmb;

namespace {

/// Submits \p Req and runs the simulation until the reply arrives.
MetaReply runSync(Scheduler &S, ClientFs &C, MetaRequest Req) {
  MetaReply Out;
  bool Got = false;
  C.submit(Req, [&](MetaReply R) {
    Out = std::move(R);
    Got = true;
  });
  S.run();
  EXPECT_TRUE(Got) << "operation did not complete";
  return Out;
}

/// Creates an empty file through the client (open/close).
FsError touch(Scheduler &S, ClientFs &C, const std::string &Path) {
  MetaReply R = runSync(S, C, makeOpen(Path, OpenWrite | OpenCreate));
  if (!R.ok())
    return R.Err;
  return runSync(S, C, makeClose(R.Fh)).Err;
}

//===----------------------------------------------------------------------===//
// NFS
//===----------------------------------------------------------------------===//

TEST(Nfs, CreateStatDelete) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/dir")).Err);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/dir/f"));
  MetaReply St = runSync(S, *C, makeStat("/dir/f"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(FileType::Regular, St.A.Type);
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeUnlink("/dir/f")).Err);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeStat("/dir/f")).Err);
}

TEST(Nfs, OperationsTakeSimulatedTime) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  SimTime Before = S.now();
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/f"));
  // At least two RPC round trips (open + close) must have elapsed.
  EXPECT_GE(S.now() - Before, 4 * Fs.options().Client.Net.OneWayLatency);
}

TEST(Nfs, StatServedFromAttrCacheAfterCreate) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/f"));
  uint64_t RpcsBefore = Fs.server().processedRequests();
  ASSERT_TRUE(runSync(S, *C, makeStat("/f")).ok());
  // Served locally: no new server request.
  EXPECT_EQ(RpcsBefore, Fs.server().processedRequests());
  // After dropping caches the stat becomes an RPC again (\S 3.4.3).
  C->dropCaches();
  ASSERT_TRUE(runSync(S, *C, makeStat("/f")).ok());
  EXPECT_EQ(RpcsBefore + 1, Fs.server().processedRequests());
}

TEST(Nfs, AttrCacheExpiresAfterTtl) {
  Scheduler S;
  NfsOptions Opts;
  Opts.AttrCacheTtl = seconds(3.0);
  NfsFs Fs(S, Opts);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/f"));
  S.runUntil(S.now() + seconds(10.0));
  uint64_t RpcsBefore = Fs.server().processedRequests();
  ASSERT_TRUE(runSync(S, *C, makeStat("/f")).ok());
  EXPECT_EQ(RpcsBefore + 1, Fs.server().processedRequests());
}

TEST(Nfs, CrossNodeVisibility) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> A = Fs.makeClient(0);
  std::unique_ptr<ClientFs> B = Fs.makeClient(1);
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/shared"));
  // Node B has a cold cache and fetches over the wire.
  MetaReply St = runSync(S, *B, makeStat("/shared"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(FileType::Regular, St.A.Type);
}

TEST(Nfs, UniqueNamesEnforcedAcrossNodes) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> A = Fs.makeClient(0);
  std::unique_ptr<ClientFs> B = Fs.makeClient(1);
  ASSERT_EQ(FsError::Ok, runSync(S, *A, makeMkdir("/d")).Err);
  EXPECT_EQ(FsError::Exists, runSync(S, *B, makeMkdir("/d")).Err);
}

TEST(Nfs, ConsistencyPointsFireUnderLoad) {
  Scheduler S;
  NfsOptions Opts;
  // Tiny NVRAM so the test triggers CPs quickly.
  Opts.Server.NvramCapacityBytes = 64 * 4096 * 2;
  NfsFs Fs(S, Opts);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  for (int I = 0; I < 200; ++I)
    ASSERT_EQ(FsError::Ok, touch(S, *C, "/f" + std::to_string(I)));
  EXPECT_GT(Fs.server().consistencyPointCount(), 0u);
}

TEST(Nfs, TimerConsistencyPointWithoutPressure) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  bool Created = false;
  C->submit(makeOpen("/one", OpenWrite | OpenCreate),
            [&](MetaReply R) {
              ASSERT_TRUE(R.ok());
              Created = true;
            });
  // Just after the create, NVRAM holds dirty log data and no CP ran yet.
  S.runUntil(seconds(1.0));
  ASSERT_TRUE(Created);
  EXPECT_EQ(0u, Fs.server().consistencyPointCount());
  EXPECT_GT(Fs.server().dirtyLogBytes(), 0u);
  // The 10 s CP timer flushes the single dirty op (\S 4.2.3).
  S.runUntil(seconds(11.0));
  EXPECT_EQ(1u, Fs.server().consistencyPointCount());
  EXPECT_EQ(0u, Fs.server().dirtyLogBytes());
}

TEST(Nfs, ParallelClientsShareServerFairly) {
  Scheduler S;
  NfsFs Fs(S);
  std::unique_ptr<ClientFs> A = Fs.makeClient(0);
  std::unique_ptr<ClientFs> B = Fs.makeClient(1);
  int DoneA = 0, DoneB = 0;
  std::function<void(int)> PumpA = [&](int I) {
    if (I == 50)
      return;
    A->submit(makeOpen("/a" + std::to_string(I), OpenWrite | OpenCreate),
              [&, I](MetaReply R) {
                ASSERT_TRUE(R.ok());
                A->submit(makeClose(R.Fh), [&, I](MetaReply) {
                  ++DoneA;
                  PumpA(I + 1);
                });
              });
  };
  std::function<void(int)> PumpB = [&](int I) {
    if (I == 50)
      return;
    B->submit(makeOpen("/b" + std::to_string(I), OpenWrite | OpenCreate),
              [&, I](MetaReply R) {
                ASSERT_TRUE(R.ok());
                B->submit(makeClose(R.Fh), [&, I](MetaReply) {
                  ++DoneB;
                  PumpB(I + 1);
                });
              });
  };
  PumpA(0);
  PumpB(0);
  S.run();
  EXPECT_EQ(50, DoneA);
  EXPECT_EQ(50, DoneB);
}

TEST(Nfs, RpcSlotTableBoundsConcurrency) {
  Scheduler S;
  NfsOptions Opts;
  Opts.Client.RpcSlots = 4;
  NfsFs Fs(S, Opts);
  auto Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());
  int Done = 0;
  // 32 concurrent requests from one node: at most 4 in flight at once.
  for (int I = 0; I < 32; ++I)
    C->submit(makeMkdir("/d" + std::to_string(I)),
              [&](MetaReply R) {
                ASSERT_TRUE(R.ok());
                ++Done;
              });
  EXPECT_EQ(4u, C->inFlightRpcs());
  EXPECT_EQ(28u, C->queuedRpcs());
  S.run();
  EXPECT_EQ(32, Done);
  EXPECT_EQ(0u, C->queuedRpcs());
}

//===----------------------------------------------------------------------===//
// FileServer accounting
//===----------------------------------------------------------------------===//

TEST(Server, FailedMutationDoesNotDirtyNvramLog) {
  Scheduler S;
  ServerConfig Cfg;
  Cfg.EnableConsistencyPoints = true;
  FileServer Srv(S, Cfg);
  Srv.addVolume("vol");
  uint32_t Vol = Srv.volumeId("vol");

  ASSERT_TRUE(Srv.processEager(Vol, makeMkdir("/d"), [] {}).ok());
  uint64_t Dirty = Srv.dirtyLogBytes();
  EXPECT_EQ(Cfg.LogBytesPerMutation, Dirty);

  // Regression: a failed create writes nothing back, so it must not grow
  // the dirty log or drag the next consistency point forward.
  EXPECT_EQ(FsError::Exists,
            Srv.processEager(Vol, makeMkdir("/d"), [] {}).Err);
  EXPECT_EQ(Dirty, Srv.dirtyLogBytes());

  // A burst of reads leaves the dirty log untouched too.
  for (int I = 0; I < 16; ++I)
    ASSERT_TRUE(Srv.processEager(Vol, makeStat("/d"), [] {}).ok());
  EXPECT_EQ(Dirty, Srv.dirtyLogBytes());
  S.run();
}

TEST(Server, StaleVolumeRequestClosesItsTraceSpan) {
  Scheduler S;
  OpTraceSink Sink;
  S.setTraceSink(&Sink);
  FileServer Srv(S, ServerConfig{});
  Srv.addVolume("vol");
  uint32_t Vol = Srv.volumeId("vol");
  std::unique_ptr<LocalFileSystem> Detached = Srv.removeVolume("vol");
  ASSERT_NE(nullptr, Detached);

  uint64_t Id = S.traceBegin("stat");
  bool Committed = false;
  MetaReply R =
      Srv.processEager(Vol, makeStat("/f"), [&] { Committed = true; });
  EXPECT_EQ(FsError::Stale, R.Err);
  S.traceFinish(Id);
  S.swapActiveTrace(0);
  S.run();
  EXPECT_TRUE(Committed);

  // Regression: the rejected request entered the server queue, so its
  // service span must be stamped closed (empty), not left dangling as a
  // record that entered the queue and never came out.
  ASSERT_EQ(1u, Sink.records().size());
  const OpTraceRecord &Rec = Sink.records()[0];
  EXPECT_TRUE(Rec.has(TracePoint::QueueEnter));
  EXPECT_TRUE(Rec.has(TracePoint::ServiceStart));
  EXPECT_TRUE(Rec.has(TracePoint::ServiceEnd));
  EXPECT_EQ(Rec.at(TracePoint::ServiceStart),
            Rec.at(TracePoint::ServiceEnd));
  EXPECT_EQ(0u, Sink.liveOps());
}

TEST(Server, VolumeIdsSurviveRemoveAndAdopt) {
  Scheduler S;
  FileServer Srv(S, ServerConfig{});
  Srv.addVolume("vol");
  uint32_t Vol = Srv.volumeId("vol");
  EXPECT_EQ("vol", Srv.volumeName(Vol));
  std::unique_ptr<LocalFileSystem> Moved = Srv.removeVolume("vol");
  EXPECT_EQ(nullptr, Srv.volume(Vol)); // Detached: requests see ESTALE.
  Srv.adoptVolume("vol", std::move(Moved));
  EXPECT_NE(nullptr, Srv.volume(Vol)); // Same id, volume is back.
  EXPECT_EQ(Vol, Srv.volumeId("vol"));
}

//===----------------------------------------------------------------------===//
// Duplicate-request cache: the ring against a map and a FIFO of keys
//===----------------------------------------------------------------------===//

using DrcEntry = DuplicateRequestCache::Entry;
using DrcReply = DuplicateRequestCache::CachedReply;

/// What the reference model keeps of one cached reply: the whole of it.
struct DrcModelEntry {
  uint64_t Key = 0;
  MetaOp Op = MetaOp::Stat;
  uint32_t VolId = 0;
  uint64_t SeqPlus1 = 0;
  DrcReply Reply;
  std::string Path;
};

/// \p E of cache \p C as the model keeps it.
DrcModelEntry modelEntry(const DuplicateRequestCache &C, const DrcEntry &E) {
  return {E.Key, E.Op, E.VolId, E.SeqPlus1, C.reply(E), E.Path};
}

/// The reference semantics: a map from key to entry and a FIFO of the keys
/// in order of first insertion, trimmed oldest first to the capacity. An
/// insert of a cached key refreshes its entry and keeps its FIFO place.
struct DrcModel {
  size_t Capacity = 0;
  std::map<uint64_t, DrcModelEntry> Entries;
  std::deque<uint64_t> Fifo;

  void insert(const DrcModelEntry &E) {
    if (Entries.insert_or_assign(E.Key, E).second)
      Fifo.push_back(E.Key);
    while (Entries.size() > Capacity) {
      Entries.erase(Fifo.front());
      Fifo.pop_front();
    }
  }

  /// Removes the entries \p Drop accepts; returns them sorted by key.
  template <typename Pred> std::vector<DrcModelEntry> removeIf(Pred Drop) {
    std::vector<DrcModelEntry> Out;
    for (auto It = Entries.begin(); It != Entries.end();) {
      if (Drop(It->second.VolId, It->second.SeqPlus1, It->second.Path)) {
        Out.push_back(std::move(It->second));
        It = Entries.erase(It);
      } else {
        ++It;
      }
    }
    std::erase_if(Fifo, [this](uint64_t K) { return !Entries.count(K); });
    return Out;
  }
};

void expectSameEntry(const DrcModelEntry &Want, const DrcModelEntry &Got) {
  EXPECT_EQ(Want.Key, Got.Key);
  EXPECT_EQ(Want.Op, Got.Op);
  EXPECT_EQ(Want.VolId, Got.VolId);
  EXPECT_EQ(Want.SeqPlus1, Got.SeqPlus1);
  EXPECT_EQ(Want.Path, Got.Path);
  EXPECT_EQ(Want.Reply.Err, Got.Reply.Err);
  EXPECT_TRUE(Want.Reply.A == Got.Reply.A);
  EXPECT_EQ(Want.Reply.Fh, Got.Reply.Fh);
  EXPECT_EQ(Want.Reply.Bytes, Got.Reply.Bytes);
}

/// Lookups of every key in \p Keys, the size and the eviction order agree.
void expectSameDrc(const DrcModel &M, const DuplicateRequestCache &C,
                   const std::vector<uint64_t> &Keys) {
  ASSERT_EQ(M.Entries.size(), C.size());
  ASSERT_EQ(M.Fifo.size(), C.ringLength());
  std::vector<uint64_t> Order;
  C.forEach([&Order](const DrcEntry &E) { Order.push_back(E.Key); });
  ASSERT_EQ(std::vector<uint64_t>(M.Fifo.begin(), M.Fifo.end()), Order);
  // The attribute pool holds exactly the entries with attributes.
  ASSERT_EQ(size_t(std::count_if(M.Entries.begin(), M.Entries.end(),
                                 [](const auto &KV) {
                                   return !(KV.second.Reply.A == Attr());
                                 })),
            C.pooledAttrs());
  for (uint64_t K : Keys) {
    auto It = M.Entries.find(K);
    const DrcEntry *E = C.find(K);
    ASSERT_EQ(It != M.Entries.end(), E != nullptr) << "key " << K;
    if (E)
      expectSameEntry(It->second, modelEntry(C, *E));
  }
}

TEST(DuplicateRequestCache, MatchesMapAndFifoUnderSeededChurn) {
  for (size_t Capacity : {1, 2, 7, 64}) {
    SCOPED_TRACE("capacity " + std::to_string(Capacity));
    Rng R(Capacity * 7919 + 1);
    DuplicateRequestCache C(Capacity);
    DrcModel M;
    M.Capacity = Capacity;
    // Three clients with about twice the capacity in Xids each: most
    // inserts are new keys and evict, many hit a key still cached.
    std::vector<uint64_t> Keys;
    for (uint64_t Client = 1; Client <= 3; ++Client)
      for (uint64_t Xid = 1; Xid <= 2 * Capacity + 2; ++Xid)
        Keys.push_back((Client << 40) ^ Xid);
    const MetaOp Ops[] = {MetaOp::Mkdir, MetaOp::Unlink, MetaOp::Rename,
                          MetaOp::Open, MetaOp::Chmod};
    const FsError Errs[] = {FsError::Ok, FsError::Exists, FsError::NoEnt};
    uint64_t NewKeys = 0;
    for (int Step = 0; Step < 3000; ++Step) {
      uint64_t Roll = R.below(100);
      if (Roll < 84) {
        // Short paths fit the string's inline buffer, long ones do not:
        // a reused slot must take either over the other.
        DrcModelEntry E;
        E.Key = Keys[R.below(Keys.size())];
        E.Op = Ops[R.below(5)];
        E.VolId = static_cast<uint32_t>(R.below(2));
        E.SeqPlus1 = R.below(4);
        E.Path = (R.below(2) ? "/d/" : "/a/directory/path/beyond/sso/") +
                 std::to_string(Step);
        E.Reply.Err = Errs[R.below(3)];
        // Only some replies carry attributes (in the cache's pool): a
        // refreshed entry must take them up and let them go.
        if (R.below(2))
          E.Reply.A.Ino = Step;
        E.Reply.Fh = Step + 1;
        E.Reply.Bytes = Step + 2;
        bool New = M.Entries.count(E.Key) == 0;
        NewKeys += New;
        EXPECT_EQ(New, C.insert(E.Key, E.Op, E.Reply, E.Path, E.VolId,
                                E.SeqPlus1));
        EXPECT_EQ(NewKeys, C.insertions());
        M.insert(E);
      } else if (Roll < 92) {
        // Crash pruning: one volume's unanchored or uncommitted entries.
        uint32_t Vol = static_cast<uint32_t>(R.below(2));
        uint64_t Committed = R.below(4);
        auto Dies = [Vol, Committed](uint32_t VolId, uint64_t SeqPlus1,
                                     const std::string &) {
          return VolId == Vol && (SeqPlus1 == 0 || SeqPlus1 > Committed);
        };
        size_t Want = M.removeIf(Dies).size();
        EXPECT_EQ(Want, C.removeIf([&Dies](const DrcEntry &E) {
          return Dies(E.VolId, E.SeqPlus1, E.Path);
        }));
      } else {
        // Migration extraction: one volume's short-path entries, moved out.
        uint32_t Vol = static_cast<uint32_t>(R.below(2));
        auto Moves = [Vol](uint32_t VolId, uint64_t, const std::string &Path) {
          return VolId == Vol && Path.starts_with("/d/");
        };
        std::vector<DrcModelEntry> Want = M.removeIf(Moves);
        std::vector<DrcModelEntry> Got;
        C.removeIf([&](DrcEntry &E) {
          if (!Moves(E.VolId, E.SeqPlus1, E.Path))
            return false;
          Got.push_back(modelEntry(C, E));
          E.Path.clear(); // what a mover leaves behind
          return true;
        });
        std::sort(Got.begin(), Got.end(),
                  [](const DrcModelEntry &A, const DrcModelEntry &B) {
                    return A.Key < B.Key;
                  });
        ASSERT_EQ(Want.size(), Got.size());
        for (size_t I = 0; I < Want.size(); ++I)
          expectSameEntry(Want[I], Got[I]);
      }
      expectSameDrc(M, C, Keys);
      if (HasFatalFailure())
        return;
    }
  }
}

TEST(DuplicateRequestCache, ReplyRoundTripsWithoutPayload) {
  MetaReply R;
  R.Err = FsError::Exists;
  R.A.Ino = 42;
  R.A.Mode = 0700;
  R.Fh = 7;
  R.Bytes = 4096;
  MetaReply Back = DuplicateRequestCache::CachedReply::of(R).reply();
  EXPECT_EQ(R.Err, Back.Err);
  EXPECT_EQ(R.A.Ino, Back.A.Ino);
  EXPECT_EQ(R.A.Mode, Back.A.Mode);
  EXPECT_EQ(R.Fh, Back.Fh);
  EXPECT_EQ(R.Bytes, Back.Bytes);
  EXPECT_TRUE(Back.Text.empty());
  EXPECT_TRUE(Back.Entries.empty());
  EXPECT_TRUE(Back.EntryAttrs.empty());
}

//===----------------------------------------------------------------------===//
// Attribute cache TTL
//===----------------------------------------------------------------------===//

TEST(AttrCacheUnit, EntryExpiresExactlyAtTtl) {
  AttrCache C(seconds(3.0));
  Attr A;
  A.Type = FileType::Regular;
  C.insert("/f", A, /*Now=*/0);
  // One tick before the TTL the entry is still fresh...
  EXPECT_TRUE(C.lookup("/f", seconds(3.0) - 1).has_value());
  // ...but at age == TTL the attributes are already stale (acregmax
  // semantics): the boundary lookup must revalidate, not hit.
  EXPECT_FALSE(C.lookup("/f", seconds(3.0)).has_value());
  EXPECT_EQ(1u, C.hits());
  EXPECT_EQ(2u, C.hits() + C.misses());
  // The expired entry was dropped: a later lookup misses without aging.
  EXPECT_EQ(0u, C.size());
}

TEST(AttrCacheUnit, ZeroTtlNeverExpires) {
  AttrCache C(0);
  Attr A;
  C.insert("/f", A, 0);
  EXPECT_TRUE(C.lookup("/f", seconds(1e6)).has_value());
  EXPECT_EQ(1u, C.hits());
  EXPECT_EQ(0u, C.misses());
}

//===----------------------------------------------------------------------===//
// Lustre
//===----------------------------------------------------------------------===//

TEST(Lustre, BasicOperations) {
  Scheduler S;
  LustreFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/work")).Err);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/work/f"));
  EXPECT_TRUE(runSync(S, *C, makeStat("/work/f")).ok());
  EXPECT_EQ(FsError::Exists,
            runSync(S, *C, makeOpen("/work/f",
                                    OpenWrite | OpenCreate | OpenExcl))
                .Err);
}

TEST(Lustre, WritebackAcksBeforeCommit) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  LustreFs Fs(S, Opts);
  auto Client = std::unique_ptr<ClientFs>(Fs.makeClient(0));
  auto *C = static_cast<LustreClient *>(Client.get());

  int Acked = 0;
  for (int I = 0; I < 100; ++I)
    C->submit(makeMkdir("/d" + std::to_string(I)),
              [&](MetaReply R) {
                ASSERT_TRUE(R.ok());
                ++Acked;
              });
  // Drain only the local acks: run a slice of simulated time shorter than
  // an RPC round trip but long enough for 100 local acks.
  S.runUntil(milliseconds(2));
  EXPECT_EQ(100, Acked);
  EXPECT_GT(C->dirtyOps(), 0u) << "commits should still be in flight";
  S.run();
  EXPECT_EQ(0u, C->dirtyOps());
}

TEST(Lustre, WritebackPreservesSemantics) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  LustreFs Fs(S, Opts);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  // Even from the write-back cache, name uniqueness holds immediately.
  EXPECT_EQ(FsError::Exists, runSync(S, *C, makeMkdir("/d")).Err);
}

TEST(Lustre, FsyncWaitsForDirtyOps) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  LustreFs Fs(S, Opts);
  auto Client = std::unique_ptr<ClientFs>(Fs.makeClient(0));
  auto *C = static_cast<LustreClient *>(Client.get());
  for (int I = 0; I < 50; ++I)
    C->submit(makeMkdir("/d" + std::to_string(I)), [](MetaReply) {});
  bool Synced = false;
  C->submit(makeFsync(InvalidHandle), [&](MetaReply R) {
    EXPECT_TRUE(R.ok());
    EXPECT_EQ(0u, C->dirtyOps());
    Synced = true;
  });
  S.run();
  EXPECT_TRUE(Synced);
}

TEST(Lustre, DirtyLimitThrottles) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  Opts.Client.WriteBehind.MaxQueuedOps = 8;
  LustreFs Fs(S, Opts);
  auto Client = std::unique_ptr<ClientFs>(Fs.makeClient(0));
  auto *C = static_cast<LustreClient *>(Client.get());
  int Acked = 0;
  for (int I = 0; I < 64; ++I)
    C->submit(makeMkdir("/t" + std::to_string(I)),
              [&](MetaReply R) {
                ASSERT_TRUE(R.ok());
                ++Acked;
              });
  S.runUntil(microseconds(50));
  // Only up to the dirty limit is acked instantly; the rest waits for the
  // MDS to drain.
  EXPECT_LE(Acked, 8);
  S.run();
  EXPECT_EQ(64, Acked);
}

TEST(Lustre, QueuedChmodShadowsCachedAttrs) {
  // Regression: a mutation sitting in the write-back queue must shadow
  // the attribute cache the moment it is enqueued. Before the fix the
  // cached entry survived, and a stat between the local ack and the
  // commit was served the pre-chmod mode from the cache.
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  LustreFs Fs(S, Opts);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/f"));
  MetaReply St = runSync(S, *C, makeStat("/f"));
  ASSERT_TRUE(St.ok());
  ASSERT_NE(0700u, St.A.Mode & 0777u);

  MetaRequest Chmod;
  Chmod.Op = MetaOp::Chmod;
  Chmod.Path = "/f";
  Chmod.Mode = 0700;
  C->submit(Chmod, [](MetaReply R) { ASSERT_TRUE(R.ok()); });
  // No drain in between: this stat must revalidate at the MDS (which has
  // already applied the queued chmod) instead of hitting the cache.
  MetaReply St2 = runSync(S, *C, makeStat("/f"));
  ASSERT_TRUE(St2.ok());
  EXPECT_EQ(0700u, St2.A.Mode & 0777u);
}

TEST(Lustre, QueuedUnlinkShadowsParentDirAttrs) {
  // Companion regression: namespace mutations (create/unlink/rename) also
  // change the *parent directory's* attributes, so enqueuing one must
  // evict the parent's cache entry too.
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  LustreFs Fs(S, Opts);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/d/f"));
  MetaReply St = runSync(S, *C, makeStat("/d"));
  ASSERT_TRUE(St.ok());

  C->submit(makeUnlink("/d/f"), [](MetaReply R) { ASSERT_TRUE(R.ok()); });
  MetaReply St2 = runSync(S, *C, makeStat("/d"));
  ASSERT_TRUE(St2.ok());
  // The unlink bumped the directory's mtime at the MDS; a cache hit would
  // still show the old timestamp.
  EXPECT_GT(St2.A.Mtime, St.A.Mtime);
}

//===----------------------------------------------------------------------===//
// AFS
//===----------------------------------------------------------------------===//

TEST(Afs, VolumesOnDifferentServers) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  Cell.setupUniform(/*NewServers=*/2, /*NumVolumes=*/2);
  std::unique_ptr<ClientFs> C = Cell.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol0/f"));
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol1/f"));
  EXPECT_TRUE(runSync(S, *C, makeStat("/vol0/f")).ok());
  EXPECT_TRUE(runSync(S, *C, makeStat("/vol1/f")).ok());
  // The two volumes are independent namespaces.
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeStat("/vol0/g")).Err);
}

TEST(Afs, CrossVolumeRenameYieldsXdev) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  Cell.setupUniform(2, 2);
  std::unique_ptr<ClientFs> C = Cell.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol0/f"));
  EXPECT_EQ(FsError::XDev,
            runSync(S, *C, makeRename("/vol0/f", "/vol1/f")).Err);
  // Within one volume renames work.
  EXPECT_EQ(FsError::Ok,
            runSync(S, *C, makeRename("/vol0/f", "/vol0/g")).Err);
}

TEST(Afs, CallbackBreakInvalidatesOtherClients) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  std::unique_ptr<ClientFs> A = Cell.makeClient(0);
  std::unique_ptr<ClientFs> B = Cell.makeClient(1);
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/f"));
  // B caches the attributes (callback-based: no TTL).
  ASSERT_TRUE(runSync(S, *B, makeStat("/f")).ok());
  uint64_t Rpcs = Cell.server(0).processedRequests();
  ASSERT_TRUE(runSync(S, *B, makeStat("/f")).ok());
  EXPECT_EQ(Rpcs, Cell.server(0).processedRequests()) << "cache hit";
  // A's chmod breaks B's callback; B's next stat goes to the server.
  MetaRequest Chmod;
  Chmod.Op = MetaOp::Chmod;
  Chmod.Path = "/f";
  Chmod.Mode = 0600;
  ASSERT_EQ(FsError::Ok, runSync(S, *A, Chmod).Err);
  uint64_t Rpcs2 = Cell.server(0).processedRequests();
  ASSERT_TRUE(runSync(S, *B, makeStat("/f")).ok());
  EXPECT_EQ(Rpcs2 + 1, Cell.server(0).processedRequests());
}

TEST(Afs, RenameBreaksOtherClientsCallbacksOnBothNamesAndBelow) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  std::unique_ptr<ClientFs> A = Cell.makeClient(0);
  std::unique_ptr<ClientFs> B = Cell.makeClient(1);
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/p"));
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/q"));
  ASSERT_EQ(FsError::Ok, runSync(S, *A, makeMkdir("/d")).Err);
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/d/x"));
  MetaReply P = runSync(S, *B, makeStat("/p"));
  ASSERT_TRUE(P.ok());
  ASSERT_TRUE(runSync(S, *B, makeStat("/q")).ok());
  ASSERT_TRUE(runSync(S, *B, makeStat("/d/x")).ok());
  // A replaces /q and moves /d: B holds callbacks on the old /q and on an
  // entry below /d, and both must break.
  ASSERT_EQ(FsError::Ok, runSync(S, *A, makeRename("/p", "/q")).Err);
  ASSERT_EQ(FsError::Ok, runSync(S, *A, makeRename("/d", "/e")).Err);
  MetaReply Q = runSync(S, *B, makeStat("/q"));
  ASSERT_TRUE(Q.ok());
  EXPECT_EQ(P.A.Ino, Q.A.Ino);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *B, makeStat("/d/x")).Err);
}

TEST(Afs, StoreBreaksOtherClientsCallbacks) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  std::unique_ptr<ClientFs> A = Cell.makeClient(0);
  std::unique_ptr<ClientFs> B = Cell.makeClient(1);
  MetaReply O = runSync(S, *A, makeOpen("/sz", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  // B caches the empty file under a callback promise.
  ASSERT_EQ(0u, runSync(S, *B, makeStat("/sz")).A.Size);
  uint64_t Before = Cell.callbacksBroken();
  // A's store names a handle, yet it breaks the promise on the file.
  ASSERT_TRUE(runSync(S, *A, makeWrite(O.Fh, 30000)).ok());
  ASSERT_EQ(FsError::Ok, runSync(S, *A, makeClose(O.Fh)).Err);
  EXPECT_EQ(Before + 1, Cell.callbacksBroken());
  MetaReply St = runSync(S, *B, makeStat("/sz"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(30000u, St.A.Size);
}

TEST(Afs, HandleOpsRouteToOwningVolume) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  Cell.setupUniform(2, 2);
  std::unique_ptr<ClientFs> C = Cell.makeClient(0);
  MetaReply O1 = runSync(S, *C, makeOpen("/vol0/a", OpenWrite | OpenCreate));
  MetaReply O2 = runSync(S, *C, makeOpen("/vol1/b", OpenWrite | OpenCreate));
  ASSERT_TRUE(O1.ok());
  ASSERT_TRUE(O2.ok());
  EXPECT_NE(O1.Fh, O2.Fh);
  EXPECT_TRUE(runSync(S, *C, makeWrite(O1.Fh, 100)).ok());
  EXPECT_TRUE(runSync(S, *C, makeWrite(O2.Fh, 200)).ok());
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeClose(O1.Fh)).Err);
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeClose(O2.Fh)).Err);
  EXPECT_EQ(100u, runSync(S, *C, makeStat("/vol0/a")).A.Size);
  EXPECT_EQ(200u, runSync(S, *C, makeStat("/vol1/b")).A.Size);
  EXPECT_EQ(FsError::BadFd, runSync(S, *C, makeClose(O1.Fh)).Err);
}

TEST(Afs, CallbackBreakVisitsOnlyTheHolders) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  std::unique_ptr<ClientFs> A = Cell.makeClient(0);
  std::vector<std::unique_ptr<ClientFs>> Others;
  for (unsigned I = 1; I <= 8; ++I)
    Others.push_back(Cell.makeClient(I));
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/f"));
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/g"));
  // Only the first of the other clients holds a promise on /f; the rest
  // hold one on /g.
  ASSERT_TRUE(runSync(S, *Others[0], makeStat("/f")).ok());
  for (size_t I = 1; I < Others.size(); ++I)
    ASSERT_TRUE(runSync(S, *Others[I], makeStat("/g")).ok());
  uint64_t Before = Cell.callbacksBroken();
  MetaRequest Chmod;
  Chmod.Op = MetaOp::Chmod;
  Chmod.Path = "/f";
  Chmod.Mode = 0600;
  ASSERT_EQ(FsError::Ok, runSync(S, *A, Chmod).Err);
  EXPECT_EQ(Before + 1, Cell.callbacksBroken()) << "only /f's holder";
  // The break reached the holder: its next stat goes to the server and
  // sees the new mode; the other clients still answer /g from cache.
  uint64_t Rpcs = Cell.server(0).processedRequests();
  MetaReply St = runSync(S, *Others[0], makeStat("/f"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(0600u, St.A.Mode & 0777);
  EXPECT_EQ(Rpcs + 1, Cell.server(0).processedRequests());
  for (size_t I = 1; I < Others.size(); ++I)
    ASSERT_TRUE(runSync(S, *Others[I], makeStat("/g")).ok());
  EXPECT_EQ(Rpcs + 1, Cell.server(0).processedRequests()) << "cache hits";
}

TEST(Afs, DestroyedHolderIsNeverVisited) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  std::unique_ptr<ClientFs> A = Cell.makeClient(0);
  std::unique_ptr<ClientFs> B = Cell.makeClient(1);
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/f"));
  ASSERT_TRUE(runSync(S, *B, makeStat("/f")).ok());
  B.reset(); // dies holding a promise on /f
  // A client made afterwards does not inherit the dead one's promise.
  std::unique_ptr<ClientFs> C = Cell.makeClient(2);
  uint64_t Before = Cell.callbacksBroken();
  ASSERT_EQ(FsError::Ok, runSync(S, *A, makeUnlink("/f")).Err);
  EXPECT_EQ(Before, Cell.callbacksBroken());
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeStat("/f")).Err);
}

TEST(Afs, DropCachesAndRestatKeepPromiseStorageFlat) {
  Scheduler S;
  VolumeFs Cell(S, afsOptions());
  std::unique_ptr<ClientFs> A = Cell.makeClient(0);
  std::unique_ptr<ClientFs> B = Cell.makeClient(1);
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/f"));
  auto Cycle = [&](ClientFs &C) {
    C.dropCaches();
    ASSERT_TRUE(runSync(S, C, makeStat("/f")).ok());
  };
  for (int I = 0; I < 10; ++I) {
    Cycle(*A);
    Cycle(*B);
  }
  size_t Records = Cell.promiseRecords();
  for (int I = 0; I < 1000; ++I) {
    Cycle(*A);
    Cycle(*B);
  }
  EXPECT_EQ(Records, Cell.promiseRecords());
  // Both clients still hold a live promise: a break reaches each once.
  uint64_t Before = Cell.callbacksBroken();
  ASSERT_EQ(FsError::Ok, runSync(S, *A, makeUnlink("/f")).Err);
  EXPECT_EQ(Before + 2, Cell.callbacksBroken());
}

//===----------------------------------------------------------------------===//
// Ontap GX
//===----------------------------------------------------------------------===//

TEST(Gx, LocalAndForwardedVolumes) {
  Scheduler S;
  VolumeOptions Opts = gxOptions();
  Opts.NumServers = 4;
  VolumeFs Fs(S, Opts);
  Fs.setupUniform(0, 4);
  // Client on node 0 mounts via filer 0: /vol0 is local, /vol1 remote.
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  SimTime T0 = S.now();
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol0/f"));
  SimTime LocalTime = S.now() - T0;
  T0 = S.now();
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol1/f"));
  SimTime RemoteTime = S.now() - T0;
  // Forwarding costs cluster hops + extra N-blade work (Fig. 4.3).
  EXPECT_GT(RemoteTime, LocalTime);
  // Both filers did real work.
  EXPECT_GT(Fs.server(0).processedRequests(), 0u);
  EXPECT_GT(Fs.server(1).processedRequests(), 0u);
}

TEST(Gx, SingleNamespaceAcrossFilers) {
  Scheduler S;
  VolumeFs Fs(S, gxOptions());
  Fs.setupUniform(0, 8);
  std::unique_ptr<ClientFs> A = Fs.makeClient(0); // N-blade 0
  std::unique_ptr<ClientFs> B = Fs.makeClient(3); // N-blade 3
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/vol5/f"));
  // A different node via a different N-blade sees the same file.
  EXPECT_TRUE(runSync(S, *B, makeStat("/vol5/f")).ok());
}

TEST(Gx, CrossVolumeRenameYieldsXdev) {
  Scheduler S;
  VolumeFs Fs(S, gxOptions());
  Fs.setupUniform(0, 2);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/vol0/f"));
  EXPECT_EQ(FsError::XDev,
            runSync(S, *C, makeRename("/vol0/f", "/vol1/f")).Err);
}

TEST(Gx, ClientsMayOutliveTheCluster) {
  // One lifetime rule for both configurations: the cluster may go first
  // (a Cluster holding the clients destroyed after it), even while a
  // client holds a callback promise.
  for (const VolumeOptions &Opts : {gxOptions(), afsOptions()}) {
    Scheduler S;
    auto Fs = std::make_unique<VolumeFs>(S, Opts);
    std::unique_ptr<ClientFs> C = Fs->makeClient(0);
    ASSERT_EQ(FsError::Ok, touch(S, *C, "/f"));
    ASSERT_TRUE(runSync(S, *C, makeStat("/f")).ok());
    Fs.reset();
    C->dropCaches();
    C.reset();
  }
}

TEST(Gx, NbladeAssignmentRoundRobin) {
  Scheduler S;
  VolumeOptions Opts = gxOptions();
  Opts.NumServers = 4;
  VolumeFs Fs(S, Opts);
  auto C0 = Fs.makeClient(0);
  auto C5 = Fs.makeClient(5);
  EXPECT_EQ(0u, static_cast<VolumeClient *>(C0.get())->nbladeIndex());
  EXPECT_EQ(1u, static_cast<VolumeClient *>(C5.get())->nbladeIndex());
}

//===----------------------------------------------------------------------===//
// Cache statistics of the caching clients
//===----------------------------------------------------------------------===//

// The one cache of RpcClientBase counts for every model that mounts it,
// and a client without one reports nothing.
TEST(ClientCache, StatsCountHitsOnAfsGxAndReexport) {
  for (std::string Model :
       {"nfs", "lustre", "afs", "gx", "reexport", "sharded"}) {
    SCOPED_TRACE(Model);
    Scheduler S;
    NfsFs Inner(S);
    std::unique_ptr<DistributedFs> Fs;
    if (Model == "nfs")
      Fs = std::make_unique<NfsFs>(S);
    else if (Model == "lustre")
      Fs = std::make_unique<LustreFs>(S);
    else if (Model == "afs")
      Fs = std::make_unique<VolumeFs>(S, afsOptions());
    else if (Model == "gx")
      Fs = std::make_unique<VolumeFs>(S, gxOptions());
    else if (Model == "reexport")
      Fs = std::make_unique<ReexportFs>(S, Inner);
    else
      Fs = std::make_unique<ShardedFs>(S);
    std::unique_ptr<ClientFs> C = Fs->makeClient(0);
    ASSERT_EQ(FsError::Ok, touch(S, *C, "/f"));
    for (int I = 0; I < 5; ++I)
      ASSERT_TRUE(runSync(S, *C, makeStat("/f")).ok());
    FsAdmin::CacheStats Stats = C->cacheStats();
    if (Model == "sharded") {
      EXPECT_EQ(0u, Stats.Hits);
      EXPECT_EQ(0u, Stats.Misses);
      continue;
    }
    EXPECT_GT(Stats.Hits, 0u);
    EXPECT_EQ(5u, Stats.Hits + Stats.Misses);
  }
}

//===----------------------------------------------------------------------===//
// CXFS
//===----------------------------------------------------------------------===//

TEST(Cxfs, BasicOperations) {
  Scheduler S;
  CxfsFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/scratch")).Err);
  ASSERT_EQ(FsError::Ok, touch(S, *C, "/scratch/f"));
  EXPECT_TRUE(runSync(S, *C, makeStat("/scratch/f")).ok());
}

TEST(Cxfs, IntraNodeOperationsSerializeOnToken) {
  Scheduler S;
  CxfsFs Fs(S);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  // Submit two operations concurrently from the same node.
  SimTime End1 = 0, End2 = 0;
  C->submit(makeMkdir("/a"), [&](MetaReply R) {
    ASSERT_TRUE(R.ok());
    End1 = S.now();
  });
  C->submit(makeMkdir("/b"), [&](MetaReply R) {
    ASSERT_TRUE(R.ok());
    End2 = S.now();
  });
  S.run();
  SimDuration OneOp = End1;
  // The second op cannot overlap the first: it finishes roughly one full
  // operation later (token serialization, \S 4.5.3).
  EXPECT_GE(End2, End1 + OneOp / 2);
}

TEST(Cxfs, InterNodeOperationsOverlap) {
  Scheduler S;
  CxfsFs Fs(S);
  std::unique_ptr<ClientFs> A = Fs.makeClient(0);
  std::unique_ptr<ClientFs> B = Fs.makeClient(1);
  SimTime EndA = 0, EndB = 0;
  A->submit(makeMkdir("/a"), [&](MetaReply) { EndA = S.now(); });
  B->submit(makeMkdir("/b"), [&](MetaReply) { EndB = S.now(); });
  S.run();
  // Two nodes' single ops overlap: both finish well before 2x one-op time.
  SimDuration Slowest = EndA > EndB ? EndA : EndB;
  SimDuration Fastest = EndA < EndB ? EndA : EndB;
  EXPECT_LT(Slowest - Fastest, Fastest / 2);
}

TEST(Cxfs, LostMessagesTimeOutAndReleaseTheToken) {
  // The client's fault and retry policies apply to CXFS's metadata RPCs as
  // to every other model's: while nearly every message is lost, a mkdir
  // retransmits until its retries run out and ends TimedOut. The timeout
  // releases the node's token, so once the link heals the next operation
  // runs.
  Scheduler S;
  CxfsOptions O;
  O.Client.Net.Faults.Windows = {{0, seconds(1.0), 0.999}};
  O.Client.Retry.Timeout = milliseconds(5);
  O.Client.Retry.MaxRetransmits = 2;
  CxfsFs Fs(S, O);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  EXPECT_EQ(FsError::TimedOut, runSync(S, *C, makeMkdir("/lost")).Err);
  EXPECT_LT(S.now(), seconds(1.0));
  S.runUntil(seconds(1.0));
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/healed")).Err);
}

//===----------------------------------------------------------------------===//
// Local file system model
//===----------------------------------------------------------------------===//

TEST(LocalModel, NodesAreIndependent) {
  Scheduler S;
  LocalFsModel Fs(S);
  std::unique_ptr<ClientFs> A = Fs.makeClient(0);
  std::unique_ptr<ClientFs> B = Fs.makeClient(1);
  ASSERT_EQ(FsError::Ok, touch(S, *A, "/f"));
  // Node B's local file system does not contain node A's file.
  EXPECT_EQ(FsError::NoEnt, runSync(S, *B, makeStat("/f")).Err);
}

TEST(LocalModel, MuchFasterThanNfs) {
  Scheduler S;
  LocalFsModel Local(S);
  std::unique_ptr<ClientFs> LC = Local.makeClient(0);
  SimTime T0 = S.now();
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(FsError::Ok, touch(S, *LC, "/f" + std::to_string(I)));
  SimDuration LocalTime = S.now() - T0;

  Scheduler S2;
  NfsFs Nfs(S2);
  std::unique_ptr<ClientFs> NC = Nfs.makeClient(0);
  T0 = S2.now();
  for (int I = 0; I < 100; ++I)
    ASSERT_EQ(FsError::Ok, touch(S2, *NC, "/f" + std::to_string(I)));
  SimDuration NfsTime = S2.now() - T0;
  // Orders of magnitude, like Table 4.2's /dev/shm loop vs NFS.
  EXPECT_GT(NfsTime, 10 * LocalTime);
}

//===----------------------------------------------------------------------===//
// Mount table
//===----------------------------------------------------------------------===//

/// \p Path relative to the root of the volume \p M it resolved to.
std::string_view relativeTo(const MountEntry *M, std::string_view Path) {
  return MountTable::relative(Path, M->prefixLength());
}

TEST(Mounts, LongestPrefixWins) {
  MountTable T;
  T.add("/", 0, "root");
  T.add("/vol1", 1, "vol1");
  T.add("/vol1/deep", 2, "deep");
  const MountEntry *M = T.resolve("/vol1/deep/x/y");
  ASSERT_NE(nullptr, M);
  EXPECT_EQ(2u, M->ServerIndex);
  EXPECT_EQ("/x/y", relativeTo(M, "/vol1/deep/x/y"));
  M = T.resolve("/vol1/file");
  EXPECT_EQ(1u, M->ServerIndex);
  EXPECT_EQ("/file", relativeTo(M, "/vol1/file"));
  M = T.resolve("/elsewhere");
  EXPECT_EQ(0u, M->ServerIndex);
  EXPECT_EQ("/elsewhere", relativeTo(M, "/elsewhere"));
  // Prefix match only at component boundaries.
  M = T.resolve("/vol12/x");
  EXPECT_EQ(0u, M->ServerIndex);
}

TEST(Mounts, MountRootResolvesToVolumeRoot) {
  MountTable T;
  T.add("/vol1", 1, "vol1");
  const MountEntry *M = T.resolve("/vol1");
  ASSERT_NE(nullptr, M);
  EXPECT_EQ("/", relativeTo(M, "/vol1"));
  EXPECT_EQ(nullptr, T.resolve("/other"));
}

TEST(Mounts, RouteRewritesBothPathsOrRefuses) {
  MountTable T;
  T.add("/vol1", 1, "vol1");
  T.add("/vol2", 2, "vol2");
  MetaRequest Fwd;
  FsError Err = FsError::Ok;
  // A link within one volume: both names relative to its root.
  MetaRequest Link = makeLink("/vol1/a", "/vol1/d/b");
  const MountEntry *M = T.route(Link, Err);
  ASSERT_NE(nullptr, M);
  EXPECT_EQ(1u, M->ServerIndex);
  MountTable::toVolume(Link, M->prefixLength(), Fwd);
  EXPECT_EQ(MetaOp::Link, Fwd.Op);
  EXPECT_EQ("/a", Fwd.Path);
  EXPECT_EQ("/d/b", Fwd.Path2);
  // A rename across two volumes cannot be one server-side operation.
  EXPECT_EQ(nullptr, T.route(makeRename("/vol1/a", "/vol2/a"), Err));
  EXPECT_EQ(FsError::XDev, Err);
  // No mount covers the path.
  Err = FsError::Ok;
  EXPECT_EQ(nullptr, T.route(makeStat("/other/x"), Err));
  EXPECT_EQ(FsError::NoEnt, Err);
}

} // namespace
