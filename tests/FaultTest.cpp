//===- tests/FaultTest.cpp - Fault injection & client resilience ----------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the fault-injection layer (sim/Network.h FaultPolicy), the
/// resilient RPC client (dfs/RpcClientBase.h RetryPolicy), the server's
/// duplicate-request cache and crash recovery under in-flight operations.
/// The timing assertions are exact: retransmit timers are deterministic,
/// and with DropProbability 1.0 the fault rolls are too, so the backoff
/// train's arithmetic is checked to the nanosecond.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <memory>
#include <string>
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
// NetworkLink accounting and fault rolls
//===----------------------------------------------------------------------===//

TEST(Network, PlanAccountsTrafficWithoutScheduling) {
  Scheduler S;
  NetConfig Cfg;
  Cfg.OneWayLatency = microseconds(200);
  Cfg.BytesPerSecond = 1e6;
  NetworkLink L(S, Cfg);

  NetworkLink::Delivery D = L.plan(1000);
  EXPECT_FALSE(D.Dropped);
  // 200 us latency + 1000 B / 1 MB/s = 1 ms serialization.
  EXPECT_EQ(microseconds(200) + milliseconds(1), D.Delay);
  EXPECT_EQ(D.Delay, L.transferTime(1000));
  EXPECT_EQ(1u, L.messagesSent());
  EXPECT_EQ(1000u, L.bytesSent());
  EXPECT_EQ(0u, L.messagesDropped());
  EXPECT_EQ(0u, L.messagesDelayed());

  // plan() only accounts; nothing was scheduled.
  S.run();
  EXPECT_EQ(0, S.now());
}

TEST(Network, WindowDropsAreExactAndCounted) {
  Scheduler S;
  NetConfig Cfg;
  Cfg.Faults.Windows = {{milliseconds(1), milliseconds(2), 1.0}};
  NetworkLink L(S, Cfg);

  bool MidWindowDropped = false, BeforeDropped = true, AtEndDropped = true;
  S.at(microseconds(500), [&] { BeforeDropped = L.plan(0).Dropped; });
  S.at(microseconds(1500), [&] { MidWindowDropped = L.plan(0).Dropped; });
  // The window is half-open: a message at End is delivered.
  S.at(milliseconds(2), [&] { AtEndDropped = L.plan(0).Dropped; });
  S.run();

  EXPECT_FALSE(BeforeDropped);
  EXPECT_TRUE(MidWindowDropped);
  EXPECT_FALSE(AtEndDropped);
  EXPECT_EQ(3u, L.messagesSent());
  EXPECT_EQ(1u, L.messagesDropped());
}

TEST(Network, FaultRollsArePureFunctionsOfSeedAndTime) {
  Scheduler S;
  NetConfig Cfg;
  Cfg.Faults.Seed = 42;
  Cfg.Faults.DropProbability = 0.5;
  Cfg.Faults.DelayJitterMax = microseconds(50);
  NetConfig Reseeded = Cfg;
  Reseeded.Faults.Seed = 43;

  NetworkLink A(S, Cfg);
  NetworkLink B(S, Cfg);
  NetworkLink C(S, Reseeded);

  // Sample the links over distinct send times. The roll depends only on
  // (seed, time) — never on link identity or on how many messages a link
  // has carried — which is what keeps faulted scenarios invariant when
  // schedule perturbation reassigns symmetric operations across links.
  // A different seed decorrelates.
  std::vector<bool> DropsA, DropsB, DropsC;
  for (int I = 1; I <= 64; ++I)
    S.at(microseconds(I), [&] {
      NetworkLink::Delivery DA = A.plan(0);
      NetworkLink::Delivery DB = B.plan(0);
      DropsA.push_back(DA.Dropped);
      DropsB.push_back(DB.Dropped);
      DropsC.push_back(C.plan(0).Dropped);
      EXPECT_EQ(DA.Dropped, DB.Dropped);
      EXPECT_EQ(DA.Delay, DB.Delay);
      // Two messages on ONE link inside the same-timestamp event share
      // their fate: tie order cannot reassign the rolls.
      NetworkLink::Delivery DA2 = A.plan(0);
      EXPECT_EQ(DA.Dropped, DA2.Dropped);
      EXPECT_EQ(DA.Delay, DA2.Delay);
    });
  S.run();

  EXPECT_EQ(DropsA, DropsB);
  EXPECT_NE(DropsA, DropsC); // a different seed rolls different dice
  // With P = 0.5 over 64 draws both outcomes occur, and surviving
  // messages picked up jitter.
  EXPECT_GT(A.messagesDropped(), 0u);
  EXPECT_LT(A.messagesDropped(), A.messagesSent());
  EXPECT_GT(A.messagesDelayed(), 0u);
}

//===----------------------------------------------------------------------===//
// Client retry discipline
//===----------------------------------------------------------------------===//

TEST(Fault, RequestLossTriggersRetransmit) {
  Scheduler S;
  NfsOptions O;
  O.Client.Retry.Timeout = milliseconds(10);
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  // Drop every request sent in the first 5 ms: exactly the first attempt.
  FaultPolicy P;
  P.Windows = {{0, milliseconds(5), 1.0}};
  C->requestLink().setFaultPolicy(P);

  SimTime T0 = S.now();
  MetaReply R = runSync(S, *Client, makeMkdir("/d"));
  EXPECT_EQ(FsError::Ok, R.Err);
  EXPECT_EQ(1u, C->retransmits());
  EXPECT_EQ(0u, C->timedOutOps());
  EXPECT_EQ(2u, C->requestLink().messagesSent());
  EXPECT_EQ(1u, C->requestLink().messagesDropped());
  // The operation could not complete before the 10 ms retransmit timer.
  EXPECT_GE(S.now() - T0, milliseconds(10));
  EXPECT_EQ(1u, Fs.server().processedRequests());
}

TEST(Fault, ExhaustionReturnsTimedOutAfterExactBackoffTrain) {
  Scheduler S;
  NfsOptions O;
  O.Client.Retry.Timeout = milliseconds(1);
  O.Client.Retry.MaxRetransmits = 3;
  O.Client.Net.Faults.DropProbability = 1.0; // the link is dead
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  SimTime T0 = S.now();
  MetaReply R = runSync(S, *Client, makeOpen("/f", OpenWrite | OpenCreate));
  EXPECT_EQ(FsError::TimedOut, R.Err);
  // Doubling backoff: 1 + 2 + 4 + 8 ms, then the client gives up.
  EXPECT_EQ(T0 + milliseconds(15), S.now());
  EXPECT_EQ(3u, C->retransmits());
  EXPECT_EQ(1u, C->timedOutOps());
  EXPECT_EQ(4u, C->requestLink().messagesDropped());
  // Nothing ever reached the server.
  EXPECT_EQ(0u, Fs.server().processedRequests());
}

TEST(Fault, BackoffCapsAtMaxTimeout) {
  Scheduler S;
  NfsOptions O;
  O.Client.Retry.Timeout = milliseconds(1);
  O.Client.Retry.BackoffFactor = 10.0;
  O.Client.Retry.MaxTimeout = milliseconds(5);
  O.Client.Retry.MaxRetransmits = 3;
  O.Client.Net.Faults.DropProbability = 1.0;
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);

  SimTime T0 = S.now();
  MetaReply R = runSync(S, *Client, makeMkdir("/d"));
  EXPECT_EQ(FsError::TimedOut, R.Err);
  // 1 ms, then 10 ms saturates at the 5 ms cap: 1 + 5 + 5 + 5.
  EXPECT_EQ(T0 + milliseconds(16), S.now());
}

TEST(Fault, BackoffTrainIsExactInIntegerSimTime) {
  // A real client arms each retransmit timer from the previous timer's
  // tick-rounded value: T_{i+1} = floor(T_i * F). For a non-power-of-two
  // factor that sequence diverges from accumulating the whole train in a
  // double and truncating once — 5000 ns * 1.5^6 = 56953.125 rounds to
  // 56953, but the step-by-step train reaches floor(37968 * 1.5) = 56952.
  Scheduler S;
  NfsOptions O;
  O.Client.Retry.Timeout = nanoseconds(5000);
  O.Client.Retry.BackoffFactor = 1.5;
  O.Client.Retry.MaxTimeout = seconds(1);
  O.Client.Retry.MaxRetransmits = 6;
  O.Client.Net.Faults.DropProbability = 1.0; // the link is dead
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);

  SimTime T0 = S.now();
  MetaReply R = runSync(S, *Client, makeMkdir("/d"));
  EXPECT_EQ(FsError::TimedOut, R.Err);
  // 5000 + 7500 + 11250 + 16875 + 25312 + 37968 + 56952.
  EXPECT_EQ(T0 + nanoseconds(160857), S.now());
}

//===----------------------------------------------------------------------===//
// Duplicate-request cache
//===----------------------------------------------------------------------===//

TEST(Fault, ReplyLossHitsDuplicateRequestCache) {
  Scheduler S;
  NfsOptions O;
  O.Client.Retry.Timeout = milliseconds(10);
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  // Lose the first reply (sent ~0.3 ms in); the 10 ms retransmit lands
  // after the window and is answered from the DRC, not re-executed.
  FaultPolicy P;
  P.Windows = {{0, milliseconds(5), 1.0}};
  C->replyLink().setFaultPolicy(P);

  MetaReply R = runSync(S, *Client, makeOpen("/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(1u, C->retransmits());
  EXPECT_EQ(1u, C->replyLink().messagesDropped());
  EXPECT_EQ(1u, Fs.server().drcHits());
  // The replayed reply carries the handle of the single execution; it is
  // live and the file exists exactly once.
  EXPECT_EQ(FsError::Ok, runSync(S, *Client, makeClose(R.Fh)).Err);
  MetaReply St = runSync(S, *Client, makeStat("/f"));
  ASSERT_TRUE(St.ok());
  EXPECT_EQ(FileType::Regular, St.A.Type);
}

/// Unlinks "/f" with the first reply lost; returns the reply the client
/// finally saw. With a DRC the retransmit replays the original Ok; with
/// the DRC disabled it re-executes and observes NoEnt — the double-apply
/// hazard the cache exists to prevent.
MetaReply unlinkWithLostReply(unsigned DrcEntries, uint64_t &DrcHitsOut) {
  Scheduler S;
  NfsOptions O;
  O.Client.Retry.Timeout = milliseconds(10);
  O.Server.DuplicateRequestCacheSize = DrcEntries;
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  EXPECT_EQ(FsError::Ok, touch(S, *Client, "/f"));
  FaultPolicy P;
  P.Windows = {{S.now(), S.now() + milliseconds(5), 1.0}};
  C->replyLink().setFaultPolicy(P);
  MetaReply R = runSync(S, *Client, makeUnlink("/f"));
  EXPECT_EQ(1u, C->retransmits());
  DrcHitsOut = Fs.server().drcHits();
  return R;
}

TEST(Fault, RetransmittedUnlinkAnsweredFromCache) {
  uint64_t DrcHits = 0;
  MetaReply R = unlinkWithLostReply(/*DrcEntries=*/1024, DrcHits);
  EXPECT_EQ(FsError::Ok, R.Err);
  EXPECT_EQ(1u, DrcHits);
}

TEST(Fault, WithoutDrcRetransmittedUnlinkReexecutes) {
  uint64_t DrcHits = 0;
  MetaReply R = unlinkWithLostReply(/*DrcEntries=*/0, DrcHits);
  EXPECT_EQ(FsError::NoEnt, R.Err);
  EXPECT_EQ(0u, DrcHits);
}

//===----------------------------------------------------------------------===//
// Crash recovery with in-flight operations
//===----------------------------------------------------------------------===//

TEST(Fault, CrashWithInFlightOpsRecoversExactlyOnce) {
  Scheduler S;
  NfsOptions O;
  O.Client.Retry.Timeout = milliseconds(5);
  NfsFs Fs(S, O);
  Fs.server().enableJournal();
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  // Every pre-crash reply is lost, so all six operations ride their
  // retransmit timers across the outage.
  FaultPolicy P;
  P.Windows = {{0, milliseconds(2), 1.0}};
  C->replyLink().setFaultPolicy(P);

  // Requests arrive at ~100 us and execute eagerly; the crash at 250 us
  // catches some journal records committed and some not.
  ServerCrash Crash(S, *Fs.admin(), NfsFs::VolumeName, microseconds(250));

  constexpr unsigned N = 6;
  std::vector<MetaReply> Replies(N);
  unsigned Got = 0;
  for (unsigned I = 0; I < N; ++I)
    Client->submit(makeMkdir("/d" + std::to_string(I)),
                   [&Replies, &Got, I](MetaReply R) {
                     Replies[I] = std::move(R);
                     ++Got;
                   });
  S.run();

  ASSERT_EQ(N, Got);
  ASSERT_TRUE(Crash.fired());
  uint64_t Lost = Crash.lostRecords();
  ASSERT_LE(Lost, uint64_t(N));
  for (unsigned I = 0; I < N; ++I) {
    EXPECT_EQ(FsError::Ok, Replies[I].Err) << "/d" << I;
    EXPECT_NE(FsError::Exists, Replies[I].Err) << "double-applied /d" << I;
  }
  EXPECT_EQ(uint64_t(N), C->retransmits());
  EXPECT_EQ(0u, C->timedOutOps());
  // Committed mkdirs are answered from the journaled DRC; the ones whose
  // records died with the crash re-execute against the replayed volume.
  EXPECT_EQ(uint64_t(N) - Lost, Fs.server().drcHits());

  // Every directory exists exactly once and the store is consistent.
  for (unsigned I = 0; I < N; ++I) {
    MetaReply St = runSync(S, *Client, makeStat("/d" + std::to_string(I)));
    ASSERT_TRUE(St.ok()) << "/d" << I;
    EXPECT_EQ(FileType::Directory, St.A.Type);
  }
  LocalFileSystem *V = Fs.server().volume(NfsFs::VolumeName);
  ASSERT_NE(nullptr, V);
  EXPECT_TRUE(V->fsck().clean());
}

//===----------------------------------------------------------------------===//
// DRC eviction-queue regressions
//===----------------------------------------------------------------------===//

/// Executes an xid-stamped mkdir eagerly on \p Srv — the raw server-side
/// retransmit path, with no client or network in between.
MetaReply eagerMkdir(FileServer &Srv, const std::string &Vol,
                     const std::string &Path, uint64_t Xid) {
  MetaRequest R = makeMkdir(Path);
  R.ClientId = 1;
  R.Xid = Xid;
  return Srv.processEager(Srv.volumeId(Vol), R, [] {});
}

TEST(Fault, CrashPrunedDrcKeysDoNotEvictLiveEntries) {
  // Regression: crash pruning used to erase DRC entries but leave their
  // keys in the eviction queue. A later re-execution of the same (ClientId,
  // Xid) re-pushed the key, so the queue held it twice — and when eviction
  // reached the stale first push it erased the *live* entry, breaking
  // retransmit exactly-once semantics while the entry should still have
  // been cached.
  Scheduler S;
  ServerConfig Cfg;
  Cfg.DuplicateRequestCacheSize = 2;
  FileServer Srv(S, Cfg);
  Srv.enableJournal();
  Srv.addVolume("v");

  // Two xid-stamped mkdirs; the scheduler never runs, so their journal
  // records stay uncommitted and the crash prunes both DRC entries.
  EXPECT_EQ(FsError::Ok, eagerMkdir(Srv, "v", "/k1", 1).Err);
  EXPECT_EQ(FsError::Ok, eagerMkdir(Srv, "v", "/k2", 2).Err);
  EXPECT_EQ(2u, Srv.drcSize());
  EXPECT_EQ(2u, Srv.drcEvictQueueSize());

  EXPECT_EQ(2u, Srv.crashAndRecover("v"));
  EXPECT_EQ(0u, Srv.drcSize());
  // The pruned keys must leave the queue with their entries.
  EXPECT_EQ(0u, Srv.drcEvictQueueSize());

  // Both clients retransmit; the recovered store lost the mkdirs, so they
  // re-execute (Ok) and re-enter the cache — /k2 first, so /k1 is the
  // *younger* entry.
  EXPECT_EQ(FsError::Ok, eagerMkdir(Srv, "v", "/k2", 2).Err);
  EXPECT_EQ(FsError::Ok, eagerMkdir(Srv, "v", "/k1", 1).Err);
  EXPECT_EQ(2u, Srv.drcSize());
  EXPECT_EQ(2u, Srv.drcEvictQueueSize());

  // A third insert evicts exactly one entry: the oldest (/k2), never /k1.
  // Pre-fix, /k1's crash-orphaned first push sat at the queue front and
  // the eviction erased the live /k1 entry instead.
  uint64_t HitsBefore = Srv.drcHits();
  EXPECT_EQ(FsError::Ok, eagerMkdir(Srv, "v", "/k3", 3).Err);
  EXPECT_EQ(2u, Srv.drcSize());
  EXPECT_EQ(2u, Srv.drcEvictQueueSize());

  // The /k1 retransmit must replay the cached Ok. Pre-fix it missed the
  // evicted entry, re-executed, and observed Exists — a double-apply made
  // visible to the client.
  MetaReply R = eagerMkdir(Srv, "v", "/k1", 1);
  EXPECT_EQ(FsError::Ok, R.Err);
  EXPECT_EQ(HitsBefore + 1, Srv.drcHits());
}

TEST(Fault, DrcEvictQueueStaysBoundedAcrossCrashCycles) {
  // Regression: with crash-pruned keys left behind, the eviction queue
  // grew by one dead key per pruned entry on every crash/recover cycle —
  // unbounded state on a server whose cache is supposed to be capacity-
  // bounded. Ten cycles of (fill cache, crash) must leave the queue no
  // larger than the capacity, and exactly in sync with the map.
  Scheduler S;
  ServerConfig Cfg;
  Cfg.DuplicateRequestCacheSize = 4;
  FileServer Srv(S, Cfg);
  Srv.enableJournal();
  Srv.addVolume("v");

  uint64_t Xid = 0;
  for (unsigned Cycle = 0; Cycle < 10; ++Cycle) {
    for (unsigned I = 0; I < 4; ++I) {
      std::string Path =
          "/c" + std::to_string(Cycle) + "_" + std::to_string(I);
      EXPECT_EQ(FsError::Ok, eagerMkdir(Srv, "v", Path, ++Xid).Err);
    }
    Srv.crashAndRecover("v");
    EXPECT_LE(Srv.drcEvictQueueSize(), size_t(Cfg.DuplicateRequestCacheSize))
        << "cycle " << Cycle;
    EXPECT_EQ(Srv.drcSize(), Srv.drcEvictQueueSize()) << "cycle " << Cycle;
  }
}

//===----------------------------------------------------------------------===//
// Sharded metadata service: kill one shard under load
//===----------------------------------------------------------------------===//

TEST(Fault, ShardedKillOneShardRecoversExactlyOnce) {
  // E29 for the sharded service: a burst of creates into one directory
  // drives splits across two shards while every first reply is lost and
  // shard 0 crashes mid-burst. Exactly-once must hold ledger-style: every
  // create succeeds (no Exists from a double-apply, no NoEnt from a lost
  // one), the namespace holds each entry exactly once, and both shard
  // volumes pass fsck.
  Scheduler S;
  ShardedOptions O;
  O.NumShards = 2;
  O.SplitThreshold = 3;
  O.Client.Retry.Timeout = milliseconds(10);
  ShardedFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<ShardedClient *>(Client.get());

  ASSERT_EQ(FsError::Ok, runSync(S, *Client, makeMkdir("/big")).Err);

  // Lose every reply in the first 2 ms: all twelve creates execute, then
  // ride their 10 ms retransmit timers.
  FaultPolicy P;
  P.Windows = {{S.now(), S.now() + milliseconds(2), 1.0}};
  C->replyLink().setFaultPolicy(P);

  // Crash shard 0 shortly after the burst starts: some creates (and some
  // migrated-entry records) are committed, the rest die with the volume.
  ServerCrash Crash(S, *Fs.admin(), ShardedFs::volumeName(0),
                    S.now() + microseconds(250));

  constexpr unsigned N = 12;
  std::vector<MetaReply> Replies(N);
  unsigned Got = 0;
  for (unsigned I = 0; I < N; ++I)
    Client->submit(makeMkdir("/big/d" + std::to_string(I)),
                   [&Replies, &Got, I](MetaReply R) {
                     Replies[I] = std::move(R);
                     ++Got;
                   });
  S.run();

  ASSERT_EQ(N, Got);
  ASSERT_TRUE(Crash.fired());
  for (unsigned I = 0; I < N; ++I) {
    EXPECT_EQ(FsError::Ok, Replies[I].Err) << "/big/d" << I;
    EXPECT_NE(FsError::Exists, Replies[I].Err) << "double-applied /big/d" << I;
  }

  // The burst overflowed the 3-entry threshold, so the directory split,
  // and retransmits routed with the pre-split bitmap were redirected.
  EXPECT_GT(Fs.splitCount(), 0u);
  EXPECT_GT(C->staleMapRetries(), 0u);

  // Ledger: every entry exists exactly once, and readdir through the
  // fan-out coordinator sees each of them exactly once.
  for (unsigned I = 0; I < N; ++I) {
    MetaReply St = runSync(S, *Client, makeStat("/big/d" + std::to_string(I)));
    ASSERT_TRUE(St.ok()) << "/big/d" << I;
    EXPECT_EQ(FileType::Directory, St.A.Type);
  }
  MetaReply Dir = runSync(S, *Client, makeReaddir("/big"));
  ASSERT_TRUE(Dir.ok());
  std::vector<std::string> Expect = {".", ".."};
  for (unsigned I = 0; I < N; ++I)
    Expect.push_back("d" + std::to_string(I));
  std::sort(Expect.begin(), Expect.end());
  std::vector<std::string> Seen;
  for (const DirEntry &E : Dir.Entries)
    Seen.push_back(E.Name);
  std::sort(Seen.begin(), Seen.end());
  EXPECT_EQ(Expect, Seen);

  // Both shard stores are consistent, and neither shard's eviction queue
  // drifted out of sync with its cache across crash pruning and entry
  // migration.
  for (unsigned I = 0; I < Fs.numShards(); ++I) {
    LocalFileSystem *V = Fs.shard(I).volume(ShardedFs::volumeName(I));
    ASSERT_NE(nullptr, V) << "shard " << I;
    EXPECT_TRUE(V->fsck().clean()) << "shard " << I;
    EXPECT_EQ(Fs.shard(I).drcSize(), Fs.shard(I).drcEvictQueueSize())
        << "shard " << I;
    EXPECT_LE(Fs.shard(I).drcEvictQueueSize(),
              size_t(Fs.options().ShardDefaults.DuplicateRequestCacheSize))
        << "shard " << I;
  }
}

//===----------------------------------------------------------------------===//
// Schedule invariance of a faulted scenario
//===----------------------------------------------------------------------===//

TEST(Fault, FaultedBenchmarkIsInvariantUnderPermutedSchedules) {
  // A full Master run with a loss window, an outage partition and a
  // mid-run MDS crash. Fault rolls are pure functions of send time, so
  // permuting same-timestamp tie order must not change which messages
  // are lost — the canonical result stays bit-identical.
  ScheduleScenario Sc;
  Sc.Name = "nfs-makefiles-faulted";
  Sc.Run = [](Scheduler &S) {
    NfsOptions O;
    O.Client.Net.Faults.Seed = 7;
    O.Client.Net.Faults.Windows = {
        {seconds(0.3), seconds(0.8), /*DropProbability=*/0.6},
        {seconds(1.0), seconds(1.05), /*DropProbability=*/1.0},
    };
    O.Client.Retry.Timeout = milliseconds(10);
    O.Client.Retry.MaxRetransmits = 30;
    O.Server.DuplicateRequestCacheSize = 1 << 16;
    auto Fs = std::make_unique<NfsFs>(S, O);
    Fs->server().enableJournal();
    Cluster C(S, 2, 4);
    C.mountEverywhere(*Fs);
    ServerCrash Crash(S, *Fs->admin(), NfsFs::VolumeName, seconds(1.0));
    BenchParams P;
    P.Operations = {"MakeFiles"};
    P.ProblemSize = 150;
    P.TimeLimit = seconds(1.5);
    MpiEnvironment Env = MpiEnvironment::uniform(2, 3);
    Master M(C, Env, "nfs", P);
    return canonicalResultText(M.runCombination(2, 2));
  };
  ScheduleVerifyResult R = verifySchedules(Sc);
  EXPECT_TRUE(R.IdentityIdentical) << R.Report;
  EXPECT_TRUE(R.Deterministic) << R.Report;
  EXPECT_EQ(8u, R.SchedulesRun);
}

} // namespace
