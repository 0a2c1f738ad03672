//===- tests/WriteBehindTest.cpp - Client write-behind pipeline -----------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the reusable client write-behind layer (dfs/WriteBehind.h):
/// deferred local acks and bulk flushing, the three flush triggers,
/// coalescing, queue-local handle translation and retirement, the dirty-op
/// cap, sticky flush errors, issue order and handle identity in a queue
/// running at its cap, and — the core contract — that an fsync drains
/// exactly the dependency closure of its target, verified under permuted
/// event schedules.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include <gtest/gtest.h>
#include <algorithm>
#include <functional>
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

/// NFS deployment with the deferred write-behind pipeline enabled.
NfsOptions deferredNfs() {
  NfsOptions O;
  O.Client.WriteBehind.Enabled = true;
  return O;
}

OpCtx userCtx() {
  OpCtx Ctx;
  Ctx.Creds.Uid = 1000;
  Ctx.Creds.Gid = 1000;
  return Ctx;
}

//===----------------------------------------------------------------------===//
// Deferred acks and flush triggers
//===----------------------------------------------------------------------===//

TEST(WriteBehind, DeferredAcksLocallyAndFlushesOnDwellTimer) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  int Acked = 0;
  for (int I = 0; I < 5; ++I)
    C->submit(makeMkdir("/d" + std::to_string(I)), [&](MetaReply R) {
      ASSERT_TRUE(R.ok());
      ++Acked;
    });
  // All five ack from the local queue long before any RPC could return;
  // nothing has reached the server yet (the dwell timer is 2 ms).
  S.runUntil(milliseconds(1));
  EXPECT_EQ(5, Acked);
  EXPECT_EQ(0u, Fs.server().processedRequests());
  ASSERT_NE(nullptr, C->writeBehind());
  EXPECT_EQ(5u, C->writeBehind()->dirtyOps());

  // The dwell timer fires and the batch issues as one flush.
  S.run();
  EXPECT_EQ(5u, Fs.server().processedRequests());
  EXPECT_EQ(1u, C->writeBehind()->flushes());
  EXPECT_EQ(5u, C->writeBehind()->issuedOps());
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
}

TEST(WriteBehind, OpCountTriggerFlushesBeforeTheTimer) {
  NfsOptions O = deferredNfs();
  O.Client.WriteBehind.FlushMaxOps = 3;
  Scheduler S;
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);

  for (int I = 0; I < 3; ++I)
    C->submit(makeMkdir("/d" + std::to_string(I)), [](MetaReply) {});
  // The third enqueue hits the count trigger: the batch is at the server
  // well inside the 2 ms dwell window.
  S.runUntil(milliseconds(1));
  EXPECT_EQ(3u, Fs.server().processedRequests());
}

TEST(WriteBehind, ByteTriggerFlushesQueuedWrites) {
  NfsOptions O = deferredNfs();
  O.Client.WriteBehind.FlushMaxBytes = 1024;
  Scheduler S;
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  C->submit(makeOpen("/f", OpenWrite | OpenCreate), [&](MetaReply R) {
    ASSERT_TRUE(R.ok());
    C->submit(makeWrite(R.Fh, 600), [](MetaReply) {});
    C->submit(makeWrite(R.Fh, 600), [](MetaReply) {});
  });
  // 1200 queued bytes cross the 1 KiB trigger: the chain flushes without
  // waiting for the dwell timer.
  S.runUntil(milliseconds(1));
  EXPECT_GE(Fs.server().processedRequests(), 2u);

  S.run();
  // The two writes coalesced into one appended wire op.
  EXPECT_EQ(1u, C->writeBehind()->coalescedOps());
  LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
  OpCtx Ctx = userCtx();
  ASSERT_TRUE(Vol->stat(Ctx, "/f").ok());
  EXPECT_EQ(1200u, Vol->stat(Ctx, "/f")->Size);
}

//===----------------------------------------------------------------------===//
// Coalescing and dependency ordering
//===----------------------------------------------------------------------===//

TEST(WriteBehind, RepeatedSetattrsCoalesceToTheLastValue) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  uint64_t IssuedBefore = C->writeBehind()->issuedOps();

  for (uint32_t Mode : {0700u, 0750u, 0755u}) {
    MetaRequest Chmod;
    Chmod.Op = MetaOp::Chmod;
    Chmod.Path = "/d";
    Chmod.Mode = Mode;
    C->submit(Chmod, [](MetaReply R) { ASSERT_TRUE(R.ok()); });
  }
  S.run();
  // One wire op carried the final mode.
  EXPECT_EQ(2u, C->writeBehind()->coalescedOps());
  EXPECT_EQ(IssuedBefore + 1, C->writeBehind()->issuedOps());
  LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
  OpCtx Ctx = userCtx();
  EXPECT_EQ(0755u, Vol->stat(Ctx, "/d")->Mode & 0777u);
}

TEST(WriteBehind, CreateChainIssuesInDependencyOrder) {
  // mkdir -> create -> write -> close on one path must reach the server
  // in that order even though all four sit in one flushed batch, with the
  // queue-local handle translated to the server handle at issue time.
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  std::vector<FsError> Errs;
  C->submit(makeMkdir("/d"), [&](MetaReply R) { Errs.push_back(R.Err); });
  C->submit(makeOpen("/d/f", OpenWrite | OpenCreate), [&](MetaReply R) {
    Errs.push_back(R.Err);
    ASSERT_TRUE(R.ok());
    C->submit(makeWrite(R.Fh, 100), [&](MetaReply W) {
      Errs.push_back(W.Err);
    });
    C->submit(makeClose(R.Fh), [&](MetaReply Cl) {
      Errs.push_back(Cl.Err);
    });
  });
  S.run();
  EXPECT_EQ(std::vector<FsError>(4, FsError::Ok), Errs);
  LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
  OpCtx Ctx = userCtx();
  ASSERT_TRUE(Vol->stat(Ctx, "/d/f").ok());
  EXPECT_EQ(100u, Vol->stat(Ctx, "/d/f")->Size);
  EXPECT_TRUE(Vol->fsck().clean());
}

TEST(WriteBehind, PassThroughReadDrainsAndTranslatesTheHandle) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  MetaReply O =
      runSync(S, *C, makeOpen("/f", OpenRead | OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  C->submit(makeWrite(O.Fh, 64), [](MetaReply) {});
  // Seek and read on the queue-local handle are pass-through operations:
  // each must first drain the open/write closure, then issue against the
  // server handle the open resolved to.
  MetaRequest Rewind;
  Rewind.Op = MetaOp::Seek;
  Rewind.Fh = O.Fh;
  Rewind.Bytes = 0;
  ASSERT_TRUE(runSync(S, *C, Rewind).ok());
  MetaReply R = runSync(S, *C, makeRead(O.Fh, 64));
  EXPECT_EQ(FsError::Ok, R.Err);
  EXPECT_EQ(64u, R.Bytes);
}

//===----------------------------------------------------------------------===//
// Dirty-op cap, sticky errors
//===----------------------------------------------------------------------===//

TEST(WriteBehind, MaxQueuedOpsStallsAdmissionInOrder) {
  NfsOptions O = deferredNfs();
  O.Client.WriteBehind.MaxQueuedOps = 4;
  O.Client.WriteBehind.FlushMaxOps = 3;
  Scheduler S;
  NfsFs Fs(S, O);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);

  std::vector<int> AckOrder;
  for (int I = 0; I < 10; ++I)
    C->submit(makeMkdir("/t" + std::to_string(I)), [&AckOrder, I](MetaReply R) {
      ASSERT_TRUE(R.ok());
      AckOrder.push_back(I);
    });
  // Only up to the cap is acked instantly; the rest waits for the
  // pipeline to drain.
  S.runUntil(microseconds(50));
  EXPECT_EQ(4u, AckOrder.size());
  S.run();
  ASSERT_EQ(10u, AckOrder.size());
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(I, AckOrder[I]) << "stall must preserve FIFO admission";
  EXPECT_EQ(10u, Fs.server().processedRequests());
}

TEST(WriteBehind, FlushErrorIsStickyUntilTheNextBarrier) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  // The local ack is optimistic: the queue predicts success even though
  // the parent directory does not exist.
  MetaReply Local = runSync(S, *C, makeMkdir("/missing/sub"));
  EXPECT_EQ(FsError::Ok, Local.Err);
  // The flush observed the server's NoEnt; the next fsync surfaces it
  // instead of swallowing it.
  EXPECT_EQ(1u, C->writeBehind()->flushErrors());
  EXPECT_EQ(FsError::NoEnt, C->writeBehind()->pendingError());
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeFsync(InvalidHandle)).Err);
  // Consumed: a second barrier reports a clean pipeline.
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeFsync(InvalidHandle)).Err);
}

TEST(WriteBehind, RetiredLocalHandleFailsWithBadFd) {
  // A queue-local handle retires when its close completes. A later op on
  // it must not re-enter the queue, which has no server handle left to
  // translate it to: it passes through with InvalidHandle and the server
  // answers BadFd. The cap of two live ops lets the last case stall.
  NfsOptions Opts = deferredNfs();
  Opts.Client.WriteBehind.MaxQueuedOps = 2;
  Scheduler S;
  NfsFs Fs(S, Opts);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  MetaReply O = runSync(S, *C, makeOpen("/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(O.Fh)).Err);
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeFsync(InvalidHandle)).Err);

  EXPECT_EQ(FsError::BadFd, runSync(S, *C, makeClose(O.Fh)).Err);
  EXPECT_EQ(FsError::BadFd, runSync(S, *C, makeWrite(O.Fh, 10)).Err);
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
  EXPECT_EQ(InvalidHandle, C->writeBehind()->serverHandle(O.Fh));
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeFsync(InvalidHandle)).Err);

  // A second close queued while the first is still live waits for it,
  // finds the handle retired at issue time, and completes with BadFd
  // without a round trip (a BadFd is never the sticky error).
  MetaReply G = runSync(S, *C, makeOpen("/g", OpenWrite | OpenCreate));
  ASSERT_TRUE(G.ok());
  uint64_t Served = Fs.server().processedRequests();
  uint64_t Errors = C->writeBehind()->flushErrors();
  for (int I = 0; I < 2; ++I)
    C->submit(makeClose(G.Fh), [](MetaReply R) { EXPECT_TRUE(R.ok()); });
  S.run();
  EXPECT_EQ(Served + 1, Fs.server().processedRequests());
  EXPECT_EQ(Errors + 1, C->writeBehind()->flushErrors());
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
  EXPECT_EQ(FsError::Ok, C->writeBehind()->pendingError());

  // A write that stalls at the cap behind its handle's close is admitted
  // once the close has retired the handle, and completes with BadFd.
  MetaReply H = runSync(S, *C, makeOpen("/h", OpenWrite | OpenCreate));
  ASSERT_TRUE(H.ok());
  Served = Fs.server().processedRequests();
  C->submit(makeMkdir("/m1"), [](MetaReply) {});
  C->submit(makeMkdir("/m2"), [](MetaReply) {});
  C->submit(makeClose(H.Fh), [](MetaReply R) { EXPECT_TRUE(R.ok()); });
  C->submit(makeWrite(H.Fh, 5), [](MetaReply R) { EXPECT_TRUE(R.ok()); });
  EXPECT_EQ(2u, C->writeBehind()->stalledOps());
  S.run();
  EXPECT_EQ(Served + 3, Fs.server().processedRequests());
  EXPECT_EQ(Errors + 2, C->writeBehind()->flushErrors());
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
}

//===----------------------------------------------------------------------===//
// A deep queue: issue order and handle identity across many chains
//===----------------------------------------------------------------------===//

/// Runs open(create) -> write(Size) -> close on \p Path as a closed loop
/// (each step is submitted once the previous one is acked), then calls
/// \p Closed with the handle the open returned.
void createChain(ClientFs &C, const std::string &Path, uint64_t Size,
                 std::function<void(FileHandle)> Closed) {
  C.submit(makeOpen(Path, OpenWrite | OpenCreate), [&C, Size,
                                                    Closed](MetaReply O) {
    ASSERT_TRUE(O.ok()) << "local acks are optimistic";
    C.submit(makeWrite(O.Fh, Size), [&C, Fh = O.Fh, Closed](MetaReply W) {
      ASSERT_TRUE(W.ok());
      C.submit(makeClose(Fh), [Fh, Closed](MetaReply Cl) {
        ASSERT_TRUE(Cl.ok());
        Closed(Fh);
      });
    });
  });
}

TEST(WriteBehind, DeepQueueKeepsIssueOrderAndHandleIdentity) {
  // 300 create -> write -> close chains over six directories run at once
  // against a queue capped at 256 live ops and flushed every 32, so
  // admissions stall, flushes overlap, and completions cascade through
  // long dependency lists. Every file gets its own size: a write issued
  // against the wrong server handle lands on the wrong file.
  constexpr int Dirs = 6, Chains = 300, FsyncChain = 150;
  auto SizeOf = [](int I) { return static_cast<uint64_t>(100 + 7 * I); };
  auto PathOf = [](int I) {
    return "/d" + std::to_string(I % Dirs) + "/f" + std::to_string(I);
  };

  // The mutation sequence the server applies pins the issue order and
  // the pinned Xids of every chain.
  std::string Mutations;
  NfsOptions O = deferredNfs();
  O.Client.WriteBehind.MaxQueuedOps = 256;
  O.Client.WriteBehind.FlushMaxOps = 32;
  Scheduler S;
  NfsFs Fs(S, O);
  Fs.server().watchMutations(
      [&Mutations](const std::string &, const MetaRequest &R) {
        Mutations += std::string(metaOpName(R.Op)) + " " + R.Path +
                     " fh=" + std::to_string(R.Fh) +
                     " bytes=" + std::to_string(R.Bytes) +
                     " xid=" + std::to_string(R.Xid) + "\n";
      });
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());

  for (int D = 0; D < Dirs; ++D)
    C->submit(makeMkdir("/d" + std::to_string(D)),
              [](MetaReply R) { ASSERT_TRUE(R.ok()); });
  const WriteBehindQueue *WB = C->writeBehind();
  int Closed = 0;
  unsigned DirtyAtFsync = 0, PeakDirty = 0, PeakStalled = 0;
  FsError MidFsync = FsError::Invalid; // until the barrier answers
  for (int I = 0; I < Chains; ++I)
    createChain(*C, PathOf(I), SizeOf(I), [&, I](FileHandle Fh) {
      ++Closed;
      PeakDirty = std::max(PeakDirty, WB->dirtyOps());
      PeakStalled = std::max(PeakStalled, WB->stalledOps());
      if (I != FsyncChain)
        return;
      // A targeted barrier mid-stream drains this file's closure only;
      // once it returns, a create under a missing directory joins the
      // queue. Its open fails at the server, so its write and close
      // complete with BadFd without reaching the server.
      C->submit(makeFsync(Fh), [&](MetaReply F) {
        MidFsync = F.Err;
        DirtyAtFsync = WB->dirtyOps();
        createChain(*C, "/missing/f", 1, [&](FileHandle) { ++Closed; });
      });
    });
  S.run();

  ASSERT_EQ(Chains + 1, Closed);
  EXPECT_EQ(FsError::Ok, MidFsync);
  EXPECT_GT(DirtyAtFsync, 0u) << "the barrier drained the whole queue";
  EXPECT_EQ(256u, PeakDirty);
  EXPECT_GT(PeakStalled, 0u);
  EXPECT_EQ(0u, WB->dirtyOps());
  EXPECT_EQ(0u, WB->stalledOps());
  // The failed open is the one sticky error; the BadFd of its write and
  // close count as flush errors without replacing it.
  EXPECT_EQ(3u, WB->flushErrors());
  EXPECT_EQ(FsError::NoEnt, WB->pendingError());
  // Six mkdirs, three ops per good chain, and the failed open.
  EXPECT_EQ(static_cast<uint64_t>(Dirs + 3 * Chains + 1),
            Fs.server().processedRequests());
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeFsync(InvalidHandle)).Err);

  LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
  OpCtx Ctx = userCtx();
  for (int I = 0; I < Chains; ++I) {
    Result<Attr> A = Vol->stat(Ctx, PathOf(I));
    ASSERT_TRUE(A.ok()) << PathOf(I);
    EXPECT_EQ(SizeOf(I), A->Size) << PathOf(I);
  }
  EXPECT_FALSE(Vol->stat(Ctx, "/missing/f").ok());
  EXPECT_TRUE(Vol->fsck().clean());
  // Issue order within each flush or closure is ascending op id; a change
  // to the queue's bookkeeping must leave this sequence bit-identical.
  EXPECT_EQ(0x938bda349059dc02ULL, fnv1a64(Mutations));
}

//===----------------------------------------------------------------------===//
// Closure-only fsync barrier, under permuted schedules
//===----------------------------------------------------------------------===//

TEST(WriteBehind, FsyncDrainsExactlyTheDependencyClosure) {
  // Two independent chains share the queue. fsync on chain A's handle
  // must drain A's closure (mkdir /a, open /a/f, write, close) and
  // nothing else: chain B's ops stay queued behind their own triggers.
  // The whole interaction must be invariant under permuted same-timestamp
  // schedules — verifySchedules runs it 8 more times with perturbed tie
  // orders and compares this canonical output bit-for-bit.
  ScheduleScenario Sc;
  Sc.Name = "writebehind-closure-fsync";
  Sc.Run = [](Scheduler &S) {
    NfsOptions O = deferredNfs();
    // No count/byte/timer help: only barriers move this queue.
    O.Client.WriteBehind.FlushMaxOps = 1000;
    O.Client.WriteBehind.FlushMaxBytes = 1u << 30;
    O.Client.WriteBehind.FlushDelay = seconds(100.0);
    NfsFs Fs(S, O);
    std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
    auto *C = static_cast<NfsClient *>(Client.get());

    std::string Out;
    // Chain B: two ops with no relation to chain A.
    C->submit(makeMkdir("/b"), [](MetaReply) {});
    C->submit(makeOpen("/b/g", OpenWrite | OpenCreate), [](MetaReply) {});
    // Chain A, then the targeted barrier once its close is acked.
    C->submit(makeMkdir("/a"), [](MetaReply) {});
    C->submit(makeOpen("/a/f", OpenWrite | OpenCreate), [&](MetaReply R) {
      C->submit(makeWrite(R.Fh, 128), [](MetaReply) {});
      C->submit(makeClose(R.Fh), [](MetaReply) {});
      C->submit(makeFsync(R.Fh), [&, Fh = R.Fh](MetaReply F) {
        // At barrier completion exactly chain A reached the server.
        Out += "fsync=" + std::string(F.ok() ? "ok" : "err");
        Out += " served=" + std::to_string(Fs.server().processedRequests());
        Out += " still-queued=" +
               std::to_string(C->writeBehind()->dirtyOps());
        Out += "\n";
      });
    });
    S.run();
    // Chain B is still parked; a full barrier releases it.
    MetaReply Full = runSync(S, *C, makeFsync(InvalidHandle));
    Out += "full=" + std::string(Full.ok() ? "ok" : "err");
    Out += " served=" + std::to_string(Fs.server().processedRequests());
    LocalFileSystem *Vol = Fs.server().volume(NfsFs::VolumeName);
    OpCtx Ctx = userCtx();
    Out += " a=" + std::to_string(Vol->stat(Ctx, "/a/f").ok());
    Out += " b=" + std::to_string(Vol->stat(Ctx, "/b/g").ok());
    Out += " fsck=" + std::string(Vol->fsck().clean() ? "clean" : "dirty");
    Out += "\n";
    return Out;
  };

  ScheduleVerifyResult R = verifySchedules(Sc);
  EXPECT_TRUE(R.passed()) << R.Report;
  EXPECT_EQ(8u, R.SchedulesRun);

  // Pin the canonical interaction: the targeted fsync saw chain A's four
  // ops at the server with chain B's two still queued; the full barrier
  // brought the total to six.
  Scheduler S;
  std::string Out = Sc.Run(S);
  EXPECT_EQ("fsync=ok served=4 still-queued=2\n"
            "full=ok served=6 a=1 b=1 fsck=clean\n",
            Out);
}

//===----------------------------------------------------------------------===//
// The other clients opt in through the same policy
//===----------------------------------------------------------------------===//

// The writer's own stat sees the size it wrote, whether the write rode a
// queue-local handle (queued, then issued with the server's handle) or a
// server handle from a plain open (passed straight through).
TEST(WriteBehind, OwnWriteSizeVisibleToOwnStat) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  MetaReply O = runSync(S, *C, makeOpen("/sz", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  ASSERT_TRUE(runSync(S, *C, makeWrite(O.Fh, 12345)).ok());
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(O.Fh)).Err);
  EXPECT_EQ(12345u, runSync(S, *C, makeStat("/sz")).A.Size);

  O = runSync(S, *C, makeOpen("/sz", OpenWrite));
  ASSERT_TRUE(O.ok());
  ASSERT_TRUE(runSync(S, *C, makeWrite(O.Fh, 20000)).ok());
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(O.Fh)).Err);
  EXPECT_EQ(20000u, runSync(S, *C, makeStat("/sz")).A.Size);
}

// A stat by path waits for a write still queued on the queue-local handle
// of its file. The write names a handle, not a path, so without that wait
// the stat reaches a server that has not seen the write yet (and the
// enqueue already dropped the cached size it would otherwise serve).
TEST(WriteBehind, StatWaitsForQueuedWriteOnLocalHandle) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());
  MetaReply O = runSync(S, *C, makeOpen("/sz", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  bool Acked = false;
  C->submit(makeWrite(O.Fh, 12345), [&](MetaReply R) {
    EXPECT_TRUE(R.ok());
    Acked = true;
  });
  S.runUntil(S.now() + microseconds(100));
  ASSERT_TRUE(Acked);
  ASSERT_EQ(1u, C->writeBehind()->dirtyOps()); // acked, not flushed yet
  EXPECT_EQ(12345u, runSync(S, *C, makeStat("/sz")).A.Size);
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
}

// Every live local handle minted for a path counts, not only the newest:
// with the middle and then the newest of three closed, the oldest's
// queued stores still hold a stat of the path back.
TEST(WriteBehind, StatWaitsForStoresOnEveryLocalHandleOfItsPath) {
  Scheduler S;
  NfsFs Fs(S, deferredNfs());
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<NfsClient *>(Client.get());
  std::vector<FileHandle> H;
  for (int I = 0; I < 3; ++I) {
    MetaReply O = runSync(S, *C, makeOpen("/m", OpenWrite | OpenCreate));
    ASSERT_TRUE(O.ok());
    H.push_back(O.Fh);
  }
  auto StatAfterQueuedWrite = [&](uint64_t Bytes) {
    C->submit(makeWrite(H[0], Bytes),
              [](MetaReply R) { EXPECT_TRUE(R.ok()); });
    S.runUntil(S.now() + microseconds(100));
    EXPECT_EQ(1u, C->writeBehind()->dirtyOps());
    return runSync(S, *C, makeStat("/m")).A.Size;
  };
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(H[1])).Err);
  EXPECT_EQ(100u, StatAfterQueuedWrite(100));
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(H[2])).Err);
  EXPECT_EQ(300u, StatAfterQueuedWrite(200));
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(H[0])).Err);
}

// Under the eager discipline a write is applied at enqueue and never
// passes the client's reply path: its enqueue drops the cached entry of
// the file its handle names, the handle of a creating open included.
TEST(WriteBehind, EagerWriteShadowsItsFilesCachedAttributes) {
  Scheduler S;
  LustreOptions Opts;
  Opts.Client.WriteBehind.Enabled = true;
  Opts.Client.WriteBehind.DeferIssue = false;
  LustreFs Fs(S, Opts);
  std::unique_ptr<ClientFs> C = Fs.makeClient(0);
  MetaReply O = runSync(S, *C, makeOpen("/sz", OpenWrite | OpenCreate));
  ASSERT_TRUE(O.ok());
  EXPECT_EQ(0u, runSync(S, *C, makeStat("/sz")).A.Size); // cached
  ASSERT_TRUE(runSync(S, *C, makeWrite(O.Fh, 12345)).ok());
  EXPECT_EQ(12345u, runSync(S, *C, makeStat("/sz")).A.Size);
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(O.Fh)).Err);
  EXPECT_EQ(12345u, runSync(S, *C, makeStat("/sz")).A.Size);
}

TEST(WriteBehind, LustreClientOptsIntoTheDeferredPipeline) {
  Scheduler S;
  LustreOptions O;
  O.Client.WriteBehind.Enabled = true;
  LustreFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<LustreClient *>(Client.get());

  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  MetaReply F = runSync(S, *C, makeOpen("/d/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(F.ok());
  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(F.Fh)).Err);
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeFsync(InvalidHandle)).Err);
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
  // A queued chmod still shadows the attribute cache (same invalidation
  // hook as the eager discipline).
  MetaReply St = runSync(S, *C, makeStat("/d/f"));
  ASSERT_TRUE(St.ok());
  MetaRequest Chmod;
  Chmod.Op = MetaOp::Chmod;
  Chmod.Path = "/d/f";
  Chmod.Mode = 0700;
  C->submit(Chmod, [](MetaReply R) { ASSERT_TRUE(R.ok()); });
  MetaReply St2 = runSync(S, *C, makeStat("/d/f"));
  EXPECT_EQ(0700u, St2.A.Mode & 0777u);
  LocalFileSystem *Vol = Fs.mds().volume(LustreFs::VolumeName);
  EXPECT_TRUE(Vol->fsck().clean());
}

TEST(WriteBehind, ShardedClientOptsIntoTheDeferredPipeline) {
  Scheduler S;
  ShardedOptions O;
  O.Client.WriteBehind.Enabled = true;
  ShardedFs Fs(S, O);
  std::unique_ptr<ClientFs> Client = Fs.makeClient(0);
  auto *C = static_cast<ShardedClient *>(Client.get());

  ASSERT_EQ(FsError::Ok, runSync(S, *C, makeMkdir("/d")).Err);
  FileHandle Retired = InvalidHandle;
  for (int I = 0; I < 8; ++I) {
    MetaReply F = runSync(
        S, *C, makeOpen("/d/f" + std::to_string(I), OpenWrite | OpenCreate));
    ASSERT_TRUE(F.ok());
    ASSERT_EQ(FsError::Ok, runSync(S, *C, makeClose(F.Fh)).Err);
    Retired = F.Fh;
  }
  EXPECT_EQ(FsError::Ok, runSync(S, *C, makeFsync(InvalidHandle)).Err);
  EXPECT_EQ(0u, C->writeBehind()->dirtyOps());
  // Ops on a retired handle, or on one whose open failed at the server,
  // reach this client as InvalidHandle and fail like an unknown handle.
  EXPECT_EQ(FsError::BadFd, runSync(S, *C, makeClose(Retired)).Err);
  EXPECT_EQ(FsError::BadFd, runSync(S, *C, makeRead(Retired, 1)).Err);
  MetaReply Orphan =
      runSync(S, *C, makeOpen("/missing/f", OpenWrite | OpenCreate));
  ASSERT_TRUE(Orphan.ok()) << "local acks are optimistic";
  EXPECT_EQ(FsError::BadFd, runSync(S, *C, makeRead(Orphan.Fh, 1)).Err);
  EXPECT_EQ(FsError::NoEnt, runSync(S, *C, makeFsync(InvalidHandle)).Err);
  // The files are durably visible through a synchronous reader.
  std::unique_ptr<ClientFs> Reader = Fs.makeClient(1);
  for (int I = 0; I < 8; ++I)
    EXPECT_TRUE(runSync(S, *Reader, makeStat("/d/f" + std::to_string(I))).ok())
        << "/d/f" << I;
}

} // namespace
