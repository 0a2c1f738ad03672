//===- dfs/FileServer.cpp -------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/FileServer.h"
#include "sim/HappensBefore.h"
#include "sim/Trace.h"
#include "support/Assert.h"
#include <algorithm>

using namespace dmb;

FileServer::FileServer(Scheduler &Sched, ServerConfig C)
    : Sched(Sched), Config(std::move(C)),
      Cpu(Sched, Config.Name + ".cpu", Config.CpuThreads),
      Drc(Config.DuplicateRequestCacheSize) {}

LocalFileSystem &FileServer::addVolume(const std::string &Name) {
  return addVolume(Name, Config.VolumeDefaults);
}

LocalFileSystem &FileServer::addVolume(const std::string &Name,
                                       FsConfig VolConfig) {
  uint32_t Id = volumeId(Name);
  if (Id >= Volumes.size())
    Volumes.resize(Id + 1);
  auto Vol = std::make_unique<LocalFileSystem>(VolConfig);
  LocalFileSystem &Ref = *Vol;
  Volumes[Id] = std::move(Vol);
  return Ref;
}

LocalFileSystem *FileServer::volume(const std::string &Name) {
  uint32_t Id = VolumeIds.find(Name);
  return Id == Interner::None ? nullptr : volume(Id);
}

std::unique_ptr<LocalFileSystem>
FileServer::removeVolume(const std::string &Name) {
  uint32_t Id = VolumeIds.find(Name);
  if (Id == Interner::None || Id >= Volumes.size())
    return nullptr;
  // The slot (and the id) stay: requests routed here now find a detached
  // volume and answer ESTALE, exactly as with the old map erase.
  return std::move(Volumes[Id]);
}

void FileServer::adoptVolume(const std::string &Name,
                             std::unique_ptr<LocalFileSystem> Vol) {
  uint32_t Id = volumeId(Name);
  if (Id >= Volumes.size())
    Volumes.resize(Id + 1);
  Volumes[Id] = std::move(Vol);
}

/// The attributes of the file \p Req's handle names, after a successful
/// write or ftruncate: the post-op attributes NFSv3's wcc_data carries.
/// Read under an OpCtx of their own, so they cost nothing: no OpCost, and
/// no simulated time moves.
static Attr postOpAttrs(LocalFileSystem &Vol, const MetaRequest &Req,
                        SimTime Now) {
  OpCtx Ctx;
  Ctx.Creds = Req.Creds;
  Ctx.Now = Now;
  Result<Attr> A = Vol.fstat(Ctx, Req.Fh);
  return A.ok() ? *A : Attr();
}

MetaReply FileServer::execute(LocalFileSystem &Vol, const MetaRequest &Req,
                              SimTime Now, OpCost &Cost) {
  OpCtx Ctx;
  Ctx.Creds = Req.Creds;
  Ctx.Now = Now;
  MetaReply Reply;

  switch (Req.Op) {
  case MetaOp::Mkdir:
    Reply.Err = Vol.mkdir(Ctx, Req.Path, Req.Mode);
    break;
  case MetaOp::Rmdir:
    Reply.Err = Vol.rmdir(Ctx, Req.Path);
    break;
  case MetaOp::Unlink:
    Reply.Err = Vol.unlink(Ctx, Req.Path);
    break;
  case MetaOp::Remove:
    Reply.Err = Vol.remove(Ctx, Req.Path);
    break;
  case MetaOp::Rename:
    Reply.Err = Vol.rename(Ctx, Req.Path, Req.Path2);
    break;
  case MetaOp::Link:
    Reply.Err = Vol.link(Ctx, Req.Path, Req.Path2);
    break;
  case MetaOp::Symlink:
    Reply.Err = Vol.symlink(Ctx, Req.Path2, Req.Path);
    break;
  case MetaOp::Readlink: {
    Result<std::string> R = Vol.readlink(Ctx, Req.Path);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Text = *R;
    break;
  }
  case MetaOp::Stat: {
    Result<Attr> R = Vol.stat(Ctx, Req.Path);
    Reply.Err = R.error();
    if (R.ok())
      Reply.A = *R;
    break;
  }
  case MetaOp::Lstat: {
    Result<Attr> R = Vol.lstat(Ctx, Req.Path);
    Reply.Err = R.error();
    if (R.ok())
      Reply.A = *R;
    break;
  }
  case MetaOp::Chmod:
    Reply.Err = Vol.chmod(Ctx, Req.Path, Req.Mode);
    break;
  case MetaOp::Chown:
    Reply.Err = Vol.chown(Ctx, Req.Path, Req.Uid, Req.Gid);
    break;
  case MetaOp::Utimes:
    Reply.Err = Vol.utimes(Ctx, Req.Path, Req.Atime, Req.Mtime);
    break;
  case MetaOp::Readdir: {
    Result<std::vector<DirEntry>> R = Vol.readdir(Ctx, Req.Path);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Entries = std::move(*R);
    break;
  }
  case MetaOp::ReaddirPlus: {
    Result<std::vector<DirEntry>> R = Vol.readdir(Ctx, Req.Path);
    Reply.Err = R.error();
    if (!R.ok())
      break;
    Reply.Entries = std::move(*R);
    // One server-side pass gathers every entry's attributes — the whole
    // point of the batched protocol (\S 5.3.2): no per-entry round trip.
    std::string Base = Req.Path == "/" ? std::string() : Req.Path;
    for (const DirEntry &E : Reply.Entries) {
      if (E.Name == "." || E.Name == "..")
        continue;
      Result<Attr> A = Vol.lstat(Ctx, Base + "/" + E.Name);
      if (A.ok())
        Reply.EntryAttrs.push_back({E.Name, *A});
    }
    break;
  }
  case MetaOp::Open: {
    Result<FileHandle> R = Vol.open(Ctx, Req.Path, Req.Flags, Req.Mode);
    Reply.Err = R.error();
    if (R.ok()) {
      Reply.Fh = *R;
      // Post-operation attributes, as NFSv3 replies carry them; clients use
      // this to warm their attribute caches.
      if (Result<Attr> A = Vol.fstat(Ctx, *R); A.ok())
        Reply.A = *A;
    }
    break;
  }
  case MetaOp::Close:
    Reply.Err = Vol.close(Ctx, Req.Fh);
    break;
  case MetaOp::Write: {
    Result<uint64_t> R = Vol.write(Ctx, Req.Fh, Req.Bytes);
    Reply.Err = R.error();
    if (R.ok()) {
      Reply.Bytes = *R;
      Reply.A = postOpAttrs(Vol, Req, Now);
    }
    break;
  }
  case MetaOp::Read: {
    Result<uint64_t> R = Vol.read(Ctx, Req.Fh, Req.Bytes);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Bytes = *R;
    break;
  }
  case MetaOp::Seek: {
    Result<uint64_t> R = Vol.seek(Ctx, Req.Fh, Req.Bytes);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Bytes = *R;
    break;
  }
  case MetaOp::Ftruncate:
    Reply.Err = Vol.ftruncate(Ctx, Req.Fh, Req.Bytes);
    if (Reply.ok())
      Reply.A = postOpAttrs(Vol, Req, Now);
    break;
  case MetaOp::Fsync:
    // State is always durable in the in-memory store; fsync only costs time
    // (charged by the server's commit model).
    Reply.Err = FsError::Ok;
    break;
  case MetaOp::Lock:
    Reply.Err = Vol.lockFile(Ctx, Req.Fh, /*Exclusive=*/Req.Flags != 0);
    break;
  case MetaOp::Unlock:
    Reply.Err = Vol.unlockFile(Ctx, Req.Fh);
    break;
  case MetaOp::Setxattr:
    Reply.Err = Vol.setxattr(Ctx, Req.Path, Req.Path2, Req.Value);
    break;
  case MetaOp::Getxattr: {
    Result<std::string> R = Vol.getxattr(Ctx, Req.Path, Req.Path2);
    Reply.Err = R.error();
    if (R.ok())
      Reply.Text = *R;
    break;
  }
  }

  Cost += Ctx.Cost;
  return Reply;
}

void FileServer::noteMutation(const MetaRequest &Req) {
  bool Mutates = isMutation(Req.Op) ||
                 (Req.Op == MetaOp::Open && (Req.Flags & OpenCreate));
  if (!Mutates)
    return;
  DirtyBytes += Config.LogBytesPerMutation;
  DMB_HB_WRITE(Sched, DirtyBytes, "FileServer.DirtyBytes");
  if (Config.EnableConsistencyPoints)
    maybeStartConsistencyPoint();
  else
    DirtyBytes = 0; // No CP model: commits are immediate.
}

void FileServer::maybeStartConsistencyPoint() {
  // Arm the periodic timer on first dirty data: a CP happens at the latest
  // CpInterval after the previous one (WAFL behaviour, \S 4.2.3).
  if (!CpTimerArmed && DirtyBytes > 0) {
    CpTimerArmed = true;
    Sched.after(Config.CpInterval, [this]() {
      CpTimerArmed = false;
      if (DirtyBytes > 0 && !CpActive)
        startConsistencyPoint();
      else if (DirtyBytes > 0)
        maybeStartConsistencyPoint();
    });
  }
  // NVRAM half-full forces an early CP.
  if (!CpActive && DirtyBytes >= Config.NvramCapacityBytes / 2)
    startConsistencyPoint();
}

void FileServer::startConsistencyPoint() {
  DMB_ASSERT(!CpActive, "nested consistency point");
  CpActive = true;
  ++CpCount;
  uint64_t Flushing = DirtyBytes;
  DirtyBytes = 0;
  SimDuration FlushTime = static_cast<SimDuration>(
      static_cast<double>(Flushing) / Config.CpFlushBytesPerSec * 1e9);
  Cpu.setSlowdown(Config.CpSlowdown);
  Sched.after(FlushTime, [this]() {
    Cpu.setSlowdown(1.0);
    CpActive = false;
    if (DirtyBytes >= Config.NvramCapacityBytes / 2)
      startConsistencyPoint();
    else if (DirtyBytes > 0)
      maybeStartConsistencyPoint();
  });
}

MetaReply FileServer::processEager(const std::string &Volume,
                                   const MetaRequest &Req,
                                   std::function<void()> Committed) {
  return processEager(volumeId(Volume), Req, std::move(Committed));
}

MetaReply FileServer::processEager(uint32_t VolId, const MetaRequest &Req,
                                   std::function<void()> Committed) {
  MetaReply Reply;
  admit(VolId, Req, [&](MetaReply &&R) {
    Reply = std::move(R);
    return std::move(Committed);
  });
  return Reply;
}

template <typename FinishFn>
void FileServer::admit(uint32_t VolId, const MetaRequest &Req,
                       FinishFn &&Finish) {
  // Request arrival at the server: from here until the CPU picks it up the
  // operation is queueing, not being serviced.
  Sched.traceStamp(TracePoint::QueueEnter);
  LocalFileSystem *Vol = volume(VolId);
  if (!Vol) {
    // Unknown volume: the distributed-handle equivalent of ESTALE. The
    // request is rejected at arrival without touching the CPU, so its
    // service span is empty — stamp it closed rather than leaving a
    // record that entered the queue and never came out.
    Sched.traceStamp(TracePoint::ServiceStart);
    Sched.traceStamp(TracePoint::ServiceEnd);
    MetaReply Reply;
    Reply.Err = FsError::Stale;
    Sched.after(0, Finish(std::move(Reply)));
    return;
  }

  // Duplicate-request cache lookup (\S 2.6.4 retransmit semantics): a
  // resilient client reuses its (ClientId, Xid) on every retransmit, so a
  // request found here already executed — answer with the original reply
  // instead of double-applying. Only xid-stamped requests can match; the
  // fire-and-forget path never reaches the cache.
  if (Req.Xid != 0 && Req.ClientId != 0 && Config.DuplicateRequestCacheSize) {
    if (const DuplicateRequestCache::Entry *E = Drc.find(drcKey(Req))) {
      ++DrcHits;
      ++Processed;
      DMB_HB_WRITE(Sched, Processed, "FileServer.Processed");
      Cpu.request(Config.DrcHitCost, Finish(Drc.reply(*E).reply()));
      return;
    }
  }

  // Execute at arrival: the CPU queue is FIFO, so arrival order equals
  // service order and state changes serialize exactly as on a real server.
  OpCost Cost;
  MetaReply Reply = execute(*Vol, Req, Sched.now(), Cost);
  // Only successful mutations dirty the NVRAM log: a failed create writes
  // nothing back, so it must not grow the dirty set or drag the next
  // consistency point forward.
  if (Reply.ok())
    noteMutation(Req);

  SimDuration Service = Config.Costs.serviceTime(Cost);
  bool Mutates = isMutation(Req.Op) ||
                 (Req.Op == MetaOp::Open && (Req.Flags & OpenCreate));
  if (Mutates || Req.Op == MetaOp::Fsync)
    Service += Config.CommitLatency;

  uint64_t JournalSeqPlus1 = 0;
  if (Reply.ok() && Mutates && (Journal || !Watchers.empty())) {
    // Journal and watcher interfaces speak names; resolving the id here
    // keeps the string off the hot path above.
    const std::string &VolName = VolumeIds.name(VolId);
    // Asynchronous metadata logging (\S 2.7.1): append now, durable when
    // the server finishes the operation.
    if (Journal)
      if (std::optional<uint64_t> Seq =
              Journal->append(VolName, Req, Sched.now()))
        JournalSeqPlus1 = *Seq + 1;
    // Change notification (\S 2.8.3).
    for (const auto &W : Watchers)
      W(VolName, Req);
  }

  // Duplicate-request cache insert, at execution (not reply) time so a
  // retransmit racing the original's reply still matches. Failed replies
  // are cached too: a retransmitted failed create must observe the same
  // error, not the outcome of a second execution.
  if (Req.Xid != 0 && Req.ClientId != 0 && Config.DuplicateRequestCacheSize &&
      drcCacheable(Req.Op))
    Drc.insert(drcKey(Req), Req.Op,
               DuplicateRequestCache::CachedReply::of(Reply), Req.Path, VolId,
               JournalSeqPlus1);

  std::function<void()> Committed = Finish(std::move(Reply));
  if (JournalSeqPlus1) {
    // The CPU finishing this request means the stable write is done — but
    // the ack may only leave once the journal's per-volume commit frontier
    // reaches this record (log-prefix rule): a 4-thread CPU finishes
    // service out of append order, and acking a dependent op whose
    // predecessor's record is still in flight lets a crash commit the
    // dependent without the predecessor. The ack waits parked under its
    // record's seq; the CPU completion names only the seq.
    uint64_t Seq = JournalSeqPlus1 - 1;
    parkAck(Seq, std::move(Committed));
    Committed = [this, Seq]() { persisted(Seq); };
  }
  if (JitterMean > 0) {
    // Mostly small per-request extras with an occasional heavy hit.
    double Extra = JitterRng.exponential(static_cast<double>(JitterMean));
    if (JitterRng.uniform() < 0.02)
      Extra += JitterRng.exponential(20.0 * static_cast<double>(JitterMean));
    Service += static_cast<SimDuration>(Extra);
  }

  ++Processed;
  DMB_HB_WRITE(Sched, Processed, "FileServer.Processed");

  // Admission control (\S 5.4): a rate-limited tenant's requests wait for
  // their admission slot before consuming server CPU. The state change
  // already happened in arrival order; only time is shaped.
  if (RateLimit *Limit = tenantLimit(Req.Creds.Uid)) {
    SimTime Admit = std::max(Sched.now(), Limit->NextAdmission);
    Limit->NextAdmission = Admit + Limit->Period;
    Sched.at(Admit, [this, Service, Committed = std::move(Committed)]() {
      Cpu.request(Service, std::move(Committed));
    });
    return;
  }

  Cpu.request(Service, std::move(Committed));
}

void FileServer::enableJournal() {
  if (Journal)
    return;
  Journal = std::make_unique<MetadataJournal>();
  Journal->onCommit([this](uint64_t Seq) {
    // Nothing parked: a record committed directly (server-internal
    // execDirect records).
    if (std::function<void()> Ack = takeAck(Seq))
      Ack();
  });
}

void FileServer::persisted(uint64_t Seq) {
  if (Journal->isDiscarded(Seq)) {
    // Crashed before the stable write finished: the record is gone, but
    // the reply still travels (it models a message the server sent before
    // it lost the op's durability, the E29 acked-but-lost window).
    takeAck(Seq)();
    return;
  }
  // Held until the record commits; the onCommit hook releases the ack.
  Journal->commit(Seq);
}

void FileServer::parkAck(uint64_t Seq, std::function<void()> Ack) {
  if (ParkedAcks.empty()) {
    ParkedAcks.resize(16);
    ParkedLo = Seq;
  }
  // Seqs grow, so every ack parked so far is below Seq; skip the released
  // slots at the low end of the window.
  while (ParkedLo < Seq && !parkedSlot(ParkedLo))
    ++ParkedLo;
  if (Seq - ParkedLo >= ParkedAcks.size()) {
    // Grow to hold the window [ParkedLo, Seq], each ack under its seq.
    size_t Cap = ParkedAcks.size();
    while (Seq - ParkedLo >= Cap)
      Cap *= 2;
    std::vector<std::function<void()>> Bigger(Cap);
    for (uint64_t S = ParkedLo; S != Seq; ++S)
      Bigger[S & (Cap - 1)] = std::move(parkedSlot(S));
    ParkedAcks = std::move(Bigger);
  }
  parkedSlot(Seq) = std::move(Ack);
}

std::function<void()> FileServer::takeAck(uint64_t Seq) {
  if (Seq < ParkedLo || Seq - ParkedLo >= ParkedAcks.size())
    return nullptr;
  std::function<void()> Ack = std::move(parkedSlot(Seq));
  parkedSlot(Seq) = nullptr;
  return Ack;
}

uint64_t FileServer::crashAndRecover(const std::string &Volume) {
  if (!Journal)
    return ~0ULL;
  LocalFileSystem *Vol = volume(Volume);
  if (!Vol)
    return ~0ULL;
  // The crash loses everything not yet durable; recovery replays the
  // committed log into a fresh store (\S 2.7.1: redo of the change log).
  // "Durable" is the committed per-volume prefix: a record whose stable
  // write finished but that was held behind an in-flight predecessor sits
  // after a hole in the on-disk log, so the crash discards it too.
  uint64_t Lost = Journal->discardUncommitted(Volume);
  // Release the held acks of discarded records (in seq order): their
  // replies race the crash exactly as an in-service op's reply does, and
  // resilient clients re-execute via retransmission either way. Acks of
  // records still in service stay parked until their CPU completion.
  for (uint64_t Seq = ParkedLo, End = ParkedLo + ParkedAcks.size();
       Seq != End; ++Seq)
    if (Journal->isDiscarded(Seq) && Journal->isPersisted(Seq))
      if (std::function<void()> Ack = takeAck(Seq))
        Ack();
  FsConfig VolConfig = Vol->config();
  auto Fresh = std::make_unique<LocalFileSystem>(VolConfig);
  Journal->replay(Volume, *Fresh);
  uint32_t VolId = VolumeIds.find(Volume);
  Volumes[VolId] = std::move(Fresh);
  // The DRC is journaled with the metadata log: entries whose record
  // committed survive (their effect was replayed, so the cached reply is
  // still the truth), everything else for this volume dies with it. A
  // retransmit of a discarded op then misses here and re-executes against
  // the recovered store — applied exactly once overall.
  Drc.removeIf([this, VolId](const DuplicateRequestCache::Entry &E) {
    return E.VolId == VolId &&
           (E.SeqPlus1 == 0 || !Journal->isCommitted(E.SeqPlus1 - 1));
  });
  return Lost;
}

std::vector<FileServer::DrcExport> FileServer::extractDrcEntries(
    uint32_t VolId, const std::function<bool(const std::string &)> &Match) {
  std::vector<DrcExport> Out;
  Drc.removeIf([&](DuplicateRequestCache::Entry &E) {
    if (E.VolId != VolId || !Match(E.Path))
      return false;
    Out.push_back({E.Key, E.Op, Drc.reply(E), std::move(E.Path)});
    return true;
  });
  std::sort(Out.begin(), Out.end(),
            [](const DrcExport &A, const DrcExport &B) { return A.Key < B.Key; });
  return Out;
}

void FileServer::adoptDrcEntry(uint32_t VolId, uint64_t Key, MetaOp Op,
                               const DuplicateRequestCache::CachedReply &Reply,
                               std::string_view Path, uint64_t SeqPlus1) {
  if (Config.DuplicateRequestCacheSize)
    Drc.insert(Key, Op, Reply, Path, VolId, SeqPlus1);
}

bool FileServer::drcCacheable(MetaOp Op) {
  switch (Op) {
  case MetaOp::Stat:
  case MetaOp::Lstat:
  case MetaOp::Readdir:
  case MetaOp::ReaddirPlus:
  case MetaOp::Readlink:
  case MetaOp::Getxattr:
  case MetaOp::Fsync:
    return false; // idempotent: re-execution is harmless
  default:
    return true;
  }
}

void FileServer::watchMutations(
    std::function<void(const std::string &, const MetaRequest &)> Watcher) {
  Watchers.push_back(std::move(Watcher));
}

void FileServer::setTenantRateLimit(uint32_t Uid, double OpsPerSec) {
  if (OpsPerSec <= 0) {
    std::erase_if(TenantLimits,
                  [Uid](const RateLimit &L) { return L.Uid == Uid; });
    return;
  }
  SimDuration Period = static_cast<SimDuration>(1e9 / OpsPerSec);
  if (RateLimit *Limit = tenantLimit(Uid)) {
    Limit->Period = Period;
    Limit->NextAdmission = Sched.now();
    return;
  }
  TenantLimits.push_back(RateLimit{Uid, Period, Sched.now()});
}

void FileServer::process(const std::string &Volume, const MetaRequest &Req,
                         Callback Done) {
  process(volumeId(Volume), Req, std::move(Done));
}

void FileServer::process(uint32_t VolId, const MetaRequest &Req,
                         Callback Done) {
  admit(VolId, Req, [this, &Done](MetaReply &&R) -> std::function<void()> {
    uint32_t Slot = Replies.park(std::move(Done), std::move(R));
    return [this, Slot]() { Replies.deliver(Slot); };
  });
}

void FileServer::process(uint32_t VolId, const MetaRequest &Req,
                         MetaReply &Reply, std::function<void()> Done) {
  admit(VolId, Req, [&](MetaReply &&R) {
    Reply = std::move(R);
    return std::move(Done);
  });
}

void FileServer::injectWork(SimDuration Service, std::function<void()> Done) {
  if (!Done)
    Done = []() {};
  Cpu.request(Service, std::move(Done));
}

void FileServer::setServiceJitter(SimDuration Mean, uint64_t Seed) {
  JitterMean = Mean;
  JitterRng.reseed(Seed);
}
