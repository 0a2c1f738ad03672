//===- dfs/NfsFs.cpp ------------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/NfsFs.h"
#include "support/Format.h"

using namespace dmb;

ServerConfig dmb::makeFilerConfig(const std::string &Name) {
  ServerConfig C;
  C.Name = Name;
  C.CpuThreads = 2; // dual-CPU FAS3050 head
  // Calibrated so one client stream creates ~3k files/s and the filer
  // saturates in the low tens of thousands of metadata ops/s — the
  // magnitudes of thesis Ch. 4.
  C.Costs.BaseMetaOp = microseconds(50);
  C.Costs.PerInodeTouched = microseconds(5);
  C.Costs.PerDirEntryWritten = microseconds(10);
  C.Costs.PerDirEntryScanned = nanoseconds(100);
  // First block allocation of a file: allocation map + indirect updates
  // (visible in the 64- vs 65-byte experiment, \S 4.3.4).
  C.Costs.PerBlockAllocated = microseconds(40);
  C.CommitLatency = microseconds(40); // NVRAM ack for sync metadata
  C.EnableConsistencyPoints = true;
  C.CpInterval = seconds(10.0);
  C.NvramCapacityBytes = 512 * 1024 * 1024;
  C.CpSlowdown = 3.5;
  C.CpFlushBytesPerSec = 60e6;
  // WAFL: hashed directories, 64 bytes of file data live in the inode.
  C.VolumeDefaults.DirIndex = DirIndexKind::Hashed;
  C.VolumeDefaults.InlineDataMax = 64;
  return C;
}

NfsOptions::NfsOptions() : Server(makeFilerConfig()) {}

NfsFs::NfsFs(Scheduler &Sched, NfsOptions Opts)
    : Sched(Sched), Options(std::move(Opts)), Server(Sched, Options.Server) {
  Server.addVolume(VolumeName);
}

std::unique_ptr<ClientFs> NfsFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<NfsClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), Server, Options);
}

NfsClient::NfsClient(const ClientBuilder &B, FileServer &Server,
                     const NfsOptions &Opts)
    : RpcClientBase(B), Server(Server),
      VolId(Server.volumeId(NfsFs::VolumeName)), Options(Opts),
      NodeIndex(B.nodeIndex()), Cache(Opts.AttrCacheTtl) {
  mountWriteBehind(
      WB, Options.Client.WriteBehind,
      [this](const MetaRequest &R, std::function<void(MetaReply)> Reply) {
        rpc(R, std::move(Reply));
      },
      &this->Server, VolId, &Cache);
}

std::string NfsClient::describe() const {
  return format("nfs3 node=%u server=%s", NodeIndex,
                Server.config().Name.c_str());
}

void NfsClient::postProcess(const MetaRequest &Req, const MetaReply &Reply) {
  if (!Reply.ok())
    return;
  switch (Req.Op) {
  case MetaOp::Stat:
  case MetaOp::Lstat:
    Cache.insert(Req.Path, Reply.A, sched().now());
    break;
  case MetaOp::Open:
    // NFSv3 replies carry post-op attributes; cache them so a stat() right
    // after creating a file is served locally (\S 3.4.3).
    Cache.insert(Req.Path, Reply.A, sched().now());
    break;
  case MetaOp::ReaddirPlus: {
    // READDIRPLUS warms the attribute cache for every entry at once
    // (\S 5.3.2) — subsequent stat()s are local.
    std::string Base = Req.Path == "/" ? std::string() : Req.Path;
    for (const auto &[Name, A] : Reply.EntryAttrs)
      Cache.insert(Base + "/" + Name, A, sched().now());
    break;
  }
  default:
    Cache.invalidateMutated(Req);
    break;
  }
}

void NfsClient::rpc(const MetaRequest &Req, Callback Done) {
  Exchange *X = newExchange(Req, std::move(Done));
  withSlot([this, X]() { transact(X); });
}

void NfsClient::dispatch(Exchange *X) {
  Server.process(VolId, X->Req, X->Reply, [this, X]() { serverReply(X); });
}

void NfsClient::finish(Exchange *X) {
  postProcess(X->Req, X->Reply);
  slotDone();
  complete(X);
}

void NfsClient::submit(const MetaRequest &Req, Callback Done) {
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

void NfsClient::submitDirect(const MetaRequest &Req, Callback Done) {
  // stat()/lstat() can be answered from the attribute cache within its TTL
  // — the reason StatFiles and StatNocacheFiles differ (\S 3.4.3).
  if (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat) {
    if (std::optional<Attr> A = Cache.lookup(Req.Path, sched().now())) {
      sched().after(Options.CacheHitCost,
                    [Done = std::move(Done), A = *A]() {
                      MetaReply Reply;
                      Reply.A = A;
                      Done(Reply);
                    });
      return;
    }
  }
  rpc(Req, std::move(Done));
}
