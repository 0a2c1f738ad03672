//===- dfs/LustreFs.cpp ---------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/LustreFs.h"
#include "support/Format.h"

using namespace dmb;

ServerConfig dmb::makeMdsConfig(const std::string &Name) {
  ServerConfig C;
  C.Name = Name;
  C.CpuThreads = 4;
  // A dedicated MDS has more service threads than a filer head, but each
  // operation carries more protocol work; ldiskfs journals metadata.
  C.Costs.BaseMetaOp = microseconds(90);
  C.Costs.PerInodeTouched = microseconds(4);
  C.Costs.PerDirEntryWritten = microseconds(8);
  C.Costs.PerDirEntryScanned = nanoseconds(120);
  C.CommitLatency = microseconds(20);
  C.EnableConsistencyPoints = false;
  // ldiskfs uses htree directories.
  C.VolumeDefaults.DirIndex = DirIndexKind::BTree;
  return C;
}

LustreOptions::LustreOptions() : Mds(makeMdsConfig()) {}

LustreFs::LustreFs(Scheduler &Sched, LustreOptions Opts)
    : Sched(Sched), Options(std::move(Opts)), Mds(Sched, Options.Mds) {
  Mds.addVolume(VolumeName);
}

std::unique_ptr<ClientFs> LustreFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<LustreClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), Mds, Options);
}

LustreClient::LustreClient(const ClientBuilder &B, FileServer &Mds,
                           const LustreOptions &Opts)
    : RpcClientBase(B), Mds(Mds), VolId(Mds.volumeId(LustreFs::VolumeName)),
      Options(Opts), NodeIndex(B.nodeIndex()), Cache(Opts.AttrCacheTtl) {
  // Mount a write-behind queue when either the explicit policy or the
  // legacy E17 writeback switch asks for one. The legacy switch maps onto
  // the eager discipline with the historical dirty-op limit and ack cost.
  WriteBehindPolicy Policy = Options.Client.WriteBehind;
  if (!Policy.enabled() && Options.WritebackMetadata) {
    Policy.Enabled = true;
    Policy.DeferIssue = false;
    Policy.MaxQueuedOps = Options.MaxDirtyOps;
    Policy.LocalAckCost = Options.LocalAckCost;
  }
  mountWriteBehind(
      WB, Policy,
      [this](const MetaRequest &R, std::function<void(MetaReply)> Reply) {
        rpc(R, std::move(Reply));
      },
      &this->Mds, VolId, &Cache);
}

std::string LustreClient::describe() const {
  return format("lustre node=%u mds=%s writeback=%d", NodeIndex,
                Mds.config().Name.c_str(), Options.WritebackMetadata ? 1 : 0);
}

static bool isCreateLike(const MetaRequest &Req) {
  return Req.Op == MetaOp::Open && (Req.Flags & OpenCreate);
}

void LustreClient::rpc(const MetaRequest &Req, Callback Done) {
  // Creating a file also pre-allocates an object on an OSS; the MDS hides
  // most of this with pre-created object pools — a small extra cost.
  Exchange *X = newExchange(Req, std::move(Done));
  if (isCreateLike(Req))
    X->SendExtra = Options.OssObjectCreateCost;
  withSlot([this, X]() { transact(X); });
}

void LustreClient::dispatch(Exchange *X) {
  Mds.process(VolId, X->Req, X->Reply, [this, X]() { serverReply(X); });
}

void LustreClient::finish(Exchange *X) {
  const MetaRequest &Req = X->Req;
  if (X->Reply.ok()) {
    if (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat)
      Cache.insert(Req.Path, X->Reply.A, sched().now());
    else
      Cache.invalidateMutated(Req);
  }
  slotDone();
  complete(X);
}

void LustreClient::submit(const MetaRequest &Req, Callback Done) {
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
      // A read around queued state: settle exactly the dependency closure
      // this operation can observe, then go to the MDS.
      WB->drainFor(Req, [this, Req, Done = std::move(Done)]() mutable {
        submitDirect(WB->translate(Req), std::move(Done));
      });
      return;
    }
    submitDirect(WB->translate(Req), std::move(Done));
    return;
  }
  if (Req.Op == MetaOp::Fsync) {
    // Nothing is ever dirty on a synchronous client; fsync is local.
    sched().after(Options.LocalAckCost, [Done = std::move(Done)]() {
      MetaReply Reply;
      Done(Reply);
    });
    return;
  }
  submitDirect(Req, std::move(Done));
}

void LustreClient::submitDirect(const MetaRequest &Req, Callback Done) {
  if (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat) {
    if (std::optional<Attr> A = Cache.lookup(Req.Path, sched().now())) {
      replyFromCache(Options.CacheHitCost, *A, std::move(Done));
      return;
    }
  }
  rpc(Req, std::move(Done));
}
