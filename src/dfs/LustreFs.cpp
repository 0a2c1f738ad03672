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
      Options(Opts), NodeIndex(B.nodeIndex()) {
  // Attributes are cached under an ldlm lock from stat replies only.
  mountAttrCache(Opts.AttrCacheTtl, Opts.CacheHitCost, AttrFill::StatOnly);
  mountWriteBehind(Options.Client.WriteBehind, &this->Mds, VolId);
}

std::string LustreClient::describe() const {
  // writeback=1 is the eager discipline: the classic write-back cache.
  const WriteBehindQueue *WB = writeBehind();
  return format("lustre node=%u mds=%s writeback=%d", NodeIndex,
                Mds.config().Name.c_str(),
                WB && !WB->policy().DeferIssue ? 1 : 0);
}

void LustreClient::dispatch(Exchange *X) {
  Mds.process(VolId, X->Req, X->Reply, [this, X]() { serverReply(X); });
}

void LustreClient::submitDirect(const MetaRequest &Req, Callback Done) {
  if (Req.Op == MetaOp::Fsync) {
    // Only a client without write-behind gets here, and nothing is ever
    // dirty on it: fsync is local.
    sched().after(Options.Client.WriteBehind.LocalAckCost,
                  [Done = std::move(Done)]() { Done(MetaReply()); });
    return;
  }
  // Creating a file also pre-allocates an object on an OSS; the MDS hides
  // most of this with pre-created object pools — a small extra cost.
  Exchange *X = newExchange(Req, std::move(Done));
  if (Req.Op == MetaOp::Open && (Req.Flags & OpenCreate))
    X->SendExtra = Options.OssObjectCreateCost;
  withSlot([this, X]() { transact(X); });
}
