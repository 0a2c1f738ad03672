//===- dfs/CxfsFs.cpp -----------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/CxfsFs.h"
#include "support/Format.h"

using namespace dmb;

ServerConfig dmb::makeCxfsMdsConfig(const std::string &Name) {
  ServerConfig C;
  C.Name = Name;
  C.CpuThreads = 2;
  C.Costs.BaseMetaOp = microseconds(70);
  C.Costs.PerInodeTouched = microseconds(4);
  C.Costs.PerDirEntryWritten = microseconds(8);
  C.CommitLatency = microseconds(25); // metadata log commit
  // XFS-derived: B-tree directories.
  C.VolumeDefaults.DirIndex = DirIndexKind::BTree;
  return C;
}

CxfsOptions::CxfsOptions() : Mds(makeCxfsMdsConfig()) {}

CxfsFs::CxfsFs(Scheduler &Sched, CxfsOptions Opts)
    : Sched(Sched), Options(std::move(Opts)), Mds(Sched, Options.Mds) {
  Mds.addVolume(VolumeName);
}

std::unique_ptr<ClientFs> CxfsFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<CxfsClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), Mds, Options);
}

CxfsClient::CxfsClient(const ClientBuilder &B, FileServer &Mds,
                       const CxfsOptions &Opts)
    : RpcClientBase(B), Mds(Mds), VolId(Mds.volumeId(CxfsFs::VolumeName)),
      TokenOverhead(Opts.TokenOverhead), NodeIndex(B.nodeIndex()),
      Token(sched(), "cxfs.metadata-token") {}

std::string CxfsClient::describe() const {
  return format("cxfs node=%u mds=%s", NodeIndex,
                Mds.config().Name.c_str());
}

void CxfsClient::submitDirect(const MetaRequest &Req, Callback Done) {
  // The node-wide token is held for the whole operation: processes inside
  // one OS instance serialize (\S 4.5.3), while different nodes proceed in
  // parallel up to MDS saturation. Acquiring it costs TokenOverhead on top
  // of the request hop.
  Exchange *X = newExchange(Req, std::move(Done));
  X->SendExtra = TokenOverhead;
  Token.lock([this, X]() { transact(X); });
}

void CxfsClient::dispatch(Exchange *X) {
  Mds.process(VolId, X->Req, X->Reply, [this, X]() { serverReply(X); });
}

void CxfsClient::finish(Exchange *X) {
  Token.unlock();
  complete(X);
}
