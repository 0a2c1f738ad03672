//===- dfs/ReexportFs.cpp -------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/ReexportFs.h"
#include "support/Format.h"

using namespace dmb;

ReexportFs::ReexportFs(Scheduler &Sched, DistributedFs &Inner,
                       ReexportOptions Opts, unsigned GatewayNodeIndex)
    : Sched(Sched), Inner(Inner), Options(Opts),
      GatewayCpu(Sched, "reexport-gateway.nfsd", Opts.GatewayThreads),
      InnerClient(Inner.makeClient(GatewayNodeIndex)) {}

std::unique_ptr<ClientFs> ReexportFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<ReexportClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), *this);
}

ReexportClient::ReexportClient(const ClientBuilder &B, ReexportFs &Gateway)
    : RpcClientBase(B), Gateway(Gateway), NodeIndex(B.nodeIndex()) {
  // Plain NFS semantics toward the client: TTL attribute cache.
  mountAttrCache(Gateway.Options.AttrCacheTtl, Gateway.Options.CacheHitCost,
                 AttrFill::PostOp);
}

std::string ReexportClient::describe() const {
  return format("nfs3 node=%u gateway-for=%s", NodeIndex,
                Gateway.Inner.name().c_str());
}

void ReexportClient::submitDirect(const MetaRequest &Req, Callback Done) {
  Exchange *X = newExchange(Req, std::move(Done));
  withSlot([this, X]() { transact(X); });
}

void ReexportClient::dispatch(Exchange *X) {
  ++Gateway.Forwarded;
  // The gateway's nfsd threads translate NFS to the inner client's
  // protocol stack; the inner file system then does its own work, and the
  // reply pays gateway translation again on the way out.
  Gateway.GatewayCpu.request(
      Gateway.Options.GatewayCostPerRequest, [this, X]() {
        Gateway.InnerClient->submit(X->Req, [this, X](MetaReply Reply) {
          X->Reply = std::move(Reply);
          Gateway.GatewayCpu.request(Gateway.Options.GatewayCostPerRequest,
                                     [this, X]() { serverReply(X); });
        });
      });
}
