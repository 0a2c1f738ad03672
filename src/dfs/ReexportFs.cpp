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

void ReexportFs::forward(const MetaRequest &Req, ClientFs::Callback Done) {
  ++Forwarded;
  // The gateway's nfsd threads translate NFS to the inner client's
  // protocol stack; the inner file system then does its own work.
  GatewayCpu.request(
      Options.GatewayCostPerRequest,
      [this, Req, Done = std::move(Done)]() mutable {
        InnerClient->submit(Req, [this, Done = std::move(Done)](
                                     MetaReply Reply) {
          // The reply pays gateway translation again on the way out.
          GatewayCpu.request(Options.GatewayCostPerRequest,
                             [Done = std::move(Done),
                              Reply = std::move(Reply)]() {
                               Done(Reply);
                             });
        });
      });
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
  Gateway.forward(X->Req, replyTo(X));
}
