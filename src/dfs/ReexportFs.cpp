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
    : RpcClientBase(B), Gateway(Gateway), NodeIndex(B.nodeIndex()),
      Cache(Gateway.Options.AttrCacheTtl) {}

std::string ReexportClient::describe() const {
  return format("nfs3 node=%u gateway-for=%s", NodeIndex,
                Gateway.Inner.name().c_str());
}

void ReexportClient::submit(const MetaRequest &Req, Callback Done) {
  // Plain NFS semantics toward the client: TTL attribute cache.
  if (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat) {
    if (std::optional<Attr> A = Cache.lookup(Req.Path, sched().now())) {
      sched().after(Gateway.Options.CacheHitCost,
                    [Done = std::move(Done), A = *A]() {
                      MetaReply Reply;
                      Reply.A = A;
                      Done(Reply);
                    });
      return;
    }
  }

  Exchange *X = newExchange(Req, std::move(Done));
  withSlot([this, X]() { transact(X); });
}

void ReexportClient::dispatch(Exchange *X) {
  Gateway.forward(X->Req, replyTo(X));
}

void ReexportClient::finish(Exchange *X) {
  const MetaRequest &Req = X->Req;
  if (X->Reply.ok() && (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat ||
                        Req.Op == MetaOp::Open))
    Cache.insert(Req.Path, X->Reply.A, sched().now());
  if (isMutation(Req.Op))
    Cache.invalidate(Req.Path);
  slotDone();
  complete(X);
}
