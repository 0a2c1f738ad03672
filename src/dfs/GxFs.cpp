//===- dfs/GxFs.cpp -------------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/GxFs.h"
#include "dfs/NfsFs.h"
#include "support/Assert.h"
#include "support/Format.h"

using namespace dmb;

GxOptions::GxOptions() : FilerDefaults(makeFilerConfig("gx-filer")) {
  // Keep scaling experiments free of consistency-point noise; the CP model
  // can be re-enabled per experiment.
  FilerDefaults.EnableConsistencyPoints = false;
}

GxFs::GxFs(Scheduler &Sched, GxOptions Opts)
    : Sched(Sched), Options(std::move(Opts)) {
  for (unsigned I = 0; I < Options.NumFilers; ++I) {
    ServerConfig C = Options.FilerDefaults;
    C.Name = format("gx-filer%u", I);
    Filers.push_back(std::make_unique<FileServer>(Sched, C));
  }
  // Root volume on filer 0 so "/" always resolves.
  Filers[0]->addVolume("root");
  Vldb.add("/", 0, "root");
}

void GxFs::addVolume(const std::string &MountPrefix, unsigned FilerIndex) {
  DMB_ASSERT(FilerIndex < Filers.size(), "no such filer");
  std::string VolumeName =
      MountPrefix == "/" ? std::string("root") : MountPrefix.substr(1);
  Filers[FilerIndex]->addVolume(VolumeName);
  Vldb.add(MountPrefix, FilerIndex, VolumeName);
}

void GxFs::setupUniformVolumes(unsigned NumVolumes) {
  for (unsigned V = 0; V < NumVolumes; ++V)
    addVolume(format("/vol%u", V), V % Filers.size());
}

bool GxFs::moveVolume(const std::string &MountPrefix, unsigned NewFiler) {
  if (NewFiler >= Filers.size())
    return false;
  std::string Rel;
  const MountEntry *Mount = Vldb.resolve(MountPrefix, Rel);
  if (!Mount || Mount->Prefix != MountPrefix || Rel != "/")
    return false;
  if (Mount->ServerIndex == NewFiler)
    return true;
  std::unique_ptr<LocalFileSystem> Vol =
      Filers[Mount->ServerIndex]->removeVolume(Mount->Volume);
  if (!Vol)
    return false;
  Filers[NewFiler]->adoptVolume(Mount->Volume, std::move(Vol));
  return Vldb.setServer(MountPrefix, NewFiler);
}

std::unique_ptr<ClientFs> GxFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<GxClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), *this);
}

GxClient::GxClient(const ClientBuilder &B, GxFs &Cluster)
    : RpcClientBase(B), Cluster(Cluster), NodeIndex(B.nodeIndex()),
      // Client mounts are distributed ~uniformly over the filer network
      // interfaces (\S 4.1.3).
      Nblade(B.nodeIndex() % Cluster.numFilers()),
      Cache(Cluster.options().AttrCacheTtl) {}

std::string GxClient::describe() const {
  return format("ontapgx node=%u nblade=%u filers=%u", NodeIndex, Nblade,
                Cluster.numFilers());
}

void GxClient::rpc(unsigned OwnerIndex, const std::string &Volume,
                   const MetaRequest &Req, const std::string &FullPath,
                   Callback Done) {
  // Back on the client: update caches, wrap handles, free the slot.
  Exchange *X = newExchange(
      Req, [this, OwnerIndex, Volume, Op = Req.Op, FullPath,
            Done = std::move(Done)](MetaReply Reply) mutable {
        if (Reply.ok()) {
          if (Op == MetaOp::Stat || Op == MetaOp::Lstat || Op == MetaOp::Open)
            Cache.insert(FullPath, Reply.A, sched().now());
          if (isMutation(Op))
            Cache.invalidate(FullPath);
          if (Op == MetaOp::Open) {
            // Wrap the server handle in a client-local handle so handles
            // from different volumes cannot collide.
            FileHandle Local = NextLocalFh++;
            Handles[Local] = HandleInfo{OwnerIndex, Volume, Reply.Fh};
            Reply.Fh = Local;
          }
        }
        slotDone();
        Done(std::move(Reply));
      });
  X->Server = OwnerIndex;
  X->VolId = Cluster.filer(OwnerIndex).volumeId(Volume);
  withSlot([this, X]() { transact(X); });
}

// Server side of the exchange: N-blade translation, then either the local
// D-blade or a forwarded hop over the cluster fabric.
void GxClient::dispatch(Exchange *X) {
  const GxOptions &O = Cluster.options();
  SimDuration Translate =
      O.NbladeCost + (X->Server != Nblade ? O.ForwardExtraCost : 0);
  // N-blade: TCP termination + translation to the internal protocol.
  Cluster.filer(Nblade).injectWork(Translate, [this, X]() {
    if (X->Server == Nblade) {
      Cluster.filer(Nblade).process(X->VolId, X->Req, X->Reply,
                                    [this, X]() { serverReply(X); });
      return;
    }
    // Forward over the cluster fabric to the owning D-blade and back
    // (Fig. 4.3: at most two nodes touch a request).
    sched().after(Cluster.options().ClusterHopLatency, [this, X]() {
      Cluster.filer(X->Server)
          .process(X->VolId, X->Req, X->Reply, [this, X]() {
            sched().after(Cluster.options().ClusterHopLatency, [this, X]() {
              // Reply passes back through the N-blade.
              Cluster.filer(Nblade).injectWork(
                  Cluster.options().ForwardExtraCost,
                  [this, X]() { serverReply(X); });
            });
          });
    });
  });
}

void GxClient::submit(const MetaRequest &Req, Callback Done) {
  // Handle-based operations route via the handle's recorded volume.
  if (Req.Fh != InvalidHandle && Req.Op != MetaOp::Open) {
    auto It = Handles.find(Req.Fh);
    if (It == Handles.end()) {
      sched().after(0, [Done = std::move(Done)]() {
        MetaReply Reply;
        Reply.Err = FsError::BadFd;
        Done(Reply);
      });
      return;
    }
    HandleInfo Info = It->second;
    if (Req.Op == MetaOp::Close)
      Handles.erase(It);
    MetaRequest Fwd = Req;
    Fwd.Fh = Info.ServerFh;
    rpc(Info.FilerIndex, Info.Volume, Fwd, Req.Path, std::move(Done));
    return;
  }

  std::string Rel;
  const MountEntry *Mount = Cluster.vldb().resolve(Req.Path, Rel);
  if (!Mount) {
    sched().after(0, [Done = std::move(Done)]() {
      MetaReply Reply;
      Reply.Err = FsError::NoEnt;
      Done(Reply);
    });
    return;
  }

  MetaRequest Fwd = Req;
  Fwd.Path = Rel;
  if (Req.Op == MetaOp::Rename || Req.Op == MetaOp::Link) {
    std::string Rel2;
    const MountEntry *Mount2 = Cluster.vldb().resolve(Req.Path2, Rel2);
    // In spite of the single namespace, the server rejects moves between
    // separate volumes (\S 2.6.3: NFS3ERR_XDEV).
    if (!Mount2 || Mount2->Prefix != Mount->Prefix) {
      sched().after(0, [Done = std::move(Done)]() {
        MetaReply Reply;
        Reply.Err = FsError::XDev;
        Done(Reply);
      });
      return;
    }
    Fwd.Path2 = Rel2;
  }

  if (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat) {
    if (std::optional<Attr> A = Cache.lookup(Req.Path, sched().now())) {
      sched().after(Cluster.options().CacheHitCost,
                    [Done = std::move(Done), A = *A]() {
                      MetaReply Reply;
                      Reply.A = A;
                      Done(Reply);
                    });
      return;
    }
  }

  rpc(Mount->ServerIndex, Mount->Volume, Fwd, Req.Path, std::move(Done));
}
