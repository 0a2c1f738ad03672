//===- dfs/VolumeFs.cpp ---------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/VolumeFs.h"
#include "dfs/NfsFs.h"
#include "support/Assert.h"
#include "support/Format.h"
#include <algorithm>

using namespace dmb;

VolumeOptions dmb::afsOptions() {
  VolumeOptions O;
  O.Mode = Aggregation::External;
  O.NumServers = 1;
  O.Client = makeClientConfig(microseconds(150), 4);
  // A user-space fileserver process serializes operations per volume
  // server; per-op costs are several times those of a kernel NFS filer.
  O.Server.Name = "afs-fs";
  O.Server.CpuThreads = 1;
  O.Server.Costs.BaseMetaOp = microseconds(250);
  O.Server.Costs.PerInodeTouched = microseconds(8);
  O.Server.Costs.PerDirEntryWritten = microseconds(15);
  O.Server.Costs.PerDirEntryScanned = nanoseconds(150);
  O.Server.CommitLatency = microseconds(60);
  O.Server.VolumeDefaults.DirIndex = DirIndexKind::Hashed;
  O.AttrCacheTtl = 0; // callbacks keep an entry valid until broken
  O.CacheHitCost = microseconds(3);
  O.VldbLookupCost = microseconds(80);
  return O;
}

VolumeOptions dmb::gxOptions() {
  VolumeOptions O;
  O.Mode = Aggregation::Internal;
  O.NumServers = 8;
  O.Client = makeClientConfig(microseconds(100), 16);
  O.Server = makeFilerConfig("gx-filer");
  // Keep scaling experiments free of consistency-point noise; the CP model
  // can be re-enabled per experiment.
  O.Server.EnableConsistencyPoints = false;
  O.AttrCacheTtl = seconds(30.0);
  O.CacheHitCost = microseconds(2);
  O.NbladeCost = microseconds(20);
  O.ForwardExtraCost = microseconds(15);
  O.ClusterHopLatency = microseconds(50);
  return O;
}

VolumeFs::VolumeFs(Scheduler &Sched, VolumeOptions Opts)
    : Sched(Sched), Options(std::move(Opts)) {
  DMB_ASSERT(Options.NumServers > 0, "the root volume needs a server");
  for (unsigned I = 0; I < Options.NumServers; ++I)
    addServer();
  // Root volume on server 0 so "/" always resolves.
  addVolume("/", 0);
}

VolumeFs::~VolumeFs() {
  for (ClientSlot &S : Slots)
    if (S.Client)
      S.Client->Cell = nullptr; // it must not reach back into the cluster
}

std::string VolumeFs::name() const {
  return Options.Mode == Aggregation::External ? "afs" : "ontapgx";
}

void VolumeFs::addServer() {
  ServerConfig C = Options.Server;
  C.Name = format("%s%u", Options.Server.Name.c_str(), numServers());
  Servers.push_back(std::make_unique<FileServer>(Sched, C));
}

void VolumeFs::addVolume(const std::string &MountPrefix,
                         unsigned ServerIndex) {
  DMB_ASSERT(ServerIndex < Servers.size(), "no such server");
  std::string VolumeName =
      MountPrefix == "/" ? std::string("root") : MountPrefix.substr(1);
  Servers[ServerIndex]->addVolume(VolumeName);
  Vldb.add(MountPrefix, ServerIndex, VolumeName);
}

void VolumeFs::setupUniform(unsigned NewServers, unsigned NumVolumes) {
  unsigned First = NewServers ? numServers() : 0;
  for (unsigned S = 0; S < NewServers; ++S)
    addServer();
  unsigned Count = numServers() - First;
  for (unsigned V = 0; V < NumVolumes; ++V)
    addVolume(format("/vol%u", V), First + V % Count);
}

bool VolumeFs::moveVolume(const std::string &MountPrefix,
                          unsigned NewServer) {
  if (NewServer >= Servers.size())
    return false;
  const MountEntry *Mount = Vldb.resolve(MountPrefix);
  if (!Mount || Mount->Prefix != MountPrefix)
    return false;
  if (Mount->ServerIndex == NewServer)
    return true;
  std::unique_ptr<LocalFileSystem> Vol =
      Servers[Mount->ServerIndex]->removeVolume(Mount->Volume);
  if (!Vol)
    return false;
  Servers[NewServer]->adoptVolume(Mount->Volume, std::move(Vol));
  return Vldb.setServer(MountPrefix, NewServer);
}

std::unique_ptr<ClientFs> VolumeFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<VolumeClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), *this);
}

void VolumeFs::promise(std::string_view Path, uint32_t Slot) {
  Promise &P = *Promises.tryEmplace(Path).first;
  if (P.Length >= P.PruneAt) {
    P.Length = 0;
    for (uint32_t *Link = &P.First; *Link != NoHolder;) {
      uint32_t H = *Link;
      if (live(Holders[H])) {
        ++P.Length;
        Link = &Holders[H].Next;
      } else {
        *Link = Holders[H].Next;
        freeHolder(H);
      }
    }
    P.PruneAt = 2 * std::max(P.Length, 1u);
  }
  uint32_t H = FreeHolders;
  if (H != NoHolder) {
    FreeHolders = Holders[H].Next;
  } else {
    H = Holders.size();
    Holders.emplace_back();
  }
  Holders[H] = Holder{Slot, Slots[Slot].Gen, P.First};
  P.First = H;
  ++P.Length;
}

void VolumeFs::breakPromise(const Promise &P) {
  for (uint32_t H = P.First; H != NoHolder;) {
    uint32_t Next = Holders[H].Next;
    if (live(Holders[H])) {
      Slots[Holders[H].Slot].Client->attrCache()->invalidate(P.Path);
      ++Broken;
    }
    freeHolder(H);
    H = Next;
  }
}

void VolumeFs::breakCallbacks(MetaOp Op, std::string_view Path,
                              std::string_view Path2) {
  if (Op == MetaOp::Rename) {
    // A renamed directory takes its subtree along; a replaced target may
    // have been a directory too. The scan visits each promise once.
    Promises.eraseIf([&](const Promise &P) {
      if (!isAtOrBelow(P.Path, Path) && !isAtOrBelow(P.Path, Path2))
        return false;
      breakPromise(P);
      return true;
    });
    return;
  }
  auto Break = [this](std::string_view Name) {
    if (const Promise *P = Promises.find(Name)) {
      breakPromise(*P);
      Promises.erase(P);
    }
  };
  Break(Path);
  if (Op == MetaOp::Link)
    Break(Path2);
}

void VolumeFs::breakStore(uint64_t PathHash) {
  if (const Promise *P = Promises.findByHash(PathHash)) {
    breakPromise(*P);
    Promises.erase(P);
  }
}

VolumeClient::VolumeClient(const ClientBuilder &B, VolumeFs &Cell)
    : RpcClientBase(B), Cell(&Cell), NodeIndex(B.nodeIndex()),
      // Client mounts are distributed ~uniformly over the filer network
      // interfaces (\S 4.1.3).
      Nblade(B.nodeIndex() % Cell.numServers()), Slot(Cell.Slots.size()) {
  const VolumeOptions &O = Cell.options();
  mountAttrCache(O.AttrCacheTtl, O.CacheHitCost,
                 O.Mode == Aggregation::External ? AttrFill::StatOnly
                                                 : AttrFill::PostOp);
  Cell.Slots.push_back({this, 0});
}

VolumeClient::~VolumeClient() {
  if (Cell)
    Cell->Slots[Slot].Client = nullptr; // no promise reaches it any more
}

void VolumeClient::dropCaches() {
  RpcClientBase::dropCaches();
  if (Cell)
    ++Cell->Slots[Slot].Gen; // every promise made to this client lapses
}

std::string VolumeClient::describe() const {
  if (Cell->options().Mode == Aggregation::External)
    return format("afs node=%u cell-servers=%u", NodeIndex,
                  Cell->numServers());
  return format("ontapgx node=%u nblade=%u filers=%u", NodeIndex, Nblade,
                Cell->numServers());
}

void VolumeClient::submitDirect(const MetaRequest &Req, Callback Done) {
  const VolumeOptions &O = Cell->options();
  Exchange *X;
  if (ClientHandles::routesByHandle(Req)) {
    std::optional<ClientHandles::Target> H = Handles.unwrap(Req);
    if (!H) {
      failLocally(FsError::BadFd, std::move(Done));
      return;
    }
    X = newExchange(Req, std::move(Done));
    X->ServerFh = H->ServerFh;
    X->Server = H->Server;
    X->VolId = H->VolId;
  } else {
    // In spite of the single namespace, the server rejects moves between
    // separate volumes (XDev).
    FsError Err = FsError::Ok;
    const MountEntry *Mount = Cell->vldb().route(Req, Err);
    if (!Mount) {
      failLocally(Err, std::move(Done));
      return;
    }
    X = newExchange(Req, std::move(Done));
    X->Server = Mount->ServerIndex;
    X->VolId = Cell->server(Mount->ServerIndex).volumeId(Mount->Volume);
    X->MountPrefixLen = Mount->prefixLength();
    if (O.Mode == Aggregation::External) {
      // A first access to a volume pays the VLDB lookup on top of the
      // request hop — modelled as SendExtra so retransmits do not pay it
      // again.
      size_t Entry = Mount - Cell->vldb().entries().data();
      KnownVolumes.resize(Cell->vldb().size());
      if (!KnownVolumes[Entry]) {
        KnownVolumes[Entry] = true;
        X->SendExtra = O.VldbLookupCost;
      }
    }
  }
  withSlot([this, X]() { transact(X); });
}

void VolumeClient::execute(Exchange *X, std::function<void()> Done) {
  if (ClientHandles::routesByHandle(X->Req)) {
    ServerReq = X->Req;
    ServerReq.Fh = X->ServerFh;
  } else {
    MountTable::toVolume(X->Req, X->MountPrefixLen, ServerReq);
  }
  Cell->server(X->Server).process(X->VolId, ServerReq, X->Reply,
                                  std::move(Done));
}

void VolumeClient::dispatch(Exchange *X) {
  const VolumeOptions &O = Cell->options();
  if (O.Mode == Aggregation::External) {
    execute(X, [this, X]() { serverReply(X); });
    return;
  }
  // N-blade: TCP termination + translation to the internal protocol, then
  // either the local D-blade or a forwarded hop over the cluster fabric to
  // the owning D-blade and back (Fig. 4.3: at most two nodes touch a
  // request).
  SimDuration Translate =
      O.NbladeCost + (X->Server != Nblade ? O.ForwardExtraCost : 0);
  Cell->server(Nblade).injectWork(Translate, [this, X]() {
    if (X->Server == Nblade) {
      execute(X, [this, X]() { serverReply(X); });
      return;
    }
    // Continuations capture only {this, X}: a std::function keeps that
    // inline.
    sched().after(Cell->options().ClusterHopLatency, [this, X]() {
      execute(X, [this, X]() {
        sched().after(Cell->options().ClusterHopLatency, [this, X]() {
          // The reply passes back through the N-blade.
          Cell->server(Nblade).injectWork(Cell->options().ForwardExtraCost,
                                          [this, X]() { serverReply(X); });
        });
      });
    });
  });
}

void VolumeClient::finish(Exchange *X) {
  const MetaRequest &Req = X->Req;
  if (X->Reply.ok()) {
    if (Cell->options().Mode == Aggregation::External) {
      // Callback promises: a stat reply the cache is about to take earns
      // one, and a mutation, a creating open or a store breaks those on
      // what it changed, for every holder.
      if (Req.Op == MetaOp::Stat || Req.Op == MetaOp::Lstat) {
        if (!attrCache()->contains(Req.Path))
          Cell->promise(Req.Path, Slot);
      } else if (Req.Op == MetaOp::Write || Req.Op == MetaOp::Ftruncate) {
        if (std::optional<uint64_t> PathHash = openPathHash(Req.Fh))
          Cell->breakStore(*PathHash);
      } else if (isMutation(Req.Op) ||
                 (Req.Op == MetaOp::Open && (Req.Flags & OpenCreate))) {
        Cell->breakCallbacks(Req.Op, Req.Path, Req.Path2);
      }
    }
    if (Req.Op == MetaOp::Open)
      X->Reply.Fh = Handles.wrap(X->Server, X->VolId, X->Reply.Fh);
  }
  RpcClientBase::finish(X);
}
