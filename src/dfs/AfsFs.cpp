//===- dfs/AfsFs.cpp ------------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/AfsFs.h"
#include "support/Assert.h"
#include "support/Format.h"
#include <algorithm>

using namespace dmb;

ServerConfig dmb::makeAfsServerConfig(const std::string &Name) {
  ServerConfig C;
  C.Name = Name;
  // A user-space fileserver process serializes operations per volume
  // server; per-op costs are several times those of a kernel NFS filer.
  C.CpuThreads = 1;
  C.Costs.BaseMetaOp = microseconds(250);
  C.Costs.PerInodeTouched = microseconds(8);
  C.Costs.PerDirEntryWritten = microseconds(15);
  C.Costs.PerDirEntryScanned = nanoseconds(150);
  C.CommitLatency = microseconds(60);
  C.VolumeDefaults.DirIndex = DirIndexKind::Hashed;
  return C;
}

AfsOptions::AfsOptions() : ServerDefaults(makeAfsServerConfig()) {}

AfsFs::AfsFs(Scheduler &Sched, AfsOptions Opts)
    : Sched(Sched), Options(std::move(Opts)) {
  // Every cell has at least a root volume on a first server.
  addServer("afs-fs0");
  addVolume("/", 0);
}

AfsFs::~AfsFs() {
  for (AfsClient *C : Clients)
    C->cellDestroyed();
}

unsigned AfsFs::addServer(const std::string &Name) {
  ServerConfig C = Options.ServerDefaults;
  C.Name = Name;
  Servers.push_back(std::make_unique<FileServer>(Sched, C));
  return Servers.size() - 1;
}

void AfsFs::addVolume(const std::string &MountPrefix, unsigned ServerIndex) {
  DMB_ASSERT(ServerIndex < Servers.size(), "no such server");
  std::string VolumeName =
      MountPrefix == "/" ? std::string("root") : MountPrefix.substr(1);
  Servers[ServerIndex]->addVolume(VolumeName);
  Vldb.add(MountPrefix, ServerIndex, VolumeName);
}

void AfsFs::setupUniform(unsigned NumServers, unsigned VolumesPerServer) {
  unsigned FirstNew = Servers.size();
  for (unsigned S = 0; S < NumServers; ++S)
    addServer(format("afs-fs%u", FirstNew + S));
  for (unsigned V = 0; V < NumServers * VolumesPerServer; ++V)
    addVolume(format("/vol%u", V), FirstNew + V % NumServers);
}

bool AfsFs::moveVolume(const std::string &MountPrefix, unsigned NewServer) {
  if (NewServer >= Servers.size())
    return false;
  std::string Rel;
  const MountEntry *Mount = Vldb.resolve(MountPrefix, Rel);
  if (!Mount || Mount->Prefix != MountPrefix || Rel != "/")
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

void AfsFs::breakCallbacks(const AfsClient *Origin, const std::string &Path) {
  for (AfsClient *C : Clients)
    if (C != Origin)
      C->invalidatePath(Path);
}

void AfsFs::unregisterClient(AfsClient *C) {
  Clients.erase(std::remove(Clients.begin(), Clients.end(), C),
                Clients.end());
}

std::unique_ptr<ClientFs> AfsFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<AfsClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), *this);
}

AfsClient::AfsClient(const ClientBuilder &B, AfsFs &Cell)
    : RpcClientBase(B), Cell(Cell), NodeIndex(B.nodeIndex()), Cache(/*Ttl=*/0) {
  Cell.registerClient(this);
}

AfsClient::~AfsClient() {
  if (CellAlive)
    Cell.unregisterClient(this);
}

std::string AfsClient::describe() const {
  return format("afs node=%u cell-servers=%u", NodeIndex,
                Cell.numServers());
}

SimDuration AfsClient::vldbCost(const std::string &Volume) {
  if (KnownVolumes.count(Volume))
    return 0;
  KnownVolumes.insert(Volume);
  return Cell.options().VldbLookupCost;
}

void AfsClient::rpc(unsigned ServerIndex, const std::string &Volume,
                    const MetaRequest &Req, const std::string &FullPath,
                    Callback Done) {
  Exchange *X = newExchange(
      Req, [this, ServerIndex, Volume, Op = Req.Op, Flags = Req.Flags,
            FullPath, Done = std::move(Done)](MetaReply Reply) mutable {
        if (Reply.ok()) {
          if (Op == MetaOp::Stat || Op == MetaOp::Lstat)
            Cache.insert(FullPath, Reply.A, sched().now());
          if (isMutation(Op) || (Op == MetaOp::Open && (Flags & OpenCreate))) {
            Cache.invalidate(FullPath);
            Cell.breakCallbacks(this, FullPath);
          }
          if (Op == MetaOp::Open) {
            // Wrap the server handle in a client-local handle so handles
            // from different volumes cannot collide.
            FileHandle Local = NextLocalFh++;
            Handles[Local] = HandleInfo{ServerIndex, Volume, Reply.Fh};
            Reply.Fh = Local;
          }
        }
        slotDone();
        Done(std::move(Reply));
      });
  X->Server = ServerIndex;
  X->VolId = Cell.server(ServerIndex).volumeId(Volume);
  // A first access to a volume pays the VLDB lookup on top of the request
  // hop — modelled as SendExtra so retransmits do not pay it again.
  X->SendExtra = vldbCost(Volume);
  withSlot([this, X]() { transact(X); });
}

void AfsClient::dispatch(Exchange *X) {
  Cell.server(X->Server).process(X->VolId, X->Req, X->Reply,
                                 [this, X]() { serverReply(X); });
}

void AfsClient::submit(const MetaRequest &Req, Callback Done) {
  // Handle-based operations route via the handle's volume.
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
    rpc(Info.ServerIndex, Info.Volume, Fwd, Req.Path, std::move(Done));
    return;
  }

  std::string Rel;
  const MountEntry *Mount = Cell.vldb().resolve(Req.Path, Rel);
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
    const MountEntry *Mount2 = Cell.vldb().resolve(Req.Path2, Rel2);
    // Moving between separately managed volumes is impossible (\S 2.6.3:
    // "atomic rename" — NFS3ERR_XDEV analogue).
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
      sched().after(Cell.options().CacheHitCost,
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
