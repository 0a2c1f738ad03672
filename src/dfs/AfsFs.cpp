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

void AfsFs::breakCallbacks(MetaOp Op, std::string_view Path,
                           std::string_view Path2) {
  for (AfsClient *C : Clients)
    C->dropStale(Op, Path, Path2);
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

void AfsClient::dropStale(MetaOp Op, std::string_view Path,
                          std::string_view Path2) {
  if (isMutation(Op))
    Cache.invalidateMutated(Op, Path, Path2);
  else
    Cache.invalidate(Path); // a creating open
}

void AfsClient::rpc(unsigned ServerIndex, uint32_t VolId, SimDuration Vldb,
                    const MetaRequest &Req, const MetaRequest &Full,
                    Callback Done) {
  Exchange *X = newExchange(
      Req, [this, ServerIndex, VolId, Op = Req.Op, Flags = Req.Flags,
            FullPath = Full.Path, FullPath2 = Full.Path2,
            Done = std::move(Done)](MetaReply Reply) mutable {
        if (Reply.ok()) {
          if (Op == MetaOp::Stat || Op == MetaOp::Lstat)
            Cache.insert(FullPath, Reply.A, sched().now());
          if (isMutation(Op) || (Op == MetaOp::Open && (Flags & OpenCreate)))
            Cell.breakCallbacks(Op, FullPath, FullPath2);
          if (Op == MetaOp::Open)
            Reply.Fh = Handles.wrap(ServerIndex, VolId, Reply.Fh);
        }
        slotDone();
        Done(std::move(Reply));
      });
  X->Server = ServerIndex;
  X->VolId = VolId;
  // A first access to a volume pays the VLDB lookup on top of the request
  // hop — modelled as SendExtra so retransmits do not pay it again.
  X->SendExtra = Vldb;
  withSlot([this, X]() { transact(X); });
}

void AfsClient::dispatch(Exchange *X) {
  Cell.server(X->Server).process(X->VolId, X->Req, X->Reply,
                                 [this, X]() { serverReply(X); });
}

void AfsClient::submitDirect(const MetaRequest &Req, Callback Done) {
  // Handle-based operations route via the handle's volume, which the
  // handle's open already looked up in the VLDB.
  if (Req.Fh != InvalidHandle && Req.Op != MetaOp::Open) {
    MetaRequest Fwd = Req;
    if (std::optional<ClientHandles::Target> H = Handles.unwrap(Fwd))
      rpc(H->Server, H->VolId, /*Vldb=*/0, Fwd, Req, std::move(Done));
    else
      failLocally(FsError::BadFd, std::move(Done));
    return;
  }
  MetaRequest Fwd;
  FsError Err = FsError::Ok;
  const MountEntry *Mount = Cell.vldb().route(Req, Fwd, Err);
  if (!Mount) {
    failLocally(Err, std::move(Done));
    return;
  }
  if (answerFromCache(Cache, Cell.options().CacheHitCost, Req, Done))
    return;
  rpc(Mount->ServerIndex,
      Cell.server(Mount->ServerIndex).volumeId(Mount->Volume),
      vldbCost(Mount->Volume), Fwd, Req, std::move(Done));
}
