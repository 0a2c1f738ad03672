//===- dfs/NfsFs.cpp ------------------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "dfs/NfsFs.h"
#include "support/Format.h"

using namespace dmb;

ServerConfig dmb::makeFilerConfig(const std::string &Name) {
  ServerConfig C;
  C.Name = Name;
  C.CpuThreads = 2; // dual-CPU FAS3050 head
  // Calibrated so one client stream creates ~3k files/s and the filer
  // saturates in the low tens of thousands of metadata ops/s — the
  // magnitudes of thesis Ch. 4.
  C.Costs.BaseMetaOp = microseconds(50);
  C.Costs.PerInodeTouched = microseconds(5);
  C.Costs.PerDirEntryWritten = microseconds(10);
  C.Costs.PerDirEntryScanned = nanoseconds(100);
  // First block allocation of a file: allocation map + indirect updates
  // (visible in the 64- vs 65-byte experiment, \S 4.3.4).
  C.Costs.PerBlockAllocated = microseconds(40);
  C.CommitLatency = microseconds(40); // NVRAM ack for sync metadata
  C.EnableConsistencyPoints = true;
  C.CpInterval = seconds(10.0);
  C.NvramCapacityBytes = 512 * 1024 * 1024;
  C.CpSlowdown = 3.5;
  C.CpFlushBytesPerSec = 60e6;
  // WAFL: hashed directories, 64 bytes of file data live in the inode.
  C.VolumeDefaults.DirIndex = DirIndexKind::Hashed;
  C.VolumeDefaults.InlineDataMax = 64;
  return C;
}

NfsOptions::NfsOptions() : Server(makeFilerConfig()) {}

NfsFs::NfsFs(Scheduler &Sched, NfsOptions Opts)
    : Sched(Sched), Options(std::move(Opts)), Server(Sched, Options.Server) {
  Server.addVolume(VolumeName);
}

std::unique_ptr<ClientFs> NfsFs::makeClient(unsigned NodeIndex) {
  return std::make_unique<NfsClient>(
      ClientBuilder(Sched, Options.Client, NodeIndex), Server, Options);
}

NfsClient::NfsClient(const ClientBuilder &B, FileServer &Server,
                     const NfsOptions &Opts)
    : RpcClientBase(B), Server(Server),
      VolId(Server.volumeId(NfsFs::VolumeName)), NodeIndex(B.nodeIndex()) {
  // stat()/lstat() are answered from the attribute cache within its TTL —
  // the reason StatFiles and StatNocacheFiles differ (\S 3.4.3).
  mountAttrCache(Opts.AttrCacheTtl, Opts.CacheHitCost, AttrFill::PostOp);
  mountWriteBehind(Opts.Client.WriteBehind, &this->Server, VolId);
}

std::string NfsClient::describe() const {
  return format("nfs3 node=%u server=%s", NodeIndex,
                Server.config().Name.c_str());
}

void NfsClient::dispatch(Exchange *X) {
  Server.process(VolId, X->Req, X->Reply, [this, X]() { serverReply(X); });
}

void NfsClient::submitDirect(const MetaRequest &Req, Callback Done) {
  Exchange *X = newExchange(Req, std::move(Done));
  withSlot([this, X]() { transact(X); });
}
