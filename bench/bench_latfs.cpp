//===- bench/bench_latfs.cpp - E24: §3.1.3 lat_fs baseline ----------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lmbench lat_fs baseline (thesis \S 3.1.3): the "file system
/// latency" — time to create and to delete a file — measured for every
/// simulated file system, for 0-byte and 10 KB files, like McVoy's
/// original tables. Single-threaded by design, which is precisely the
/// limitation (\S 3.1.4) that motivates DMetabench's parallelism.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace dmbbench;

namespace {

struct Latency {
  double CreateUs = 0;
  double DeleteUs = 0;
};

/// Measures single-op latency directly against one client.
Latency measure(Scheduler &S, ClientFs &C, uint64_t Size, int Iters) {
  auto Sync = [&S, &C](MetaRequest Req) {
    MetaReply Out;
    bool Got = false;
    C.submit(std::move(Req), [&Out, &Got](MetaReply R) {
      Out = std::move(R);
      Got = true;
    });
    // Step only until the reply lands: background timers (e.g. the 10 s
    // consistency-point flush) must not count into the latency.
    while (!Got && S.step()) {
    }
    DMB_CHECK(Out.ok(), "latency probe op failed");
    return Out.Fh;
  };
  Latency L;
  for (int I = 0; I < Iters; ++I) {
    std::string Path = format("/lat%d-%llu", I, (unsigned long long)Size);
    SimTime T0 = S.now();
    FileHandle Fh = Sync(makeOpen(Path, OpenWrite | OpenCreate));
    if (Size)
      Sync(makeWrite(Fh, Size));
    Sync(makeClose(Fh));
    L.CreateUs += toSeconds(S.now() - T0) * 1e6;
    T0 = S.now();
    Sync(makeUnlink(Path));
    L.DeleteUs += toSeconds(S.now() - T0) * 1e6;
  }
  L.CreateUs /= Iters;
  L.DeleteUs /= Iters;
  return L;
}

} // namespace

int main() {
  banner("E24 bench_latfs", "thesis §3.1.3 (lmbench lat_fs baseline)",
         "Single-stream file create/delete latency per file system, 0 KB "
         "and 10 KB files.");

  TextTable T;
  T.setHeader({"file system", "create 0k [us]", "delete 0k [us]",
               "create 10k [us]", "delete 10k [us]"});

  Scheduler S;
  NfsFs Nfs(S);
  LustreFs Lustre(S);
  CxfsFs Cxfs(S);
  VolumeFs Afs(S, afsOptions());
  VolumeFs Gx(S, gxOptions());
  LocalFsModel Local(S);
  struct Entry {
    const char *Name;
    DistributedFs *Fs;
  } Systems[] = {{"localfs", &Local}, {"nfs", &Nfs},   {"lustre", &Lustre},
                 {"cxfs", &Cxfs},     {"ontapgx", &Gx}, {"afs", &Afs}};
  for (const Entry &E : Systems) {
    std::unique_ptr<ClientFs> C = E.Fs->makeClient(0);
    Latency L0 = measure(S, *C, 0, 50);
    Latency L10 = measure(S, *C, 10 * 1024, 50);
    T.addRow({E.Name, format("%.1f", L0.CreateUs),
              format("%.1f", L0.DeleteUs), format("%.1f", L10.CreateUs),
              format("%.1f", L10.DeleteUs)});
  }
  printTable(T);

  std::printf("Expected shape: the local file system sits orders of "
              "magnitude below the\nnetworked systems (every remote op "
              "pays at least one RTT); 10 KB files add\nblock-allocation "
              "and transfer cost; lat_fs, being single-threaded, says "
              "nothing\nabout scalability — DMetabench's reason to exist "
              "(§3.1.3-3.1.4, §3.2.2).\n");
  return 0;
}
