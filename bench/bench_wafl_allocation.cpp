//===- bench/bench_wafl_allocation.cpp - E10: §4.3.4 ----------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces \S 4.3.4 "Observing internal allocation processes": the
/// MakeFiles64byte / MakeFiles65byte special plugins. WAFL stores up to 64
/// bytes of file data inside the inode; the 65th byte forces a real block
/// allocation, visible both in throughput and in the filer's allocated
/// block counter.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

using namespace dmbbench;

namespace {

struct AllocResult {
  double OpsPerSec = 0;
  uint64_t FilesCreated = 0;
  uint64_t BlocksAllocated = 0;
};

AllocResult run(const char *Op) {
  Scheduler S;
  Cluster C(S, 4, 8);
  NfsOptions Opts;
  Opts.Server.EnableConsistencyPoints = false;
  NfsFs Nfs(S, Opts);
  C.mountEverywhere(Nfs);
  BenchParams P;
  P.Operations = {Op};
  P.TimeLimit = seconds(20.0);
  P.ProblemSize = 1000000;
  // Cleanup frees everything again, so sample the volume's allocated block
  // count mid-bench (prepare takes well under a second).
  AllocResult R;
  S.at(seconds(15.0), [&R, &Nfs]() {
    R.BlocksAllocated =
        Nfs.server().volume(NfsFs::VolumeName)->allocatedBlocks();
  });
  ResultSet Res = runCombo(C, "nfs", P, 4, 1);
  R.OpsPerSec = rateOf(Res);
  R.FilesCreated = Res.Subtasks[0].totalOps();
  return R;
}

} // namespace

int main() {
  banner("E10 bench_wafl_allocation", "thesis §4.3.4",
         "MakeFiles64byte vs MakeFiles65byte on the WAFL filer: the 65th "
         "byte leaves the inode.");

  AllocResult R64 = run("MakeFiles64byte");
  AllocResult R65 = run("MakeFiles65byte");
  AllocResult R0 = run("MakeFiles");

  TextTable T;
  T.setHeader({"operation", "ops/s", "files created",
               "data blocks in use at t=15s"});
  T.addRow({"MakeFiles (empty)", ops(R0.OpsPerSec),
            format("%llu", (unsigned long long)R0.FilesCreated),
            format("%llu", (unsigned long long)R0.BlocksAllocated)});
  T.addRow({"MakeFiles64byte", ops(R64.OpsPerSec),
            format("%llu", (unsigned long long)R64.FilesCreated),
            format("%llu", (unsigned long long)R64.BlocksAllocated)});
  T.addRow({"MakeFiles65byte", ops(R65.OpsPerSec),
            format("%llu", (unsigned long long)R65.FilesCreated),
            format("%llu", (unsigned long long)R65.BlocksAllocated)});
  printTable(T);

  // Direct evidence of the inline threshold on the volume itself.
  Scheduler S;
  NfsFs Nfs(S);
  LocalFileSystem *Vol = Nfs.server().volume(NfsFs::VolumeName);
  OpCtx Ctx;
  Ctx.Creds.Uid = 0;
  Result<FileHandle> F64 = Vol->open(Ctx, "/f64", OpenWrite | OpenCreate);
  Result<uint64_t> W64 = Vol->write(Ctx, *F64, 64);
  Result<FileHandle> F65 = Vol->open(Ctx, "/f65", OpenWrite | OpenCreate);
  Result<uint64_t> W65 = Vol->write(Ctx, *F65, 65);
  DMB_CHECK(W64.ok() && W65.ok(), "inline-threshold probe writes failed");
  std::printf("Volume-level check: 64-byte file occupies %llu blocks, "
              "65-byte file %llu blocks.\n\n",
              (unsigned long long)Vol->fstat(Ctx, *F64)->Blocks,
              (unsigned long long)Vol->fstat(Ctx, *F65)->Blocks);

  std::printf("Expected shape: 64-byte files create at nearly the "
              "empty-file rate and allocate\nno data blocks (data lives in "
              "the inode); 65-byte files pay block allocation\nand create "
              "measurably slower (§4.3.4).\n");
  return 0;
}
