//===- bench/bench_dir_index_ablation.cpp - E19: §2.4.2 ablation ----------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation for the directory-index design choices of \S 2.4.2 "Directory
/// search": prints the *modelled* per-lookup scan cost of the three index
/// implementations at growing directory sizes — the directory entries a
/// lookup visits, which drive the simulated service time (experiment
/// E09's mechanism). The output is deterministic. Real host lookup times
/// are what perfbench's replay measures (fs.execute_ns.*).
///
//===----------------------------------------------------------------------===//

#include "fs/DirectoryIndex.h"
#include <cstdio>
#include <memory>

using namespace dmb;

namespace {

std::unique_ptr<DirectoryIndex> filledIndex(DirIndexKind Kind, int64_t N) {
  std::unique_ptr<DirectoryIndex> Index = makeDirectoryIndex(Kind);
  OpCost Cost;
  for (int64_t I = 0; I < N; ++I)
    Index->insert(DirEntry{"file" + std::to_string(I),
                           static_cast<InodeNum>(I + 2),
                           FileType::Regular},
                  Cost);
  return Index;
}

void printModelledCosts() {
  std::printf("\nModelled per-lookup directory entries scanned (drives "
              "the simulated service\ntime, thesis §2.4.2 / §4.3.3):\n\n");
  std::printf("%10s  %12s  %12s  %12s\n", "entries", "linear", "hashed",
              "btree");
  for (int64_t N : {1000, 10000, 100000}) {
    std::printf("%10lld", static_cast<long long>(N));
    for (DirIndexKind Kind : {DirIndexKind::Linear, DirIndexKind::Hashed,
                              DirIndexKind::BTree}) {
      std::unique_ptr<DirectoryIndex> Index = filledIndex(Kind, N);
      OpCost Cost;
      // Average over a spread of keys.
      for (int64_t I = 0; I < 100; ++I)
        Index->lookup("file" + std::to_string(I * (N / 100)), Cost);
      std::printf("  %12.1f",
                  static_cast<double>(Cost.DirEntriesScanned) / 100.0);
    }
    std::printf("\n");
  }
  std::printf("\nExpected shape: linear scans grow with N (O(n)), hashed "
              "stays at 1 (O(1)),\nbtree grows logarithmically.\n");
}

} // namespace

int main() {
  std::printf("E19 bench_dir_index_ablation (thesis §2.4.2, mechanism of "
              "§4.3.3)\n");
  printModelledCosts();
  return 0;
}
