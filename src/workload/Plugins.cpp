//===- workload/Plugins.cpp - The pre-defined benchmarks of Table 3.5 ---------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the ten pre-defined DMetabench plugins (thesis Table 3.5):
/// MakeFiles, MakeFiles64byte, MakeFiles65byte, MakeOnedirFiles, MakeDirs,
/// DeleteFiles, StatFiles, StatNocacheFiles, StatMultinodeFiles and
/// OpenCloseFiles. Each mirrors the Python plugin semantics of Listing 3.1.
///
//===----------------------------------------------------------------------===//

#include "workload/Plugin.h"
#include "workload/StreamHelpers.h"
#include "support/Format.h"
#include <charconv>
#include <functional>
#include <iterator>

using namespace dmb;

std::unique_ptr<OpStream> dmb::makeStream(CallbackStream::Generator G) {
  return std::make_unique<CallbackStream>(std::move(G));
}

std::unique_ptr<OpStream> dmb::emptyStream() {
  return makeStream([](const MetaReply &, StreamStep &) { return false; });
}

std::string dmb::ownDir(const PluginContext &Ctx) {
  return Ctx.WorkDir + format("/p%u", Ctx.Ordinal);
}

std::string dmb::objectPath(std::string_view Own, uint64_t Dir,
                            uint64_t Index) {
  char DirDigits[20], IndexDigits[20]; // 2^64 has 20 decimal digits
  char *DirEnd = std::to_chars(DirDigits, std::end(DirDigits), Dir).ptr;
  char *IndexEnd =
      std::to_chars(IndexDigits, std::end(IndexDigits), Index).ptr;
  std::string Path;
  Path.reserve(Own.size() + 3 + static_cast<size_t>(DirEnd - DirDigits) +
               static_cast<size_t>(IndexEnd - IndexDigits));
  Path.append(Own).append("/d").append(DirDigits, DirEnd);
  Path.append(1, '/').append(IndexDigits, IndexEnd);
  return Path;
}

std::unique_ptr<OpStream> dmb::makeFileSetPrepare(std::string Own,
                                                  uint64_t NumFiles) {
  struct State {
    enum { MkOwn, MkD0, OpenFile, CloseFile, Done } Phase = MkOwn;
    uint64_t Index = 0;
  };
  auto St = std::make_shared<State>();
  return makeStream([St, Own, NumFiles](const MetaReply &Last,
                                        StreamStep &Out) {
    switch (St->Phase) {
    case State::MkOwn:
      Out.Req = makeMkdir(Own);
      St->Phase = State::MkD0;
      return true;
    case State::MkD0:
      Out.Req = makeMkdir(Own + "/d0");
      St->Phase = NumFiles ? State::OpenFile : State::Done;
      return true;
    case State::OpenFile:
      Out.Req = makeOpen(objectPath(Own, 0, St->Index),
                         OpenWrite | OpenCreate);
      St->Phase = State::CloseFile;
      return true;
    case State::CloseFile:
      Out.Req = makeClose(Last.Fh);
      ++St->Index;
      St->Phase = St->Index < NumFiles ? State::OpenFile : State::Done;
      return true;
    case State::Done:
      return false;
    }
    return false;
  });
}

std::unique_ptr<OpStream> dmb::makeFileSetCleanup(std::string Own,
                                                  uint64_t NumFiles) {
  struct State {
    uint64_t Index = 0;
    int Stage = 0; // 0 = unlink files, 1 = rmdir d0, 2 = rmdir own, 3 done
  };
  auto St = std::make_shared<State>();
  return makeStream(
      [St, Own, NumFiles](const MetaReply &, StreamStep &Out) {
        if (St->Stage == 0) {
          if (St->Index < NumFiles) {
            Out.Req = makeUnlink(objectPath(Own, 0, St->Index));
            ++St->Index;
            return true;
          }
          St->Stage = 1;
        }
        if (St->Stage == 1) {
          Out.Req = makeRmdir(Own + "/d0");
          St->Stage = 2;
          return true;
        }
        if (St->Stage == 2) {
          Out.Req = makeRmdir(Own);
          St->Stage = 3;
          return true;
        }
        return false;
      });
}

namespace {

//===----------------------------------------------------------------------===//
// MakeFiles family (time-limited, directory rollover; \S 3.3.7)
//===----------------------------------------------------------------------===//

/// Shared instance for MakeFiles / MakeFiles64byte / MakeFiles65byte /
/// MakeDirs. Creates objects until the framework's time limit interrupts
/// the phase; ProblemSize bounds the entries per subdirectory, after which
/// a fresh subdirectory is started.
class MakeObjectsInstance : public PluginInstance {
public:
  MakeObjectsInstance(const PluginContext &Ctx, uint64_t WriteBytes,
                      bool Directories)
      : Ctx(Ctx), Own(ownDir(Ctx)), WriteBytes(WriteBytes),
        Directories(Directories) {}

  std::unique_ptr<OpStream> prepare() override {
    return makeFileSetPrepare(Own, /*NumFiles=*/0);
  }

  std::unique_ptr<OpStream> bench() override {
    struct State {
      enum { Next, AwaitWrite, AwaitClose, NewDir } Phase = Next;
      FileHandle Fh = InvalidHandle;
    };
    auto St = std::make_shared<State>();
    return makeStream([this, St](const MetaReply &Last, StreamStep &Out) {
      switch (St->Phase) {
      case State::NewDir:
        // The mkdir completed; fall through to create the next object.
        ++CurDir;
        InDir = 0;
        St->Phase = State::Next;
        [[fallthrough]];
      case State::Next: {
        if (InDir >= Ctx.ProblemSize) {
          // Rollover: limit entries per directory (\S 3.3.7).
          Out.Req = makeMkdir(Own + format("/d%llu",
                                           (unsigned long long)(CurDir + 1)));
          St->Phase = State::NewDir;
          return true;
        }
        std::string Path = objectPath(Own, CurDir, InDir);
        if (Directories) {
          Out.Req = makeMkdir(Path);
          Out.CompletesOp = true;
          ++InDir;
          ++Created;
          return true;
        }
        Out.Req = makeOpen(Path, OpenWrite | OpenCreate);
        St->Phase = WriteBytes ? State::AwaitWrite : State::AwaitClose;
        return true;
      }
      case State::AwaitWrite:
        St->Fh = Last.Fh;
        Out.Req = makeWrite(Last.Fh, WriteBytes);
        St->Phase = State::AwaitClose;
        return true;
      case State::AwaitClose:
        Out.Req = makeClose(WriteBytes ? St->Fh : Last.Fh);
        Out.CompletesOp = true;
        ++InDir;
        ++Created;
        St->Phase = State::Next;
        return true;
      }
      return false;
    });
  }

  std::unique_ptr<OpStream> cleanup() override {
    struct State {
      uint64_t Dir = 0;
      uint64_t Index = 0;
      int Stage = 0; // 0 objects, 1 dirs, 2 own, 3 done
    };
    auto St = std::make_shared<State>();
    uint64_t Total = Created;
    uint64_t PerDir = Ctx.ProblemSize;
    uint64_t NumDirs = CurDir + 1;
    return makeStream([this, St, Total, PerDir,
                       NumDirs](const MetaReply &, StreamStep &Out) {
      if (St->Stage == 0) {
        uint64_t Global = St->Dir * PerDir + St->Index;
        if (Global < Total) {
          std::string Path = objectPath(Own, St->Dir, St->Index);
          Out.Req = Directories ? makeRmdir(Path) : makeUnlink(Path);
          if (++St->Index == PerDir) {
            St->Index = 0;
            ++St->Dir;
          }
          return true;
        }
        St->Stage = 1;
        St->Dir = 0;
      }
      if (St->Stage == 1) {
        if (St->Dir < NumDirs) {
          Out.Req = makeRmdir(Own + format("/d%llu",
                                           (unsigned long long)St->Dir));
          ++St->Dir;
          return true;
        }
        St->Stage = 2;
      }
      if (St->Stage == 2) {
        Out.Req = makeRmdir(Own);
        St->Stage = 3;
        return true;
      }
      return false;
    });
  }

private:
  PluginContext Ctx;
  std::string Own;
  uint64_t WriteBytes;
  bool Directories;
  uint64_t CurDir = 0;
  uint64_t InDir = 0;
  uint64_t Created = 0;
};

class MakeFilesPlugin : public BenchmarkPlugin {
public:
  MakeFilesPlugin(std::string Name, uint64_t WriteBytes, bool Directories)
      : Name(std::move(Name)), WriteBytes(WriteBytes),
        Directories(Directories) {}

  std::string name() const override { return Name; }
  bool isTimeLimited() const override { return true; }

  std::unique_ptr<PluginInstance>
  makeInstance(const PluginContext &Ctx) override {
    return std::make_unique<MakeObjectsInstance>(Ctx, WriteBytes,
                                                 Directories);
  }

private:
  std::string Name;
  uint64_t WriteBytes;
  bool Directories;
};

//===----------------------------------------------------------------------===//
// MakeOnedirFiles: all processes share one directory
//===----------------------------------------------------------------------===//

class MakeOnedirInstance : public PluginInstance {
public:
  explicit MakeOnedirInstance(const PluginContext &Ctx)
      : Ctx(Ctx), Shared(Ctx.WorkDir + "/shared"),
        // The problem size is the *total* number of files; every process
        // creates 1/n of it (Table 3.5).
        PerProcess(std::max<uint64_t>(1, Ctx.ProblemSize /
                                             std::max(1u, Ctx.TotalWorkers))) {
  }

  std::unique_ptr<OpStream> prepare() override {
    auto First = std::make_shared<bool>(true);
    // Every process tries the mkdir; all but one see EEXIST — harmless.
    return makeStream([this, First](const MetaReply &, StreamStep &Out) {
      if (!*First)
        return false;
      *First = false;
      Out.Req = makeMkdir(Shared);
      return true;
    });
  }

  std::unique_ptr<OpStream> bench() override {
    struct State {
      uint64_t Index = 0;
      bool AwaitClose = false;
    };
    auto St = std::make_shared<State>();
    return makeStream([this, St](const MetaReply &Last, StreamStep &Out) {
      if (St->AwaitClose) {
        Out.Req = makeClose(Last.Fh);
        Out.CompletesOp = true;
        St->AwaitClose = false;
        ++St->Index;
        return true;
      }
      if (St->Index >= PerProcess)
        return false;
      Out.Req = makeOpen(Shared + format("/p%u-%llu", Ctx.Ordinal,
                                         (unsigned long long)St->Index),
                         OpenWrite | OpenCreate);
      St->AwaitClose = true;
      return true;
    });
  }

  std::unique_ptr<OpStream> cleanup() override {
    struct State {
      uint64_t Index = 0;
      bool TriedRmdir = false;
    };
    auto St = std::make_shared<State>();
    return makeStream([this, St](const MetaReply &, StreamStep &Out) {
      if (St->Index < PerProcess) {
        Out.Req = makeUnlink(Shared + format("/p%u-%llu", Ctx.Ordinal,
                                             (unsigned long long)St->Index));
        ++St->Index;
        return true;
      }
      if (!St->TriedRmdir) {
        // The last process to clean up succeeds; others see ENOTEMPTY.
        St->TriedRmdir = true;
        Out.Req = makeRmdir(Shared);
        return true;
      }
      return false;
    });
  }

private:
  PluginContext Ctx;
  std::string Shared;
  uint64_t PerProcess;
};

class MakeOnedirPlugin : public BenchmarkPlugin {
public:
  std::string name() const override { return "MakeOnedirFiles"; }
  std::unique_ptr<PluginInstance>
  makeInstance(const PluginContext &Ctx) override {
    return std::make_unique<MakeOnedirInstance>(Ctx);
  }
};

//===----------------------------------------------------------------------===//
// Fixed file-set plugins: DeleteFiles, StatFiles, OpenCloseFiles, ...
//===----------------------------------------------------------------------===//

/// Base: prepare creates ProblemSize files under <own>/d0; cleanup removes
/// whatever the bench phase left behind.
class FileSetInstance : public PluginInstance {
public:
  explicit FileSetInstance(const PluginContext &Ctx)
      : Ctx(Ctx), Own(ownDir(Ctx)) {}

  std::unique_ptr<OpStream> prepare() override {
    return makeFileSetPrepare(Own, Ctx.ProblemSize);
  }

  std::unique_ptr<OpStream> cleanup() override {
    return makeFileSetCleanup(Own, benchDeletedFiles() ? 0
                                                       : Ctx.ProblemSize);
  }

protected:
  /// True when the bench phase itself removed the prepared files.
  virtual bool benchDeletedFiles() const { return false; }

  std::string filePath(uint64_t Index) const {
    return objectPath(Own, 0, Index);
  }

  PluginContext Ctx;
  std::string Own;
};

class DeleteFilesInstance : public FileSetInstance {
public:
  using FileSetInstance::FileSetInstance;

  std::unique_ptr<OpStream> bench() override {
    auto Index = std::make_shared<uint64_t>(0);
    return makeStream([this, Index](const MetaReply &, StreamStep &Out) {
      if (*Index >= Ctx.ProblemSize)
        return false;
      Out.Req = makeUnlink(filePath(*Index));
      Out.CompletesOp = true;
      ++*Index;
      return true;
    });
  }

protected:
  bool benchDeletedFiles() const override { return true; }
};

class StatFilesInstance : public FileSetInstance {
public:
  using FileSetInstance::FileSetInstance;

  std::unique_ptr<OpStream> bench() override {
    auto Index = std::make_shared<uint64_t>(0);
    return makeStream([this, Index](const MetaReply &, StreamStep &Out) {
      if (*Index >= Ctx.ProblemSize)
        return false;
      Out.Req = makeStat(filePath(*Index));
      Out.CompletesOp = true;
      ++*Index;
      return true;
    });
  }
};

/// StatFiles with dropped OS caches between prepare and doBench.
class StatNocacheInstance : public StatFilesInstance {
public:
  using StatFilesInstance::StatFilesInstance;

  void beforeBench(ClientFs &Client) override { Client.dropCaches(); }
};

/// Stats the file set created by the *partner* process on another node —
/// bypassing the local cache without privileged cache dropping (\S 3.4.3).
class StatMultinodeInstance : public FileSetInstance {
public:
  using FileSetInstance::FileSetInstance;

  std::unique_ptr<OpStream> bench() override {
    std::string PartnerDir =
        Ctx.PartnerWorkDir + format("/p%u", Ctx.PartnerOrdinal);
    auto Index = std::make_shared<uint64_t>(0);
    return makeStream(
        [this, PartnerDir, Index](const MetaReply &, StreamStep &Out) {
          if (*Index >= Ctx.ProblemSize)
            return false;
          Out.Req = makeStat(objectPath(PartnerDir, 0, *Index));
          Out.CompletesOp = true;
          ++*Index;
          return true;
        });
  }
};

class OpenCloseInstance : public FileSetInstance {
public:
  using FileSetInstance::FileSetInstance;

  std::unique_ptr<OpStream> bench() override {
    struct State {
      uint64_t Index = 0;
      bool AwaitClose = false;
    };
    auto St = std::make_shared<State>();
    return makeStream([this, St](const MetaReply &Last, StreamStep &Out) {
      if (St->AwaitClose) {
        Out.Req = makeClose(Last.Fh);
        Out.CompletesOp = true;
        St->AwaitClose = false;
        ++St->Index;
        return true;
      }
      if (St->Index >= Ctx.ProblemSize)
        return false;
      Out.Req = makeOpen(filePath(St->Index), OpenRead);
      St->AwaitClose = true;
      return true;
    });
  }
};

/// Simple plugin wrapper for the FileSetInstance family.
template <typename InstanceT>
class FileSetPlugin : public BenchmarkPlugin {
public:
  explicit FileSetPlugin(std::string Name) : Name(std::move(Name)) {}

  std::string name() const override { return Name; }
  std::unique_ptr<PluginInstance>
  makeInstance(const PluginContext &Ctx) override {
    return std::make_unique<InstanceT>(Ctx);
  }

private:
  std::string Name;
};

} // namespace

void dmb::registerBuiltinPlugins(PluginRegistry &Registry) {
  Registry.add(std::make_unique<MakeFilesPlugin>("MakeFiles",
                                                 /*WriteBytes=*/0,
                                                 /*Directories=*/false));
  Registry.add(std::make_unique<MakeFilesPlugin>("MakeFiles64byte", 64,
                                                 false));
  Registry.add(std::make_unique<MakeFilesPlugin>("MakeFiles65byte", 65,
                                                 false));
  Registry.add(std::make_unique<MakeFilesPlugin>("MakeDirs", 0,
                                                 /*Directories=*/true));
  Registry.add(std::make_unique<MakeOnedirPlugin>());
  Registry.add(
      std::make_unique<FileSetPlugin<DeleteFilesInstance>>("DeleteFiles"));
  Registry.add(
      std::make_unique<FileSetPlugin<StatFilesInstance>>("StatFiles"));
  Registry.add(std::make_unique<FileSetPlugin<StatNocacheInstance>>(
      "StatNocacheFiles"));
  Registry.add(std::make_unique<FileSetPlugin<StatMultinodeInstance>>(
      "StatMultinodeFiles"));
  Registry.add(std::make_unique<FileSetPlugin<OpenCloseInstance>>(
      "OpenCloseFiles"));
}
