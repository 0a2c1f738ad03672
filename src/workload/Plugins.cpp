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
#include <charconv>
#include <iterator>

using namespace dmb;

namespace {

/// The decimal digits of a number, printed into the stack.
struct Digits {
  explicit Digits(uint64_t N)
      : Size(static_cast<size_t>(std::to_chars(Buf, std::end(Buf), N).ptr -
                                 Buf)) {}
  std::string_view view() const { return {Buf, Size}; }

  char Buf[20]; // 2^64 has 20 decimal digits
  size_t Size;
};

} // namespace

std::string ProcessDir::path() const {
  Digits Ord(Ordinal);
  std::string Path;
  Path.reserve(WorkDir.size() + 2 + Ord.Size);
  Path.append(WorkDir).append("/p").append(Ord.view());
  return Path;
}

std::string ProcessDir::child(std::string_view Prefix, uint64_t N) const {
  Digits Ord(Ordinal), Num(N);
  std::string Path;
  Path.reserve(WorkDir.size() + 3 + Ord.Size + Prefix.size() + Num.Size);
  Path.append(WorkDir).append("/p").append(Ord.view());
  Path.append(1, '/').append(Prefix).append(Num.view());
  return Path;
}

std::string ProcessDir::object(uint64_t Dir, uint64_t Index) const {
  Digits Ord(Ordinal), D(Dir), I(Index);
  std::string Path;
  Path.reserve(WorkDir.size() + 5 + Ord.Size + D.Size + I.Size);
  Path.append(WorkDir).append("/p").append(Ord.view());
  Path.append("/d").append(D.view()).append(1, '/').append(I.view());
  return Path;
}

namespace {

/// The prepare phase of Listing 3.1.
class FileSetPrepare final : public OpStream {
public:
  FileSetPrepare(const ProcessDir &Own, uint64_t NumFiles)
      : Own(Own), NumFiles(NumFiles) {}

  bool next(const MetaReply &Last, StreamStep &Out) override {
    switch (Phase) {
    case MkOwn:
      Out.Req = makeMkdir(Own.path());
      Phase = MkD0;
      return true;
    case MkD0:
      Out.Req = makeMkdir(Own.child("d", 0));
      Phase = NumFiles ? OpenFile : Done;
      return true;
    case OpenFile:
      Out.Req = makeOpen(Own.object(0, Index), OpenWrite | OpenCreate);
      Phase = CloseFile;
      return true;
    case CloseFile:
      Out.Req = makeClose(Last.Fh);
      ++Index;
      Phase = Index < NumFiles ? OpenFile : Done;
      return true;
    case Done:
      return false;
    }
    return false;
  }

private:
  const ProcessDir &Own;
  uint64_t NumFiles;
  uint64_t Index = 0;
  enum { MkOwn, MkD0, OpenFile, CloseFile, Done } Phase = MkOwn;
};

/// The cleanup phase of Listing 3.1.
class FileSetCleanup final : public OpStream {
public:
  FileSetCleanup(const ProcessDir &Own, uint64_t NumFiles)
      : Own(Own), NumFiles(NumFiles) {}

  bool next(const MetaReply &, StreamStep &Out) override {
    switch (Stage) {
    case UnlinkFiles:
      if (Index < NumFiles) {
        Out.Req = makeUnlink(Own.object(0, Index));
        ++Index;
        return true;
      }
      [[fallthrough]];
    case RmdirD0:
      Out.Req = makeRmdir(Own.child("d", 0));
      Stage = RmdirOwn;
      return true;
    case RmdirOwn:
      Out.Req = makeRmdir(Own.path());
      Stage = Done;
      return true;
    case Done:
      return false;
    }
    return false;
  }

private:
  const ProcessDir &Own;
  uint64_t NumFiles;
  uint64_t Index = 0;
  enum { UnlinkFiles, RmdirD0, RmdirOwn, Done } Stage = UnlinkFiles;
};

} // namespace

std::unique_ptr<OpStream> dmb::makeFileSetPrepare(const ProcessDir &Own,
                                                  uint64_t NumFiles) {
  return std::make_unique<FileSetPrepare>(Own, NumFiles);
}

std::unique_ptr<OpStream> dmb::makeFileSetCleanup(const ProcessDir &Own,
                                                  uint64_t NumFiles) {
  return std::make_unique<FileSetCleanup>(Own, NumFiles);
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
      : Own(Ctx), PerDir(Ctx.ProblemSize), WriteBytes(WriteBytes),
        Directories(Directories) {}

  std::unique_ptr<OpStream> prepare() override {
    return makeFileSetPrepare(Own, /*NumFiles=*/0);
  }

  std::unique_ptr<OpStream> bench() override {
    return std::make_unique<BenchStream>(*this);
  }

  std::unique_ptr<OpStream> cleanup() override {
    return std::make_unique<CleanupStream>(*this);
  }

private:
  /// Creates objects, rolling over to a fresh subdirectory every PerDir.
  class BenchStream final : public OpStream {
  public:
    explicit BenchStream(MakeObjectsInstance &I) : I(I) {}

    bool next(const MetaReply &Last, StreamStep &Out) override {
      switch (Phase) {
      case NewDir:
        // The mkdir completed; fall through to create the next object.
        ++I.CurDir;
        I.InDir = 0;
        Phase = Next;
        [[fallthrough]];
      case Next: {
        if (I.InDir >= I.PerDir) {
          // Rollover: limit entries per directory (\S 3.3.7).
          Out.Req = makeMkdir(I.Own.child("d", I.CurDir + 1));
          Phase = NewDir;
          return true;
        }
        std::string Path = I.Own.object(I.CurDir, I.InDir);
        if (I.Directories) {
          Out.Req = makeMkdir(std::move(Path));
          Out.CompletesOp = true;
          ++I.InDir;
          ++I.Created;
          return true;
        }
        Out.Req = makeOpen(std::move(Path), OpenWrite | OpenCreate);
        Phase = I.WriteBytes ? AwaitWrite : AwaitClose;
        return true;
      }
      case AwaitWrite:
        Fh = Last.Fh;
        Out.Req = makeWrite(Last.Fh, I.WriteBytes);
        Phase = AwaitClose;
        return true;
      case AwaitClose:
        Out.Req = makeClose(I.WriteBytes ? Fh : Last.Fh);
        Out.CompletesOp = true;
        ++I.InDir;
        ++I.Created;
        Phase = Next;
        return true;
      }
      return false;
    }

  private:
    MakeObjectsInstance &I;
    FileHandle Fh = InvalidHandle;
    enum { Next, AwaitWrite, AwaitClose, NewDir } Phase = Next;
  };

  /// Removes every created object, then the subdirectories, then <own>.
  class CleanupStream final : public OpStream {
  public:
    explicit CleanupStream(const MakeObjectsInstance &I)
        : I(I), NumDirs(I.CurDir + 1) {}

    bool next(const MetaReply &, StreamStep &Out) override {
      switch (Stage) {
      case Objects:
        if (Dir * I.PerDir + Index < I.Created) {
          std::string Path = I.Own.object(Dir, Index);
          Out.Req = I.Directories ? makeRmdir(std::move(Path))
                                  : makeUnlink(std::move(Path));
          if (++Index == I.PerDir) {
            Index = 0;
            ++Dir;
          }
          return true;
        }
        Stage = Dirs;
        Dir = 0;
        [[fallthrough]];
      case Dirs:
        if (Dir < NumDirs) {
          Out.Req = makeRmdir(I.Own.child("d", Dir));
          ++Dir;
          return true;
        }
        [[fallthrough]];
      case RmdirOwn:
        Out.Req = makeRmdir(I.Own.path());
        Stage = Done;
        return true;
      case Done:
        return false;
      }
      return false;
    }

  private:
    const MakeObjectsInstance &I;
    uint64_t NumDirs;
    uint64_t Dir = 0;
    uint64_t Index = 0;
    enum { Objects, Dirs, RmdirOwn, Done } Stage = Objects;
  };

  ProcessDir Own;
  uint64_t PerDir;
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
      : WorkDir(Ctx.WorkDir), Ordinal(Ctx.Ordinal),
        // The problem size is the *total* number of files; every process
        // creates 1/n of it (Table 3.5).
        PerProcess(std::max<uint64_t>(1, Ctx.ProblemSize /
                                             std::max(1u, Ctx.TotalWorkers))) {
  }

  std::unique_ptr<OpStream> prepare() override {
    return std::make_unique<PrepareStream>(*this);
  }

  std::unique_ptr<OpStream> bench() override {
    return std::make_unique<BenchStream>(*this);
  }

  std::unique_ptr<OpStream> cleanup() override {
    return std::make_unique<CleanupStream>(*this);
  }

private:
  /// <workdir>/shared
  std::string shared() const {
    return std::string(WorkDir).append("/shared");
  }
  /// <workdir>/shared/p<ordinal>-<index>
  std::string filePath(uint64_t Index) const {
    Digits Ord(Ordinal), I(Index);
    std::string Path;
    Path.reserve(WorkDir.size() + 10 + Ord.Size + I.Size);
    Path.append(WorkDir).append("/shared/p").append(Ord.view());
    Path.append(1, '-').append(I.view());
    return Path;
  }

  /// Every process tries the mkdir; all but one see EEXIST — harmless.
  class PrepareStream final : public OpStream {
  public:
    explicit PrepareStream(const MakeOnedirInstance &I) : I(I) {}
    bool next(const MetaReply &, StreamStep &Out) override {
      if (Issued)
        return false;
      Issued = true;
      Out.Req = makeMkdir(I.shared());
      return true;
    }

  private:
    const MakeOnedirInstance &I;
    bool Issued = false;
  };

  class BenchStream final : public OpStream {
  public:
    explicit BenchStream(const MakeOnedirInstance &I) : I(I) {}
    bool next(const MetaReply &Last, StreamStep &Out) override {
      if (AwaitClose) {
        Out.Req = makeClose(Last.Fh);
        Out.CompletesOp = true;
        AwaitClose = false;
        ++Index;
        return true;
      }
      if (Index >= I.PerProcess)
        return false;
      Out.Req = makeOpen(I.filePath(Index), OpenWrite | OpenCreate);
      AwaitClose = true;
      return true;
    }

  private:
    const MakeOnedirInstance &I;
    uint64_t Index = 0;
    bool AwaitClose = false;
  };

  class CleanupStream final : public OpStream {
  public:
    explicit CleanupStream(const MakeOnedirInstance &I) : I(I) {}
    bool next(const MetaReply &, StreamStep &Out) override {
      if (Index < I.PerProcess) {
        Out.Req = makeUnlink(I.filePath(Index));
        ++Index;
        return true;
      }
      if (!TriedRmdir) {
        // The last process to clean up succeeds; others see ENOTEMPTY.
        TriedRmdir = true;
        Out.Req = makeRmdir(I.shared());
        return true;
      }
      return false;
    }

  private:
    const MakeOnedirInstance &I;
    uint64_t Index = 0;
    bool TriedRmdir = false;
  };

  std::string_view WorkDir;
  unsigned Ordinal;
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

/// One request per prepared file of \p Dir, each completing an operation:
/// the bench phase of DeleteFiles, StatFiles and StatMultinodeFiles.
class PerFileStream final : public OpStream {
public:
  using MakeFn = MetaRequest (*)(std::string);

  PerFileStream(const ProcessDir &Dir, uint64_t NumFiles, MakeFn Make)
      : Dir(Dir), NumFiles(NumFiles), Make(Make) {}

  bool next(const MetaReply &, StreamStep &Out) override {
    if (Index >= NumFiles)
      return false;
    Out.Req = Make(Dir.object(0, Index));
    Out.CompletesOp = true;
    ++Index;
    return true;
  }

private:
  const ProcessDir &Dir;
  uint64_t NumFiles;
  MakeFn Make;
  uint64_t Index = 0;
};

/// Base: prepare creates ProblemSize files under <own>/d0; cleanup removes
/// whatever the bench phase left behind.
class FileSetInstance : public PluginInstance {
public:
  explicit FileSetInstance(const PluginContext &Ctx)
      : Own(Ctx), NumFiles(Ctx.ProblemSize) {}

  std::unique_ptr<OpStream> prepare() override {
    return makeFileSetPrepare(Own, NumFiles);
  }

  std::unique_ptr<OpStream> cleanup() override {
    return makeFileSetCleanup(Own, benchDeletedFiles() ? 0 : NumFiles);
  }

protected:
  /// True when the bench phase itself removed the prepared files.
  virtual bool benchDeletedFiles() const { return false; }

  ProcessDir Own;
  uint64_t NumFiles;
};

class DeleteFilesInstance : public FileSetInstance {
public:
  using FileSetInstance::FileSetInstance;

  std::unique_ptr<OpStream> bench() override {
    return std::make_unique<PerFileStream>(Own, NumFiles, makeUnlink);
  }

protected:
  bool benchDeletedFiles() const override { return true; }
};

class StatFilesInstance : public FileSetInstance {
public:
  using FileSetInstance::FileSetInstance;

  std::unique_ptr<OpStream> bench() override {
    return std::make_unique<PerFileStream>(Own, NumFiles, makeStat);
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
  explicit StatMultinodeInstance(const PluginContext &Ctx)
      : FileSetInstance(Ctx),
        Partner(Ctx.PartnerWorkDir, Ctx.PartnerOrdinal) {}

  std::unique_ptr<OpStream> bench() override {
    return std::make_unique<PerFileStream>(Partner, NumFiles, makeStat);
  }

private:
  ProcessDir Partner;
};

class OpenCloseInstance : public FileSetInstance {
public:
  using FileSetInstance::FileSetInstance;

  std::unique_ptr<OpStream> bench() override {
    return std::make_unique<BenchStream>(*this);
  }

private:
  class BenchStream final : public OpStream {
  public:
    explicit BenchStream(const OpenCloseInstance &I) : I(I) {}
    bool next(const MetaReply &Last, StreamStep &Out) override {
      if (AwaitClose) {
        Out.Req = makeClose(Last.Fh);
        Out.CompletesOp = true;
        AwaitClose = false;
        ++Index;
        return true;
      }
      if (Index >= I.NumFiles)
        return false;
      Out.Req = makeOpen(I.Own.object(0, Index), OpenRead);
      AwaitClose = true;
      return true;
    }

  private:
    const OpenCloseInstance &I;
    uint64_t Index = 0;
    bool AwaitClose = false;
  };
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
