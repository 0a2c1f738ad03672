//===- workload/Postmark.cpp ----------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "workload/Postmark.h"
#include "workload/StreamHelpers.h"
#include "support/Random.h"
#include <memory>
#include <vector>

using namespace dmb;

namespace {

/// Per-process Postmark state machine.
class PostmarkInstance : public PluginInstance {
public:
  PostmarkInstance(const PluginContext &Ctx, const PostmarkConfig &Cfg)
      : Cfg(Cfg), R(Cfg.Seed + Ctx.Ordinal), Own(Ctx),
        Transactions(Ctx.ProblemSize) {}

  std::unique_ptr<OpStream> prepare() override {
    return std::make_unique<PrepareStream>(*this);
  }

  std::unique_ptr<OpStream> bench() override {
    NextId = Cfg.InitialFiles;
    return std::make_unique<BenchStream>(*this);
  }

  std::unique_ptr<OpStream> cleanup() override {
    return std::make_unique<CleanupStream>(*this);
  }

private:
  /// Phase 1: create the file pool with random sizes.
  class PrepareStream final : public OpStream {
  public:
    explicit PrepareStream(PostmarkInstance &I) : I(I) {}

    bool next(const MetaReply &Last, StreamStep &Out) override {
      switch (Phase) {
      case MkOwn:
        Out.Req = makeMkdir(I.Own.path());
        Phase = I.Cfg.InitialFiles ? Open : Done;
        return true;
      case Open:
        Out.Req = makeOpen(I.filePath(Index), OpenWrite | OpenCreate);
        Phase = Write;
        return true;
      case Write:
        Fh = Last.Fh;
        Out.Req = makeWrite(Last.Fh, I.randomSize());
        Phase = Close;
        return true;
      case Close:
        Out.Req = makeClose(Fh);
        I.Pool.push_back(Index);
        ++Index;
        Phase = Index < I.Cfg.InitialFiles ? Open : Done;
        return true;
      case Done:
        return false;
      }
      return false;
    }

  private:
    PostmarkInstance &I;
    uint32_t Index = 0;
    FileHandle Fh = InvalidHandle;
    enum { MkOwn, Open, Write, Close, Done } Phase = MkOwn;
  };

  /// Phase 2: the transaction mix. Each transaction is one logical op.
  class BenchStream final : public OpStream {
  public:
    explicit BenchStream(PostmarkInstance &I) : I(I) {}

    bool next(const MetaReply &Last, StreamStep &Out) override {
      if (TxDone >= I.Transactions)
        return false;
      if (Kind < 0) {
        Kind = static_cast<int>(I.R.below(4));
        // Deleting/reading/appending needs a pool; fall back to create.
        if (I.Pool.empty())
          Kind = 0;
        Step = 0;
      }
      switch (Kind) {
      case 0: // create
        switch (Step) {
        case 0:
          TargetId = I.NextId++;
          Out.Req = makeOpen(I.filePath(TargetId), OpenWrite | OpenCreate);
          Step = 1;
          return true;
        case 1:
          Fh = Last.Fh;
          Out.Req = makeWrite(Last.Fh, I.randomSize());
          Step = 2;
          return true;
        default:
          Out.Req = makeClose(Fh);
          finishTx(Out);
          I.Pool.push_back(TargetId);
          return true;
        }
      case 1: { // delete
        size_t Idx = I.R.below(I.Pool.size());
        uint32_t Id = I.Pool[Idx];
        I.Pool[Idx] = I.Pool.back();
        I.Pool.pop_back();
        Out.Req = makeUnlink(I.filePath(Id));
        finishTx(Out);
        return true;
      }
      case 2: // read
        switch (Step) {
        case 0:
          TargetId = I.Pool[I.R.below(I.Pool.size())];
          Out.Req = makeOpen(I.filePath(TargetId), OpenRead);
          Step = 1;
          return true;
        case 1:
          Fh = Last.Fh;
          Out.Req = makeRead(Last.Fh, I.Cfg.ReadBytes);
          Step = 2;
          return true;
        default:
          Out.Req = makeClose(Fh);
          finishTx(Out);
          return true;
        }
      default: // append
        switch (Step) {
        case 0:
          TargetId = I.Pool[I.R.below(I.Pool.size())];
          Out.Req = makeOpen(I.filePath(TargetId), OpenWrite | OpenAppend);
          Step = 1;
          return true;
        case 1:
          Fh = Last.Fh;
          Out.Req = makeWrite(Last.Fh, I.Cfg.AppendBytes);
          Step = 2;
          return true;
        default:
          Out.Req = makeClose(Fh);
          finishTx(Out);
          return true;
        }
      }
    }

  private:
    /// Marks the final request of a transaction: reset the chooser state.
    void finishTx(StreamStep &Out) {
      Out.CompletesOp = true;
      ++TxDone;
      Kind = -1;
    }

    PostmarkInstance &I;
    uint64_t TxDone = 0;
    int Kind = -1; // -1 = choose next; 0 create, 1 delete, 2 read, 3 append
    int Step = 0;
    FileHandle Fh = InvalidHandle;
    uint32_t TargetId = 0;
  };

  /// Phase 3: remove the remaining pool and the directory.
  class CleanupStream final : public OpStream {
  public:
    explicit CleanupStream(const PostmarkInstance &I) : I(I) {}

    bool next(const MetaReply &, StreamStep &Out) override {
      if (Index < I.Pool.size()) {
        Out.Req = makeUnlink(I.filePath(I.Pool[Index]));
        ++Index;
        return true;
      }
      if (!RmdirDone) {
        RmdirDone = true;
        Out.Req = makeRmdir(I.Own.path());
        return true;
      }
      return false;
    }

  private:
    const PostmarkInstance &I;
    size_t Index = 0;
    bool RmdirDone = false;
  };

  std::string filePath(uint32_t Id) const { return Own.child("f", Id); }

  uint64_t randomSize() {
    return Cfg.MinFileSize +
           R.below(Cfg.MaxFileSize - Cfg.MinFileSize + 1);
  }

  PostmarkConfig Cfg;
  Rng R;
  ProcessDir Own;
  uint64_t Transactions;
  std::vector<uint32_t> Pool;
  uint32_t NextId = 0;
};

} // namespace

std::unique_ptr<PluginInstance>
PostmarkPlugin::makeInstance(const PluginContext &Ctx) {
  return std::make_unique<PostmarkInstance>(Ctx, Config);
}

void dmb::registerPostmarkPlugin(PluginRegistry &Registry,
                                 PostmarkConfig Config) {
  Registry.add(std::make_unique<PostmarkPlugin>(Config));
}
