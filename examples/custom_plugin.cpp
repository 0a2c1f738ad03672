//===- examples/custom_plugin.cpp - Extending DMetabench ------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the extension mechanism of thesis \S 3.2.4: a custom
/// "metadata kernel" plugin. MailSpool models a mail server's delivery
/// transaction (the Postmark / maildir workload the thesis discusses in
/// \S 3.1.4 and \S 2.6.4): create a message under a temporary name, write
/// it, fsync, then atomically rename() it into the spool — the crash-safe
/// delivery idiom. One delivery = one benchmark operation.
///
//===----------------------------------------------------------------------===//

#include "dmetabench/DMetabench.h"
#include "support/Format.h"
#include "support/TextTable.h"
#include <cstdio>

using namespace dmb;

namespace {

/// Per-process state of the MailSpool benchmark.
class MailSpoolInstance : public PluginInstance {
public:
  // The context's directories are borrowed; an instance keeps only what
  // its streams read.
  explicit MailSpoolInstance(const PluginContext &Ctx)
      : Messages(Ctx.ProblemSize),
        Tmp(std::string(Ctx.WorkDir) + format("/tmp%u", Ctx.Ordinal)),
        Spool(std::string(Ctx.WorkDir) + format("/spool%u", Ctx.Ordinal)) {}

  std::unique_ptr<OpStream> prepare() override {
    struct Stream : OpStream {
      MailSpoolInstance &I;
      int Step = 0;
      explicit Stream(MailSpoolInstance &I) : I(I) {}
      bool next(const MetaReply &, StreamStep &Out) override {
        switch (Step++) {
        case 0:
          Out.Req = makeMkdir(I.Tmp);
          return true;
        case 1:
          Out.Req = makeMkdir(I.Spool);
          return true;
        default:
          return false;
        }
      }
    };
    return std::make_unique<Stream>(*this);
  }

  std::unique_ptr<OpStream> bench() override {
    // One delivery: open(tmp) -> write 4k -> fsync -> close ->
    // rename(tmp -> spool). The rename completes the operation.
    struct Stream : OpStream {
      MailSpoolInstance &I;
      uint64_t Msg = 0;
      int Step = 0;
      FileHandle Fh = InvalidHandle;
      explicit Stream(MailSpoolInstance &I) : I(I) {}
      bool next(const MetaReply &Last, StreamStep &Out) override {
        if (Msg >= I.Messages)
          return false;
        std::string TmpName =
            I.Tmp + format("/m%llu", (unsigned long long)Msg);
        switch (Step) {
        case 0:
          Out.Req = makeOpen(TmpName, OpenWrite | OpenCreate);
          Step = 1;
          return true;
        case 1:
          Fh = Last.Fh;
          Out.Req = makeWrite(Fh, 4096);
          Step = 2;
          return true;
        case 2:
          Out.Req = makeFsync(Fh);
          Step = 3;
          return true;
        case 3:
          Out.Req = makeClose(Fh);
          Step = 4;
          return true;
        default:
          Out.Req = makeRename(
              TmpName, I.Spool + format("/m%llu", (unsigned long long)Msg));
          Out.CompletesOp = true;
          Step = 0;
          ++Msg;
          return true;
        }
      }
    };
    return std::make_unique<Stream>(*this);
  }

  std::unique_ptr<OpStream> cleanup() override {
    struct Stream : OpStream {
      MailSpoolInstance &I;
      uint64_t Msg = 0;
      int Stage = 0;
      explicit Stream(MailSpoolInstance &I) : I(I) {}
      bool next(const MetaReply &, StreamStep &Out) override {
        if (Stage == 0) {
          if (Msg < I.Messages) {
            Out.Req = makeUnlink(
                I.Spool + format("/m%llu", (unsigned long long)Msg));
            ++Msg;
            return true;
          }
          Stage = 1;
        }
        if (Stage == 1) {
          Out.Req = makeRmdir(I.Spool);
          Stage = 2;
          return true;
        }
        if (Stage == 2) {
          Out.Req = makeRmdir(I.Tmp);
          Stage = 3;
          return true;
        }
        return false;
      }
    };
    return std::make_unique<Stream>(*this);
  }

private:
  uint64_t Messages;
  std::string Tmp;
  std::string Spool;
};

class MailSpoolPlugin : public BenchmarkPlugin {
public:
  std::string name() const override { return "MailSpool"; }
  std::unique_ptr<PluginInstance>
  makeInstance(const PluginContext &Ctx) override {
    return std::make_unique<MailSpoolInstance>(Ctx);
  }
};

} // namespace

int main() {
  // Register the custom plugin — afterwards it is a first-class operation.
  PluginRegistry::global().add(std::make_unique<MailSpoolPlugin>());

  Scheduler S;
  Cluster C(S, 4, 8);
  NfsFs Nfs(S);
  LustreFs Lustre(S);
  C.mountEverywhere(Nfs);
  C.mountEverywhere(Lustre);
  MpiEnvironment Env = MpiEnvironment::uniform(4, 3);

  std::printf("Custom 'MailSpool' metadata kernel (create/write/fsync/"
              "rename per delivery):\n\n");
  TextTable T;
  T.setHeader({"file system", "nodes x ppn", "deliveries/s"});
  for (const char *Fs : {"nfs", "lustre"}) {
    for (unsigned Nodes : {1u, 2u, 4u}) {
      BenchParams P;
      P.Operations = {"MailSpool"};
      P.ProblemSize = 1000;
      Master M(C, Env, Fs, P);
      ResultSet Res = M.runCombination(Nodes, 2);
      T.addRow({Fs, format("%ux2", Nodes),
                format("%.0f", stonewallAverage(Res.Subtasks[0]))});
    }
  }
  std::fputs(T.render().c_str(), stdout);
  std::printf("\nThe atomic-rename delivery idiom relies on the rename "
              "semantics of §2.6.3;\non namespace-aggregated systems the "
              "spool and tmp directory must share a\nvolume or the rename "
              "fails with EXDEV.\n");
  return 0;
}
