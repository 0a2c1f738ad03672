//===- workload/Plugin.h - Benchmark plugin interface ----------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The plugin interface of thesis \S 3.2.4/\S 3.3.3: an operation is
/// defined by user-supplied code running inside the framework's common
/// runtime and measurement infrastructure. Every plugin instance runs three
/// phases — prepare, doBench, cleanup (Fig. 3.7) — each expressed as a lazy
/// stream of file system requests; the framework drives the stream, charges
/// harness overhead, and logs completed operations per time interval.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_WORKLOAD_PLUGIN_H
#define DMETABENCH_WORKLOAD_PLUGIN_H

#include "dfs/ClientFs.h"
#include "dfs/Message.h"
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dmb {

/// Per-worker-process information a plugin instance is constructed with.
/// The two directories are borrowed from the subtask's interned work
/// directories, which outlive every instance of the subtask: an instance
/// may keep the views, not only read them while it is constructed.
struct PluginContext {
  int Rank = 1;                    ///< MPI rank
  unsigned Ordinal = 0;            ///< position in execution order (Fig. 3.9)
  unsigned TotalWorkers = 1;       ///< workers in this subtask
  std::string_view WorkDir;        ///< assigned working directory (\S 3.3.6)
  std::string_view PartnerWorkDir; ///< partner's working directory
  unsigned PartnerOrdinal = 0; ///< partner process (other node if possible)
  uint64_t ProblemSize = 5000;
  Cred Creds;
};

/// One step produced by an operation stream.
struct StreamStep {
  MetaRequest Req;
  /// True when the *completion* of this request finishes one logical
  /// benchmark operation (e.g. the close() of an open/close pair).
  bool CompletesOp = false;
  /// How many logical operations the completion counts for (default one;
  /// batched requests like readdirplus count one per entry statted).
  uint64_t OpCount = 1;
};

/// A lazily generated sequence of requests forming one phase. A stream
/// owns its state and lives only while its phase runs: it may borrow from
/// the instance that made it, which outlives every one of its streams.
class OpStream {
public:
  virtual ~OpStream();

  /// Produces the next request given the reply to the previous one
  /// (default-constructed on the first call). Returns false when the phase
  /// is complete.
  virtual bool next(const MetaReply &Last, StreamStep &Out) = 0;
};

/// Per-process state of one plugin for one subtask: the three phases plus
/// the between-phase hook.
class PluginInstance {
public:
  virtual ~PluginInstance();

  /// Phase 1: establish preconditions (test files etc.).
  virtual std::unique_ptr<OpStream> prepare() { return nullptr; }

  /// Called between prepare and doBench — where StatNocacheFiles drops the
  /// OS caches (\S 3.4.3).
  virtual void beforeBench(ClientFs &Client) { (void)Client; }

  /// Phase 2: the measured operations.
  virtual std::unique_ptr<OpStream> bench() = 0;

  /// Phase 3: remove test data so operations stay independent (\S 3.3.3).
  virtual std::unique_ptr<OpStream> cleanup() { return nullptr; }
};

/// A named benchmark operation (Table 3.5 lists the pre-defined ones).
class BenchmarkPlugin {
public:
  virtual ~BenchmarkPlugin();

  virtual std::string name() const = 0;

  /// True for fixed-duration plugins (MakeFiles/MakeDirs run for the
  /// configured TimeLimit; \S 3.3.7); false for fixed-problem-size ones.
  virtual bool isTimeLimited() const { return false; }

  virtual std::unique_ptr<PluginInstance>
  makeInstance(const PluginContext &Ctx) = 0;
};

/// Name -> plugin lookup. global() comes pre-populated with the ten
/// pre-defined benchmarks of Table 3.5.
class PluginRegistry {
public:
  /// The process-wide registry with built-ins registered.
  static PluginRegistry &global();

  /// Adds (or replaces) a plugin.
  void add(std::unique_ptr<BenchmarkPlugin> Plugin);

  /// Looks up a plugin by name; nullptr when unknown.
  BenchmarkPlugin *get(const std::string &Name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

private:
  std::map<std::string, std::unique_ptr<BenchmarkPlugin>> Plugins;
};

/// Registers the pre-defined benchmarks of Table 3.5 into \p Registry.
void registerBuiltinPlugins(PluginRegistry &Registry);

/// Registers the extension benchmarks beyond Table 3.5 implementing the
/// thesis's outlook (Ch. 5): BulkStatFiles (readdirplus batched stats,
/// \S 5.3.2) and ReaddirFiles (directory listing). Not registered by
/// default; call this on PluginRegistry::global() to enable them.
void registerExtensionPlugins(PluginRegistry &Registry);

} // namespace dmb

#endif // DMETABENCH_WORKLOAD_PLUGIN_H
