//===- core/Worker.h - Worker process engine ---------------------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One benchmark worker process (thesis \S 3.3.2): a closed loop pulling
/// requests from the current phase's OpStream, charging per-call harness
/// overhead on the node CPU, submitting to the node's file system client,
/// and logging completed operations into the TimeLog — the supervisor
/// thread's role from Fig. 3.7.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_CORE_WORKER_H
#define DMETABENCH_CORE_WORKER_H

#include "workload/Plugin.h"
#include "core/TimeLog.h"
#include "sim/Scheduler.h"
#include "sim/SharedProcessor.h"
#include <functional>
#include <memory>
#include <string>

namespace dmb {

/// Static configuration of one worker process. Kept lean on purpose: a
/// million-client run holds one of these per simulated process, so shared
/// facts (the node hostname, identical for every worker on a node) are
/// borrowed by pointer instead of copied per worker.
struct WorkerConfig {
  int Rank = 1;
  unsigned Ordinal = 0;
  /// The owning node's hostname; not owned (the ClusterNode outlives its
  /// workers). Null reads as an empty hostname in result traces.
  const std::string *Hostname = nullptr;
  ClientFs *Client = nullptr;
  SharedProcessor *Cpu = nullptr;
  /// Scheduling weight of this process on its node (nice level, \S 4.4).
  double CpuWeight = 1.0;
  /// Client-side CPU cost per file system call (\S 4.2.2).
  SimDuration PerCallOverhead = microseconds(7);
  /// Identity stamped on every request this worker issues.
  Cred Creds;
};

/// Executes plugin phases for one process.
class WorkerProcess {
public:
  WorkerProcess(Scheduler &Sched, WorkerConfig Config);

  /// Runs one phase to completion (or until \p Deadline for time-limited
  /// bench phases; 0 disables the deadline). When \p Record is true,
  /// completed operations are logged into log(). \p Done fires when the
  /// phase has finished.
  void runPhase(std::unique_ptr<OpStream> Stream, bool Record,
                SimTime Deadline, std::function<void()> Done);

  TimeLog &log() { return Log; }
  const WorkerConfig &config() const { return Config; }
  uint64_t failedRequests() const { return Failures; }
  void resetFailures() { Failures = 0; }

private:
  /// Starts the next request of the phase, which the stream derives from
  /// \p Last, the reply to the previous one.
  void step(const MetaReply &Last);
  /// Hands the in-flight request to the client, once the node CPU has
  /// charged the call overhead.
  void submitRequest();
  void onReply(MetaReply Reply);

  Scheduler &Sched;
  WorkerConfig Config;
  TimeLog Log;
  uint64_t Failures = 0;

  // Per-phase state.
  std::unique_ptr<OpStream> Stream;
  bool Record = false;
  SimTime Deadline = 0;
  std::function<void()> Done;
  bool AtOpBoundary = true;

  // The single in-flight request of this closed loop, so that the CPU and
  // reply closures capture only `this`.
  MetaRequest Req;
  bool Completes = false;
  uint64_t OpCount = 0;
  uint64_t Trace = 0;
};

} // namespace dmb

#endif // DMETABENCH_CORE_WORKER_H
