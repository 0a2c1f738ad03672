//===- sim/Resource.h - FIFO multi-server queueing resource -----*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A k-server FIFO queue: the building block for server CPUs, disk heads and
/// NVRAM log stages in the simulated file servers. Contention between
/// parallel benchmark processes (thesis \S 3.2.2) arises from these queues.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_RESOURCE_H
#define DMETABENCH_SIM_RESOURCE_H

#include "sim/Scheduler.h"
#include "sim/Time.h"
#include "support/RingQueue.h"
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dmb {

/// FIFO queueing station with a fixed number of identical servers.
///
/// Requests specify a service duration; the completion callback fires once
/// the request has waited for a free server and been serviced. An optional
/// service-time multiplier models transient slowdowns (snapshot creation,
/// consistency-point flushes).
class Resource {
public:
  using Completion = std::function<void()>;

  /// One queue-state transition, recorded when metrics are enabled: the
  /// piecewise-constant (queue length, busy servers) state from \p When
  /// until the next sample. Analysis resamples these onto the interval
  /// grid (TraceAnalysis::resampleResourceMetrics).
  struct MetricsSample {
    SimTime When = 0;
    uint32_t QueueLen = 0;
    uint32_t Busy = 0;
  };

  Resource(Scheduler &Sched, std::string Name, unsigned NumServers);
  ~Resource();
  Resource(const Resource &) = delete;
  Resource &operator=(const Resource &) = delete;

  /// Enqueues a request with the given nominal service time.
  void request(SimDuration Service, Completion Done);

  /// Multiplies the service time of newly *started* requests. Used by the
  /// disturbance injectors; 1.0 is nominal.
  void setSlowdown(double Factor) { Slowdown = Factor < 0 ? 0 : Factor; }
  double slowdown() const { return Slowdown; }

  /// Observability for tests and charts.
  unsigned busyServers() const { return Busy; }
  size_t queueLength() const { return Waiting.size(); }
  uint64_t completedRequests() const { return Completed; }
  SimDuration totalBusyTime() const { return BusyTime; }
  const std::string &name() const { return Name; }
  unsigned numServers() const { return NumServers; }

  /// Starts recording queue-depth/utilization transitions (server metrics
  /// time series). Purely observational: no events, no timing change.
  void enableMetrics();
  bool metricsEnabled() const { return Metrics; }
  const std::vector<MetricsSample> &metricsSamples() const {
    return Samples;
  }

private:
  struct Pending {
    SimDuration Service;
    Completion Done;
    uint64_t Trace = 0; ///< trace id of the requesting operation
  };

  void startService(Pending P);
  void finishOne(uint64_t FinishedTrace);
  void report(SimDiagnostics &D) const;
  void sampleState();

  Scheduler &Sched;
  std::string Name;
  uint64_t CheckId = 0;
  unsigned NumServers;
  unsigned Busy = 0;
  double Slowdown = 1.0;
  uint64_t Completed = 0;
  SimDuration BusyTime = 0;
  RingQueue<Pending> Waiting;
  bool Metrics = false;
  std::vector<MetricsSample> Samples;
};

} // namespace dmb

#endif // DMETABENCH_SIM_RESOURCE_H
