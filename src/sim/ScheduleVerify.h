//===- sim/ScheduleVerify.h - Schedule-perturbation harness ------*- C++ -*-===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reruns a scenario under permuted same-timestamp schedules and checks
/// that its canonical output is bit-identical every time. Same-timestamp
/// ties are the only freedom a discrete-event schedule has — an event
/// scheduled by a running event enters the queue only after its cause
/// executed, so every tie permutation is a legal schedule. A scenario
/// whose output changes under permutation has a hidden ordering
/// dependence; the harness pinpoints the first diverging event pair via
/// the scheduler's event journal.
///
/// The harness also runs the identity precheck: enabling perturbation
/// with seed 0 must be bit-identical (output *and* schedule) to the
/// default scheduler, proving the perturbation plumbing itself is inert.
///
//===----------------------------------------------------------------------===//

#ifndef DMETABENCH_SIM_SCHEDULEVERIFY_H
#define DMETABENCH_SIM_SCHEDULEVERIFY_H

#include <cstdint>
#include <functional>
#include <string>

namespace dmb {

class Scheduler;

/// One scenario under test: builds a world on the given scheduler, runs
/// it to completion, and returns a canonical text rendering of the
/// results (interval TSVs, summaries — whatever must be invariant).
/// The rendering must not include schedule-dependent bookkeeping such as
/// executed-event counts or perturbation seeds.
struct ScheduleScenario {
  std::string Name;
  std::function<std::string(Scheduler &)> Run;
};

struct ScheduleVerifyOptions {
  unsigned Schedules = 8; ///< number of permuted schedules to run
  uint64_t BaseSeed = 1;  ///< seeds used: BaseSeed, BaseSeed+1, ...
};

struct ScheduleVerifyResult {
  bool IdentityIdentical = false; ///< seed-0 run matched the default run
  bool Deterministic = false;     ///< all permuted runs matched
  unsigned SchedulesRun = 0;
  std::string Report; ///< pass summary, or divergence detail on failure

  bool passed() const { return IdentityIdentical && Deterministic; }
};

/// Runs \p Scenario once unperturbed, once with the identity permutation,
/// and then under \p Opt.Schedules seeded permutations, comparing outputs
/// byte-for-byte. Stops at the first divergence.
ScheduleVerifyResult verifySchedules(const ScheduleScenario &Scenario,
                                     const ScheduleVerifyOptions &Opt = {});

} // namespace dmb

#endif // DMETABENCH_SIM_SCHEDULEVERIFY_H
