//===- sim/ScheduleVerify.cpp ---------------------------------------------===//
//
// Part of the DMetabench reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/ScheduleVerify.h"
#include "sim/Scheduler.h"
#include "support/Format.h"
#include <algorithm>
#include <vector>

using namespace dmb;

namespace {
struct RunOutcome {
  std::string Output;
  std::vector<Scheduler::JournalEntry> Journal;
};
} // namespace

static RunOutcome runOnce(const ScheduleScenario &Scenario, bool Perturb,
                          uint64_t Seed) {
  Scheduler S;
  S.enableEventJournal();
  if (Perturb)
    S.enableSchedulePerturbation(Seed);
  RunOutcome Out;
  Out.Output = Scenario.Run(S);
  Out.Journal = S.eventJournal();
  return Out;
}

/// Names the first event pair where the two schedules diverge, plus the
/// first line of output that differs.
static std::string describeDivergence(const ScheduleScenario &Scenario,
                                      uint64_t Seed, const RunOutcome &Base,
                                      const RunOutcome &Got) {
  std::string Out =
      format("scenario %s is schedule-dependent (seed %llu): ",
             Scenario.Name.c_str(), static_cast<unsigned long long>(Seed));
  size_t N = std::min(Base.Journal.size(), Got.Journal.size());
  size_t I = 0;
  while (I < N && Base.Journal[I] == Got.Journal[I])
    ++I;
  if (I < N) {
    const Scheduler::JournalEntry &A = Base.Journal[I], &B = Got.Journal[I];
    Out += format("first divergence at event %zu — baseline ran seq %llu "
                  "(t=%.6fs, trace id %llu), permuted ran seq %llu "
                  "(t=%.6fs, trace id %llu). ",
                  I, static_cast<unsigned long long>(A.Seq), toSeconds(A.When),
                  static_cast<unsigned long long>(A.Trace),
                  static_cast<unsigned long long>(B.Seq), toSeconds(B.When),
                  static_cast<unsigned long long>(B.Trace));
  } else {
    Out += format("schedules agree on the first %zu events but differ in "
                  "length (%zu vs %zu). ",
                  N, Base.Journal.size(), Got.Journal.size());
  }
  std::vector<std::string> BaseLines = split(Base.Output, '\n');
  std::vector<std::string> GotLines = split(Got.Output, '\n');
  size_t L = 0;
  size_t M = std::min(BaseLines.size(), GotLines.size());
  while (L < M && BaseLines[L] == GotLines[L])
    ++L;
  Out += format("First differing output line %zu:\n  baseline: %s\n  "
                "permuted: %s",
                L + 1, L < BaseLines.size() ? BaseLines[L].c_str() : "<eof>",
                L < GotLines.size() ? GotLines[L].c_str() : "<eof>");
  return Out;
}

ScheduleVerifyResult dmb::verifySchedules(const ScheduleScenario &Scenario,
                                          const ScheduleVerifyOptions &Opt) {
  ScheduleVerifyResult Res;
  RunOutcome Base = runOnce(Scenario, /*Perturb=*/false, 0);
  if (Base.Output.empty()) {
    // Comparing nothing against nothing would "pass" vacuously; a scenario
    // that produces no output is a harness bug, not a verified scenario.
    Res.Report = format("scenario %s produced no output; refusing to verify "
                        "an empty result",
                        Scenario.Name.c_str());
    return Res;
  }

  // Identity precheck: the perturbation plumbing with seed 0 must change
  // nothing, neither the results nor the schedule itself.
  RunOutcome Ident = runOnce(Scenario, /*Perturb=*/true, 0);
  Res.IdentityIdentical =
      Ident.Output == Base.Output && Ident.Journal == Base.Journal;
  if (!Res.IdentityIdentical) {
    Res.Report = format("scenario %s: identity permutation is NOT "
                        "bit-identical to the default scheduler",
                        Scenario.Name.c_str());
    return Res;
  }

  for (unsigned I = 0; I < Opt.Schedules; ++I) {
    uint64_t Seed = Opt.BaseSeed + I;
    if (Seed == 0)
      Seed = 0x9e3779b9;
    RunOutcome Got = runOnce(Scenario, /*Perturb=*/true, Seed);
    ++Res.SchedulesRun;
    if (Got.Output != Base.Output) {
      Res.Report = describeDivergence(Scenario, Seed, Base, Got);
      return Res;
    }
  }
  Res.Deterministic = true;
  Res.Report = format("scenario %s: identity schedule bit-identical; output "
                      "invariant under %u permuted schedules",
                      Scenario.Name.c_str(), Res.SchedulesRun);
  return Res;
}
