#ifndef WEBTX_EXP_CHAOS_H_
#define WEBTX_EXP_CHAOS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/result.h"
#include "exp/campaign.h"
#include "sim/fault_plan.h"
#include "sim/metrics.h"
#include "sim/simulator.h"

namespace webtx {

/// One fully-specified chaos scenario: workload shape, policy, fault
/// plan (crashes, outages, aborts), retry behavior, and optional
/// admission control. A ChaosCase is a pure value — running it twice
/// replays the byte-identical schedule (ScheduleDigest) — which is what
/// makes shrunken reproducers replayable from a text file.
struct ChaosCase {
  // Workload shape (the knobs the shrinker can simplify).
  uint64_t workload_seed = 1;
  size_t num_transactions = 200;
  double utilization = 0.8;
  uint64_t max_weight = 1;
  size_t max_workflow_length = 1;
  size_t max_workflows_per_txn = 1;
  double burstiness = 0.0;
  double estimate_error = 0.0;

  // System under test.
  size_t num_servers = 1;
  /// Policy spec understood by CreatePolicy (sched/policy_factory.h).
  std::string policy = "FCFS";
  FaultPlanConfig fault;
  RetryOptions retry;
  /// QueueDepthAdmission max_ready cap; 0 = no admission control.
  size_t admission_max_ready = 0;
};

/// Runs the case to completion with outcome and schedule recording on.
/// Fails (InvalidArgument) on nonsensical parameters, never on fault
/// activity — a crashed-to-pieces run still returns its RunResult.
Result<RunResult> RunChaosCase(const ChaosCase& c);

/// Audits a recorded run against the full invariant set: everything
/// ValidateSchedule checks (no execution on a down or crashed server,
/// migrated work conserved or zeroed exactly per the case's
/// MigrationPolicy, every fate accounted for in the goodput/shed/drop
/// partition), wired up from the case's fault plan. Returns OK or the
/// first violation, with timestamps/server/txn ids in the message.
Status CheckChaosInvariants(const ChaosCase& c, const RunResult& result);

/// Order-sensitive FNV-1a digest of the observable behavior of a run:
/// every schedule segment, every outcome (fate, finish, aborts,
/// migrations), and the fault/fate counters. Two runs are considered
/// byte-identical iff their digests match — the replay test's equality
/// oracle, and stable across platforms (doubles hashed by bit pattern).
uint64_t ScheduleDigest(const RunResult& result);

/// Greedily shrinks a failing case while `still_fails` holds: halves
/// the transaction count, drops whole fault streams (aborts, outages,
/// correlated mode, crashes), disables admission and retries, levels
/// the workload shape (weights, workflows, burstiness, estimate
/// error), removes servers, and finally bisects the fault timeline
/// itself — suppressing individual natural crash / outage windows
/// (FaultPlanConfig::suppressed_*, draw-and-discard so the rest of the
/// timeline is untouched) — keeping each simplification only if the
/// predicate still fails. The result is a local minimum: every
/// remaining knob and every remaining fault instant is load-bearing.
/// Requires still_fails(c) on entry.
ChaosCase ShrinkChaosCase(ChaosCase c,
                          const CasePredicate<ChaosCase>& still_fails);

/// Derives case `index` of a campaign from `master_seed` via the
/// DeriveSeed chain: randomizes the policy, workload shape, crash /
/// outage / abort rates, MigrationPolicy, correlated-failure mode,
/// retry options, and admission — biased so most cases crash servers
/// (this is a crash-failover harness). Pure function of its arguments.
ChaosCase RandomChaosCase(uint64_t master_seed, uint64_t index);

/// The simulator campaign domain (exp/campaign.h): every case runs once
/// and is audited by CheckChaosInvariants. Replay files carry the fault
/// plan's suppressed windows as repeated `suppress_crash <server>
/// <ordinal>` / `suppress_outage ...` lines.
struct SimChaos {
  using Case = ChaosCase;
  using Run = RunResult;
  static constexpr char kHeader[] = "webtx-chaos-replay v1";
  static constexpr char kMode[] = "";
  static constexpr char kDigestName[] = "schedule";
  static constexpr size_t kDefaultCases = 200;
  static constexpr bool kRunTwice = false;
  static constexpr std::array<const char*, 4> kTallies = {
      "total_crashes", "total_migrations", "total_aborts", "total_outages"};
  static ReplayFields<ChaosCase> Fields();
  static constexpr auto Random = &RandomChaosCase;
  static constexpr auto Execute = &RunChaosCase;
  static constexpr auto Digest = &ScheduleDigest;
  static constexpr auto Check = &CheckChaosInvariants;
  static constexpr auto Shrink = &ShrinkChaosCase;
  static void Tally(const RunResult& r, Tallies& t) {
    t["total_crashes"] += r.num_crashes;
    t["total_migrations"] += r.num_migrations;
    t["total_aborts"] += r.num_aborts;
    t["total_outages"] += r.num_outages;
  }
};

}  // namespace webtx

#endif  // WEBTX_EXP_CHAOS_H_
