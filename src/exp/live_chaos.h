#ifndef WEBTX_EXP_LIVE_CHAOS_H_
#define WEBTX_EXP_LIVE_CHAOS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "exp/campaign.h"
#include "rt/executor.h"
#include "rt/live_trace.h"
#include "rt/live_validator.h"
#include "sim/fault_plan.h"

namespace webtx {

/// One randomized resilience scenario against the LIVE executor
/// (rt/executor.h) under a VirtualClock: a seeded task workload
/// submitted at virtual arrival instants, executed with seeded fault
/// injection (crashes, stalls, forced aborts, latency spikes), retry
/// backoff, optional admission control, and the stall watchdog. Every
/// knob is a value, so a case serializes to a replay file and re-runs
/// digest-identically (the live counterpart of exp/chaos.h).
struct LiveChaosCase {
  // -- Workload shape (all draws derive from workload_seed) --
  uint64_t workload_seed = 1;
  size_t num_tasks = 50;
  /// Mean of the exponential inter-arrival gaps, virtual seconds.
  double mean_interarrival = 0.05;
  /// Mean of the exponential simulated task durations.
  double mean_duration = 0.1;
  /// Relative deadline = duration * (1 + deadline_slack * U[0,1)).
  double deadline_slack = 2.0;
  /// Weights drawn uniformly from {1, ..., max_weight}.
  uint64_t max_weight = 1;
  /// Probability a task depends on one uniformly chosen earlier task.
  double dep_prob = 0.0;
  /// Probability a task gets a per-attempt timeout of
  /// duration * (0.5 + 1.5 * U[0,1)) — some attempts time out.
  double timeout_prob = 0.0;

  // -- Executor configuration --
  size_t num_workers = 2;
  /// Transaction-level policy spec (sched/policy_factory.h).
  std::string policy = "EDF";
  /// Seeded fault streams, one per executor slot (migration policy
  /// rides inside: warm/cold failover).
  FaultPlanConfig fault;
  double latency_spike_prob = 0.0;
  double mean_latency_spike = 0.0;
  /// Per-task retry budget and backoff (same for every task).
  uint32_t retry_max_attempts = 1;
  double retry_backoff = 0.0;
  double retry_backoff_multiplier = 2.0;
  /// Executor-wide retry-storm suppression.
  double retry_max_backoff = 0.0;
  size_t retry_budget = 0;
  /// Admission controller: none, a static queue-depth cap, or the
  /// adaptive brownout controller.
  enum class Admission : uint8_t { kNone = 0, kQueueDepth, kBrownout };
  Admission admission = Admission::kNone;
  size_t admission_max_ready = 0;  // kQueueDepth cap
  bool watchdog = false;
  double watchdog_stall_seconds = 0.0;
};

/// Everything one executed case produced, enough to validate and to
/// digest: the quiescent trace, the harness-side ground-truth task
/// records, final outcomes (indexed by TxnId), and the stats snapshot.
struct LiveChaosRun {
  std::vector<rt::LiveTraceEvent> trace;
  std::vector<rt::LiveTaskRecord> tasks;
  std::vector<rt::TaskOutcome> outcomes;
  rt::ExecutorStats stats;
  /// LiveTraceDigest(trace): the replay byte-identity contract.
  uint64_t digest = 0;
};

/// Executes one case to quiescence under a fresh VirtualClock (the
/// caller thread drives submissions at the drawn arrival instants as a
/// registered clock participant) and returns the run record. Fails on
/// invalid case parameters (bad policy spec, bad fault config, zero
/// max_weight, ...).
Result<LiveChaosRun> RunLiveChaosCase(const LiveChaosCase& c);

/// Audits a run against the live crash-era invariants
/// (rt/live_validator.h). Ok iff no violations.
Status CheckLiveChaosInvariants(const LiveChaosCase& c,
                                const LiveChaosRun& run);

/// Greedy shrink: repeatedly simplifies `c` (fewer tasks, dropped fault
/// streams, disabled reactive machinery, fewer workers) keeping only
/// mutations under which `still_fails` holds.
LiveChaosCase ShrinkLiveChaosCase(
    LiveChaosCase c, const CasePredicate<LiveChaosCase>& still_fails);

/// The `index`-th case of a campaign, derived deterministically from
/// `master_seed` (biased toward crash streams — the point of the
/// harness).
LiveChaosCase RandomLiveChaosCase(uint64_t master_seed, uint64_t index);

/// The live-executor campaign domain (exp/campaign.h): every case runs
/// twice, the two trace digests must match, and the first run must pass
/// the live validator.
struct LiveChaos {
  using Case = LiveChaosCase;
  using Run = LiveChaosRun;
  static constexpr char kHeader[] = "webtx-live-chaos-replay v1";
  static constexpr char kMode[] = "live";
  static constexpr char kDigestName[] = "trace";
  static constexpr size_t kDefaultCases = 200;
  static constexpr bool kRunTwice = true;
  static constexpr std::array<const char*, 6> kTallies = {
      "nondeterministic", "total_crashes", "total_stalls",
      "total_migrations", "total_aborts",  "total_retries"};
  static ReplayFields<LiveChaosCase> Fields();
  static constexpr auto Random = &RandomLiveChaosCase;
  static constexpr auto Execute = &RunLiveChaosCase;
  static uint64_t Digest(const LiveChaosRun& run) { return run.digest; }
  static constexpr auto Check = &CheckLiveChaosInvariants;
  static constexpr auto Shrink = &ShrinkLiveChaosCase;
  static void Tally(const LiveChaosRun& run, Tallies& t) {
    t["total_crashes"] += run.stats.crashes;
    t["total_stalls"] += run.stats.stalls;
    t["total_migrations"] += run.stats.migrations;
    t["total_aborts"] += run.stats.forced_aborts;
    t["total_retries"] += run.stats.retries_scheduled;
  }
};

}  // namespace webtx

#endif  // WEBTX_EXP_LIVE_CHAOS_H_
