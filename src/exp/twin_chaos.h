#ifndef WEBTX_EXP_TWIN_CHAOS_H_
#define WEBTX_EXP_TWIN_CHAOS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "exp/campaign.h"
#include "rt/twin.h"
#include "sim/fault_plan.h"
#include "workload/live_arrivals.h"

namespace webtx {

/// One randomized digital-twin scenario (rt/twin.h) under a
/// VirtualClock: a seeded open-loop workload (Poisson / bursty ON-OFF /
/// flash crowd) served by the live executor while the shadow-simulator
/// controller forecasts, switches, and — when the model is corrupted —
/// falls back. Every knob is a value, so a case serializes to a replay
/// file and re-runs digest-identically (the twin counterpart of
/// exp/live_chaos.h; the digest additionally covers the controller's
/// decision log).
struct TwinChaosCase {
  // -- Workload shape (all draws derive from workload_seed) --
  LiveArrivalShape shape = LiveArrivalShape::kFlashCrowd;
  uint64_t workload_seed = 1;
  size_t num_tasks = 80;
  double rate = 100.0;
  double burstiness = 0.5;        // kOnOff
  double on_off_mean_cycle = 2.0;
  double spike_factor = 8.0;      // kFlashCrowd
  double spike_start = 0.5;
  double spike_duration = 0.5;
  double mean_duration = 0.05;
  double deadline_slack = 2.0;
  uint64_t max_weight = 1;

  // -- Controller configuration --
  std::vector<rt::TwinCandidate> candidates;
  size_t static_index = 0;
  bool controller_enabled = true;
  double control_interval = 0.25;
  double forecast_horizon = 0.5;
  double switch_margin = 0.1;
  size_t dwell_ticks = 2;
  double shed_penalty = 1.0;
  double divergence_tolerance = 2.0;
  double divergence_abs_floor = 0.05;
  double shed_divergence = 0.5;
  size_t guard_strikes = 2;
  size_t guard_cooldown_ticks = 4;
  uint64_t forecast_seed = 2009;
  double snapshot_corruption = 1.0;

  // -- Forecast execution (decision-loop cost knobs) --
  // Digest-neutral by contract (rt::TwinOptions); the campaign sweeps
  // them and the determinism audit is the enforcement.
  size_t forecast_threads = 1;
  bool pooled_forecasts = true;
  bool prune = false;
  double prune_prefix = 0.4;

  // -- Executor configuration --
  size_t num_workers = 2;
  FaultPlanConfig fault;
  double latency_spike_prob = 0.0;
  double mean_latency_spike = 0.0;
  uint32_t retry_max_attempts = 1;
  double retry_backoff = 0.0;
  double retry_backoff_multiplier = 2.0;
  double retry_max_backoff = 0.0;
  size_t retry_budget = 0;
  bool watchdog = false;
  double watchdog_stall_seconds = 0.0;
};

/// Executes one case to quiescence and returns the twin's full report.
/// Fails (InvalidArgument) on nonsensical parameters such as zero tasks,
/// a non-positive rate, a zero max_weight or an empty candidate table.
Result<rt::TwinReport> RunTwinChaosCase(const TwinChaosCase& c);

/// Audits a run: the live-trace invariants (rt/live_validator.h) plus
/// the controller contract — decision times strictly increasing on the
/// tick grid, applied indices in range, every fallback pinning the
/// static configuration and entering its cooldown. Ok iff no
/// violations.
Status CheckTwinChaosInvariants(const TwinChaosCase& c,
                                const rt::TwinReport& report);

/// Greedy shrink: fewer tasks, dropped fault streams, an honest model,
/// a smaller candidate table, fewer workers — keeping only mutations
/// under which `still_fails` holds.
TwinChaosCase ShrinkTwinChaosCase(
    TwinChaosCase c, const CasePredicate<TwinChaosCase>& still_fails);

/// The `index`-th case of a campaign, derived deterministically from
/// `master_seed` (biased toward flash crowds and occasional corrupted
/// models — the guard is the point of the harness).
TwinChaosCase RandomTwinChaosCase(uint64_t master_seed, uint64_t index);

/// The digital-twin campaign domain (exp/campaign.h): every case runs
/// twice (the digest covers the trace AND the decision log). Replays
/// carry the candidate table as `candidate <policy> <admission>
/// <max_ready> <capacity_slo>` lines in table order.
struct TwinChaos {
  using Case = TwinChaosCase;
  using Run = rt::TwinReport;
  static constexpr char kHeader[] = "webtx-twin-replay v1";
  static constexpr char kMode[] = "twin";
  static constexpr char kDigestName[] = "twin";
  /// Each case runs the live loop twice plus a simulator fleet per tick.
  static constexpr size_t kDefaultCases = 25;
  static constexpr bool kRunTwice = true;
  static constexpr std::array<const char*, 7> kTallies = {
      "nondeterministic", "thread_mismatch",  "total_decisions",
      "total_switches",   "total_fallbacks",  "total_crashes",
      "total_migrations"};
  static ReplayFields<TwinChaosCase> Fields();
  static constexpr auto Random = &RandomTwinChaosCase;
  static constexpr auto Execute = &RunTwinChaosCase;
  static uint64_t Digest(const rt::TwinReport& r) { return r.digest; }
  static constexpr auto Check = &CheckTwinChaosInvariants;
  static constexpr auto Shrink = &ShrinkTwinChaosCase;
  static void Tally(const rt::TwinReport& r, Tallies& t) {
    t["total_decisions"] += r.decisions.size();
    t["total_switches"] += r.switches;
    t["total_fallbacks"] += r.fallbacks;
    t["total_crashes"] += r.stats.crashes;
    t["total_migrations"] += r.stats.migrations;
  }
  /// The forecast-execution knobs may only change how fast the controller
  /// decides, never what: a controller-enabled case re-runs at the other
  /// two of forecast_threads 1/2/8 and with pooling toggled, and every
  /// digest must match `digest` (else a "thread_mismatch").
  static Result<std::string> Sweep(const TwinChaosCase& c, uint64_t digest,
                                   Tallies& tallies);
};

}  // namespace webtx

#endif  // WEBTX_EXP_TWIN_CHAOS_H_
