#include "exp/twin_chaos.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>

#include "common/rng.h"
#include "rt/live_validator.h"

namespace webtx {

namespace {

// DeriveSeed coordinates of the twin harness's own seed streams
// (arbitrary but fixed; reproducers depend on them). Distinct from the
// sim and live chaos streams so the campaigns never alias.
constexpr uint64_t kTwinCaseStream = 0x7714CA5Eull;
constexpr uint64_t kTwinFaultStream = 0x7714FA17ull;
constexpr uint64_t kTwinForecastStream = 0x7714F05Eull;

rt::TwinOptions TwinOptionsFor(const TwinChaosCase& c) {
  rt::TwinOptions options;
  options.num_workers = c.num_workers;
  options.candidates = c.candidates;
  options.static_index = c.static_index;
  options.controller_enabled = c.controller_enabled;
  options.control_interval = c.control_interval;
  options.forecast_horizon = c.forecast_horizon;
  options.switch_margin = c.switch_margin;
  options.dwell_ticks = c.dwell_ticks;
  options.shed_penalty = c.shed_penalty;
  options.divergence_tolerance = c.divergence_tolerance;
  options.divergence_abs_floor = c.divergence_abs_floor;
  options.shed_divergence = c.shed_divergence;
  options.guard_strikes = c.guard_strikes;
  options.guard_cooldown_ticks = c.guard_cooldown_ticks;
  options.forecast_seed = c.forecast_seed;
  options.snapshot_corruption = c.snapshot_corruption;
  options.forecast_threads = c.forecast_threads;
  options.pooled_forecasts = c.pooled_forecasts;
  options.prune = c.prune;
  options.prune_prefix = c.prune_prefix;
  options.faults.plan = c.fault;
  options.faults.latency_spike_prob = c.latency_spike_prob;
  options.faults.mean_latency_spike = c.mean_latency_spike;
  options.migration = c.fault.migration;
  options.watchdog = c.watchdog;
  options.watchdog_stall_seconds = c.watchdog_stall_seconds;
  options.retry_max_attempts = c.retry_max_attempts;
  options.retry_backoff = c.retry_backoff;
  options.retry_backoff_multiplier = c.retry_backoff_multiplier;
  options.retry_max_backoff = c.retry_max_backoff;
  options.retry_budget = c.retry_budget;
  return options;
}

}  // namespace

Result<rt::TwinReport> RunTwinChaosCase(const TwinChaosCase& c) {
  if (c.num_tasks == 0 || c.max_weight == 0) {
    return Status::InvalidArgument("num_tasks and max_weight must be >= 1");
  }
  if (!(c.rate > 0.0) || !(c.mean_duration > 0.0)) {
    return Status::InvalidArgument("rate and mean_duration must be > 0");
  }
  LiveArrivalOptions workload;
  workload.shape = c.shape;
  workload.seed = c.workload_seed;
  workload.num_tasks = c.num_tasks;
  workload.rate = c.rate;
  workload.burstiness = c.burstiness;
  workload.on_off_mean_cycle = c.on_off_mean_cycle;
  workload.spike_factor = c.spike_factor;
  workload.spike_start = c.spike_start;
  workload.spike_duration = c.spike_duration;
  workload.mean_duration = c.mean_duration;
  workload.deadline_slack = c.deadline_slack;
  workload.max_weight = c.max_weight;
  const std::vector<LiveArrival> arrivals = GenerateLiveArrivals(workload);
  rt::Twin twin(TwinOptionsFor(c));
  return twin.Run(arrivals);
}

Status CheckTwinChaosInvariants(const TwinChaosCase& c,
                                const rt::TwinReport& report) {
  std::vector<std::string> violations;
  const rt::LiveValidationResult verdict = rt::ValidateLiveTrace(
      report.trace, report.tasks, report.outcomes, report.stats,
      report.validator_options);
  violations.insert(violations.end(), verdict.violations.begin(),
                    verdict.violations.end());

  // Controller contract.
  if (!c.controller_enabled && !report.decisions.empty()) {
    violations.push_back("decisions recorded with the controller disabled");
  }
  double prev_time = 0.0;
  size_t pending_cooldown = 0;
  for (size_t i = 0; i < report.decisions.size(); ++i) {
    const rt::TwinDecision& d = report.decisions[i];
    std::ostringstream at;
    at << "decision " << i << " (t=" << d.time << "): ";
    if (!(d.time > prev_time)) {
      violations.push_back(at.str() + "tick times not strictly increasing");
    }
    prev_time = d.time;
    if (d.applied >= c.candidates.size() || d.best >= c.candidates.size()) {
      violations.push_back(at.str() + "candidate index out of range");
      continue;
    }
    switch (d.kind) {
      case rt::TwinDecision::Kind::kFallback:
        if (d.applied != c.static_index) {
          violations.push_back(at.str() +
                               "fallback did not pin the static config");
        }
        pending_cooldown = c.guard_cooldown_ticks;
        break;
      case rt::TwinDecision::Kind::kCooldown:
      case rt::TwinDecision::Kind::kReenable: {
        if (pending_cooldown == 0) {
          violations.push_back(at.str() + "cooldown tick without a fallback");
          break;
        }
        --pending_cooldown;
        const bool last = pending_cooldown == 0;
        const bool is_reenable = d.kind == rt::TwinDecision::Kind::kReenable;
        if (last != is_reenable) {
          violations.push_back(at.str() + "cooldown/reenable out of order");
        }
        if (d.applied != c.static_index) {
          violations.push_back(at.str() + "left static during cooldown");
        }
        break;
      }
      case rt::TwinDecision::Kind::kHold:
      case rt::TwinDecision::Kind::kSwitch:
        if (pending_cooldown != 0) {
          violations.push_back(at.str() + "forecast tick during cooldown");
        }
        break;
    }
  }
  const size_t fallbacks = static_cast<size_t>(
      std::count_if(report.decisions.begin(), report.decisions.end(),
                    [](const rt::TwinDecision& d) {
                      return d.kind == rt::TwinDecision::Kind::kFallback;
                    }));
  if (fallbacks != report.fallbacks) {
    violations.push_back("fallback counter disagrees with the decision log");
  }

  return InvariantViolations("twin", violations);
}

ReplayFields<TwinChaosCase> TwinChaos::Fields() {
  using C = TwinChaosCase;
  using Admission = rt::TwinCandidate::Admission;
  const EnumNames<Admission> admissions = {
      {Admission::kNone, "none"},
      {Admission::kQueueDepth, "depth"},
      {Admission::kBrownout, "brownout"}};
  ReplayFields<C> f = {
      Field("shape", &C::shape,
            EnumNames<LiveArrivalShape>{
                {LiveArrivalShape::kPoisson, "poisson"},
                {LiveArrivalShape::kOnOff, "onoff"},
                {LiveArrivalShape::kFlashCrowd, "flash"}}),
      Field("workload_seed", &C::workload_seed),
      Field("num_tasks", &C::num_tasks),
      Field("rate", &C::rate),
      Field("burstiness", &C::burstiness),
      Field("on_off_mean_cycle", &C::on_off_mean_cycle),
      Field("spike_factor", &C::spike_factor),
      Field("spike_start", &C::spike_start),
      Field("spike_duration", &C::spike_duration),
      Field("mean_duration", &C::mean_duration),
      Field("deadline_slack", &C::deadline_slack),
      Field("max_weight", &C::max_weight),
      RepeatedField(
          "candidate", &C::candidates,
          [admissions](const rt::TwinCandidate& cand) {
            return cand.policy + ' ' +
                   FormatValue(cand.admission, admissions) + ' ' +
                   FormatValue(cand.max_ready) + ' ' +
                   FormatValue(cand.capacity_slo);
          },
          [admissions](const std::string& value, rt::TwinCandidate* cand) {
            std::vector<std::string> tokens;
            if (!SplitValue(value, 4, &tokens)) return false;
            cand->policy = tokens[0];
            return ParseValue(tokens[1], &cand->admission, admissions) &&
                   ParseValue(tokens[2], &cand->max_ready) &&
                   ParseValue(tokens[3], &cand->capacity_slo);
          }),
      Field("static_index", &C::static_index),
      Field("controller_enabled", &C::controller_enabled),
      Field("control_interval", &C::control_interval),
      Field("forecast_horizon", &C::forecast_horizon),
      Field("switch_margin", &C::switch_margin),
      Field("dwell_ticks", &C::dwell_ticks),
      Field("shed_penalty", &C::shed_penalty),
      Field("divergence_tolerance", &C::divergence_tolerance),
      Field("divergence_abs_floor", &C::divergence_abs_floor),
      Field("shed_divergence", &C::shed_divergence),
      Field("guard_strikes", &C::guard_strikes),
      Field("guard_cooldown_ticks", &C::guard_cooldown_ticks),
      Field("forecast_seed", &C::forecast_seed),
      Field("snapshot_corruption", &C::snapshot_corruption),
      Field("forecast_threads", &C::forecast_threads),
      Field("pooled_forecasts", &C::pooled_forecasts),
      Field("prune", &C::prune),
      Field("prune_prefix", &C::prune_prefix),
      Field("num_workers", &C::num_workers)};
  AppendFields(f, &C::fault, FaultFields());
  AppendExecutorFields(f, {});
  return f;
}

Result<std::string> TwinChaos::Sweep(const TwinChaosCase& c, uint64_t digest,
                                     Tallies& tallies) {
  if (!c.controller_enabled) return std::string();
  std::vector<TwinChaosCase> variants(3, c);
  variants[0].forecast_threads = c.forecast_threads == 1 ? 2 : 1;
  variants[1].forecast_threads = c.forecast_threads == 8 ? 2 : 8;
  variants[2].pooled_forecasts = !c.pooled_forecasts;
  for (const TwinChaosCase& v : variants) {
    WEBTX_ASSIGN_OR_RETURN(const rt::TwinReport swept, RunTwinChaosCase(v));
    if (swept.digest == digest) continue;
    ++tallies["thread_mismatch"];
    std::ostringstream os;
    os << "neutrality: "
       << (v.pooled_forecasts == c.pooled_forecasts
               ? "forecast_threads=" + FormatValue(v.forecast_threads)
               : "pooled_forecasts=" + FormatValue(v.pooled_forecasts))
       << " changed the twin digest (" << std::hex << digest << " vs "
       << swept.digest << ")";
    return os.str();
  }
  return std::string();
}

TwinChaosCase ShrinkTwinChaosCase(
    TwinChaosCase c, const CasePredicate<TwinChaosCase>& still_fails) {
  using C = TwinChaosCase;
  // Halve the workload first: every later probe re-runs the case (twice,
  // for the determinism audit), so a short horizon pays for the pass.
  HalveWhileFailing(c, &C::num_tasks, still_fails);
  // Drop fault dimensions, least-suspect first.
  TryMutation(c, DropLatencySpikes, still_fails);
  TryMutation(c, DropAborts, still_fails);
  TryMutation(c, DropWatchdog, still_fails);
  TryMutation(c, DropOutages, still_fails);
  TryMutation(c, DropCrashes, still_fails);
  TryMutation(c, ResetRetries, still_fails);
  // Make the model honest and the workload plain.
  TryMutation(c, [](C& x) { x.snapshot_corruption = 1.0; }, still_fails);
  TryMutation(
      c, [](C& x) { x.shape = LiveArrivalShape::kPoisson; }, still_fails);
  TryMutation(c, [](C& x) { x.max_weight = 1; }, still_fails);
  // Shrink the candidate table from the back (never dropping the static
  // config); with one candidate left, try disabling the controller
  // outright.
  while (c.candidates.size() > 1 &&
         TryMutation(
             c,
             [](C& x) {
               const size_t victim = x.candidates.size() - 1;
               if (victim == x.static_index) {
                 std::swap(x.candidates[victim],
                           x.candidates[x.static_index == 0 ? 1 : 0]);
                 x.static_index = x.static_index == 0 ? 1 : 0;
               }
               x.candidates.pop_back();
               if (x.static_index >= x.candidates.size()) x.static_index = 0;
             },
             still_fails)) {
  }
  TryMutation(c, [](C& x) { x.controller_enabled = false; }, still_fails);
  // Remove workers one at a time, then retry the workload halving.
  DecrementWhileFailing(c, &C::num_workers, still_fails);
  HalveWhileFailing(c, &C::num_tasks, still_fails);
  return c;
}

TwinChaosCase RandomTwinChaosCase(uint64_t master_seed, uint64_t index) {
  Rng rng(DeriveSeed(master_seed, kTwinCaseStream, index));
  TwinChaosCase c;
  c.workload_seed = rng.Next();
  c.num_tasks = rng.NextInRange(40, 140);
  c.num_workers = rng.NextInRange(1, 4);
  c.mean_duration = 0.02 + 0.10 * rng.NextDouble();
  // Base load between 40% and 120% of capacity; the spike pushes far
  // beyond it — overload transitions are where the controller earns its
  // keep (and where a corrupted model visibly diverges).
  const double utilization = 0.4 + 0.8 * rng.NextDouble();
  c.rate = static_cast<double>(c.num_workers) * utilization / c.mean_duration;
  const double shape_draw = rng.NextDouble();
  if (shape_draw < 0.5) {
    c.shape = LiveArrivalShape::kFlashCrowd;
    c.spike_factor = 3.0 + 9.0 * rng.NextDouble();
    c.spike_start = 0.2 + 0.6 * rng.NextDouble();
    c.spike_duration = 0.2 + 0.8 * rng.NextDouble();
  } else if (shape_draw < 0.8) {
    c.shape = LiveArrivalShape::kOnOff;
    c.burstiness = 0.3 + 0.6 * rng.NextDouble();
    c.on_off_mean_cycle = 0.5 + 1.5 * rng.NextDouble();
  } else {
    c.shape = LiveArrivalShape::kPoisson;
  }
  c.deadline_slack = 0.5 + 3.0 * rng.NextDouble();
  c.max_weight = rng.NextDouble() < 0.5 ? 1 : 10;

  // Candidate table: static FCFS plus 1-3 alternatives.
  static const std::array<const char*, 4> kAltPolicies = {"EDF", "SRPT",
                                                          "HDF", "ASETS"};
  rt::TwinCandidate static_cand;
  static_cand.policy = "FCFS";
  c.candidates = {static_cand};
  const size_t num_alts = rng.NextInRange(1, 3);
  for (size_t i = 0; i < num_alts; ++i) {
    rt::TwinCandidate cand;
    cand.policy = kAltPolicies[rng.NextInRange(0, kAltPolicies.size() - 1)];
    const double admission_draw = rng.NextDouble();
    if (admission_draw < 0.4) {
      cand.admission = rt::TwinCandidate::Admission::kQueueDepth;
      cand.max_ready = rng.NextInRange(8, 48);
    } else if (admission_draw < 0.7) {
      cand.admission = rt::TwinCandidate::Admission::kBrownout;
      cand.capacity_slo =
          rng.NextDouble() < 0.5 ? 0.0 : 0.25 + 0.5 * rng.NextDouble();
    }
    c.candidates.push_back(std::move(cand));
  }
  c.static_index = 0;
  c.controller_enabled = rng.NextDouble() < 0.9;
  c.control_interval = 0.1 + 0.3 * rng.NextDouble();
  c.forecast_horizon = c.control_interval * (1.0 + 3.0 * rng.NextDouble());
  c.switch_margin = 0.05 + 0.2 * rng.NextDouble();
  c.dwell_ticks = rng.NextInRange(1, 3);
  c.shed_penalty = 0.5 + 2.0 * rng.NextDouble();
  c.guard_strikes = rng.NextInRange(1, 3);
  c.guard_cooldown_ticks = rng.NextInRange(1, 5);
  c.forecast_seed = DeriveSeed(master_seed, kTwinForecastStream, index);
  // A corrupted shadow model in a fifth of the cases: the guard must
  // catch it (and the validator must hold either way).
  const double corruption_draw = rng.NextDouble();
  if (corruption_draw < 0.1) {
    c.snapshot_corruption = 0.05 + 0.1 * rng.NextDouble();
  } else if (corruption_draw < 0.2) {
    c.snapshot_corruption = 4.0 + 8.0 * rng.NextDouble();
  }

  if (rng.NextDouble() < 0.6) {
    c.fault.crash_rate = 0.05 + 0.35 * rng.NextDouble();
    c.fault.mean_repair_duration = 0.2 + 1.3 * rng.NextDouble();
    c.fault.migration = rng.NextDouble() < 0.5 ? MigrationPolicy::kWarm
                                               : MigrationPolicy::kCold;
    if (rng.NextDouble() < 0.3) {
      c.fault.correlated_crash_prob = 0.1 + 0.6 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.4) {
    c.fault.outage_rate = 0.03 + 0.2 * rng.NextDouble();
    c.fault.mean_outage_duration = 0.2 + 1.0 * rng.NextDouble();
    if (rng.NextDouble() < 0.6) {
      c.watchdog = true;
      c.watchdog_stall_seconds = 0.05 + 0.3 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.4) {
    c.fault.abort_rate = 0.05 + 0.3 * rng.NextDouble();
  }
  if (rng.NextDouble() < 0.4) {
    c.latency_spike_prob = 0.1 + 0.3 * rng.NextDouble();
    c.mean_latency_spike = 0.01 + 0.05 * rng.NextDouble();
  }
  c.fault.seed = DeriveSeed(master_seed, kTwinFaultStream, index);
  c.retry_max_attempts = static_cast<uint32_t>(rng.NextInRange(1, 3));
  c.retry_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.01 + 0.1 * rng.NextDouble();
  c.retry_backoff_multiplier = 1.5 + 1.5 * rng.NextDouble();
  c.retry_max_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.05 + 0.3 * rng.NextDouble();
  c.retry_budget = rng.NextDouble() < 0.5 ? 0 : rng.NextInRange(4, 24);
  // Forecast-execution dimensions, drawn last so the case population
  // above is unchanged from earlier campaign versions. All of these are
  // digest-neutral by contract; the campaign's determinism audit and
  // neutrality sweep enforce it.
  const double threads_draw = rng.NextDouble();
  c.forecast_threads = threads_draw < 0.5 ? 1 : (threads_draw < 0.8 ? 2 : 8);
  c.pooled_forecasts = rng.NextDouble() < 0.8;
  // Two retired structure-knob draws (pending queue, transaction
  // store), still consumed so every seed keeps its historical cases.
  rng.NextDouble();
  rng.NextDouble();
  if (rng.NextDouble() < 0.25) {
    c.prune = true;
    c.prune_prefix = 0.3 + 0.5 * rng.NextDouble();
  }
  return c;
}

}  // namespace webtx
