#include "exp/live_chaos.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "rt/clock.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"

namespace webtx {

namespace {

// DeriveSeed coordinates of the live harness's own seed streams
// (arbitrary but fixed; reproducers depend on them). Distinct from the
// sim chaos streams so the two campaigns never alias.
constexpr uint64_t kLiveCaseStream = 0x11FECA5Eull;
constexpr uint64_t kLiveFaultStream = 0x11FEFA17ull;

constexpr double kMinTaskSeconds = 1e-4;

double ExpDraw(Rng& rng, double mean) {
  // -mean * ln(1 - U), U in [0, 1): the standard inverse-CDF draw.
  return -mean * std::log1p(-rng.NextDouble());
}

/// One drawn task: the harness materializes the whole workload before
/// submitting so arrival order (and so TxnId assignment) is fixed.
struct DrawnTask {
  double arrival = 0.0;
  double duration = 0.0;
  double relative_deadline = 0.0;
  double weight = 1.0;
  double timeout = 0.0;
  int dep_index = -1;  // index of an earlier task, or -1
};

std::vector<DrawnTask> DrawWorkload(const LiveChaosCase& c) {
  Rng rng(c.workload_seed);
  std::vector<DrawnTask> tasks(c.num_tasks);
  double at = 0.0;
  for (size_t i = 0; i < c.num_tasks; ++i) {
    DrawnTask& t = tasks[i];
    at += ExpDraw(rng, c.mean_interarrival);
    t.arrival = at;
    t.duration = std::max(kMinTaskSeconds, ExpDraw(rng, c.mean_duration));
    t.relative_deadline =
        t.duration * (1.0 + c.deadline_slack * rng.NextDouble());
    t.weight = static_cast<double>(rng.NextInRange(1, c.max_weight));
    if (i > 0 && rng.NextDouble() < c.dep_prob) {
      t.dep_index = static_cast<int>(rng.NextInRange(0, i - 1));
    }
    if (rng.NextDouble() < c.timeout_prob) {
      // Half the range undercuts the duration, so some attempts time
      // out and exercise the retry path.
      t.timeout = t.duration * (0.5 + 1.5 * rng.NextDouble());
    }
  }
  return tasks;
}

rt::ExecutorOptions ExecutorOptionsFor(const LiveChaosCase& c,
                                       std::shared_ptr<rt::Clock> clock) {
  rt::ExecutorOptions options;
  options.num_workers = c.num_workers;
  options.clock = std::move(clock);
  options.faults.plan = c.fault;
  options.faults.latency_spike_prob = c.latency_spike_prob;
  options.faults.mean_latency_spike = c.mean_latency_spike;
  options.migration = c.fault.migration;
  switch (c.admission) {
    case LiveChaosCase::Admission::kNone:
      break;
    case LiveChaosCase::Admission::kQueueDepth: {
      QueueDepthAdmissionOptions depth;
      depth.max_ready = c.admission_max_ready;
      options.admission = MakeQueueDepthAdmission(depth);
      break;
    }
    case LiveChaosCase::Admission::kBrownout:
      options.admission = MakeBrownoutAdmission();
      break;
  }
  options.watchdog = c.watchdog;
  options.watchdog_stall_seconds = c.watchdog_stall_seconds;
  options.retry_max_backoff = c.retry_max_backoff;
  options.retry_budget = c.retry_budget;
  options.record_trace = true;
  return options;
}

}  // namespace

Result<LiveChaosRun> RunLiveChaosCase(const LiveChaosCase& c) {
  if (c.num_tasks == 0 || c.num_workers == 0 || c.max_weight == 0) {
    return Status::InvalidArgument(
        "num_tasks, num_workers and max_weight must be >= 1");
  }
  if (!(c.mean_interarrival > 0.0) || !(c.mean_duration > 0.0)) {
    return Status::InvalidArgument(
        "mean_interarrival and mean_duration must be > 0");
  }
  // Surface config errors here as a Status: the executor constructor
  // CHECK-validates its fault plan, which would abort the campaign.
  WEBTX_ASSIGN_OR_RETURN(FaultPlan plan_check, FaultPlan::Create(c.fault));
  (void)plan_check;
  WEBTX_ASSIGN_OR_RETURN(auto policy, CreatePolicy(c.policy));

  const std::vector<DrawnTask> drawn = DrawWorkload(c);
  auto clock = std::make_shared<rt::VirtualClock>();
  rt::Executor exec(std::move(policy), ExecutorOptionsFor(c, clock));

  LiveChaosRun run;
  run.tasks.resize(c.num_tasks);
  std::vector<TxnId> ids(c.num_tasks, kInvalidTxn);

  // The driver is a clock participant: virtual time halts while it is
  // between submits, so every arrival lands at its exact drawn instant.
  clock->RegisterParticipant();
  Status failure;  // deferred so the participant is always deregistered
  for (size_t i = 0; i < c.num_tasks; ++i) {
    const DrawnTask& t = drawn[i];
    clock->SleepUntil(t.arrival, nullptr);
    rt::TaskSpec spec;
    spec.relative_deadline = t.relative_deadline;
    spec.weight = t.weight;
    spec.estimated_cost = t.duration;
    spec.simulated_duration = t.duration;
    spec.timeout_seconds = t.timeout;
    spec.max_attempts = c.retry_max_attempts;
    spec.retry_backoff_seconds = c.retry_backoff;
    spec.backoff_multiplier = c.retry_backoff_multiplier;
    if (t.dep_index >= 0) {
      spec.dependencies.push_back(ids[static_cast<size_t>(t.dep_index)]);
    }
    Result<TxnId> id = exec.Submit(std::move(spec));
    if (!id.ok()) {
      failure = id.status();
      break;
    }
    ids[i] = std::move(id).ValueOrDie();
    rt::LiveTaskRecord& record = run.tasks[ids[i]];
    record.submit_seconds = t.arrival;
    record.deadline_seconds = t.arrival + t.relative_deadline;
    record.max_attempts = c.retry_max_attempts;
    record.retry_backoff = c.retry_backoff;
    record.backoff_multiplier = c.retry_backoff_multiplier;
    record.simulated = true;
    if (t.dep_index >= 0) {
      record.dependencies.push_back(ids[static_cast<size_t>(t.dep_index)]);
    }
  }
  exec.Drain();
  exec.Shutdown();
  clock->DeregisterParticipant();
  if (!failure.ok()) return failure;

  run.trace = exec.TakeTrace();
  run.outcomes.resize(c.num_tasks);
  for (size_t i = 0; i < c.num_tasks; ++i) {
    run.outcomes[ids[i]] = exec.OutcomeOf(ids[i]);
  }
  run.stats = exec.stats();
  run.digest = rt::LiveTraceDigest(run.trace);
  return run;
}

Status CheckLiveChaosInvariants(const LiveChaosCase& c,
                                const LiveChaosRun& run) {
  rt::LiveValidatorOptions options;
  options.watchdog = c.watchdog;
  options.watchdog_stall_seconds = c.watchdog_stall_seconds;
  options.retry_max_backoff = c.retry_max_backoff;
  const rt::LiveValidationResult verdict = rt::ValidateLiveTrace(
      run.trace, run.tasks, run.outcomes, run.stats, options);
  return InvariantViolations("live", verdict.violations);
}

ReplayFields<LiveChaosCase> LiveChaos::Fields() {
  using C = LiveChaosCase;
  ReplayFields<C> f = {Field("workload_seed", &C::workload_seed),
                       Field("num_tasks", &C::num_tasks),
                       Field("mean_interarrival", &C::mean_interarrival),
                       Field("mean_duration", &C::mean_duration),
                       Field("deadline_slack", &C::deadline_slack),
                       Field("max_weight", &C::max_weight),
                       Field("dep_prob", &C::dep_prob),
                       Field("timeout_prob", &C::timeout_prob),
                       Field("num_workers", &C::num_workers),
                       Field("policy", &C::policy)};
  AppendFields(f, &C::fault, FaultFields());
  AppendExecutorFields(
      f, {Field("admission", &C::admission,
                EnumNames<C::Admission>{
                    {C::Admission::kNone, "none"},
                    {C::Admission::kQueueDepth, "depth"},
                    {C::Admission::kBrownout, "brownout"}}),
          Field("admission_max_ready", &C::admission_max_ready)});
  return f;
}

LiveChaosCase ShrinkLiveChaosCase(
    LiveChaosCase c, const CasePredicate<LiveChaosCase>& still_fails) {
  using C = LiveChaosCase;
  // Halve the workload first: every later probe re-runs the case (twice,
  // for the determinism audit), so a short horizon pays for the pass.
  HalveWhileFailing(c, &C::num_tasks, still_fails);
  // Drop whole fault dimensions, least-suspect first, so the surviving
  // config names the mechanism that matters.
  TryMutation(c, DropLatencySpikes, still_fails);
  TryMutation(c, DropAborts, still_fails);
  TryMutation(c, DropWatchdog, still_fails);
  TryMutation(c, DropOutages, still_fails);
  TryMutation(c, DropCorrelation, still_fails);
  TryMutation(c, DropCrashes, still_fails);
  // Disable the reactive machinery.
  TryMutation(
      c,
      [](C& x) {
        x.admission = C::Admission::kNone;
        x.admission_max_ready = 0;
      },
      still_fails);
  TryMutation(c, ResetRetries, still_fails);
  // Level the workload shape.
  TryMutation(c, [](C& x) { x.timeout_prob = 0.0; }, still_fails);
  TryMutation(c, [](C& x) { x.dep_prob = 0.0; }, still_fails);
  TryMutation(c, [](C& x) { x.max_weight = 1; }, still_fails);
  DecrementWhileFailing(c, &C::num_workers, still_fails);
  // The dropped dimensions may have freed slack for another round of
  // workload halving.
  HalveWhileFailing(c, &C::num_tasks, still_fails);
  return c;
}

LiveChaosCase RandomLiveChaosCase(uint64_t master_seed, uint64_t index) {
  Rng rng(DeriveSeed(master_seed, kLiveCaseStream, index));
  // Transaction-level policies only: the live executor schedules
  // open-ended submissions, which workflow-level ASETS* cannot plan.
  static const std::array<const char*, 6> kPolicies = {
      "FCFS", "EDF", "SRPT", "HDF", "ASETS", "ASETS-BA(count=0.05)"};
  LiveChaosCase c;
  c.policy = kPolicies[rng.NextInRange(0, kPolicies.size() - 1)];
  c.workload_seed = rng.Next();
  c.num_tasks = rng.NextInRange(30, 120);
  c.num_workers = rng.NextInRange(1, 4);
  c.mean_duration = 0.02 + 0.18 * rng.NextDouble();
  const double utilization = 0.3 + 1.2 * rng.NextDouble();
  c.mean_interarrival =
      c.mean_duration / (static_cast<double>(c.num_workers) * utilization);
  c.deadline_slack = 0.5 + 4.0 * rng.NextDouble();
  c.max_weight = rng.NextDouble() < 0.5 ? 1 : 10;
  c.dep_prob = rng.NextDouble() < 0.5 ? 0.0 : 0.4 * rng.NextDouble();
  c.timeout_prob = rng.NextDouble() < 0.7 ? 0.0 : 0.3 * rng.NextDouble();
  // Crash streams are the point of this harness: most cases get one.
  // The virtual horizon is a few seconds, so hazard rates run much
  // hotter than the sim campaign's.
  if (rng.NextDouble() < 0.85) {
    c.fault.crash_rate = 0.05 + 0.45 * rng.NextDouble();
    c.fault.mean_repair_duration = 0.2 + 1.8 * rng.NextDouble();
    c.fault.migration = rng.NextDouble() < 0.5 ? MigrationPolicy::kWarm
                                               : MigrationPolicy::kCold;
    if (rng.NextDouble() < 0.4) {
      c.fault.correlated_crash_prob = 0.1 + 0.8 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.5) {
    c.fault.outage_rate = 0.03 + 0.27 * rng.NextDouble();
    c.fault.mean_outage_duration = 0.2 + 1.3 * rng.NextDouble();
    if (rng.NextDouble() < 0.6) {
      c.watchdog = true;
      c.watchdog_stall_seconds = 0.05 + 0.3 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.5) {
    c.fault.abort_rate = 0.05 + 0.45 * rng.NextDouble();
  }
  if (rng.NextDouble() < 0.5) {
    c.latency_spike_prob = 0.1 + 0.3 * rng.NextDouble();
    c.mean_latency_spike = 0.01 + 0.09 * rng.NextDouble();
  }
  c.fault.seed = DeriveSeed(master_seed, kLiveFaultStream, index);
  c.retry_max_attempts = static_cast<uint32_t>(rng.NextInRange(1, 4));
  c.retry_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.01 + 0.2 * rng.NextDouble();
  c.retry_backoff_multiplier = 1.5 + 1.5 * rng.NextDouble();
  c.retry_max_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.05 + 0.45 * rng.NextDouble();
  c.retry_budget = rng.NextDouble() < 0.5 ? 0 : rng.NextInRange(4, 32);
  const double admission_draw = rng.NextDouble();
  if (admission_draw < 0.5) {
    c.admission = LiveChaosCase::Admission::kNone;
  } else if (admission_draw < 0.8) {
    c.admission = LiveChaosCase::Admission::kQueueDepth;
    c.admission_max_ready = rng.NextInRange(8, 64);
  } else {
    c.admission = LiveChaosCase::Admission::kBrownout;
  }
  return c;
}

}  // namespace webtx
