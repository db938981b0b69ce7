#include "exp/chaos.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"
#include "sim/schedule_validator.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace webtx {

namespace {

// DeriveSeed coordinates carving out the chaos harness's own seed
// streams (arbitrary but fixed; reproducers depend on them).
constexpr uint64_t kChaosCaseStream = 0xCA05;
constexpr uint64_t kChaosFaultStream = 0xFA17;

WorkloadSpec SpecFor(const ChaosCase& c) {
  WorkloadSpec spec;
  spec.num_transactions = c.num_transactions;
  spec.utilization = c.utilization;
  spec.max_weight = c.max_weight;
  spec.max_workflow_length = c.max_workflow_length;
  spec.max_workflows_per_txn = c.max_workflows_per_txn;
  spec.burstiness = c.burstiness;
  spec.estimate_error = c.estimate_error;
  return spec;
}

Result<std::vector<TransactionSpec>> GenerateWorkload(const ChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(WorkloadGenerator gen,
                         WorkloadGenerator::Create(SpecFor(c)));
  return gen.Generate(c.workload_seed);
}

// One FNV-1a step per byte of `v`, little-endian, so the digest is
// platform-stable.
uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// The draw ordinal (per-server draw order) of the `index`-th *surviving*
// window on `server`, given the suppression keys already committed.
// Suppressed ordinals are drawn-and-discarded (sim/fault_plan.h), so
// they still occupy their slot in draw order but never show up in the
// observed window stream.
uint32_t SurvivorOrdinal(const std::vector<uint64_t>& suppressed,
                         uint32_t server, size_t index) {
  std::vector<uint32_t> dropped;
  for (const uint64_t key : suppressed) {
    if (FaultOrdinalServer(key) == server) {
      dropped.push_back(FaultOrdinalIndex(key));
    }
  }
  std::sort(dropped.begin(), dropped.end());
  size_t survivors = 0;
  for (uint32_t ordinal = 0;; ++ordinal) {
    if (std::binary_search(dropped.begin(), dropped.end(), ordinal)) continue;
    if (survivors == index) return ordinal;
    ++survivors;
  }
}

}  // namespace

Result<RunResult> RunChaosCase(const ChaosCase& c) {
  WEBTX_ASSIGN_OR_RETURN(std::vector<TransactionSpec> txns,
                         GenerateWorkload(c));
  SimOptions options;
  options.num_servers = c.num_servers;
  options.record_outcomes = true;
  options.record_schedule = true;
  options.retry = c.retry;
  WEBTX_ASSIGN_OR_RETURN(options.fault_plan, FaultPlan::Create(c.fault));
  if (c.admission_max_ready > 0) {
    QueueDepthAdmissionOptions admission;
    admission.max_ready = c.admission_max_ready;
    options.admission = MakeQueueDepthAdmission(admission);
  }
  WEBTX_ASSIGN_OR_RETURN(auto policy, CreatePolicy(c.policy));
  WEBTX_ASSIGN_OR_RETURN(
      Simulator sim, Simulator::Create(std::move(txns), std::move(options)));
  return sim.Run(*policy);
}

Status CheckChaosInvariants(const ChaosCase& c, const RunResult& result) {
  auto txns = GenerateWorkload(c);
  if (!txns.ok()) return txns.status();
  ValidationOptions options;
  options.num_servers = c.num_servers;
  options.outages = result.outages;
  options.crashes = result.crashes;
  options.migration = c.fault.migration;
  return ValidateSchedule(txns.ValueOrDie(), result, options);
}

uint64_t ScheduleDigest(const RunResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = Fnv1a(h, result.schedule.size());
  for (const ScheduleSegment& s : result.schedule) {
    h = Fnv1a(h, s.txn);
    h = Fnv1a(h, s.server);
    h = Fnv1a(h, Bits(s.start));
    h = Fnv1a(h, Bits(s.end));
    h = Fnv1a(h, s.attempt);
  }
  h = Fnv1a(h, result.outcomes.size());
  for (const TxnOutcome& o : result.outcomes) {
    h = Fnv1a(h, static_cast<uint64_t>(o.fate));
    h = Fnv1a(h, Bits(o.finish));
    h = Fnv1a(h, o.aborts);
    h = Fnv1a(h, o.migrations);
  }
  for (const uint64_t v :
       {result.num_completed, result.num_shed, result.num_dropped_retries,
        result.num_dropped_dependency, result.num_aborts, result.num_retries,
        result.retry_storm_suppressed, result.num_outages, result.num_crashes,
        result.num_migrations}) {
    h = Fnv1a(h, v);
  }
  return h;
}

ReplayFields<ChaosCase> SimChaos::Fields() {
  using C = ChaosCase;
  ReplayFields<C> f = {
      Field("workload_seed", &C::workload_seed),
      Field("num_transactions", &C::num_transactions),
      Field("utilization", &C::utilization),
      Field("max_weight", &C::max_weight),
      Field("max_workflow_length", &C::max_workflow_length),
      Field("max_workflows_per_txn", &C::max_workflows_per_txn),
      Field("burstiness", &C::burstiness),
      Field("estimate_error", &C::estimate_error),
      Field("num_servers", &C::num_servers),
      Field("policy", &C::policy)};
  AppendFields(f, &C::fault, FaultFields());
  AppendFields(f, &C::retry,
               {Field("retry_max_attempts", &RetryOptions::max_attempts),
                Field("retry_backoff", &RetryOptions::backoff),
                Field("retry_backoff_multiplier",
                      &RetryOptions::backoff_multiplier),
                Field("retry_max_backoff", &RetryOptions::max_backoff)});
  f.push_back(Field("admission_max_ready", &C::admission_max_ready));
  // "<server> <draw ordinal>": one suppressed natural fault window.
  const auto format = [](const uint64_t& key) {
    return FormatValue(FaultOrdinalServer(key)) + ' ' +
           FormatValue(FaultOrdinalIndex(key));
  };
  const auto parse = [](const std::string& value, uint64_t* key) {
    std::vector<std::string> tokens;
    uint32_t server = 0;
    uint32_t ordinal = 0;
    if (!SplitValue(value, 2, &tokens) || !ParseValue(tokens[0], &server) ||
        !ParseValue(tokens[1], &ordinal)) {
      return false;
    }
    *key = EncodeFaultOrdinal(server, ordinal);
    return true;
  };
  using F = FaultPlanConfig;
  AppendFields(
      f, &C::fault,
      {RepeatedField("suppress_crash", &F::suppressed_crashes, format, parse),
       RepeatedField("suppress_outage", &F::suppressed_outages, format,
                     parse)});
  return f;
}

ChaosCase ShrinkChaosCase(ChaosCase c,
                          const CasePredicate<ChaosCase>& still_fails) {
  using C = ChaosCase;
  // Halve the horizon first: every later probe re-runs the case, so
  // shrinking the workload early makes the rest of the pass cheap.
  HalveWhileFailing(c, &C::num_transactions, still_fails);
  // Drop whole fault streams, least-suspect first, so the surviving
  // config names the stream that matters.
  TryMutation(c, DropAborts, still_fails);
  TryMutation(c, DropOutages, still_fails);
  TryMutation(c, DropCorrelation, still_fails);
  TryMutation(c, DropCrashes, still_fails);
  // Disable the reactive machinery.
  TryMutation(c, [](C& x) { x.admission_max_ready = 0; }, still_fails);
  TryMutation(c, [](C& x) { x.retry = RetryOptions{}; }, still_fails);
  // Level the workload shape.
  TryMutation(c, [](C& x) { x.estimate_error = 0.0; }, still_fails);
  TryMutation(c, [](C& x) { x.burstiness = 0.0; }, still_fails);
  TryMutation(c, [](C& x) { x.max_weight = 1; }, still_fails);
  TryMutation(
      c,
      [](C& x) {
        x.max_workflow_length = 1;
        x.max_workflows_per_txn = 1;
      },
      still_fails);
  DecrementWhileFailing(c, &C::num_servers, still_fails);
  // Bisect the fault timeline itself: drop individual natural crash /
  // outage instants that survived the whole-stream passes. Suppression
  // is draw-and-discard, so removing one window leaves every other
  // window's RNG draws — and the rest of the timeline — byte-identical;
  // every window still standing afterwards is load-bearing. Each
  // accepted drop restarts the pass from a fresh run: suppressing a
  // window can change the horizon (and so which later windows begin).
  const auto bisect_windows =
      [&](std::vector<uint64_t> FaultPlanConfig::*list,
          std::vector<OutageWindow> RunResult::*windows, bool enabled) {
        if (!enabled) return;
        constexpr size_t kMaxProbes = 64;  // rerun budget on huge timelines
        size_t probes = 0;
        bool progress = true;
        while (progress && probes < kMaxProbes) {
          progress = false;
          const auto run = RunChaosCase(c);
          if (!run.ok()) return;
          const std::vector<OutageWindow>& observed = run.ValueOrDie().*windows;
          std::vector<size_t> seen(c.num_servers, 0);
          for (const OutageWindow& w : observed) {
            const size_t index = seen[w.server]++;
            if (probes >= kMaxProbes) break;
            ++probes;
            const uint32_t ordinal =
                SurvivorOrdinal(c.fault.*list, w.server, index);
            if (TryMutation(
                    c,
                    [&](C& x) {
                      (x.fault.*list)
                          .push_back(EncodeFaultOrdinal(w.server, ordinal));
                    },
                    still_fails)) {
              progress = true;
              break;  // survivor indices shifted; remap from a fresh run
            }
          }
        }
      };
  // Natural crash windows can only be told apart from correlated
  // (forced) ones when correlated mode is off: RunResult::crashes mixes
  // both, and a forced crash owns no draw ordinal to suppress.
  bisect_windows(
      &FaultPlanConfig::suppressed_crashes, &RunResult::crashes,
      c.fault.crash_rate > 0.0 && c.fault.correlated_crash_prob == 0.0);
  bisect_windows(&FaultPlanConfig::suppressed_outages, &RunResult::outages,
                 c.fault.outage_rate > 0.0);
  // The dropped streams, servers, and fault instants may have freed
  // slack for another round of horizon halving.
  HalveWhileFailing(c, &C::num_transactions, still_fails);
  return c;
}

ChaosCase RandomChaosCase(uint64_t master_seed, uint64_t index) {
  Rng rng(DeriveSeed(master_seed, kChaosCaseStream, index));
  static const std::array<const char*, 8> kPolicies = {
      "FCFS",  "EDF",    "SRPT",
      "HDF",   "ASETS",  "ASETS*",
      "ASETS-BA(count=0.05)", "ASETS*-BA(time=0.005)"};
  ChaosCase c;
  c.policy = kPolicies[rng.NextInRange(0, kPolicies.size() - 1)];
  c.workload_seed = rng.Next();
  c.num_transactions = rng.NextInRange(40, 240);
  c.utilization = 0.3 + 1.2 * rng.NextDouble();
  c.num_servers = rng.NextInRange(1, 4);
  c.max_workflow_length = rng.NextInRange(1, 4);
  c.max_workflows_per_txn = rng.NextInRange(1, 2);
  c.max_weight = rng.NextDouble() < 0.5 ? 1 : 10;
  c.burstiness = rng.NextDouble() < 0.5 ? 0.0 : 0.5 * rng.NextDouble();
  c.estimate_error = rng.NextDouble() < 0.5 ? 0.0 : 0.3 * rng.NextDouble();
  // Crash streams are the point of this harness: most cases get one.
  if (rng.NextDouble() < 0.85) {
    c.fault.crash_rate = 0.002 + 0.03 * rng.NextDouble();
    c.fault.mean_repair_duration = 5.0 + 75.0 * rng.NextDouble();
    c.fault.migration = rng.NextDouble() < 0.5 ? MigrationPolicy::kWarm
                                               : MigrationPolicy::kCold;
    if (rng.NextDouble() < 0.4) {
      c.fault.correlated_crash_prob = 0.1 + 0.8 * rng.NextDouble();
    }
  }
  if (rng.NextDouble() < 0.4) {
    c.fault.outage_rate = 0.001 + 0.015 * rng.NextDouble();
    c.fault.mean_outage_duration = 5.0 + 45.0 * rng.NextDouble();
  }
  if (rng.NextDouble() < 0.5) {
    c.fault.abort_rate = 0.002 + 0.04 * rng.NextDouble();
  }
  c.fault.seed = DeriveSeed(master_seed, kChaosFaultStream, index);
  c.retry.max_attempts = static_cast<uint32_t>(rng.NextInRange(1, 5));
  c.retry.backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 0.5 + 3.5 * rng.NextDouble();
  c.retry.backoff_multiplier = 1.5 + 1.5 * rng.NextDouble();
  c.retry.max_backoff =
      rng.NextDouble() < 0.5 ? 0.0 : 10.0 + 40.0 * rng.NextDouble();
  c.admission_max_ready =
      rng.NextDouble() < 0.6 ? 0 : rng.NextInRange(8, 64);
  return c;
}

}  // namespace webtx
