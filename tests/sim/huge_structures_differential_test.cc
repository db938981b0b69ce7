// Differential pins for the huge-scale ready-set structure: "ASETS*-lazy"
// (the lazy-delete-heap ASETS* instantiation) must digest equal to plain
// "ASETS*" across fault regimes x crash regimes x server counts —
// identical pop order implies identical schedules — and a run's digest
// must be invariant across shard-thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exp/chaos.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "workload/generator.h"

namespace webtx {
namespace {

std::vector<TransactionSpec> MakeWorkload(bool workflows, uint64_t seed) {
  WorkloadSpec spec;
  spec.num_transactions = 80;
  spec.utilization = 0.9;
  spec.min_weight = 1;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;  // exercises the estimate floor paths
  if (workflows) {
    spec.max_workflow_length = 4;
    spec.max_workflows_per_txn = 2;
  }
  auto generator = WorkloadGenerator::Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status();
  return generator.ValueOrDie().Generate(seed);
}

enum class Regime { kFailureFree, kFaulty, kCrashy, kCorrelated, kRetryStorm };

SimOptions RegimeOptions(Regime regime, size_t num_servers) {
  SimOptions options;
  options.num_servers = num_servers;
  options.record_outcomes = true;
  options.record_schedule = true;
  FaultPlanConfig fault;
  fault.seed = 2009 + num_servers;
  switch (regime) {
    case Regime::kFailureFree:
      return options;
    case Regime::kFaulty:
      fault.outage_rate = 0.02;
      fault.mean_outage_duration = 6.0;
      fault.abort_rate = 0.03;
      options.retry.max_attempts = 3;
      options.retry.backoff = 1.5;
      options.retry.max_backoff = 20.0;
      options.admission = MakeQueueDepthAdmission(
          QueueDepthAdmissionOptions{/*max_ready=*/24, /*defer_delay=*/2.0,
                                     /*max_defers=*/3});
      break;
    case Regime::kCrashy:
      fault.outage_rate = 0.01;
      fault.mean_outage_duration = 4.0;
      fault.abort_rate = 0.02;
      fault.crash_rate = 0.015;
      fault.mean_repair_duration = 8.0;
      fault.migration = MigrationPolicy::kCold;
      break;
    case Regime::kCorrelated:
      fault.crash_rate = 0.02;
      fault.mean_repair_duration = 6.0;
      fault.correlated_crash_prob = 0.35;
      fault.migration = MigrationPolicy::kWarm;
      break;
    case Regime::kRetryStorm:
      // The pending queue is only populated by retry backoffs and
      // deferred admissions; this regime floods it so it actually
      // carries load (same-instant retries, cascades).
      fault.abort_rate = 0.8;
      options.retry.max_attempts = 5;
      options.retry.backoff = 0.5;
      options.retry.max_backoff = 4.0;
      options.admission = MakeQueueDepthAdmission(
          QueueDepthAdmissionOptions{/*max_ready=*/8, /*defer_delay=*/1.0,
                                     /*max_defers=*/5});
      break;
  }
  auto plan = FaultPlan::Create(fault);
  EXPECT_TRUE(plan.ok()) << plan.status();
  options.fault_plan = plan.ValueOrDie();
  return options;
}

uint64_t DigestOf(const std::vector<TransactionSpec>& txns,
                  const SimOptions& options, const std::string& spec) {
  auto sim = Simulator::Create(txns, options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  auto policy = CreatePolicy(spec);
  EXPECT_TRUE(policy.ok()) << policy.status();
  return ScheduleDigest(sim.ValueOrDie().Run(*policy.ValueOrDie()));
}

// Results must be invisible across shard-thread counts, for the
// indexed and the lazy-delete-heap ASETS* alike.
TEST(HugeStructuresDifferentialTest, KnobsInvariantAcrossShardThreads) {
  const std::vector<TransactionSpec> txns = MakeWorkload(true, 42);
  for (const char* spec : {"ASETS*", "ASETS*-lazy"}) {
    SimOptions options = RegimeOptions(Regime::kCrashy, 4);
    const uint64_t want = DigestOf(txns, options, spec);
    for (const size_t threads : {size_t{2}, size_t{8}}) {
      options.shard_threads = threads;
      EXPECT_EQ(DigestOf(txns, options, spec), want)
          << spec << " shard_threads=" << threads;
    }
  }
}

// ASETS*-lazy IS ASETS* behaviorally: same impact rule, same tie-breaks,
// only the priority structure differs. Digest equality across the whole
// regime x topology grid is the proof the lazy-delete heap is safe to
// swap into the hot path.
TEST(HugeStructuresDifferentialTest, LazyAsetsStarMatchesIndexedAsetsStar) {
  for (const Regime regime :
       {Regime::kFailureFree, Regime::kFaulty, Regime::kCrashy,
        Regime::kCorrelated, Regime::kRetryStorm}) {
    for (const bool workflows : {false, true}) {
      for (const size_t servers : {size_t{1}, size_t{2}, size_t{8}}) {
        const std::vector<TransactionSpec> txns =
            MakeWorkload(workflows, 11u + servers);
        const SimOptions options = RegimeOptions(regime, servers);
        EXPECT_EQ(DigestOf(txns, options, "ASETS*-lazy"),
                  DigestOf(txns, options, "ASETS*"))
            << "workflows=" << workflows << " servers=" << servers;
      }
    }
  }
}

// Factory-level registration contract: "ASETS*-lazy" resolves, reports
// its own name, but stays OUT of KnownPolicyNames() (the paper-facing
// sweep set is unchanged; the lazy variant is an opt-in implementation
// detail).
TEST(HugeStructuresDifferentialTest, LazyVariantRegistration) {
  auto policy = CreatePolicy("ASETS*-lazy");
  ASSERT_TRUE(policy.ok()) << policy.status();
  EXPECT_EQ(policy.ValueOrDie()->name(), "ASETS*-lazy");
  for (const std::string& name : KnownPolicyNames()) {
    EXPECT_NE(name, "ASETS*-lazy");
  }
}

}  // namespace
}  // namespace webtx
