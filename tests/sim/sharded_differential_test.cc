// Differential matrix pinning the sharded simulator to the frozen
// pre-shard implementation (tests/testing/reference_simulator.h): for
// every (policy, topology, fault regime, num_servers, shard_threads)
// combination the ScheduleDigest — schedule segments, outcomes, and all
// counters — must be byte-identical. This is the tentpole guarantee of
// the shard refactor: sharding is a pure reorganization of the event
// loop, never observable in results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "exp/chaos.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"
#include "sim/fault_plan.h"
#include "sim/simulator.h"
#include "testing/reference_simulator.h"
#include "workload/generator.h"

namespace webtx {
namespace {

constexpr size_t kServers[] = {1, 2, 4, 8};
// A wide pool: the one size where a scheduling round places many picks
// at once and a correlated crash instant fells many victims, so it is
// loaded per server (0.8 each) rather than at the fixed 0.9 total.
constexpr size_t kWideServers = 32;
constexpr size_t kShardThreads[] = {1, 2, 4, 8};

std::vector<TransactionSpec> MakeWorkload(bool workflows, uint64_t seed,
                                          double utilization = 0.9) {
  WorkloadSpec spec;
  spec.num_transactions = 80;
  spec.utilization = utilization;
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

enum class Regime {
  kFailureFree,
  kFaulty,
  kCrashy,
  kCorrelated,
  kHugeWorkflow,
};

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
    case Regime::kHugeWorkflow:
      // The benchmark's 10^6-transaction workflow run at matrix size:
      // uncorrelated warm crashes, aborts with retries, feasibility
      // admission. Rates are scaled up so 80 transactions still see
      // crashes.
      fault.abort_rate = 0.02;
      fault.crash_rate = 0.015;
      fault.mean_repair_duration = 8.0;
      fault.migration = MigrationPolicy::kWarm;
      options.retry.max_attempts = 3;
      options.retry.backoff = 1.0;
      options.admission = MakeFeasibilityAdmission();
      break;
  }
  auto plan = FaultPlan::Create(fault);
  EXPECT_TRUE(plan.ok()) << plan.status();
  options.fault_plan = plan.ValueOrDie();
  return options;
}

std::vector<std::string> PolicySpecs() {
  std::vector<std::string> specs = KnownPolicyNames();
  specs.push_back("MIX(0.5)");
  specs.push_back("ASETS*-BA(time=0.01)");
  return specs;
}

uint64_t ReferenceDigest(const std::vector<TransactionSpec>& txns,
                         const SimOptions& options, const std::string& spec) {
  auto sim = testing::ReferenceSimulator::Create(txns, options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  auto policy = CreatePolicy(spec);
  EXPECT_TRUE(policy.ok()) << policy.status();
  return ScheduleDigest(sim.ValueOrDie().Run(*policy.ValueOrDie()));
}

RunResult RunSharded(const std::vector<TransactionSpec>& txns,
                     SimOptions options, const std::string& spec,
                     size_t shard_threads) {
  options.shard_threads = shard_threads;
  auto sim = Simulator::Create(txns, options);
  EXPECT_TRUE(sim.ok()) << sim.status();
  auto policy = CreatePolicy(spec);
  EXPECT_TRUE(policy.ok()) << policy.status();
  return sim.ValueOrDie().Run(*policy.ValueOrDie());
}

void RunMatrix(Regime regime) {
  const std::vector<std::string> specs = PolicySpecs();
  std::vector<size_t> pool_sizes(std::begin(kServers), std::end(kServers));
  pool_sizes.push_back(kWideServers);
  for (const bool workflows : {false, true}) {
    for (const size_t servers : pool_sizes) {
      // The huge_workflow shape loads every server to 0.8, so admission
      // sheds at every pool size.
      const double utilization =
          regime == Regime::kHugeWorkflow || servers == kWideServers
              ? 0.8 * static_cast<double>(servers)
              : 0.9;
      const std::vector<TransactionSpec> txns = MakeWorkload(
          workflows, 7u + servers + (workflows ? 100u : 0u), utilization);
      const SimOptions options = RegimeOptions(regime, servers);
      for (const std::string& spec : specs) {
        const uint64_t want = ReferenceDigest(txns, options, spec);
        for (const size_t threads : kShardThreads) {
          const RunResult got = RunSharded(txns, options, spec, threads);
          EXPECT_EQ(ScheduleDigest(got), want)
              << "sharded simulator diverged from the pre-shard reference: "
              << "policy=" << spec << " workflows=" << workflows
              << " servers=" << servers << " shard_threads=" << threads;
        }
      }
    }
  }
}

TEST(ShardedDifferentialTest, FailureFreeMatrix) {
  RunMatrix(Regime::kFailureFree);
}

TEST(ShardedDifferentialTest, FaultyMatrix) { RunMatrix(Regime::kFaulty); }

TEST(ShardedDifferentialTest, CrashyMatrix) { RunMatrix(Regime::kCrashy); }

TEST(ShardedDifferentialTest, CorrelatedCrashMatrix) {
  RunMatrix(Regime::kCorrelated);
  // The wide cells must actually place many picks in one round and fell
  // many victims at one crash instant, or they prove nothing about the
  // pick matching and the victim loop at k > 8.
  const RunResult r = RunSharded(
      MakeWorkload(true, 7u + kWideServers + 100u,
                   0.8 * static_cast<double>(kWideServers)),
      RegimeOptions(Regime::kCorrelated, kWideServers), "ASETS*", 1);
  size_t widest_crash = 0;
  for (const OutageWindow& w : r.crashes) {
    widest_crash = std::max<size_t>(
        widest_crash,
        std::count_if(r.crashes.begin(), r.crashes.end(),
                      [&](const OutageWindow& o) { return o.start == w.start; }));
  }
  size_t busiest_round = 0;  // servers running at one instant = picks
  for (const ScheduleSegment& seg : r.schedule) {
    busiest_round = std::max<size_t>(
        busiest_round,
        std::count_if(r.schedule.begin(), r.schedule.end(),
                      [&](const ScheduleSegment& o) {
                        return o.start <= seg.start && seg.start < o.end;
                      }));
  }
  EXPECT_GE(widest_crash, 4u);
  EXPECT_GT(busiest_round, 8u);
  EXPECT_GT(r.num_migrations, 0u);
}

TEST(ShardedDifferentialTest, HugeWorkflowShapeMatrix) {
  RunMatrix(Regime::kHugeWorkflow);
  // The shape must actually fire at matrix size, or the matrix above
  // proves nothing about it.
  const RunResult r =
      RunSharded(MakeWorkload(true, 111, /*utilization=*/3.2),
                 RegimeOptions(Regime::kHugeWorkflow, 4), "ASETS*", 4);
  EXPECT_GT(r.num_migrations, 0u);
  EXPECT_GT(r.num_aborts, 0u);
  EXPECT_GT(r.num_shed, 0u);
}

// Counter-level cross-check with readable failure messages: the digest
// above proves equality, this names the first differing field when a
// regression is being debugged.
TEST(ShardedDifferentialTest, CountersMatchReference) {
  const std::vector<TransactionSpec> txns = MakeWorkload(true, 42);
  const SimOptions options = RegimeOptions(Regime::kCrashy, 4);
  auto ref_sim = testing::ReferenceSimulator::Create(txns, options);
  ASSERT_TRUE(ref_sim.ok()) << ref_sim.status();
  auto ref_policy = CreatePolicy("ASETS*");
  ASSERT_TRUE(ref_policy.ok()) << ref_policy.status();
  const RunResult want = ref_sim.ValueOrDie().Run(*ref_policy.ValueOrDie());
  for (const size_t threads : kShardThreads) {
    const RunResult got = RunSharded(txns, options, "ASETS*", threads);
    EXPECT_EQ(got.num_scheduling_points, want.num_scheduling_points);
    EXPECT_EQ(got.num_preemptions, want.num_preemptions);
    EXPECT_EQ(got.num_idle_decisions, want.num_idle_decisions);
    EXPECT_EQ(got.num_outages, want.num_outages);
    EXPECT_EQ(got.num_outage_preemptions, want.num_outage_preemptions);
    EXPECT_EQ(got.num_crashes, want.num_crashes);
    EXPECT_EQ(got.num_migrations, want.num_migrations);
    EXPECT_EQ(got.num_retries, want.num_retries);
    EXPECT_EQ(got.total_outage_time, want.total_outage_time);
    EXPECT_EQ(got.total_repair_time, want.total_repair_time);
    EXPECT_EQ(got.avg_tardiness, want.avg_tardiness);
    EXPECT_EQ(got.makespan, want.makespan);
    EXPECT_EQ(got.schedule.size(), want.schedule.size());
  }
}

// --- Sharded policy state: the steal-protocol differential matrix ---
//
// "<base>-sharded" partitions the POLICY's ready set per shard with
// deterministic work stealing (sched/scheduler_policy.h). The matrix
// pins every sharded-state variant byte-identical to its global-state
// base run on the frozen pre-shard reference, under steal-heavy
// workloads: deep ready sets (utilization >> 1) with workflow chains,
// so every multi-server round shuffles pick ranks across servers and
// OnPlaced constantly re-homes entries between shards.

constexpr const char* kShardedBases[] = {"FCFS", "EDF",  "SRPT",
                                         "LS",   "HDF",  "HVF",
                                         "ASETS*", "ASETS*-lazy"};

std::vector<TransactionSpec> MakeStealHeavyWorkload(uint64_t seed) {
  WorkloadSpec spec;
  spec.num_transactions = 100;
  spec.utilization = 3.0;  // overloaded: all k servers contend every round
  spec.min_weight = 1;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;
  spec.max_workflow_length = 5;
  spec.max_workflows_per_txn = 2;
  auto generator = WorkloadGenerator::Create(spec);
  EXPECT_TRUE(generator.ok()) << generator.status();
  return generator.ValueOrDie().Generate(seed);
}

void RunStealMatrix(Regime regime) {
  for (const size_t servers : kServers) {
    const std::vector<TransactionSpec> txns =
        MakeStealHeavyWorkload(29u + servers);
    const SimOptions options = RegimeOptions(regime, servers);
    for (const char* base : kShardedBases) {
      const uint64_t want = ReferenceDigest(txns, options, base);
      for (const size_t threads : kShardThreads) {
        const RunResult got =
            RunSharded(txns, options, std::string(base) + "-sharded", threads);
        EXPECT_EQ(ScheduleDigest(got), want)
            << "sharded policy state diverged from the global-state base: "
            << "policy=" << base << "-sharded servers=" << servers
            << " shard_threads=" << threads;
      }
    }
  }
}

TEST(ShardedPolicyDifferentialTest, StealMatrixFailureFree) {
  RunStealMatrix(Regime::kFailureFree);
}

TEST(ShardedPolicyDifferentialTest, StealMatrixFaulty) {
  RunStealMatrix(Regime::kFaulty);
}

TEST(ShardedPolicyDifferentialTest, StealMatrixCrashy) {
  RunStealMatrix(Regime::kCrashy);
}

TEST(ShardedPolicyDifferentialTest, StealMatrixCorrelatedCrashes) {
  RunStealMatrix(Regime::kCorrelated);
}

// The steal protocol must actually engage on contended multi-server
// runs (a matrix that never steals proves nothing); the global-state
// twin has no sharded state to steal with.
TEST(ShardedPolicyDifferentialTest, StealProtocolEngagesAndIsAccounted) {
  const std::vector<TransactionSpec> txns = MakeStealHeavyWorkload(5);
  const SimOptions options = RegimeOptions(Regime::kCrashy, 4);
  for (const char* spec : {"SRPT-sharded", "ASETS*-sharded"}) {
    auto sim = Simulator::Create(txns, options);
    ASSERT_TRUE(sim.ok()) << sim.status();
    auto policy = CreatePolicy(spec);
    ASSERT_TRUE(policy.ok()) << policy.status();
    sim.ValueOrDie().Run(*policy.ValueOrDie());
    ASSERT_NE(policy.ValueOrDie()->AsShardedState(), nullptr) << spec;
    EXPECT_GT(policy.ValueOrDie()->AsShardedState()->steal_count(), 0u)
        << spec << " never stole on a contended 4-server run";
  }
  auto global = CreatePolicy("SRPT");
  ASSERT_TRUE(global.ok()) << global.status();
  EXPECT_EQ(global.ValueOrDie()->AsShardedState(), nullptr);
}

}  // namespace
}  // namespace webtx
