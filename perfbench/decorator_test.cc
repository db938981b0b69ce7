// The timing decorators must not change what a run does: for every
// shipped policy, a run through TimedPolicy + TimedAdmission on a small
// faulty 4-server instance has the same ScheduleDigest as the plain run.
// Exits 1 on any mismatch.
//
//   cmake --build .bench_build --target perfbench_decorator_test
//   .bench_build/perfbench_decorator_test

#include <cstdio>
#include <string>
#include <vector>

#include "exp/chaos.h"
#include "sched/policy_factory.h"
#include "sim/simulator.h"
#include "timing.h"
#include "workload/generator.h"

namespace {

using namespace webtx;

std::vector<std::string> ShippedPolicies() {
  std::vector<std::string> specs = KnownPolicyNames();
  for (const char* spec :
       {"MIX", "MIX(0.3)", "ASETS*-BA(time=0.005)", "ASETS-BA(count=0.05)",
        "ASETS*-lazy", "FCFS-sharded", "EDF-sharded", "SRPT-sharded",
        "LS-sharded", "HDF-sharded", "HVF-sharded", "ASETS*-sharded",
        "ASETS*-lazy-sharded"}) {
    specs.emplace_back(spec);
  }
  return specs;
}

SimOptions FaultyOptions() {
  SimOptions options;
  options.num_servers = 4;
  options.record_outcomes = true;
  options.record_schedule = true;
  FaultPlanConfig fault;
  fault.seed = 77;
  fault.outage_rate = 0.002;
  fault.mean_outage_duration = 5.0;
  fault.abort_rate = 0.01;
  fault.crash_rate = 0.002;
  fault.mean_repair_duration = 10.0;
  fault.migration = MigrationPolicy::kCold;
  auto plan = FaultPlan::Create(fault);
  WEBTX_CHECK(plan.ok()) << plan.status().ToString();
  options.fault_plan = plan.ValueOrDie();
  options.retry.max_attempts = 3;
  options.retry.backoff = 1.0;
  QueueDepthAdmissionOptions depth;
  depth.max_ready = 6;
  depth.defer_delay = 2.0;
  options.admission = MakeQueueDepthAdmission(depth);
  return options;
}

}  // namespace

int main() {
  WorkloadSpec spec;
  spec.num_transactions = 400;
  spec.utilization = 3.2;  // single-server scale: 0.8 per server at k=4
  spec.max_weight = 10;
  spec.max_workflow_length = 3;
  spec.max_workflows_per_txn = 2;
  spec.estimate_error = 0.2;
  auto generator = WorkloadGenerator::Create(spec);
  WEBTX_CHECK(generator.ok()) << generator.status().ToString();
  const std::vector<TransactionSpec> txns = generator.ValueOrDie().Generate(9);

  const SimOptions plain_options = FaultyOptions();
  perfbench::PolicyStats policy_stats;
  perfbench::AdmissionStats admission_stats;
  SimOptions timed_options = plain_options;
  timed_options.admission = perfbench::TimedAdmissionFactory(
      plain_options.admission, &admission_stats);

  auto plain_sim = Simulator::Create(txns, plain_options);
  auto timed_sim = Simulator::Create(txns, timed_options);
  WEBTX_CHECK(plain_sim.ok() && timed_sim.ok());

  int failures = 0;
  for (const std::string& policy_spec : ShippedPolicies()) {
    auto plain_policy = CreatePolicy(policy_spec);
    auto inner = CreatePolicy(policy_spec);
    WEBTX_CHECK(plain_policy.ok() && inner.ok()) << policy_spec;
    perfbench::TimedPolicy timed_policy(std::move(inner).ValueOrDie(),
                                        &policy_stats);
    const RunResult plain =
        plain_sim.ValueOrDie().Run(*plain_policy.ValueOrDie());
    const RunResult timed = timed_sim.ValueOrDie().Run(timed_policy);
    const uint64_t want = ScheduleDigest(plain);
    const uint64_t got = ScheduleDigest(timed);
    const bool faulty = plain.num_aborts > 0 && plain.num_crashes > 0 &&
                        plain.num_shed + plain.num_deferrals > 0;
    std::printf("%-24s plain %016llx timed %016llx aborts %zu crashes %zu "
                "shed %zu deferrals %zu %s%s\n",
                policy_spec.c_str(), static_cast<unsigned long long>(want),
                static_cast<unsigned long long>(got), plain.num_aborts,
                plain.num_crashes, plain.num_shed, plain.num_deferrals,
                want == got ? "ok" : "MISMATCH",
                faulty ? "" : " (instance exercised no faults)");
    if (want != got || !faulty) ++failures;
  }
  if (policy_stats.pick.calls == 0 || admission_stats.decide.calls == 0) {
    std::printf("decorators were never called\n");
    ++failures;
  }
  std::printf("%s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
