// Huge-scale extension bench (BENCH_hotpath.json): how the event-loop
// structures behave as the ready population and the workload grow from
// 10^3 to 10^6+ — the regime the paper's 1000-transaction runs never
// enter.
//
// Two series:
//
//   1. Ready-tier micro: the ASETS* hot-path pattern (update storms on
//      live keys punctuated by pops) through IndexedPriorityQueue and
//      LazyDeleteHeap at N from 2^10 to 2^18.
//   2. End-to-end: open-system runs at populations 10^3..10^6
//      (10^7 with --pop7), workload streamed by
//      StreamingWorkloadGenerator, executed under two variants — the
//      indexed ASETS* ("old") and the tombstone-heap policy ("lazy":
//      ASETS*-lazy). Both MUST produce byte-identical ScheduleDigests —
//      the bench doubles as a scale-level differential test and exits 1
//      on divergence. events/sec rows land in BENCH_hotpath.json.
//
// The 10^6-txn end-to-end run proves the huge population is feasible
// and that byte-identity holds at scale.
//
// Flags: --smoke runs the 10^5 end-to-end differential plus one micro
// size (CI guard, seconds); --pop7 adds the 10^7 end-to-end point.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "exp/chaos.h"
#include "sched/indexed_priority_queue.h"
#include "sched/lazy_delete_heap.h"
#include "sched/policy_factory.h"
#include "sim/fault_plan.h"
#include "workload/streaming_generator.h"

namespace webtx {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// ASETS*-shaped ready-tier ops/sec: mostly key updates on live ids,
/// every 8th op a pop + re-push. Identical op stream for both structures.
template <typename Queue>
double ReadyStormRate(size_t n, size_t ops) {
  Queue q;
  q.Reserve(n);
  Rng rng(43);
  for (uint32_t id = 0; id < n; ++id) {
    q.Push(id, rng.NextDouble() * 1e6);
  }
  const auto start = Clock::now();
  for (size_t i = 0; i < ops; ++i) {
    if ((i & 7) == 7) {
      const uint32_t popped = q.Pop();
      q.Push(popped, 1e6 + rng.NextDouble() * 1e6);
    } else {
      q.Update(static_cast<uint32_t>(rng.NextInRange(0, n - 1)),
               rng.NextDouble() * 1e6);
    }
  }
  const double elapsed = SecondsSince(start);
  return static_cast<double>(ops) / elapsed;
}

struct EndToEnd {
  double events_per_sec = 0.0;
  uint64_t digest = 0;
  size_t events = 0;
};

struct Variant {
  const char* label;
  const char* policy;
};

// "old" is the indexed ASETS*, "lazy" swaps the policy's internal heaps
// for tombstone heaps — both must digest identically. The lazy row
// costs measurable events/sec at small ready populations because its
// tombstone pruning runs on the read-top path (see the class comment in
// sched/lazy_delete_heap.h).
constexpr Variant kVariants[] = {
    {"old", "ASETS*"},
    {"lazy", "ASETS*-lazy"},
};
constexpr int kNumVariants = sizeof(kVariants) / sizeof(kVariants[0]);

/// One open-system run at population `n`: streamed workload, aborts +
/// retries feeding the pending queue, workflows feeding the dependency
/// graph.
EndToEnd RunEndToEnd(size_t n, const Variant& variant) {
  WorkloadSpec spec;
  spec.num_transactions = n;
  spec.utilization = 0.9;
  spec.max_weight = 10;
  spec.estimate_error = 0.2;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  auto gen = StreamingWorkloadGenerator::Create(spec, 2026);
  WEBTX_CHECK(gen.ok()) << gen.status();
  StreamingWorkloadGenerator stream = std::move(gen).ValueOrDie();
  std::vector<TransactionSpec> txns;
  txns.reserve(n);
  while (!stream.Done()) txns.push_back(stream.Next());

  SimOptions options;
  options.num_servers = 4;
  options.record_outcomes = true;
  options.record_schedule = true;
  FaultPlanConfig fault;
  fault.seed = 1729;
  fault.abort_rate = 0.01;
  auto plan = FaultPlan::Create(fault);
  WEBTX_CHECK(plan.ok()) << plan.status();
  options.fault_plan = plan.ValueOrDie();
  options.retry.max_attempts = 3;
  options.retry.backoff = 1.0;

  EndToEnd out;
  const int reps = n <= 100000 ? 3 : 1;  // big runs are deterministic
  for (int rep = 0; rep < reps; ++rep) {
    auto sim = Simulator::Create(txns, options);
    WEBTX_CHECK(sim.ok()) << sim.status();
    auto policy = CreatePolicy(variant.policy);
    WEBTX_CHECK(policy.ok()) << policy.status();
    const auto start = Clock::now();
    const RunResult result = sim.ValueOrDie().Run(*policy.ValueOrDie());
    const double elapsed = SecondsSince(start);
    out.events = result.num_scheduling_points;
    out.digest = ScheduleDigest(result);
    out.events_per_sec =
        std::max(out.events_per_sec,
                 static_cast<double>(result.num_scheduling_points) / elapsed);
  }
  return out;
}

int RunBench(bool smoke, bool pop7) {
  std::vector<bench::BenchRow> rows;
  const auto row = [&rows](const std::string& config,
                           const std::string& metric, double value,
                           const std::string& unit) {
    rows.push_back(
        bench::BenchRow{"ext_huge_scale", config, metric, value, unit});
  };
  const std::string suffix = smoke ? "-smoke" : "";

  // --- Ready-tier micro series --------------------------------------
  const std::vector<size_t> micro_sizes =
      smoke ? std::vector<size_t>{65536}
            : std::vector<size_t>{1024, 16384, 262144};
  for (const size_t n : micro_sizes) {
    const size_t ops = smoke ? 200000 : 1000000;
    const double ipq = ReadyStormRate<IndexedPriorityQueue>(n, ops);
    const double lazy = ReadyStormRate<LazyDeleteHeap>(n, ops);
    const std::string ready = "ready n=" + std::to_string(n) + suffix;
    row(ready + " ipq", "ops_per_sec", ipq, "1/s");
    row(ready + " lazy", "ops_per_sec", lazy, "1/s");
    row(ready, "lazy_speedup", lazy / ipq, "x");
    std::cout << ready << ": ipq " << ipq << " ops/s, lazy " << lazy
              << " ops/s (" << lazy / ipq << "x)\n";
  }

  // --- End-to-end events/sec vs population, with digest differential -
  std::vector<size_t> populations;
  if (smoke) {
    populations = {100000};
  } else {
    populations = {1000, 10000, 100000, 1000000};
    if (pop7) populations.push_back(10000000);
  }
  int failures = 0;
  for (const size_t n : populations) {
    const std::string label = "e2e n=" + std::to_string(n) + suffix;
    EndToEnd runs[kNumVariants];
    for (int v = 0; v < kNumVariants; ++v) {
      runs[v] = RunEndToEnd(n, kVariants[v]);
      row(label + " " + kVariants[v].label, "events_per_sec",
          runs[v].events_per_sec, "1/s");
      if (v > 0 && runs[v].digest != runs[0].digest) {
        std::cerr << "ext_huge_scale: DIGEST DIVERGENCE at n=" << n << " ("
                  << kVariants[v].label << "): old " << std::hex
                  << runs[0].digest << ", variant " << runs[v].digest
                  << std::dec << "\n";
        ++failures;
      }
    }
    std::cout << label << ": old " << runs[0].events_per_sec
              << " events/s, lazy " << runs[1].events_per_sec << " — "
              << runs[0].events << " events, digests "
              << (failures == 0 ? "byte-identical across all variants"
                                : "DIVERGED")
              << "\n";
  }

  bench::WriteBenchRows(rows);
  return failures > 0 ? 1 : 0;
}

}  // namespace
}  // namespace webtx

int main(int argc, char** argv) {
  bool smoke = false;
  bool pop7 = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--pop7") == 0) pop7 = true;
  }
  return webtx::RunBench(smoke, pop7);
}
