// Extension: scaling out the back end. The paper assumes a single server
// (Sec. II-A) and notes ASETS* "could be applied in any Real-Time system
// with soft-deadlines" (Sec. VI). With a fixed arrival stream sized to
// saturate several workers, this harness grows the worker pool and
// checks that (a) tardiness collapses as capacity catches up with load
// and (b) ASETS*'s advantage over the baselines survives parallelism.
//
// A second section benchmarks the sharded event loop itself: a
// num_servers x shard-threads sweep of wall-clock against the frozen
// pre-shard simulator (tests/testing/reference_simulator.h).
// shard_threads must never change results, so every sharded cell is
// fingerprint-checked against the reference run before its time is
// reported.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "sched/policies/asets_star.h"
#include "sched/policies/asets_star_sharded.h"
#include "sim/simulator.h"
#include "tests/testing/reference_simulator.h"
#include "workload/generator.h"

namespace webtx {
namespace {

void RunForServers(size_t servers, Table& table) {
  WorkloadSpec spec;
  spec.max_weight = 10;
  spec.max_workflow_length = 5;
  // Arrival rate sized for ~3 busy workers; 1-2 servers are overloaded,
  // 4 servers comfortable, 8 idle-heavy.
  spec.utilization = 3.0;

  const auto policies =
      bench::SpecFactories({"FCFS", "EDF", "HDF", "Ready", "ASETS*"});
  SimOptions options;
  options.num_servers = servers;
  const auto m =
      bench::RunPoint(spec, policies, bench::PaperSeeds(), options);

  std::vector<double> row;
  for (const bench::PolicyMetrics& metrics : m) {
    row.push_back(metrics.avg_weighted_tardiness);
  }
  table.AddNumericRow(std::to_string(servers), row);
}

// ---------------------------------------------------------------------------
// Sharded event-loop timing: production Simulator vs the pre-shard
// reference, across num_servers x shard_threads.

using Clock = std::chrono::steady_clock;

constexpr int kShardReps = 5;

// Reps for the interleaved serial global-vs-sharded pair. More than
// kShardReps because this difference (a few percent) is the quantity
// the bench gate consumes, so it gets the extra samples (each rep is
// only a few ms; the tardiness sweep dominates the binary's runtime).
constexpr int kShardPairedReps = 15;

// Thread-scaling ratios are only recorded when both wall times clear
// this floor: a sub-2ms run is dominated by scheduler noise and a
// speedup computed from it would record noise as a trajectory point.
constexpr double kMinSpeedupMs = 2.0;

// Cheap equality fingerprint of a run (full byte-identity is pinned by
// tests/sim/sharded_differential_test.cc; the bench only needs to prove
// it timed the same schedule it claims to have timed).
struct RunFingerprint {
  double makespan = 0.0;
  double avg_weighted_tardiness = 0.0;
  size_t scheduling_points = 0;
  size_t aborts = 0;
  size_t outages = 0;

  static RunFingerprint Of(const RunResult& r) {
    return RunFingerprint{r.makespan, r.avg_weighted_tardiness,
                          r.num_scheduling_points, r.num_aborts,
                          r.num_outages};
  }
  bool operator==(const RunFingerprint& o) const {
    return makespan == o.makespan &&
           avg_weighted_tardiness == o.avg_weighted_tardiness &&
           scheduling_points == o.scheduling_points && aborts == o.aborts &&
           outages == o.outages;
  }
};

std::vector<TransactionSpec> ShardWorkload(size_t servers) {
  WorkloadSpec spec;
  spec.num_transactions = 4000;
  spec.max_weight = 10;
  spec.max_workflow_length = 5;
  // Keep every worker ~75% busy so each shard carries real event traffic
  // at every pool size (a fixed rate would leave 8-server runs idle).
  spec.utilization = 0.75 * static_cast<double>(servers);
  auto gen = WorkloadGenerator::Create(spec);
  WEBTX_CHECK(gen.ok()) << gen.status().ToString();
  return gen.ValueOrDie().Generate(1);
}

SimOptions ShardOptions(size_t servers, size_t shard_threads,
                        ShardTiming* timing) {
  SimOptions options;
  options.num_servers = servers;
  options.shard_threads = shard_threads;
  options.timing = timing;
  // Fault-dense, so every shard carries outage and abort events.
  FaultPlanConfig fault;
  fault.outage_rate = 0.02;
  fault.mean_outage_duration = 5.0;
  fault.abort_rate = 0.2;
  fault.seed = 2009;
  auto plan = FaultPlan::Create(fault);
  WEBTX_CHECK(plan.ok()) << plan.status().ToString();
  options.fault_plan = std::move(plan).ValueOrDie();
  options.retry.max_attempts = 3;
  options.retry.backoff = 1.0;
  return options;
}

// Best-of-kShardReps wall-clock of sim.Run (one warmup first). When
// `timing` is non-null it is zeroed per rep and the snapshot of the best
// rep is left in *best_timing.
template <typename Sim>
double BestRunMs(Sim& sim, SchedulerPolicy& policy, ShardTiming* timing,
                 ShardTiming* best_timing, RunFingerprint* fingerprint) {
  (void)sim.Run(policy);  // warmup
  double best_ms = 0.0;
  for (int rep = 0; rep < kShardReps; ++rep) {
    if (timing != nullptr) *timing = ShardTiming{};
    const auto t0 = Clock::now();
    const RunResult r = sim.Run(policy);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (rep == 0 || ms < best_ms) {
      best_ms = ms;
      if (timing != nullptr && best_timing != nullptr) *best_timing = *timing;
      if (fingerprint != nullptr) *fingerprint = RunFingerprint::Of(r);
    }
  }
  return best_ms;
}

void RunShardSweep(std::vector<bench::BenchRow>& rows, Table& table) {
  const std::vector<size_t> thread_counts = {1, 2, 8};
  for (const size_t servers : {1u, 2u, 4u, 8u, 32u}) {
    const auto txns = ShardWorkload(servers);

    // Pre-shard baseline: same workload, same fault plan (the reference
    // ignores the sharding knobs, as the contract requires).
    auto ref = testing::ReferenceSimulator::Create(
        txns, ShardOptions(servers, 1, nullptr));
    WEBTX_CHECK(ref.ok()) << ref.status().ToString();
    AsetsStarPolicy ref_policy;
    RunFingerprint ref_fp;
    const double ref_ms =
        BestRunMs(ref.ValueOrDie(), ref_policy, nullptr, nullptr, &ref_fp);
    const std::string servers_cfg = "servers=" + std::to_string(servers);
    rows.push_back({"ext_multi_server", servers_cfg, "reference_wall_ms",
                    ref_ms, "ms"});

    std::vector<double> table_row = {ref_ms};
    double t1_ms = 0.0;
    for (const size_t threads : thread_counts) {
      auto sim = Simulator::Create(
          txns, ShardOptions(servers, threads, nullptr));
      WEBTX_CHECK(sim.ok()) << sim.status().ToString();
      AsetsStarPolicy policy;
      RunFingerprint fp;
      const double ms =
          BestRunMs(sim.ValueOrDie(), policy, nullptr, nullptr, &fp);
      WEBTX_CHECK(fp == ref_fp)
          << "sharded run diverged from the reference at servers=" << servers
          << " shard_threads=" << threads;
      const std::string cfg =
          servers_cfg + " threads=" + std::to_string(threads);
      rows.push_back({"ext_multi_server", cfg, "wall_ms", ms, "ms"});
      rows.push_back({"ext_multi_server", cfg, "speedup_vs_reference",
                      ref_ms / ms, "x"});
      table_row.push_back(ms);
      if (threads == 1) t1_ms = ms;
    }
    const double t8_ms = table_row.back();
    if (t1_ms >= kMinSpeedupMs && t8_ms >= kMinSpeedupMs) {
      rows.push_back({"ext_multi_server", servers_cfg, "speedup_t8_vs_t1",
                      t1_ms / t8_ms, "x"});
    } else {
      std::cout << "(skipping speedup_t8_vs_t1 at " << servers_cfg
                << ": wall times below the " << kMinSpeedupMs
                << " ms floor)\n";
    }
    table_row.push_back(ref_ms / t1_ms);
    table.AddNumericRow(std::to_string(servers), table_row);
  }
}

// ---------------------------------------------------------------------------
// Sharded policy state: ASETS*-sharded (per-shard ready structures +
// deterministic work stealing) vs the global-state ASETS*, across
// num_servers x shard_threads. Every sharded cell is fingerprint-checked
// against the global run first — the steal protocol must never change
// the schedule — and the new ShardTiming fields break the cost out:
// policy_wait_ms is the wall time inside the per-event scheduling round,
// steal_count the cross-shard entry moves the run performed.

void RunShardedPolicySweep(std::vector<bench::BenchRow>& rows, Table& table) {
  const std::vector<size_t> thread_counts = {2, 8};
  for (const size_t servers : {1u, 2u, 4u, 8u}) {
    const auto txns = ShardWorkload(servers);
    const std::string servers_cfg = "servers=" + std::to_string(servers);

    // Global-state baseline vs the threads=1 sharded run, measured
    // INTERLEAVED (one rep of each per loop pass, best-of). Both are
    // serial, so this pair is the no-regression gate; sequential
    // best-of-N blocks drift apart by several percent on a loaded
    // one-core host, while alternating reps sees the same host state.
    ShardTiming g_timing;
    ShardTiming s1_timing;
    auto gsim =
        Simulator::Create(txns, ShardOptions(servers, 1, &g_timing));
    WEBTX_CHECK(gsim.ok()) << gsim.status().ToString();
    auto s1sim =
        Simulator::Create(txns, ShardOptions(servers, 1, &s1_timing));
    WEBTX_CHECK(s1sim.ok()) << s1sim.status().ToString();
    AsetsStarPolicy global;
    AsetsStarShardedPolicy sharded_t1;
    ShardTiming g_best;
    ShardTiming s1_best;
    RunFingerprint g_fp;
    RunFingerprint s1_fp;
    double global_ms = 0.0;
    double t1_ms = 0.0;
    std::vector<double> pair_ratios;
    pair_ratios.reserve(kShardPairedReps);
    (void)gsim.ValueOrDie().Run(global);      // warmups
    (void)s1sim.ValueOrDie().Run(sharded_t1);
    for (int rep = 0; rep < kShardPairedReps; ++rep) {
      g_timing = ShardTiming{};
      auto t0 = Clock::now();
      const RunResult gr = gsim.ValueOrDie().Run(global);
      const double g_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      if (rep == 0 || g_ms < global_ms) {
        global_ms = g_ms;
        g_best = g_timing;
        g_fp = RunFingerprint::Of(gr);
      }
      s1_timing = ShardTiming{};
      t0 = Clock::now();
      const RunResult sr = s1sim.ValueOrDie().Run(sharded_t1);
      const double s_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0)
              .count();
      if (rep == 0 || s_ms < t1_ms) {
        t1_ms = s_ms;
        s1_best = s1_timing;
        s1_fp = RunFingerprint::Of(sr);
      }
      pair_ratios.push_back(g_ms / s_ms);
    }
    WEBTX_CHECK(s1_fp == g_fp)
        << "sharded policy diverged from the global state at servers="
        << servers << " shard_threads=1";
    // The gated serial ratio is the MEDIAN of per-pair ratios: the two
    // reps of a pair run back to back under the same host state, so
    // their ratio cancels drift that a best-of-each quotient (whose
    // numerator and denominator come from different moments) keeps.
    std::sort(pair_ratios.begin(), pair_ratios.end());
    const double t1_ratio = pair_ratios[pair_ratios.size() / 2];
    const std::string global_cfg = servers_cfg + " policy=global";
    rows.push_back(
        {"ext_multi_server", global_cfg, "wall_ms", global_ms, "ms"});
    rows.push_back({"ext_multi_server", global_cfg, "policy_wait_ms",
                    g_best.policy_wait_ms, "ms"});
    const std::string t1_cfg = servers_cfg + " threads=1 policy=sharded";
    rows.push_back({"ext_multi_server", t1_cfg, "wall_ms", t1_ms, "ms"});
    rows.push_back({"ext_multi_server", t1_cfg, "sharded_vs_global",
                    t1_ratio, "x"});
    rows.push_back({"ext_multi_server", t1_cfg, "policy_wait_ms",
                    s1_best.policy_wait_ms, "ms"});
    rows.push_back({"ext_multi_server", t1_cfg, "steal_count",
                    static_cast<double>(s1_best.steal_count), "steals"});

    std::vector<double> table_row = {global_ms, t1_ms};
    double t8_ms = 0.0;
    ShardTiming t8_best;
    for (const size_t threads : thread_counts) {
      ShardTiming timing;
      auto sim =
          Simulator::Create(txns, ShardOptions(servers, threads, &timing));
      WEBTX_CHECK(sim.ok()) << sim.status().ToString();
      AsetsStarShardedPolicy policy;
      ShardTiming best;
      RunFingerprint fp;
      const double ms =
          BestRunMs(sim.ValueOrDie(), policy, &timing, &best, &fp);
      WEBTX_CHECK(fp == g_fp)
          << "sharded policy diverged from the global state at servers="
          << servers << " shard_threads=" << threads;
      const std::string cfg = servers_cfg +
                              " threads=" + std::to_string(threads) +
                              " policy=sharded";
      rows.push_back({"ext_multi_server", cfg, "wall_ms", ms, "ms"});
      rows.push_back({"ext_multi_server", cfg, "sharded_vs_global",
                      global_ms / ms, "x"});
      rows.push_back({"ext_multi_server", cfg, "policy_wait_ms",
                      best.policy_wait_ms, "ms"});
      rows.push_back({"ext_multi_server", cfg, "steal_count",
                      static_cast<double>(best.steal_count), "steals"});
      table_row.push_back(ms);
      if (threads == 8) {
        t8_ms = ms;
        t8_best = best;
      }
    }
    if (t1_ms >= kMinSpeedupMs && t8_ms >= kMinSpeedupMs) {
      rows.push_back({"ext_multi_server", servers_cfg + " policy=sharded",
                      "speedup_t8_vs_t1", t1_ms / t8_ms, "x"});
    } else {
      std::cout << "(skipping sharded speedup_t8_vs_t1 at " << servers_cfg
                << ": wall times below the " << kMinSpeedupMs
                << " ms floor)\n";
    }
    table_row.push_back(t1_ratio);
    table_row.push_back(t8_best.policy_wait_ms);
    table_row.push_back(static_cast<double>(t8_best.steal_count));
    table.AddNumericRow(std::to_string(servers), table_row);
  }
}

}  // namespace
}  // namespace webtx

int main() {
  std::cout << "Extension — back-end worker pool scaling (avg weighted "
               "tardiness; arrival rate sized for ~3 busy workers; "
               "weights 1-10, workflows <= 5, 5 seeds):\n\n";
  webtx::Table table({"servers", "FCFS", "EDF", "HDF", "Ready", "ASETS*"});
  for (const size_t servers : {1u, 2u, 3u, 4u, 6u, 8u}) {
    webtx::RunForServers(servers, table);
  }
  table.Print(std::cout);
  webtx::bench::SaveCsv(table, "ext_multi_server");
  std::cout << "\nTardiness collapses once capacity covers the offered "
               "load (~3 workers);\nthe adaptive workflow-aware policy "
               "keeps its lead at every pool size.\n";

  std::cout << "\nSharded event loop — wall-clock vs the frozen pre-shard "
               "reference (ASETS*,\n4000 txns at 75% per-worker load, "
               "outage+abort plan, best of "
            << webtx::kShardReps << " reps):\n\n";
  std::vector<webtx::bench::BenchRow> rows;
  webtx::Table shard_table({"servers", "ref ms", "t=1 ms", "t=2 ms",
                            "t=8 ms", "speedup t=1"});
  webtx::RunShardSweep(rows, shard_table);
  shard_table.Print(std::cout);
  webtx::bench::SaveCsv(shard_table, "ext_multi_server_sharded");

  std::cout << "\nSharded policy state — ASETS*-sharded (per-shard ready "
               "structures, deterministic\nwork stealing) vs the "
               "global-state ASETS* on the production loop (the\n"
               "threads=1 baseline and sharded runs are timed interleaved, "
               "best of "
            << webtx::kShardPairedReps
            << " paired\nreps; every sharded cell fingerprint-checked "
               "against the global run;\npolicy/steal columns are the "
               "shard-threads=8 accounting):\n\n";
  webtx::Table policy_table({"servers", "global ms", "t=1 ms", "t=2 ms",
                             "t=8 ms", "sharded t=1", "policy ms",
                             "steals"});
  webtx::RunShardedPolicySweep(rows, policy_table);
  policy_table.Print(std::cout);
  webtx::bench::SaveCsv(policy_table, "ext_multi_server_sharded_policy");
  webtx::bench::WriteBenchRows(rows);
  std::cout
      << "\nHost has " << std::thread::hardware_concurrency()
      << " hardware thread(s). The event-loop sweep runs the global-state "
         "ASETS*, which\nhands shard threads no work, so its meaningful "
         "series is the sharded loop vs\nthe pre-shard reference — "
         "incremental fault heads and epoch-stamped pick\nassignment do "
         "the work the reference re-scans for. Every cell above is\n"
         "fingerprint-checked against the reference run: shard_threads "
         "never changes\nresults.\n";
  return 0;
}
