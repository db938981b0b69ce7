// Live chaos harness tests (exp/live_chaos.h): deterministic case
// generation, digest-stable execution, replay-file round-trips, shrink
// behavior, and a small end-to-end campaign — the machinery behind
// `tools/chaos --live` and the check.sh live-smoke gate.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/campaign.h"
#include "exp/live_chaos.h"

namespace webtx {
namespace {

LiveChaosCase SmallCase() {
  LiveChaosCase c;
  c.workload_seed = 33;
  c.num_tasks = 30;
  c.mean_interarrival = 0.03;
  c.mean_duration = 0.08;
  c.max_weight = 4;
  c.dep_prob = 0.2;
  c.timeout_prob = 0.15;
  c.num_workers = 2;
  c.policy = "SRPT";
  c.fault.outage_rate = 0.4;
  c.fault.mean_outage_duration = 0.3;
  c.fault.crash_rate = 0.25;
  c.fault.mean_repair_duration = 0.4;
  c.fault.abort_rate = 0.1;
  c.fault.migration = MigrationPolicy::kCold;
  c.fault.seed = 12;
  c.latency_spike_prob = 0.2;
  c.mean_latency_spike = 0.02;
  c.retry_max_attempts = 3;
  c.retry_backoff = 0.04;
  c.retry_max_backoff = 0.08;
  c.retry_budget = 3;
  c.watchdog = true;
  c.watchdog_stall_seconds = 0.06;
  return c;
}

TEST(LiveChaosTest, RandomCasesAreDeterministicPerIndex) {
  for (uint64_t index = 0; index < 5; ++index) {
    const LiveChaosCase a = RandomLiveChaosCase(99, index);
    const LiveChaosCase b = RandomLiveChaosCase(99, index);
    EXPECT_EQ(SerializeReplay<LiveChaos>(a), SerializeReplay<LiveChaos>(b));
  }
  // Different indices draw different cases.
  EXPECT_NE(SerializeReplay<LiveChaos>(RandomLiveChaosCase(99, 0)),
            SerializeReplay<LiveChaos>(RandomLiveChaosCase(99, 1)));
}

TEST(LiveChaosTest, RunIsDigestStableAndPassesItsOwnInvariants) {
  const LiveChaosCase c = SmallCase();
  auto first = RunLiveChaosCase(c);
  auto second = RunLiveChaosCase(c);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(first.ValueOrDie().digest, second.ValueOrDie().digest);
  EXPECT_NE(first.ValueOrDie().digest, 0u);
  const Status verdict = CheckLiveChaosInvariants(c, first.ValueOrDie());
  EXPECT_TRUE(verdict.ok()) << verdict;
  // The case is fault-seasoned enough to mean something.
  EXPECT_GT(first.ValueOrDie().stats.crashes +
                first.ValueOrDie().stats.stalls +
                first.ValueOrDie().stats.forced_aborts,
            0u);
}

TEST(LiveChaosTest, ReplayFileRoundTripsToTheSameTimeline) {
  const LiveChaosCase original = SmallCase();
  const std::string text = SerializeReplay<LiveChaos>(original);
  auto parsed = ParseReplay<LiveChaos>(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeReplay<LiveChaos>(parsed.ValueOrDie()), text);

  auto from_original = RunLiveChaosCase(original);
  auto from_replay = RunLiveChaosCase(parsed.ValueOrDie());
  ASSERT_TRUE(from_original.ok() && from_replay.ok());
  EXPECT_EQ(from_original.ValueOrDie().digest,
            from_replay.ValueOrDie().digest);
}

TEST(LiveChaosTest, RunRejectsZeroMaxWeight) {
  // Weights are drawn from {1, ..., max_weight}: zero has no valid draw.
  LiveChaosCase c = SmallCase();
  c.max_weight = 0;
  EXPECT_EQ(RunLiveChaosCase(c).status().code(), StatusCode::kInvalidArgument);
}

TEST(LiveChaosTest, ShrinkPreservesThePredicate) {
  const LiveChaosCase original = SmallCase();
  // Stand-in failure predicate: "still has at least 10 tasks and a
  // crash stream" — shrink must simplify without ever leaving it.
  const CasePredicate<LiveChaosCase> still_fails = [](const LiveChaosCase& c) {
    return c.num_tasks >= 10 && c.fault.crash_rate > 0.0;
  };
  const LiveChaosCase shrunk = ShrinkLiveChaosCase(original, still_fails);
  EXPECT_TRUE(still_fails(shrunk));
  EXPECT_LE(shrunk.num_tasks, original.num_tasks);
  EXPECT_LE(shrunk.num_workers, original.num_workers);
}

TEST(LiveChaosTest, SmallCampaignRunsCleanAndExercisesFaults) {
  CampaignOptions options;
  options.master_seed = 7;
  options.num_cases = 6;
  auto result = RunCampaign<LiveChaos>(options);
  ASSERT_TRUE(result.ok()) << result.status();
  const CampaignResult<LiveChaos>& r = result.ValueOrDie();
  EXPECT_EQ(r.cases_run, 6u);
  EXPECT_EQ(r.violations, 0u) << r.first_violation;
  EXPECT_EQ(r.tallies.at("nondeterministic"), 0u);
  // The campaign generator is biased toward crash streams; a clean
  // pass with zero fault exposure would be vacuous.
  EXPECT_GT(r.tallies.at("total_crashes") + r.tallies.at("total_stalls") +
                r.tallies.at("total_aborts"),
            0u);
}

}  // namespace
}  // namespace webtx
