// Re-runs the committed LIVE chaos reproducer byte-identically — on
// real worker threads under the deterministic virtual clock. The replay
// file was minted by `tools/chaos --mint-live`: a randomized crash case
// shrunk to a local minimum against the predicate "still fails work
// over off a dead slot, deterministically, and validates". The pinned
// digest is the live executor's determinism contract: if it drifts, the
// attempt lifecycle, fault delivery, or failover semantics changed
// observably and the golden value must be revisited deliberately.

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "exp/live_chaos.h"
#include "rt/live_trace.h"

namespace webtx {
namespace {

// Observable behavior of the committed replay, pinned at mint time.
constexpr uint64_t kGoldenDigest = 0x3f122a4cad36620bULL;
constexpr size_t kGoldenMigrations = 1;
constexpr size_t kGoldenCompleted = 66;

std::string ReplayPath() {
  return std::string(WEBTX_REPLAY_DIR) + "/live_cold_migration_minimal.chaos";
}

std::string ReadReplayFile() {
  std::ifstream file(ReplayPath());
  EXPECT_TRUE(file.is_open()) << "missing replay file: " << ReplayPath();
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

TEST(LiveChaosReplayIntegrationTest, CommittedReproducerParses) {
  auto parsed = ParseReplay<LiveChaos>(ReadReplayFile());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const LiveChaosCase& c = parsed.ValueOrDie();
  // The minted case is a cold-failover crash scenario by construction.
  EXPECT_GT(c.fault.crash_rate, 0.0);
  EXPECT_EQ(c.fault.migration, MigrationPolicy::kCold);
}

TEST(LiveChaosReplayIntegrationTest, ReplaysByteIdentically) {
  auto parsed = ParseReplay<LiveChaos>(ReadReplayFile());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const LiveChaosCase c = std::move(parsed).ValueOrDie();

  auto first = RunLiveChaosCase(c);
  ASSERT_TRUE(first.ok()) << first.status();
  const LiveChaosRun& run = first.ValueOrDie();

  // The run still exhibits the behavior it was shrunk for, passes the
  // live validator audit, and reproduces the pinned digest bit for bit.
  EXPECT_EQ(run.stats.migrations, kGoldenMigrations);
  EXPECT_EQ(run.stats.completed, kGoldenCompleted);
  const Status verdict = CheckLiveChaosInvariants(c, run);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(run.digest, kGoldenDigest);
  EXPECT_EQ(rt::LiveTraceDigest(run.trace), kGoldenDigest);

  // A second run on fresh threads is indistinguishable — thread
  // interleaving must not leak into the recorded timeline.
  auto second = RunLiveChaosCase(c);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second.ValueOrDie().digest, kGoldenDigest);
}

TEST(LiveChaosReplayIntegrationTest, ReserializingTheFileIsLossless) {
  const std::string text = ReadReplayFile();
  auto parsed = ParseReplay<LiveChaos>(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeReplay<LiveChaos>(parsed.ValueOrDie()), text);
}

}  // namespace
}  // namespace webtx
