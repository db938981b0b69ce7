// Replay-file format tests (exp/campaign.h), typed over the three chaos
// domains' field tables: the simulator (exp/chaos.h), the live executor
// (exp/live_chaos.h) and the digital twin (exp/twin_chaos.h). Every
// domain must round-trip its randomized cases byte for byte, tolerate
// comments, and reject malformed lines with an InvalidArgument naming
// the line.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/campaign.h"
#include "exp/chaos.h"
#include "exp/live_chaos.h"
#include "exp/twin_chaos.h"

namespace webtx {
namespace {

// Per-domain inputs of the typed suite.
template <typename Domain>
struct Sample;

template <>
struct Sample<SimChaos> {
  static constexpr char kCountKey[] = "num_transactions";
  static constexpr char kRepeatedKey[] = "suppress_crash";
  // Randomized cases never suppress fault windows; give most of them a
  // few so the repeated suppress_* lines round-trip too.
  static void Season(ChaosCase& c, uint64_t i) {
    for (uint32_t k = 0; k < i % 3; ++k) {
      c.fault.suppressed_crashes.push_back(EncodeFaultOrdinal(k, 2 * k + 1));
    }
    if (i % 2 == 1) {
      c.fault.suppressed_outages.push_back(
          EncodeFaultOrdinal(0, static_cast<uint32_t>(i)));
    }
  }
  static std::vector<std::string> BadLines() {
    return {"migration lukewarm",     "suppress_crash banana",
            "suppress_crash 1",       "suppress_outage 1 pear",
            "suppress_crash -1 0",    "suppress_crash 4294967296 0",
            "suppress_outage 1 2 3"};
  }
};

template <>
struct Sample<LiveChaos> {
  static constexpr char kCountKey[] = "num_tasks";
  static constexpr char kRepeatedKey[] = "";  // no repeated fields
  static void Season(LiveChaosCase&, uint64_t) {}
  static std::vector<std::string> BadLines() {
    return {"migration lukewarm", "admission sometimes", "watchdog 2",
            "num_workers -2"};
  }
};

template <>
struct Sample<TwinChaos> {
  static constexpr char kCountKey[] = "num_tasks";
  static constexpr char kRepeatedKey[] = "candidate";
  static void Season(TwinChaosCase&, uint64_t) {}
  static std::vector<std::string> BadLines() {
    return {"shape square",
            "candidate EDF",
            "candidate EDF lukewarm 1 0",
            "candidate EDF depth -1 0",
            "candidate EDF depth 1 banana",
            "pooled_forecasts 2",
            "forecast_threads -8"};
  }
};

template <typename Domain>
class ReplayFormatTest : public ::testing::Test {
 protected:
  static std::string Text(uint64_t index) {
    typename Domain::Case c = Domain::Random(2009, index);
    Sample<Domain>::Season(c, index);
    return SerializeReplay<Domain>(c);
  }
  static Status Parse(const std::string& text) {
    return ParseReplay<Domain>(text).status();
  }
};

struct DomainName {
  template <typename Domain>
  static std::string GetName(int) {
    const std::string mode = Domain::kMode;
    return mode.empty() ? "sim" : mode;
  }
};

using Domains = ::testing::Types<SimChaos, LiveChaos, TwinChaos>;
TYPED_TEST_SUITE(ReplayFormatTest, Domains, DomainName);

TYPED_TEST(ReplayFormatTest, RoundTripsRandomCases) {
  size_t repeated_lines = 0;
  const std::string repeated =
      "\n" + std::string(Sample<TypeParam>::kRepeatedKey) + " ";
  for (uint64_t i = 0; i < 64; ++i) {
    const std::string text = this->Text(i);
    auto parsed = ParseReplay<TypeParam>(text);
    ASSERT_TRUE(parsed.ok()) << "case " << i << ": " << parsed.status();
    // Value-exact round trip, doubles and repeated lines included.
    EXPECT_EQ(SerializeReplay<TypeParam>(parsed.ValueOrDie()), text)
        << "case " << i;
    if (text.find(repeated) != std::string::npos) ++repeated_lines;
  }
  // The sample exercises the domain's repeated-line field, if it has one.
  if (*Sample<TypeParam>::kRepeatedKey != '\0') {
    EXPECT_GT(repeated_lines, 0u);
  }
}

TYPED_TEST(ReplayFormatTest, ToleratesCommentsAndCrlf) {
  const std::string text = this->Text(3);
  std::string decorated = "# a comment\n\n";
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    decorated += line + "\r\n# between fields\n";
  }
  auto parsed = ParseReplay<TypeParam>(decorated);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(SerializeReplay<TypeParam>(parsed.ValueOrDie()), text);
}

TYPED_TEST(ReplayFormatTest, RejectsCorruptReplays) {
  const std::string good = this->Text(5);
  EXPECT_FALSE(this->Parse("").ok());
  EXPECT_FALSE(this->Parse("# only a comment\n").ok());
  EXPECT_FALSE(this->Parse("bogus header\n" + good).ok());
  std::vector<std::string> bad_lines = {"mystery_knob 3", "crash_rate banana",
                                        "crash_rate", "max_weight 1 2"};
  for (const std::string& line : Sample<TypeParam>::BadLines()) {
    bad_lines.push_back(line);
  }
  for (const std::string& line : bad_lines) {
    const Status status = this->Parse(good + line + "\n");
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << line;
  }
  // Another domain's replay is not this domain's.
  const std::string foreign =
      std::string(TypeParam::kHeader) == SimChaos::kHeader
          ? SerializeReplay<LiveChaos>(LiveChaosCase{})
          : SerializeReplay<SimChaos>(ChaosCase{});
  EXPECT_FALSE(this->Parse(foreign).ok());
}

TYPED_TEST(ReplayFormatTest, RejectsNegativeAndOutOfRangeIntegers) {
  const std::string good = this->Text(1);
  const size_t line_no =
      static_cast<size_t>(std::count(good.begin(), good.end(), '\n')) + 1;
  for (const std::string& key :
       {std::string(Sample<TypeParam>::kCountKey), std::string("max_weight"),
        std::string("fault_seed"), std::string("retry_max_attempts")}) {
    for (const char* value :
         {"-1", "+1", " 1", "1.5", "0x10", "18446744073709551616"}) {
      const Status status = this->Parse(good + key + " " + value + "\n");
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << key << " " << value;
      EXPECT_NE(status.ToString().find("line " + std::to_string(line_no)),
                std::string::npos)
          << status;
    }
  }
  // retry_max_attempts is 32-bit: one past its range must not wrap to 1.
  EXPECT_FALSE(this->Parse(good + "retry_max_attempts 4294967297\n").ok());
  EXPECT_TRUE(this->Parse(good + "retry_max_attempts 4294967295\n").ok());
}

}  // namespace
}  // namespace webtx
