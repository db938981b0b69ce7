#include "exp/campaign.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace webtx {

std::string FormatValue(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string FormatValue(bool v) { return v ? "1" : "0"; }

std::string FormatValue(const std::string& v) { return v; }

bool ParseValue(const std::string& text, double* out) {
  std::istringstream is(text);
  is >> *out;
  return !is.fail() && is.eof();
}

bool ParseValue(const std::string& text, bool* out) {
  if (text != "0" && text != "1") return false;
  *out = text == "1";
  return true;
}

bool ParseValue(const std::string& text, std::string* out) {
  *out = text;
  return true;
}

bool ParseDigits(const std::string& text, uint64_t max, uint64_t* out) {
  // from_chars on an unsigned type accepts no sign and no blanks, and
  // reports values beyond uint64_t as out of range.
  const char* end = text.data() + text.size();
  uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || v > max) return false;
  *out = v;
  return true;
}

bool SplitValue(const std::string& value, size_t count,
                std::vector<std::string>* tokens) {
  std::istringstream is(value);
  tokens->clear();
  for (std::string token; is >> token;) tokens->push_back(token);
  return tokens->size() == count;
}

ReplayFields<FaultPlanConfig> FaultFields() {
  using F = FaultPlanConfig;
  return {Field("outage_rate", &F::outage_rate),
          Field("mean_outage_duration", &F::mean_outage_duration),
          Field("abort_rate", &F::abort_rate),
          Field("crash_rate", &F::crash_rate),
          Field("mean_repair_duration", &F::mean_repair_duration),
          Field("migration", &F::migration,
                EnumNames<MigrationPolicy>{{MigrationPolicy::kWarm, "warm"},
                                           {MigrationPolicy::kCold, "cold"}}),
          Field("correlated_crash_prob", &F::correlated_crash_prob),
          Field("fault_seed", &F::seed)};
}

std::vector<std::pair<size_t, std::string>> ContentLines(
    const std::string& text) {
  std::vector<std::pair<size_t, std::string>> lines;
  std::istringstream is(text);
  std::string line;
  for (size_t line_no = 1; std::getline(is, line); ++line_no) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty() && line[0] != '#') lines.emplace_back(line_no, line);
  }
  return lines;
}

Status ReplayError(size_t line_no, const std::string& message) {
  return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                 message);
}

Status InvariantViolations(const char* domain,
                           const std::vector<std::string>& violations) {
  if (violations.empty()) return Status();
  std::ostringstream os;
  os << violations.size() << " " << domain << " invariant violation(s):";
  const size_t show = std::min<size_t>(violations.size(), 3);
  for (size_t i = 0; i < show; ++i) os << " [" << violations[i] << "]";
  return Status::InvalidArgument(os.str());
}

std::string DeterminismViolation(const char* digest_name, uint64_t first,
                                 uint64_t second) {
  std::ostringstream os;
  os << "determinism: " << digest_name
     << " digests differ across identical runs (" << std::hex << first
     << " vs " << second << ")";
  return os.str();
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream file(path);
  file << text;
  if (!file.good()) return Status::IOError("cannot write " + path);
  return Status();
}

}  // namespace webtx
