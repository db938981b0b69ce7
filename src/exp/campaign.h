#ifndef WEBTX_EXP_CAMPAIGN_H_
#define WEBTX_EXP_CAMPAIGN_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "sim/fault_plan.h"

namespace webtx {

// One chaos campaign engine for three fault-injection domains: the
// simulator (exp/chaos.h), the live executor (exp/live_chaos.h) and the
// digital twin (exp/twin_chaos.h). It owns the replay format and the
// campaign loop. A domain is a traits struct: Case (a pure value, so
// running it twice replays the same behavior) and Run (what one
// execution produced); kHeader (the replay header line), kMode ("",
// "live" or "twin"), kDigestName, kDefaultCases, kRunTwice (audit
// determinism by executing each case twice) and kTallies (counter
// names; a run-twice domain declares "nondeterministic"); Fields(),
// Random(seed, i), Execute(case) -> Result<Run>, Digest(run),
// Check(case, run) -> Status, Tally(run, tallies), Shrink(case,
// predicate) and optionally Sweep(case, digest, tallies), an audit run
// after Check passes.

// Replay format: a versioned header line, then "key value" lines in
// field-table order. Blank lines and '#' comments are skipped, an
// unknown key is an error (a replay must not silently lose a knob), and
// a missing key keeps the case's default.

/// One key of a replay file. A scalar field writes one line; a repeated
/// field writes one line per list element and reads by appending. `read`
/// fails on a value that is malformed or out of the field's range.
template <typename Case>
struct ReplayField {
  std::string key;
  std::function<void(const Case&, std::string& out)> write;
  std::function<bool(const std::string& value, Case&)> read;
};

template <typename Case>
using ReplayFields = std::vector<ReplayField<Case>>;

// Value codecs. Doubles print with max_digits10, so replays round-trip
// exactly. Unsigned integers are bare decimal digits: a sign, blanks or
// a value beyond the field's type is rejected. Bools are "0"/"1".
std::string FormatValue(double v);
std::string FormatValue(bool v);
std::string FormatValue(const std::string& v);
template <std::unsigned_integral T>
std::string FormatValue(T v) {
  return std::to_string(v);
}
bool ParseValue(const std::string& text, double* out);
bool ParseValue(const std::string& text, bool* out);
bool ParseValue(const std::string& text, std::string* out);
bool ParseDigits(const std::string& text, uint64_t max, uint64_t* out);
template <std::unsigned_integral T>
bool ParseValue(const std::string& text, T* out) {
  uint64_t v = 0;
  if (!ParseDigits(text, std::numeric_limits<T>::max(), &v)) return false;
  *out = static_cast<T>(v);
  return true;
}

/// Spelling of each value of an enum: its codec.
template <typename E>
using EnumNames = std::vector<std::pair<E, std::string>>;

template <typename E>
std::string FormatValue(E v, const EnumNames<E>& names) {
  for (const auto& [value, name] : names) {
    if (value == v) return name;
  }
  return "?";
}

template <typename E>
bool ParseValue(const std::string& text, E* out, const EnumNames<E>& names) {
  for (const auto& [value, name] : names) {
    if (name != text) continue;
    *out = value;
    return true;
  }
  return false;
}

/// Splits a value on blanks; false unless it has exactly `count` tokens.
bool SplitValue(const std::string& value, size_t count,
                std::vector<std::string>* tokens);

/// A scalar field stored at `c.*member`; an enum field also passes its
/// EnumNames.
template <typename Case, typename T, typename... Names>
ReplayField<Case> Field(std::string key, T Case::*member,
                        const Names&... names) {
  return {key,
          [=](const Case& c, std::string& out) {
            out += key + ' ' + FormatValue(c.*member, names...) + '\n';
          },
          [=](const std::string& value, Case& c) {
            return ParseValue(value, &(c.*member), names...);
          }};
}

/// A repeated field: one line per element of `c.*list`.
template <typename Case, typename T>
ReplayField<Case> RepeatedField(
    std::string key, std::vector<T> Case::*list,
    std::type_identity_t<std::function<std::string(const T&)>> format,
    std::type_identity_t<std::function<bool(const std::string&, T*)>> parse) {
  return {key,
          [=](const Case& c, std::string& out) {
            for (const T& item : c.*list) {
              out += key + ' ' + format(item) + '\n';
            }
          },
          [=](const std::string& value, Case& c) {
            T item{};
            if (!parse(value, &item)) return false;
            (c.*list).push_back(std::move(item));
            return true;
          }};
}

/// Appends the `fields` of the sub-struct `c.*outer` to a case's table.
template <typename Case, typename Sub>
void AppendFields(ReplayFields<Case>& table, Sub Case::*outer,
                  const ReplayFields<Sub>& fields) {
  for (const ReplayField<Sub>& f : fields) {
    table.push_back(
        {f.key,
         [=](const Case& c, std::string& out) { f.write(c.*outer, out); },
         [=](const std::string& v, Case& c) { return f.read(v, c.*outer); }});
  }
}

/// The fault-plan block every domain writes: outage_rate,
/// mean_outage_duration, abort_rate, crash_rate, mean_repair_duration,
/// migration, correlated_crash_prob, fault_seed.
ReplayFields<FaultPlanConfig> FaultFields();

/// The executor knobs the live and twin cases carry under the same
/// member names: latency spikes and retries, then (after `between`, the
/// live case's admission lines) the stall watchdog.
template <typename Case>
void AppendExecutorFields(ReplayFields<Case>& table,
                          const ReplayFields<Case>& between) {
  table.insert(
      table.end(),
      {Field("latency_spike_prob", &Case::latency_spike_prob),
       Field("mean_latency_spike", &Case::mean_latency_spike),
       Field("retry_max_attempts", &Case::retry_max_attempts),
       Field("retry_backoff", &Case::retry_backoff),
       Field("retry_backoff_multiplier", &Case::retry_backoff_multiplier),
       Field("retry_max_backoff", &Case::retry_max_backoff),
       Field("retry_budget", &Case::retry_budget)});
  table.insert(table.end(), between.begin(), between.end());
  table.push_back(Field("watchdog", &Case::watchdog));
  table.push_back(
      Field("watchdog_stall_seconds", &Case::watchdog_stall_seconds));
}

/// The non-blank, non-comment lines of a replay ('\r' stripped), with
/// their 1-based line numbers.
std::vector<std::pair<size_t, std::string>> ContentLines(
    const std::string& text);

/// InvalidArgument("line <line_no>: <message>").
Status ReplayError(size_t line_no, const std::string& message);

template <typename Domain>
std::string SerializeReplay(const typename Domain::Case& c) {
  std::string out = std::string(Domain::kHeader) + '\n';
  for (const auto& field : Domain::Fields()) field.write(c, out);
  return out;
}

template <typename Domain>
Result<typename Domain::Case> ParseReplay(const std::string& text) {
  const auto& fields = Domain::Fields();
  const auto lines = ContentLines(text);
  if (lines.empty() || lines[0].second != Domain::kHeader) {
    return Status::InvalidArgument("replay header is not '" +
                                   std::string(Domain::kHeader) + "'");
  }
  typename Domain::Case c;
  for (size_t l = 1; l < lines.size(); ++l) {
    const auto& [line_no, line] = lines[l];
    const size_t space = line.find(' ');
    const std::string key = line.substr(0, space);
    size_t i = 0;
    while (i < fields.size() && fields[i].key != key) ++i;
    if (i == fields.size()) return ReplayError(line_no, "unknown key " + key);
    if (space == std::string::npos ||
        !fields[i].read(line.substr(space + 1), c)) {
      return ReplayError(line_no, "bad value in '" + line + "'");
    }
  }
  return c;
}

// Shrinking.

/// True when a (shrunk) case still exhibits the failure being chased.
/// Predicates must be deterministic (same case, same answer).
template <typename Case>
using CasePredicate = std::function<bool(const Case&)>;

/// Applies `mutate` to a copy; commits it iff the failure still
/// reproduces. Returns whether the simplification was kept.
template <typename Case, typename Mutation>
bool TryMutation(Case& c, Mutation mutate,
                 const std::type_identity_t<CasePredicate<Case>>& still_fails) {
  Case candidate = c;
  mutate(candidate);
  if (!still_fails(candidate)) return false;
  c = std::move(candidate);
  return true;
}

/// Halves `c.*count` while the failure still reproduces.
template <typename Case, typename N>
void HalveWhileFailing(
    Case& c, N Case::*count,
    const std::type_identity_t<CasePredicate<Case>>& still_fails) {
  while (c.*count > 1 &&
         TryMutation(c, [count](Case& x) { x.*count /= 2; }, still_fails)) {
  }
}

/// Decrements `c.*count` (servers, workers) while the failure reproduces.
template <typename Case, typename N>
void DecrementWhileFailing(
    Case& c, N Case::*count,
    const std::type_identity_t<CasePredicate<Case>>& still_fails) {
  while (c.*count > 1 &&
         TryMutation(c, [count](Case& x) { --(x.*count); }, still_fails)) {
  }
}

// Shrink mutations shared by the domains: drop one stream of the case's
// `fault` plan or (live, twin) one executor mechanism.
inline constexpr auto DropAborts = [](auto& x) { x.fault.abort_rate = 0.0; };
inline constexpr auto DropOutages = [](auto& x) {
  x.fault.outage_rate = 0.0;
  x.fault.mean_outage_duration = 0.0;
};
inline constexpr auto DropCorrelation = [](auto& x) {
  x.fault.correlated_crash_prob = 0.0;
};
inline constexpr auto DropCrashes = [](auto& x) {
  // Correlated mode cannot outlive the crash stream it rides on.
  x.fault.crash_rate = 0.0;
  x.fault.mean_repair_duration = 0.0;
  x.fault.correlated_crash_prob = 0.0;
};
inline constexpr auto DropLatencySpikes = [](auto& x) {
  x.latency_spike_prob = 0.0;
  x.mean_latency_spike = 0.0;
};
inline constexpr auto DropWatchdog = [](auto& x) {
  x.watchdog = false;
  x.watchdog_stall_seconds = 0.0;
};
inline constexpr auto ResetRetries = [](auto& x) {
  x.retry_max_attempts = 1;
  x.retry_backoff = 0.0;
  x.retry_backoff_multiplier = 2.0;
  x.retry_max_backoff = 0.0;
  x.retry_budget = 0;
};

// Campaign loop.

/// A campaign's counters by name; RunCampaign starts each name in the
/// domain's kTallies at zero.
using Tallies = std::map<std::string, size_t>;

struct CampaignOptions {
  uint64_t master_seed = 1;
  /// Randomized cases to run; unset runs the domain's kDefaultCases.
  std::optional<size_t> num_cases;
  /// Where to write the first failure's shrunken reproducer, if set.
  std::string reproducer_path;
  /// Per-case hook: case index and its violation ("" = passed).
  std::function<void(size_t index, const std::string& violation)> progress;
};

template <typename Domain>
struct CampaignResult {
  size_t cases_run = 0;
  /// Failing cases, determinism and neutrality breaks included.
  size_t violations = 0;
  std::string first_violation;
  /// The first failing case, shrunk to a local minimum.
  typename Domain::Case first_reproducer;
  /// Aggregate fault activity: proof the campaign exercised the faults.
  Tallies tallies;
};

/// A case run the way a replay runs it: executed (twice for run-twice
/// domains) with the first run audited against the invariants.
template <typename Domain>
struct ReplayedCase {
  typename Domain::Run run;
  uint64_t digest = 0;
  /// The second execution's digest; `digest` for single-run domains.
  uint64_t rerun_digest = 0;
  Status verdict;
  bool deterministic() const { return digest == rerun_digest; }
};

template <typename Domain>
Result<ReplayedCase<Domain>> ReplayCase(const typename Domain::Case& c) {
  ReplayedCase<Domain> out;
  WEBTX_ASSIGN_OR_RETURN(out.run, Domain::Execute(c));
  out.digest = out.rerun_digest = Domain::Digest(out.run);
  if constexpr (Domain::kRunTwice) {
    WEBTX_ASSIGN_OR_RETURN(const typename Domain::Run second,
                           Domain::Execute(c));
    out.rerun_digest = Domain::Digest(second);
  }
  out.verdict = Domain::Check(c, out.run);
  return out;
}

/// OK when `violations` is empty, else InvalidArgument counting them and
/// quoting the first three.
Status InvariantViolations(const char* domain,
                           const std::vector<std::string>& violations);

/// The violation text of two identical runs whose digests differ.
std::string DeterminismViolation(const char* digest_name, uint64_t first,
                                 uint64_t second);

/// Audits one campaign case: determinism (run-twice domains), then the
/// invariants, then the domain's Sweep if it has one. Adds the case's
/// activity to `tallies`. Returns "" when the case passes, else the
/// violation; fails only on harness errors.
template <typename Domain>
Result<std::string> AuditCase(const typename Domain::Case& c,
                              Tallies& tallies) {
  WEBTX_ASSIGN_OR_RETURN(const ReplayedCase<Domain> r, ReplayCase<Domain>(c));
  Domain::Tally(r.run, tallies);
  if (!r.deterministic()) {
    ++tallies["nondeterministic"];
    return DeterminismViolation(Domain::kDigestName, r.digest,
                                r.rerun_digest);
  }
  if (!r.verdict.ok()) return r.verdict.ToString();
  if constexpr (requires { Domain::Sweep(c, r.digest, tallies); }) {
    return Domain::Sweep(c, r.digest, tallies);
  }
  return std::string();
}

/// Writes `text` to `path`; IOError when it cannot.
Status WriteTextFile(const std::string& path, const std::string& text);

/// Runs the campaign's randomized cases through AuditCase. The first
/// failing case is shrunk (predicate: a violation — any violation —
/// still reproduces) and optionally written as a replay file; the
/// campaign then continues, so the violation count is complete.
template <typename Domain>
Result<CampaignResult<Domain>> RunCampaign(const CampaignOptions& options) {
  using Case = typename Domain::Case;
  CampaignResult<Domain> out;
  for (const char* name : Domain::kTallies) out.tallies[name] = 0;
  const size_t num_cases = options.num_cases.value_or(Domain::kDefaultCases);
  for (size_t i = 0; i < num_cases; ++i) {
    const Case c = Domain::Random(options.master_seed, i);
    WEBTX_ASSIGN_OR_RETURN(const std::string verdict,
                           AuditCase<Domain>(c, out.tallies));
    ++out.cases_run;
    if (options.progress) options.progress(i, verdict);
    if (verdict.empty() || ++out.violations > 1) continue;
    out.first_violation = verdict;
    out.first_reproducer = Domain::Shrink(c, [](const Case& x) {
      Tallies scratch;
      const Result<std::string> rerun = AuditCase<Domain>(x, scratch);
      // An invalid shrink candidate does not reproduce the failure.
      return rerun.ok() && !rerun.ValueOrDie().empty();
    });
    if (!options.reproducer_path.empty()) {
      WEBTX_RETURN_NOT_OK(WriteTextFile(
          options.reproducer_path,
          SerializeReplay<Domain>(out.first_reproducer)));
    }
  }
  return out;
}

}  // namespace webtx

#endif  // WEBTX_EXP_CAMPAIGN_H_
