// chaos — randomized fault-injection campaign runner and replay tool.
//
// One campaign engine (exp/campaign.h) drives three domains: the
// simulator (default), the live executor (--live: rt::Executor under a
// VirtualClock) and the digital twin (--twin: rt::Twin). A campaign
// runs N randomized cases. Simulator cases are audited by the schedule
// validator; live and twin cases run twice and must produce
// byte-identical digests, and their first run is audited by the live
// trace validator (plus, for the twin, the controller contract and a
// forecast_threads 1/2/8 / pooling re-run that must not move the
// digest). The first failing case is shrunk to a local minimum and
// written as a replay file (--out) or printed. Default case counts:
// 200 (simulator), 200 (live), 25 (twin).
//
//   chaos [--live|--twin] [--cases N] [--seed S] [--out FILE] [--verbose]
//
// Replay mode re-runs a replay file of any domain (its header line
// names the domain) and prints the digest and audit verdict; a replay
// prints the same digest on every machine. Mint mode turns a healthy
// campaign into a regression reproducer: the first case that is
// deterministic, validates and reaches the domain's deepest path is
// shrunk against that predicate and written to FILE (the replay
// integration tests pin such files and their digests).
//
//   chaos --replay FILE
//   chaos --mint FILE | --mint-live FILE | --mint-twin FILE [--seed S]
//
// Steal mode checks the sharded policy state: each multi-server,
// workflow-heavy, overloaded case runs with a global-state policy and
// its "-sharded" variant (sched/scheduler_policy.h); the sharded run
// must validate and match the global digest byte for byte.
//
//   chaos --steal [--cases N] [--seed S]     (25 cases by default)
//
// Exit status: 0 when every case passed (or the replay validates), 1 on
// invariant violations (or a steal-mode divergence), 2 on usage/IO
// errors.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.h"
#include "exp/chaos.h"
#include "exp/live_chaos.h"
#include "exp/twin_chaos.h"

namespace webtx {
namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--live|--twin] [--cases N] [--seed S] [--out FILE] "
               "[--verbose]\n"
               "       %s --replay FILE\n"
               "       %s --mint FILE [--seed S]\n"
               "       %s --mint-live FILE [--seed S]\n"
               "       %s --mint-twin FILE [--seed S]\n"
               "       %s --steal [--cases N] [--seed S]\n",
               argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "chaos: %s\n", status.ToString().c_str());
  return 2;
}

// One case of the steal campaign: multi-server, workflow-heavy and
// overloaded (every round places k heads, so cross-shard steals are
// dense), with the randomized policy mapped onto a base that has a
// sharded-state variant.
ChaosCase StealChaosCase(uint64_t master_seed, uint64_t index) {
  ChaosCase c = RandomChaosCase(master_seed, index);
  c.num_servers = 1u << (1 + index % 3);  // 2, 4, 8
  if (c.utilization < 2.0) c.utilization = 2.0;
  if (c.max_workflow_length < 3) c.max_workflow_length = 3;
  if (c.max_workflows_per_txn < 2) c.max_workflows_per_txn = 2;
  static const char* const kShardedBases[] = {
      "FCFS", "EDF", "SRPT", "LS", "HDF", "HVF", "ASETS*", "ASETS*-lazy"};
  for (const char* base : kShardedBases) {
    if (c.policy == base) return c;
  }
  c.policy = kShardedBases[index % 8];
  return c;
}

int RunStealCampaign(uint64_t master_seed, size_t num_cases) {
  int failures = 0;
  for (uint64_t i = 0; i < num_cases; ++i) {
    ChaosCase c = StealChaosCase(master_seed, i);
    const auto global = ReplayCase<SimChaos>(c);
    c.policy += "-sharded";
    const auto sharded = ReplayCase<SimChaos>(c);
    if (!global.ok() || !sharded.ok()) {
      const Status error = global.ok() ? sharded.status() : global.status();
      std::fprintf(stderr, "chaos: steal case %llu: %s\n",
                   static_cast<unsigned long long>(i),
                   error.ToString().c_str());
      return 2;
    }
    const ReplayedCase<SimChaos>& r = sharded.ValueOrDie();
    const bool diverged = r.digest != global.ValueOrDie().digest;
    std::printf(
        "case %llu policy=%-22s servers=%zu crashes=%zu migrations=%zu "
        "aborts=%zu digest=%016llx validator=%s steal=%s\n",
        static_cast<unsigned long long>(i), c.policy.c_str(), c.num_servers,
        r.run.num_crashes, r.run.num_migrations, r.run.num_aborts,
        static_cast<unsigned long long>(r.digest),
        r.verdict.ok() ? "ok" : r.verdict.ToString().c_str(),
        diverged ? "DIVERGED" : "byte-identical");
    if (!r.verdict.ok() || diverged) ++failures;
  }
  std::printf("steal cases       %zu\n", num_cases);
  std::printf("failures          %d\n", failures);
  return failures > 0 ? 1 : 0;
}

// Report lines: a key padded to a fixed column, then the value.

using Rows = std::vector<std::pair<std::string, std::string>>;

void PrintRow(const std::string& key, const std::string& value) {
  std::printf("%-17s %s\n", key.c_str(), value.c_str());
}

std::string Count(size_t n) { return std::to_string(n); }

std::string Format(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

// "" for the simulator, "live " / "twin " for the executor domains.
template <typename Domain>
std::string Label() {
  const std::string mode = Domain::kMode;
  return mode.empty() ? mode : mode + " ";
}

// Per-domain replay report rows (between the mode and digest lines).
Rows ReplayRows(const ChaosCase& c, const RunResult& r) {
  return {{"policy", c.policy},
          {"transactions", Count(c.num_transactions)},
          {"servers", Count(c.num_servers)},
          {"crashes", Count(r.num_crashes)},
          {"migrations", Count(r.num_migrations)},
          {"aborts", Count(r.num_aborts)},
          {"goodput", Format("%.4f", r.goodput)}};
}

Rows ReplayRows(const LiveChaosCase& c, const LiveChaosRun& run) {
  return {{"policy", c.policy},
          {"tasks", Count(c.num_tasks)},
          {"workers", Count(c.num_workers)},
          {"crashes", Count(run.stats.crashes)},
          {"stalls", Count(run.stats.stalls)},
          {"migrations", Count(run.stats.migrations)},
          {"forced_aborts", Count(run.stats.forced_aborts)},
          {"completed", Count(run.stats.completed)}};
}

Rows ReplayRows(const TwinChaosCase& c, const rt::TwinReport& r) {
  return {{"shape", LiveArrivalShapeName(c.shape)},
          {"tasks", Count(c.num_tasks)},
          {"workers", Count(c.num_workers)},
          {"candidates", Count(c.candidates.size())},
          {"controller", c.controller_enabled ? "on" : "off"},
          {"decisions", Count(r.decisions.size())},
          {"switches", Count(r.switches)},
          {"fallbacks", Count(r.fallbacks)},
          {"completed", Count(r.stats.completed)},
          {"avg_tardiness", Format("%.6f", r.avg_tardiness)},
          {"shed_ratio", Format("%.4f", r.shed_ratio)}};
}

// Mint targets, each domain's deepest path: cold failover migrating work
// off a crashed server; work failing over off a dead executor slot; the
// twin's divergence guard catching a corrupted shadow model.
bool MintTarget(const ChaosCase& c, const RunResult& r) {
  return c.fault.migration == MigrationPolicy::kCold && r.num_migrations >= 1;
}
bool MintTarget(const LiveChaosCase&, const LiveChaosRun& run) {
  return run.stats.migrations >= 1;
}
bool MintTarget(const TwinChaosCase&, const rt::TwinReport& r) {
  return r.fallbacks >= 1;
}

// The twin mints from its acceptance scenario: a flash crowd served by an
// enabled controller whose snapshot stream is corrupted.
void PrepareMint(ChaosCase&) {}
void PrepareMint(LiveChaosCase&) {}
void PrepareMint(TwinChaosCase& c) {
  c.shape = LiveArrivalShape::kFlashCrowd;
  c.controller_enabled = true;
  if (c.snapshot_corruption == 1.0) c.snapshot_corruption = 8.0;
}

// The generic campaign, replay and mint paths.

template <typename Domain>
int RunCampaignMode(CampaignOptions options, bool verbose) {
  const std::string label = Label<Domain>();
  if (verbose) {
    options.progress = [label](size_t index, const std::string& violation) {
      std::fprintf(stderr, "%scase %zu %s%s\n", label.c_str(), index,
                   violation.empty() ? "ok" : "VIOLATION: ", violation.c_str());
    };
  }
  auto campaign = RunCampaign<Domain>(options);
  if (!campaign.ok()) return Fail(campaign.status());
  const CampaignResult<Domain>& r = campaign.ValueOrDie();
  PrintRow(label + "cases", Count(r.cases_run));
  PrintRow("violations", Count(r.violations));
  for (const char* name : Domain::kTallies) {
    PrintRow(name, Count(r.tallies.at(name)));
  }
  if (r.violations == 0) return 0;
  std::printf("first violation: %s\n", r.first_violation.c_str());
  if (!options.reproducer_path.empty()) {
    std::printf("shrunken reproducer written to %s\n",
                options.reproducer_path.c_str());
  } else {
    std::printf("shrunken reproducer:\n%s",
                SerializeReplay<Domain>(r.first_reproducer).c_str());
  }
  return 1;
}

// Runs a case the way a replay does (twice for the live and twin
// domains) and prints its report rows, digest, determinism verdict and
// invariant verdict. Returns the exit status.
template <typename Domain>
int PrintReplay(const typename Domain::Case& c) {
  auto replayed = ReplayCase<Domain>(c);
  if (!replayed.ok()) return Fail(replayed.status());
  const ReplayedCase<Domain>& r = replayed.ValueOrDie();
  if (*Domain::kMode != '\0') PrintRow("mode", Domain::kMode);
  for (const auto& [key, value] : ReplayRows(c, r.run)) PrintRow(key, value);
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(r.digest));
  PrintRow(std::string(Domain::kDigestName) + "_digest", digest);
  if (Domain::kRunTwice) {
    PrintRow("determinism", r.deterministic() ? "byte-identical" : "DIVERGED");
  }
  PrintRow("validator", r.verdict.ToString());
  return r.verdict.ok() && r.deterministic() ? 0 : 1;
}

template <typename Domain>
int RunReplay(const std::string& text) {
  auto parsed = ParseReplay<Domain>(text);
  if (!parsed.ok()) return Fail(parsed.status());
  return PrintReplay<Domain>(parsed.ValueOrDie());
}

int RunReplayFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "chaos: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream text;
  text << file.rdbuf();
  // The header line names the domain.
  static const std::pair<const char*, int (*)(const std::string&)>
      kDomains[] = {{SimChaos::kHeader, RunReplay<SimChaos>},
                    {LiveChaos::kHeader, RunReplay<LiveChaos>},
                    {TwinChaos::kHeader, RunReplay<TwinChaos>}};
  const auto lines = ContentLines(text.str());
  const std::string header = lines.empty() ? "" : lines[0].second;
  for (const auto& [domain_header, replay] : kDomains) {
    if (header == domain_header) return replay(text.str());
  }
  std::fprintf(stderr, "chaos: %s: unknown replay header '%s'\n",
               path.c_str(), header.c_str());
  return 2;
}

// Mints a regression replay: the first randomized case that is
// deterministic, passes every invariant and hits the domain's mint
// target, shrunk against that same predicate, written to `path` and
// then replayed.
template <typename Domain>
int RunMint(const std::string& path, uint64_t master_seed) {
  using Case = typename Domain::Case;
  const CasePredicate<Case> target = [](const Case& c) {
    auto r = ReplayCase<Domain>(c);
    return r.ok() && r.ValueOrDie().deterministic() &&
           r.ValueOrDie().verdict.ok() && MintTarget(c, r.ValueOrDie().run);
  };
  for (uint64_t i = 0; i < 10000; ++i) {
    Case c = Domain::Random(master_seed, i);
    PrepareMint(c);
    if (!target(c)) continue;
    c = Domain::Shrink(c, target);
    const Status written = WriteTextFile(path, SerializeReplay<Domain>(c));
    if (!written.ok()) return Fail(written);
    std::printf("minted %s (%scase %llu of seed %llu)\n", path.c_str(),
                Label<Domain>().c_str(), static_cast<unsigned long long>(i),
                static_cast<unsigned long long>(master_seed));
    return PrintReplay<Domain>(c);
  }
  std::fprintf(stderr, "chaos: no %scase of seed %llu hits the mint target\n",
               Label<Domain>().c_str(),
               static_cast<unsigned long long>(master_seed));
  return 2;
}

int Main(int argc, char** argv) {
  CampaignOptions options;
  std::string cases, seed, replay_path, mint_path, mint_live_path,
      mint_twin_path;
  bool verbose = false;
  bool live = false;
  bool steal = false;
  bool twin = false;
  const std::pair<const char*, std::string*> kValueFlags[] = {
      {"--cases", &cases},
      {"--seed", &seed},
      {"--out", &options.reproducer_path},
      {"--replay", &replay_path},
      {"--mint", &mint_path},
      {"--mint-live", &mint_live_path},
      {"--mint-twin", &mint_twin_path}};
  const std::pair<const char*, bool*> kSwitches[] = {
      {"--live", &live},
      {"--twin", &twin},
      {"--steal", &steal},
      {"--verbose", &verbose}};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool known = false;
    for (const auto& [flag, value] : kValueFlags) {
      if (arg != flag) continue;
      if (i + 1 == argc) return Usage(argv[0]);
      *value = argv[++i];
      known = true;
    }
    for (const auto& [flag, on] : kSwitches) {
      if (arg != flag) continue;
      *on = true;
      known = true;
    }
    if (!known) return Usage(argv[0]);
  }
  if (!cases.empty()) {
    options.num_cases =
        static_cast<size_t>(std::strtoull(cases.c_str(), nullptr, 10));
  }
  if (!seed.empty()) {
    options.master_seed = std::strtoull(seed.c_str(), nullptr, 10);
  }

  if (!replay_path.empty()) return RunReplayFile(replay_path);
  const std::pair<const std::string*, int (*)(const std::string&, uint64_t)>
      kMints[] = {{&mint_path, RunMint<SimChaos>},
                  {&mint_live_path, RunMint<LiveChaos>},
                  {&mint_twin_path, RunMint<TwinChaos>}};
  for (const auto& [path, mint] : kMints) {
    if (!path->empty()) return mint(*path, options.master_seed);
  }
  if (live) return RunCampaignMode<LiveChaos>(options, verbose);
  if (twin) return RunCampaignMode<TwinChaos>(options, verbose);
  // Each steal case runs twice (global + sharded): 25 cases by default.
  const size_t steal_cases = options.num_cases.value_or(25);
  if (steal) return RunStealCampaign(options.master_seed, steal_cases);
  return RunCampaignMode<SimChaos>(options, verbose);
}

}  // namespace
}  // namespace webtx

int main(int argc, char** argv) { return webtx::Main(argc, argv); }
