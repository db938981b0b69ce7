// The repository benchmark: three workloads that drive the simulator,
// the sweep engine and the digital twin through their public entry
// points, with correctness checks, and an optional traced pass that
// splits the wall time into per-layer self times.
//
//   perfbench --workload paper_sweep|huge_workflow|twin_onoff
//             [--seed N] [--seconds S] [--trace 0|1]
//
// Normally started through perfbench/run.py, which builds it first.
// Why each workload exists and which layer metric should move which
// end-to-end metric is written down in perfbench/README.md.
//
// Output: "# ..." lines for people (every metric with median, quartiles
// and sample count, every digest, every failed check), then one JSON
// line with `correct`, `attempted`, `failed` and `metrics`. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "exp/chaos.h"
#include "exp/sweep.h"
#include "rt/live_validator.h"
#include "rt/twin.h"
#include "sched/admission.h"
#include "sched/policy_factory.h"
#include "sim/fault_plan.h"
#include "sim/sim_workload.h"
#include "sim/simulator.h"
#include "timing.h"
#include "workload/generator.h"
#include "workload/live_arrivals.h"
#include "workload/streaming_generator.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace webtx;

/// Default workload seed. Claims are confirmed on kHeldOutSeed, which
/// no tuning may look at.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 20090401;

// ---------------------------------------------------------------------------
// Reporting

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the "exclusive" method of Python's statistics.quantiles
/// (n=4), so the numbers printed here match the ones a reader computes
/// from the run values.
Quartiles QuartilesOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n == 0) return {};
  if (n == 1) return {v[0], v[0], v[0]};
  double q[3];
  const auto m = static_cast<long>(n + 1);
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

double MedianOf(const std::vector<double>& v) { return QuartilesOf(v).median; }

/// Work done per host second over repeated timed reps. The value is all
/// the work over all the time, so a slow stretch of the host weighs by
/// its length instead of flipping a median between a fast and a slow
/// mode; the per-rep rates are kept for their median and quartiles.
struct Rate {
  double work = 0.0;
  double seconds = 0.0;
  std::vector<double> reps;

  void Add(double rep_work, double rep_seconds) {
    work += rep_work;
    seconds += rep_seconds;
    reps.push_back(rep_work / rep_seconds);
  }
  double value() const { return seconds > 0.0 ? work / seconds : 0.0; }
};

class Report {
 public:
  /// A metric measured `samples.size()` times; the reported value is
  /// the median.
  void Metric(const std::string& name, const std::string& unit,
              const std::vector<double>& samples) {
    const Quartiles q = QuartilesOf(samples);
    std::printf("# metric %-34s %.6g %s  (q1 %.6g, q3 %.6g, n %zu)\n",
                name.c_str(), q.median, unit.c_str(), q.q1, q.q3,
                samples.size());
    metrics_.push_back({name, unit, q.median});
  }
  void Metric(const std::string& name, const std::string& unit,
              double value) {
    Metric(name, unit, std::vector<double>{value});
  }

  /// A value printed for people only (the usual names of metrics the
  /// JSON carries under a workload-neutral name, and context figures).
  void Note(const std::string& name, const std::string& unit,
            const std::vector<double>& samples) {
    const Quartiles q = QuartilesOf(samples);
    std::printf("# note   %-34s %.6g %s  (q1 %.6g, q3 %.6g, n %zu)\n",
                name.c_str(), q.median, unit.c_str(), q.q1, q.q3,
                samples.size());
  }

  void Metric(const std::string& name, const std::string& unit,
              const Rate& rate) {
    PrintRate("metric", name, unit, rate);
    metrics_.push_back({name, unit, rate.value()});
  }
  void Note(const std::string& name, const std::string& unit,
            const Rate& rate) {
    PrintRate("note  ", name, unit, rate);
  }

  void Digest(const std::string& label, uint64_t digest) {
    std::printf("# digest %-34s %016llx\n", label.c_str(),
                static_cast<unsigned long long>(digest));
  }

  /// One operation attempted (a timed run or a check).
  void Attempt() { ++attempted_; }

  /// A correctness check; counts as one attempted operation.
  void Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("# FAILED CHECK: %s\n", what.c_str());
    }
  }

  void PrintJson() const {
    std::printf("# error_ratio %.6g (%llu failed of %llu attempted)\n",
                attempted_ > 0 ? static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                               : 0.0,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double value =
          std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(), value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  static void PrintRate(const char* kind, const std::string& name,
                        const std::string& unit, const Rate& rate) {
    const Quartiles q = QuartilesOf(rate.reps);
    std::printf("# %s %-34s %.6g %s  (per rep: median %.6g, q1 %.6g, "
                "q3 %.6g, n %zu)\n",
                kind, name.c_str(), rate.value(), unit.c_str(), q.median,
                q.q1, q.q3, rate.reps.size());
  }

  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Peak resident set of this program image (VmHWM). getrusage's
/// ru_maxrss would also count the memory of whatever process exec'd it.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  WEBTX_CHECK(status != nullptr) << "cannot read /proc/self/status";
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  std::fclose(status);
  return kib / 1024.0;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Tardiness percentile by nearest rank over the given samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

bool FatesPartition(const RunResult& r, size_t n) {
  return r.num_completed + r.num_shed + r.num_dropped_retries +
             r.num_dropped_dependency ==
         n;
}

/// Runs `fn` inside a span when tracing, plainly otherwise.
template <typename Fn>
void MaybeSpan(Tracer* tracer, const std::string& layer, Fn&& fn) {
  if (tracer != nullptr) {
    tracer->Span(layer, std::forward<Fn>(fn));
  } else {
    fn();
  }
}

/// Per-layer metrics every workload prints under --trace 1; layers a
/// workload does not exercise stay 0.
struct LayerMetrics {
  std::map<std::string, std::pair<std::string, double>> values;

  void Set(const std::string& name, const std::string& unit, double v) {
    values[name] = {unit, v};
  }
};

const char* const kLayerNames[] = {
    "workload", "sim.create", "sim", "sched.policy", "sched.admission",
    "exp",      "rt",         "twin.forecast", "unattributed"};

void FillSchedMetrics(LayerMetrics& out, const PolicyStats& policy,
                      const AdmissionStats& admission, double events) {
  const auto per_call = [](const CallStat& s) {
    return s.calls > 0 ? static_cast<double>(s.ns) /
                             static_cast<double>(s.calls)
                       : 0.0;
  };
  const auto per_event = [events](double x) {
    return events > 0.0 ? x / events : 0.0;
  };
  out.Set("sched.policy_ns_per_event", "ns",
          per_event(static_cast<double>(policy.TotalNs())));
  const std::pair<const char*, const CallStat*> callbacks[] = {
      {"pick", &policy.pick},
      {"ready", &policy.ready},
      {"completion", &policy.completion},
      {"remaining_update", &policy.remaining_update}};
  for (const auto& [name, stat] : callbacks) {
    out.Set(std::string("sched.") + name + "_ns", "ns", per_call(*stat));
    out.Set(std::string("sched.") + name + "_calls_per_event", "1",
            per_event(static_cast<double>(stat->calls)));
  }
  out.Set("sched.admission_ns", "ns", per_call(admission.decide));
  out.Set("sched.admission_calls", "count",
          static_cast<double>(admission.decide.calls));
  out.Set("sched.admission_reject_ratio", "1",
          admission.decide.calls > 0
              ? static_cast<double>(admission.rejects) /
                    static_cast<double>(admission.decide.calls)
              : 0.0);
}

void FillSimCounts(LayerMetrics& out, const RunResult& r) {
  const std::pair<const char*, size_t> counts[] = {
      {"sim.events", r.num_scheduling_points},
      {"sim.preemptions", r.num_preemptions},
      {"sim.aborts", r.num_aborts},
      {"sim.retries", r.num_retries},
      {"sim.migrations", r.num_migrations}};
  for (const auto& [name, count] : counts) {
    out.Set(name, "count",
            out.values[name].second + static_cast<double>(count));
  }
}

/// Reports the traced pass: every layer's self time (they sum to the
/// traced wall time), the per-layer metrics and the overhead against
/// the same work done untraced.
void ReportTrace(Report& report, const Tracer& tracer, LayerMetrics layers,
                 double untraced_wall_s) {
  double sum = 0.0;
  for (const char* layer : kLayerNames) {
    const auto it = tracer.self().find(layer);
    const double self = it == tracer.self().end() ? 0.0 : it->second;
    sum += self;
    std::string key = layer;
    std::replace(key.begin(), key.end(), '.', '_');
    layers.Set("self." + key + "_s", "s", self);
  }
  std::printf("# trace: layer self times sum to %.6f s of %.6f s traced "
              "wall\n",
              sum, tracer.wall_s());
  report.Check(std::abs(sum - tracer.wall_s()) <= 1e-6 * tracer.wall_s() +
                                                      1e-9,
               "layer self times do not sum to the traced wall time");
  layers.Set("trace.wall_s", "s", tracer.wall_s());
  layers.Set("trace.overhead", "1",
             untraced_wall_s > 0.0 ? tracer.wall_s() / untraced_wall_s : 0.0);
  for (const auto& [name, entry] : layers.values) {
    report.Metric(name, entry.first, entry.second);
  }
}

/// Every per-layer metric name, so each workload prints the full set
/// (0 where a layer is not exercised).
LayerMetrics ZeroLayers() {
  LayerMetrics m;
  for (const char* name :
       {"workload.generate_s", "sim.create_s", "sim.run_s"}) {
    m.Set(name, "s", 0.0);
  }
  m.Set("sim.self_ns_per_event", "ns", 0.0);
  for (const char* name : {"sim.events", "sim.preemptions", "sim.aborts",
                           "sim.retries", "sim.migrations"}) {
    m.Set(name, "count", 0.0);
  }
  FillSchedMetrics(m, PolicyStats{}, AdmissionStats{}, 0.0);
  m.Set("exp.run_ms", "ms", 0.0);
  m.Set("exp.merge_ms", "ms", 0.0);
  m.Set("exp.parallel_efficiency", "1", 0.0);
  m.Set("rt.static_serve_s", "s", 0.0);
  m.Set("twin.forecast_ms", "ms", 0.0);
  m.Set("twin.forecast_events_per_s", "1/s", 0.0);
  for (const char* name : {"twin.ticks", "twin.switches", "twin.fallbacks"}) {
    m.Set(name, "count", 0.0);
  }
  m.Set("quality.weighted_tardiness", "tu", 0.0);
  m.Set("quality.tardiness_p999", "tu", 0.0);
  return m;
}

/// Tardiness figures of a workload. Deterministic for a given seed, so
/// a change that only makes the program faster leaves them identical;
/// across seeds they vary too much to bound (perfbench/README.md), so
/// they are per-layer metrics, not end-to-end ones.
struct Quality {
  double weighted_tardiness = 0.0;  // mean, in the workload's time unit
  double tardiness_p999 = 0.0;      // over completed transactions
};

void ReportQuality(Report& report, const Quality& q, LayerMetrics* layers) {
  report.Note("weighted_tardiness", "tu",
              std::vector<double>{q.weighted_tardiness});
  report.Note("tardiness_p999", "tu", std::vector<double>{q.tardiness_p999});
  if (layers != nullptr) {
    layers->Set("quality.weighted_tardiness", "tu", q.weighted_tardiness);
    layers->Set("quality.tardiness_p999", "tu", q.tardiness_p999);
  }
}

/// Sets sim.run_s and sim.self_ns_per_event from the traced run time
/// and the policy/admission time inside it.
void FillSimTimes(LayerMetrics& m, double run_s, const PolicyStats& policy,
                  const AdmissionStats& admission) {
  const double events = m.values["sim.events"].second;
  const double self_ns = run_s * 1e9 -
                         static_cast<double>(policy.TotalNs()) -
                         static_cast<double>(admission.TotalNs());
  m.Set("sim.run_s", "s", run_s);
  m.Set("sim.self_ns_per_event", "ns", events > 0.0 ? self_ns / events : 0.0);
  FillSchedMetrics(m, policy, admission, events);
}

// ---------------------------------------------------------------------------
// paper_sweep: RunSweep over the fig08 grid and the fig15 general-case
// grid, at 1 and at 4 threads.

const std::vector<std::string> kSweepPolicies = {"FCFS", "LS", "EDF", "SRPT",
                                                 "ASETS*"};
constexpr size_t kAsetsStar = 4;
constexpr size_t kSweepThreads = 4;

std::vector<SweepConfig> SweepGrids(uint64_t seed) {
  SweepConfig fig08;  // Table I defaults
  fig08.utilizations = PaperUtilizationGrid();
  fig08.policies = kSweepPolicies;
  fig08.seeds.clear();
  for (uint64_t r = 0; r < 5; ++r) fig08.seeds.push_back(DeriveSeed(seed, 8, r));
  SweepConfig fig15 = fig08;
  fig15.base.max_weight = 10;
  fig15.base.max_workflow_length = 5;
  fig15.seeds.clear();
  for (uint64_t r = 0; r < 5; ++r) {
    fig15.seeds.push_back(DeriveSeed(seed, 15, r));
  }
  return {fig08, fig15};
}

/// The (utilization, replication) instances RunSweep derives from
/// `config`, in its order and with its seeds.
std::vector<WorkloadInstance> InstancesOf(const SweepConfig& config) {
  std::vector<WorkloadInstance> out;
  for (size_t u = 0; u < config.utilizations.size(); ++u) {
    for (size_t r = 0; r < config.seeds.size(); ++r) {
      WorkloadInstance instance;
      instance.spec = config.base;
      instance.spec.utilization = config.utilizations[u];
      instance.seed = DeriveSeed(config.seeds[r], u, r);
      out.push_back(instance);
    }
  }
  return out;
}

size_t NumInstances(const std::vector<SweepConfig>& grids) {
  size_t n = 0;
  for (const SweepConfig& c : grids) n += c.utilizations.size() * c.seeds.size();
  return n;
}

uint64_t CellsDigest(uint64_t h, const std::vector<SweepCell>& cells) {
  for (const SweepCell& c : cells) {
    for (const double v :
         {c.utilization, c.avg_tardiness, c.avg_weighted_tardiness,
          c.max_tardiness, c.max_weighted_tardiness, c.miss_ratio,
          c.avg_response, c.goodput, c.shed_ratio, c.drop_ratio,
          c.avg_tardiness_stddev, c.avg_weighted_tardiness_stddev}) {
      h = Fnv1a(h, Bits(v));
    }
  }
  return h;
}

struct SweepPass {
  double wall_s = 0.0;
  uint64_t digest = kFnvBasis;
  SweepTiming timing;  // summed over the grids
  std::vector<SweepCell> asets_cells;  // ASETS*'s cells, grid-major
};

SweepPass RunSweepPass(const std::vector<SweepConfig>& grids, size_t threads) {
  SweepPass pass;
  const auto start = Clock::now();
  for (SweepConfig config : grids) {
    SweepTiming timing;
    config.num_threads = threads;
    config.timing = &timing;
    auto cells = RunSweep(config);
    WEBTX_CHECK(cells.ok()) << cells.status().ToString();
    pass.digest = CellsDigest(pass.digest, cells.ValueOrDie());
    pass.timing.run_ms += timing.run_ms;
    pass.timing.merge_ms += timing.merge_ms;
    for (const SweepCell& c : cells.ValueOrDie()) {
      if (c.policy == kSweepPolicies[kAsetsStar]) pass.asets_cells.push_back(c);
    }
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

/// The sweep's instance work replayed from the benchmark side, one
/// thread, every run with outcomes: the digest of every run, ASETS*'s
/// per-transaction tardiness and per-cell means, and (traced) the
/// generate / create / run / policy split RunSweep hides.
struct ReplicaPass {
  double wall_s = 0.0;
  uint64_t digest = kFnvBasis;
  size_t partition_failures = 0;
  std::vector<double> asets_tardiness;       // completed txns
  std::vector<double> asets_cell_weighted;   // per (grid, utilization)
  double generate_s = 0.0;
  double create_s = 0.0;
  double run_s = 0.0;
};

ReplicaPass RunReplicaPass(const std::vector<SweepConfig>& grids,
                           Tracer* tracer, PolicyStats* policy_stats,
                           LayerMetrics* layers) {
  ReplicaPass pass;
  auto factories = MakePolicyFactories(kSweepPolicies);
  WEBTX_CHECK(factories.ok()) << factories.status().ToString();
  std::vector<PolicyFactory> run_factories = factories.ValueOrDie();
  if (policy_stats != nullptr) {
    for (PolicyFactory& f : run_factories) f = TimedFactory(f, policy_stats);
  }
  const auto start = Clock::now();
  for (const SweepConfig& config : grids) {
    const std::vector<WorkloadInstance> instances = InstancesOf(config);
    std::vector<double> weighted;
    for (size_t i = 0; i < instances.size(); ++i) {
      std::vector<TransactionSpec> txns;
      auto t0 = Clock::now();
      MaybeSpan(tracer, "workload", [&] {
        auto generator = WorkloadGenerator::Create(instances[i].spec);
        WEBTX_CHECK(generator.ok()) << generator.status().ToString();
        txns = generator.ValueOrDie().Generate(instances[i].seed);
      });
      pass.generate_s += SecondsSince(t0);
      const size_t n = txns.size();
      std::unique_ptr<Simulator> sim;
      t0 = Clock::now();
      MaybeSpan(tracer, "sim.create", [&] {
        auto created = Simulator::Create(std::move(txns), config.sim);
        WEBTX_CHECK(created.ok()) << created.status().ToString();
        sim = std::make_unique<Simulator>(std::move(created).ValueOrDie());
      });
      pass.create_s += SecondsSince(t0);
      for (size_t p = 0; p < run_factories.size(); ++p) {
        const std::unique_ptr<SchedulerPolicy> policy = run_factories[p]();
        RunResult result;
        const uint64_t policy_ns_before =
            policy_stats != nullptr ? policy_stats->TotalNs() : 0;
        t0 = Clock::now();
        MaybeSpan(tracer, "sim", [&] {
          result = sim->Run(*policy);
          if (tracer != nullptr) {
            tracer->AddChild("sched.policy",
                             static_cast<double>(policy_stats->TotalNs() -
                                                 policy_ns_before) *
                                 1e-9);
          }
        });
        pass.run_s += SecondsSince(t0);
        pass.digest = Fnv1a(pass.digest, ScheduleDigest(result));
        if (!FatesPartition(result, n)) ++pass.partition_failures;
        if (layers != nullptr) FillSimCounts(*layers, result);
        if (p == kAsetsStar) {
          weighted.push_back(result.avg_weighted_tardiness);
          for (const TxnOutcome& o : result.outcomes) {
            if (o.fate == TxnFate::kCompleted) {
              pass.asets_tardiness.push_back(o.tardiness);
            }
          }
        }
      }
    }
    // RunSweep's cell mean: a pairwise mean over the seeds of each
    // utilization, instances being utilization-major.
    const size_t seeds = config.seeds.size();
    for (size_t u = 0; u < config.utilizations.size(); ++u) {
      pass.asets_cell_weighted.push_back(
          PairwiseStats(weighted.data() + u * seeds, seeds).mean());
    }
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

/// Generation plus Simulator::Create for every instance of one sweep
/// pass: the input-building share of the sweep, timed on its own.
double SweepSetupSeconds(const std::vector<SweepConfig>& grids) {
  const auto start = Clock::now();
  size_t built = 0;
  for (const SweepConfig& config : grids) {
    for (const WorkloadInstance& instance : InstancesOf(config)) {
      auto generator = WorkloadGenerator::Create(instance.spec);
      WEBTX_CHECK(generator.ok()) << generator.status().ToString();
      auto sim = Simulator::Create(
          generator.ValueOrDie().Generate(instance.seed), config.sim);
      WEBTX_CHECK(sim.ok()) << sim.status().ToString();
      built += sim.ValueOrDie().specs().size();
    }
  }
  WEBTX_CHECK(built > 0);
  return SecondsSince(start);
}

void CheckSweepAgainstReplica(Report& report, const SweepPass& sweep,
                              const ReplicaPass& replica) {
  bool same = sweep.asets_cells.size() == replica.asets_cell_weighted.size();
  for (size_t i = 0; same && i < sweep.asets_cells.size(); ++i) {
    same = sweep.asets_cells[i].avg_weighted_tardiness ==
           replica.asets_cell_weighted[i];
  }
  report.Check(same,
               "paper_sweep: RunSweep ASETS* cells differ from a direct "
               "simulator replay of the same instances");
  report.Check(replica.partition_failures == 0,
               "paper_sweep: a run's fates do not partition N");
}

void PaperSweep(Report& report, uint64_t seed, double seconds, bool trace) {
  const std::vector<SweepConfig> grids = SweepGrids(seed);
  const auto instances = static_cast<double>(NumInstances(grids));
  std::printf("# paper_sweep: %zu instances x %zu policies per pass, "
              "N=1000 each, 1 and %zu threads\n",
              NumInstances(grids), kSweepPolicies.size(), kSweepThreads);

  // The untraced replay: reference digest, quality figures, warm-up.
  const ReplicaPass replica = RunReplicaPass(grids, nullptr, nullptr, nullptr);
  report.Digest("paper_sweep.runs", replica.digest);
  const SweepPass ref1 = RunSweepPass(grids, 1);
  const SweepPass ref4 = RunSweepPass(grids, kSweepThreads);
  report.Digest("paper_sweep.cells", ref1.digest);
  report.Check(ref1.digest == ref4.digest,
               "paper_sweep: cells differ between 1 and 4 threads");
  CheckSweepAgainstReplica(report, ref1, replica);
  // Memory of building and running the workload once; later repeats
  // only add allocator noise.
  const double peak_rss_mb = PeakRssMb();

  // Timed: interleaved 1-thread / 4-thread sweep passes, alternating
  // which goes first. A setup rep follows every pair, so set-up time is
  // sampled across the whole run rather than in one stretch of it.
  Rate rate1, rate4;
  std::vector<double> run_ms4, merge_ms4, setup;
  const double budget = trace ? seconds * 0.4 : seconds * 0.85;
  const auto start = Clock::now();
  for (size_t pair = 0; pair < 2 || SecondsSince(start) < budget; ++pair) {
    for (int k = 0; k < 2; ++k) {
      const size_t threads = ((pair + k) % 2 == 0) ? 1 : kSweepThreads;
      const SweepPass pass = RunSweepPass(grids, threads);
      report.Attempt();
      report.Check(pass.digest == ref1.digest,
                   "paper_sweep: cells differ across repeats");
      if (threads == 1) {
        rate1.Add(instances, pass.wall_s);
      } else {
        rate4.Add(instances, pass.wall_s);
        run_ms4.push_back(pass.timing.run_ms);
        merge_ms4.push_back(pass.timing.merge_ms);
      }
    }
    if (!trace) setup.push_back(SweepSetupSeconds(grids));
  }

  double weighted = 0.0, goodput = 0.0;
  for (const SweepCell& c : ref1.asets_cells) {
    weighted += c.avg_weighted_tardiness;
    goodput += c.goodput;
  }
  const auto cells = static_cast<double>(ref1.asets_cells.size());
  const Quality quality{weighted / cells,
                        Percentile(replica.asets_tardiness, 0.999)};
  if (!trace) {
    report.Note("sweep_inst_per_s", "1/s", rate1);
    report.Note("sweep_inst_per_s_4t", "1/s", rate4);
    ReportQuality(report, quality, nullptr);
    report.Metric("setup_s", "s", setup);
    report.Metric("peak_rss_mb", "MB", peak_rss_mb);
    report.Metric("throughput_per_s", "1/s", rate1);
    report.Metric("throughput_4t_per_s", "1/s", rate4);
    report.Metric("goodput", "1", goodput / cells);
    return;
  }

  // Traced: the replay through the timing decorators (against a warm
  // untraced replay of the same instances), then one
  // 4-thread RunSweep pass as the exp layer (its inside is opaque from
  // here; the replay gives the split).
  const double untraced_wall =
      RunReplicaPass(grids, nullptr, nullptr, nullptr).wall_s +
      instances / rate4.value();
  LayerMetrics layers = ZeroLayers();
  PolicyStats policy_stats;
  Tracer tracer;
  const ReplicaPass traced =
      RunReplicaPass(grids, &tracer, &policy_stats, &layers);
  SweepPass traced_sweep;
  tracer.Span("exp", [&] { traced_sweep = RunSweepPass(grids, kSweepThreads); });
  tracer.Finish();
  report.Digest("paper_sweep.runs.traced", traced.digest);
  report.Check(traced.digest == replica.digest,
               "paper_sweep: traced run digests differ from untraced");
  report.Check(traced_sweep.digest == ref1.digest,
               "paper_sweep: traced sweep cells differ from untraced");

  ReportQuality(report, quality, &layers);
  layers.Set("workload.generate_s", "s", traced.generate_s);
  layers.Set("sim.create_s", "s", traced.create_s);
  FillSimTimes(layers, traced.run_s, policy_stats, AdmissionStats{});
  layers.Set("exp.run_ms", "ms", MedianOf(run_ms4));
  layers.Set("exp.merge_ms", "ms", MedianOf(merge_ms4));
  layers.Set("exp.parallel_efficiency", "1",
             rate4.value() /
                 (static_cast<double>(kSweepThreads) * rate1.value()));
  ReportTrace(report, tracer, layers, untraced_wall);
}

// ---------------------------------------------------------------------------
// huge_workflow: one open-system run of 10^6 streamed transactions on
// 4 servers under ASETS*, with aborts, warm crashes and feasibility
// admission.

constexpr size_t kHugeTxns = 1000000;
constexpr size_t kHugeServers = 4;
// Simulated-time cutoff of the warm-up run: a few thousand arrivals.
constexpr SimTime kHugeWarmupHorizon = 20000.0;

WorkloadSpec HugeSpec() {
  WorkloadSpec spec;
  spec.num_transactions = kHugeTxns;
  // WorkloadSpec::utilization is single-server load: 0.8 per server on
  // 4 servers is 3.2.
  spec.utilization = 0.8 * static_cast<double>(kHugeServers);
  spec.max_weight = 10;
  spec.estimate_error = 0.2;
  spec.max_workflow_length = 4;
  spec.max_workflows_per_txn = 2;
  return spec;
}

Quality QualityOf(const RunResult& r) {
  std::vector<double> tardiness;
  tardiness.reserve(r.num_completed);
  for (const TxnOutcome& o : r.outcomes) {
    if (o.fate == TxnFate::kCompleted) tardiness.push_back(o.tardiness);
  }
  return {r.avg_weighted_tardiness, Percentile(std::move(tardiness), 0.999)};
}

SimOptions HugeOptions(uint64_t seed, size_t shard_threads) {
  SimOptions options;
  options.num_servers = kHugeServers;
  options.record_outcomes = true;
  options.shard_threads = shard_threads;
  FaultPlanConfig fault;
  fault.seed = DeriveSeed(seed, 1, 0);
  fault.abort_rate = 0.01;
  fault.crash_rate = 1e-4;
  fault.mean_repair_duration = 50.0;
  fault.migration = MigrationPolicy::kWarm;
  auto plan = FaultPlan::Create(fault);
  WEBTX_CHECK(plan.ok()) << plan.status().ToString();
  options.fault_plan = plan.ValueOrDie();
  options.retry.max_attempts = 3;
  options.retry.backoff = 1.0;
  options.admission = MakeFeasibilityAdmission();
  return options;
}

std::shared_ptr<const SimWorkload> BuildHugeWorkload(uint64_t seed,
                                                     Tracer* tracer,
                                                     double* generate_s,
                                                     double* create_s) {
  std::vector<TransactionSpec> txns;
  auto t0 = Clock::now();
  MaybeSpan(tracer, "workload", [&] {
    auto gen = StreamingWorkloadGenerator::Create(HugeSpec(), seed);
    WEBTX_CHECK(gen.ok()) << gen.status().ToString();
    StreamingWorkloadGenerator stream = std::move(gen).ValueOrDie();
    txns.reserve(kHugeTxns);
    while (!stream.Done()) txns.push_back(stream.Next());
  });
  *generate_s = SecondsSince(t0);
  std::shared_ptr<const SimWorkload> workload;
  t0 = Clock::now();
  MaybeSpan(tracer, "sim.create", [&] {
    auto built = SimWorkload::Build(std::move(txns));
    WEBTX_CHECK(built.ok()) << built.status().ToString();
    workload = std::make_shared<const SimWorkload>(
        std::move(built).ValueOrDie());
  });
  *create_s = SecondsSince(t0);
  return workload;
}

Simulator MakeSim(std::shared_ptr<const SimWorkload> workload,
                  SimOptions options) {
  auto sim = Simulator::CreateShared(std::move(workload), std::move(options));
  WEBTX_CHECK(sim.ok()) << sim.status().ToString();
  return std::move(sim).ValueOrDie();
}

RunResult RunAsetsStar(Simulator& sim, double* wall_s) {
  auto policy = CreatePolicy("ASETS*");
  WEBTX_CHECK(policy.ok()) << policy.status().ToString();
  const auto start = Clock::now();
  RunResult result = sim.Run(*policy.ValueOrDie());
  *wall_s = SecondsSince(start);
  return result;
}

void HugeWorkflow(Report& report, uint64_t seed, double seconds, bool trace) {
  std::printf("# huge_workflow: %zu txns, %zu servers, ASETS*, aborts + "
              "warm crashes + feasibility admission\n",
              kHugeTxns, kHugeServers);
  if (trace) {
    // Untraced and traced passes do the same work: build the workload,
    // create a simulator, run it once (cold).
    double generate_s = 0.0, create_s = 0.0, run_s = 0.0;
    double untraced_wall = 0.0;
    uint64_t plain_digest = 0;
    Quality quality;
    {
      const auto start = Clock::now();
      Simulator sim = MakeSim(
          BuildHugeWorkload(seed, nullptr, &generate_s, &create_s),
          HugeOptions(seed, 1));
      const RunResult plain = RunAsetsStar(sim, &run_s);
      untraced_wall = SecondsSince(start);
      plain_digest = ScheduleDigest(plain);
      quality = QualityOf(plain);
    }
    report.Attempt();
    report.Digest("huge_workflow.run", plain_digest);

    LayerMetrics layers = ZeroLayers();
    PolicyStats policy_stats;
    AdmissionStats admission_stats;
    Tracer tracer;
    auto workload = BuildHugeWorkload(seed, &tracer, &generate_s, &create_s);
    SimOptions options = HugeOptions(seed, 1);
    options.admission =
        TimedAdmissionFactory(options.admission, &admission_stats);
    std::unique_ptr<Simulator> traced_sim;
    auto t0 = Clock::now();
    tracer.Span("sim.create", [&] {
      traced_sim = std::make_unique<Simulator>(MakeSim(workload, options));
    });
    create_s += SecondsSince(t0);
    RunResult traced;
    t0 = Clock::now();
    tracer.Span("sim", [&] {
      auto inner = CreatePolicy("ASETS*");
      WEBTX_CHECK(inner.ok()) << inner.status().ToString();
      TimedPolicy policy(std::move(inner).ValueOrDie(), &policy_stats);
      traced = traced_sim->Run(policy);
      tracer.AddChild("sched.policy",
                      static_cast<double>(policy_stats.TotalNs()) * 1e-9);
      tracer.AddChild("sched.admission",
                      static_cast<double>(admission_stats.TotalNs()) * 1e-9);
    });
    run_s = SecondsSince(t0);
    tracer.Finish();
    report.Attempt();
    report.Digest("huge_workflow.run.traced", ScheduleDigest(traced));
    report.Check(ScheduleDigest(traced) == plain_digest,
                 "huge_workflow: traced digest differs from untraced");
    report.Check(FatesPartition(traced, kHugeTxns),
                 "huge_workflow: fates do not partition N");
    ReportQuality(report, quality, &layers);
    layers.Set("workload.generate_s", "s", generate_s);
    layers.Set("sim.create_s", "s", create_s);
    FillSimCounts(layers, traced);
    FillSimTimes(layers, run_s, policy_stats, admission_stats);
    ReportTrace(report, tracer, layers, untraced_wall);
    return;
  }

  // Setup, several times; the last build is the one that runs.
  std::vector<double> setup;
  std::shared_ptr<const SimWorkload> workload;
  std::unique_ptr<Simulator> sim1, sim4;
  for (int i = 0; i < 3; ++i) {
    sim1.reset();
    sim4.reset();
    workload.reset();
    double generate_s = 0.0, create_s = 0.0;
    const auto start = Clock::now();
    workload = BuildHugeWorkload(seed, nullptr, &generate_s, &create_s);
    sim1 = std::make_unique<Simulator>(MakeSim(workload, HugeOptions(seed, 1)));
    sim4 = std::make_unique<Simulator>(MakeSim(workload, HugeOptions(seed, 4)));
    setup.push_back(SecondsSince(start));
  }

  // Warm-up: a short prefix run on each simulator sizes its scratch,
  // so every timed run below is warm.
  for (Simulator* sim : {sim1.get(), sim4.get()}) {
    double unused = 0.0;
    sim->set_run_horizon(kHugeWarmupHorizon);
    (void)RunAsetsStar(*sim, &unused);
    sim->set_run_horizon(0.0);
  }

  // Timed: interleaved shard_threads 1 / 4 runs, alternating which goes
  // first. The first run fixes the reference digest and the quality
  // figures; every other run must reproduce the digest.
  Rate rate1, rate4;
  uint64_t ref_digest = 0;
  size_t events = 0;
  double goodput = 0.0;
  double peak_rss_mb = 0.0;
  const auto start = Clock::now();
  for (size_t pair = 0; pair < 2 || SecondsSince(start) < seconds * 0.8;
       ++pair) {
    for (int k = 0; k < 2; ++k) {
      const bool one = (pair + k) % 2 == 0;
      double wall = 0.0;
      const RunResult r = RunAsetsStar(one ? *sim1 : *sim4, &wall);
      report.Attempt();
      const uint64_t digest = ScheduleDigest(r);
      if (pair == 0 && k == 0) {
        ref_digest = digest;
        events = r.num_scheduling_points;
        report.Digest("huge_workflow.run", ref_digest);
        report.Check(FatesPartition(r, kHugeTxns),
                     "huge_workflow: fates do not partition N");
        const Quality quality = QualityOf(r);
        ReportQuality(report, quality, nullptr);
        goodput = r.goodput;
        peak_rss_mb = PeakRssMb();
      }
      report.Check(digest == ref_digest,
                   "huge_workflow: digest differs across repeats or "
                   "shard_threads");
      (one ? rate1 : rate4)
          .Add(static_cast<double>(r.num_scheduling_points), wall);
    }
  }
  report.Note("sim_events_per_s", "1/s", rate1);
  report.Note("sim.events", "count",
              std::vector<double>{static_cast<double>(events)});
  report.Metric("setup_s", "s", setup);
  report.Metric("peak_rss_mb", "MB", peak_rss_mb);
  report.Metric("throughput_per_s", "1/s", rate1);
  report.Metric("throughput_4t_per_s", "1/s", rate4);
  report.Metric("goodput", "1", goodput);
}

// ---------------------------------------------------------------------------
// twin_onoff: the digital-twin serving loop on the virtual clock over
// bursty ON/OFF arrivals.

constexpr size_t kTwinWorkers = 2;
constexpr size_t kTwinForecastThreads = 4;

LiveArrivalOptions TwinArrivalOptions(uint64_t seed) {
  LiveArrivalOptions options;
  options.shape = LiveArrivalShape::kOnOff;
  options.seed = seed;
  options.num_tasks = 20000;
  // 75% of the two workers' capacity (40 tasks/s). At 36/s (90%) the
  // bursts drive the pool near saturation and the work per task swings
  // with the seed far beyond any bound (perfbench/README.md).
  options.rate = 30.0;
  options.burstiness = 0.7;
  options.on_off_mean_cycle = 4.0;
  options.mean_duration = 0.05;
  return options;
}

rt::TwinOptions TwinConfig(uint64_t seed, size_t forecast_threads) {
  rt::TwinOptions options;
  options.num_workers = kTwinWorkers;
  for (const char* policy :
       {"FCFS", "EDF", "SRPT", "LS", "HDF", "HVF", "ASETS", "ASETS*"}) {
    rt::TwinCandidate c;
    c.policy = policy;
    options.candidates.push_back(c);
  }
  rt::TwinCandidate srpt_depth;
  srpt_depth.policy = "SRPT";
  srpt_depth.admission = rt::TwinCandidate::Admission::kQueueDepth;
  srpt_depth.max_ready = 6 * kTwinWorkers;
  rt::TwinCandidate edf_brownout;
  edf_brownout.policy = "EDF";
  edf_brownout.admission = rt::TwinCandidate::Admission::kBrownout;
  edf_brownout.capacity_slo = 0.5;
  options.candidates.push_back(srpt_depth);
  options.candidates.push_back(edf_brownout);
  options.static_index = 0;
  options.control_interval = 0.25;
  options.forecast_horizon = 0.75;
  options.dwell_ticks = 1;
  options.forecast_seed = DeriveSeed(seed, 2, 0);
  options.forecast_threads = forecast_threads;
  options.faults.plan.crash_rate = 0.02;
  options.faults.plan.mean_repair_duration = 1.0;
  options.faults.plan.seed = DeriveSeed(seed, 3, 0);
  options.retry_max_backoff = 0.2;
  return options;
}

struct TwinRun {
  rt::TwinReport report;
  double wall_s = 0.0;
};

TwinRun RunTwin(const rt::TwinOptions& options,
                const std::vector<LiveArrival>& arrivals) {
  TwinRun run;
  const auto start = Clock::now();
  auto report = rt::Twin(options).Run(arrivals);
  run.wall_s = SecondsSince(start);
  WEBTX_CHECK(report.ok()) << report.status().ToString();
  run.report = std::move(report).ValueOrDie();
  return run;
}

void CheckTwinRun(Report& report, const rt::TwinReport& r,
                  const std::string& label) {
  const rt::LiveValidationResult verdict = rt::ValidateLiveTrace(
      r.trace, r.tasks, r.outcomes, r.stats, r.validator_options);
  for (const std::string& v : verdict.violations) {
    std::printf("# %s validator: %s\n", label.c_str(), v.c_str());
  }
  report.Check(verdict.ok(), label + ": live trace has validator violations");
  const rt::ExecutorStats& s = r.stats;
  report.Check(s.completed + s.shed_admission + s.shed_shutdown +
                       s.dropped_retries + s.dropped_dependency ==
                   s.submitted,
               label + ": fates do not partition the submitted tasks");
}

size_t ForecastTicks(const rt::TwinReport& r) {
  size_t ticks = 0;
  for (const rt::TwinDecision& d : r.decisions) {
    ticks += d.kind == rt::TwinDecision::Kind::kHold ||
             d.kind == rt::TwinDecision::Kind::kSwitch;
  }
  return ticks;
}

double DecisionMsPerTick(const rt::TwinReport& r) {
  const size_t ticks = ForecastTicks(r);
  return ticks > 0 ? r.decision_stats.decision_ms / static_cast<double>(ticks)
                   : 0.0;
}

Quality TwinQuality(const rt::TwinReport& r,
                    const std::vector<LiveArrival>& arrivals) {
  std::vector<double> tardiness;
  double weighted = 0.0;
  for (size_t id = 0; id < r.outcomes.size(); ++id) {
    const rt::TaskOutcome& o = r.outcomes[id];
    if (!o.finished || o.fate != TxnFate::kCompleted) continue;
    tardiness.push_back(o.tardiness_seconds);
    weighted += o.tardiness_seconds * arrivals[id].weight;
  }
  const double mean =
      tardiness.empty() ? 0.0 : weighted / static_cast<double>(tardiness.size());
  return {mean, Percentile(std::move(tardiness), 0.999)};
}

void TwinOnOff(Report& report, uint64_t seed, double seconds, bool trace) {
  std::printf("# twin_onoff: %zu ON/OFF tasks at %g/s, %zu workers, %zu "
              "candidates, virtual clock\n",
              TwinArrivalOptions(seed).num_tasks,
              TwinArrivalOptions(seed).rate, kTwinWorkers,
              TwinConfig(seed, 1).candidates.size());
  const rt::TwinOptions serial = TwinConfig(seed, 1);
  rt::TwinOptions static_options = serial;
  static_options.controller_enabled = false;

  if (trace) {
    // Untraced and traced passes do the same work: generate, serve
    // statically (executor + clock alone), serve under the controller.
    auto start = Clock::now();
    const std::vector<LiveArrival> arrivals =
        GenerateLiveArrivals(TwinArrivalOptions(seed));
    const TwinRun plain_static = RunTwin(static_options, arrivals);
    const TwinRun plain = RunTwin(serial, arrivals);
    const double untraced_wall = SecondsSince(start);
    report.Attempt();
    report.Attempt();
    report.Digest("twin_onoff.static", plain_static.report.digest);
    report.Digest("twin_onoff.twin", plain.report.digest);

    Tracer tracer;
    std::vector<LiveArrival> traced_arrivals;
    const auto generate_start = Clock::now();
    tracer.Span("workload", [&] {
      traced_arrivals = GenerateLiveArrivals(TwinArrivalOptions(seed));
    });
    const double generate_s = SecondsSince(generate_start);
    TwinRun traced_static, traced;
    tracer.Span("rt", [&] {
      traced_static = RunTwin(static_options, traced_arrivals);
    });
    tracer.Span("rt", [&] {
      traced = RunTwin(serial, traced_arrivals);
      tracer.AddChild("twin.forecast",
                      traced.report.decision_stats.decision_ms / 1e3);
    });
    tracer.Finish();
    report.Attempt();
    report.Attempt();
    report.Digest("twin_onoff.static.traced", traced_static.report.digest);
    report.Digest("twin_onoff.twin.traced", traced.report.digest);
    report.Check(traced_static.report.digest == plain_static.report.digest &&
                     traced.report.digest == plain.report.digest,
                 "twin_onoff: traced digests differ from untraced");
    CheckTwinRun(report, traced_static.report, "twin_onoff static");
    CheckTwinRun(report, traced.report, "twin_onoff twin");

    LayerMetrics layers = ZeroLayers();
    ReportQuality(report, TwinQuality(plain.report, arrivals), &layers);
    const rt::TwinDecisionStats& d = traced.report.decision_stats;
    layers.Set("workload.generate_s", "s", generate_s);
    layers.Set("rt.static_serve_s", "s", traced_static.wall_s);
    layers.Set("twin.forecast_ms", "ms", DecisionMsPerTick(traced.report));
    layers.Set("twin.forecast_events_per_s", "1/s",
               d.decision_ms > 0.0
                   ? static_cast<double>(d.forecast_events) /
                         (d.decision_ms / 1e3)
                   : 0.0);
    layers.Set("twin.ticks", "count",
               static_cast<double>(traced.report.decisions.size()));
    layers.Set("twin.switches", "count",
               static_cast<double>(traced.report.switches));
    layers.Set("twin.fallbacks", "count",
               static_cast<double>(traced.report.fallbacks));
    ReportTrace(report, tracer, layers, untraced_wall);
    return;
  }

  const rt::TwinOptions parallel = TwinConfig(seed, kTwinForecastThreads);
  std::vector<double> setup;
  std::vector<LiveArrival> arrivals;
  const auto set_up = [&] {
    const auto start = Clock::now();
    arrivals = GenerateLiveArrivals(TwinArrivalOptions(seed));
    auto engine = rt::TwinForecastEngine::Create(serial);
    WEBTX_CHECK(engine.ok()) << engine.status().ToString();
    setup.push_back(SecondsSince(start));
  };
  set_up();

  // Warm-up run: reference digest, validation and quality figures.
  const TwinRun ref = RunTwin(serial, arrivals);
  report.Attempt();
  report.Digest("twin_onoff.twin", ref.report.digest);
  CheckTwinRun(report, ref.report, "twin_onoff twin");
  const double peak_rss_mb = PeakRssMb();
  ReportQuality(report, TwinQuality(ref.report, arrivals), nullptr);

  Rate rate1, rate4;
  std::vector<double> decision_ms, serve_us;
  const auto start = Clock::now();
  for (size_t pair = 0; pair < 2 || SecondsSince(start) < seconds * 0.8;
       ++pair) {
    for (int k = 0; k < 2; ++k) {
      const bool one = (pair + k) % 2 == 0;
      const TwinRun run = RunTwin(one ? serial : parallel, arrivals);
      report.Attempt();
      report.Check(run.report.digest == ref.report.digest,
                   "twin_onoff: digest differs across repeats or forecast "
                   "threads");
      const double tasks = static_cast<double>(run.report.stats.submitted);
      (one ? rate1 : rate4).Add(tasks, run.wall_s);
      // Set-up reps between the timed runs sample the whole run.
      for (int i = 0; i < 3; ++i) set_up();
      if (one) {
        decision_ms.push_back(DecisionMsPerTick(run.report));
        serve_us.push_back(run.wall_s * 1e6 / tasks);
      }
    }
  }
  report.Note("decision_ms", "ms", decision_ms);
  report.Note("serve_us_per_task", "us", serve_us);
  report.Metric("setup_s", "s", setup);
  report.Metric("peak_rss_mb", "MB", peak_rss_mb);
  report.Metric("throughput_per_s", "1/s", rate1);
  report.Metric("throughput_4t_per_s", "1/s", rate4);
  report.Metric("goodput", "1", ref.report.goodput);
}

// ---------------------------------------------------------------------------

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') workload.clear();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0.0)) workload.clear();
    } else if (flag == "--trace") {
      trace = value == "1";
    } else {
      workload.clear();
      break;
    }
  }
  using WorkloadFn = void (*)(Report&, uint64_t, double, bool);
  const std::map<std::string, WorkloadFn> workloads = {
      {"paper_sweep", PaperSweep},
      {"huge_workflow", HugeWorkflow},
      {"twin_onoff", TwinOnOff}};
  const auto it = workloads.find(workload);
  if (it == workloads.end() || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_sweep|huge_workflow|"
                 "twin_onoff [--seed N] [--seconds S] [--trace 0|1]\n"
                 "  default seed %llu; confirm claims on held-out seed %llu\n",
                 static_cast<unsigned long long>(kDefaultSeed),
                 static_cast<unsigned long long>(kHeldOutSeed));
    return 2;
  }
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "nproc=%u compiler=\"%s\" build=%s\n",
              workload.c_str(), static_cast<unsigned long long>(seed), seconds,
              trace ? 1 : 0, std::thread::hardware_concurrency(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  Report report;
  it->second(report, seed, seconds, trace);
  std::fflush(stdout);
  report.PrintJson();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
