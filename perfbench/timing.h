// Benchmark-side timing: per-call decorators for the scheduling layer
// and a span tracer that turns nested bench-side spans into per-layer
// self times. Nothing here is linked into the library; the program
// under test only ever sees plain SchedulerPolicy / AdmissionController
// objects.
#ifndef PERFBENCH_TIMING_H_
#define PERFBENCH_TIMING_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.h"
#include "sched/admission.h"
#include "sched/scheduler_policy.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calls into one entry point and the host nanoseconds spent in them.
struct CallStat {
  uint64_t calls = 0;
  uint64_t ns = 0;
};

/// Adds the lifetime of the guard to `stat` (one call).
class CallTimer {
 public:
  explicit CallTimer(CallStat& stat) : stat_(stat), start_(Clock::now()) {}
  ~CallTimer() {
    stat_.ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
    ++stat_.calls;
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  CallStat& stat_;
  Clock::time_point start_;
};

/// Per-callback totals of every policy a TimedPolicy wrapped. `pick`
/// covers PickNext, PickNextExcluding and PickBatch; `other` covers
/// Bind, OnArrival, OnDropped and OnMigrated.
struct PolicyStats {
  CallStat pick;
  CallStat ready;
  CallStat completion;
  CallStat remaining_update;
  CallStat other;

  uint64_t TotalNs() const {
    return pick.ns + ready.ns + completion.ns + remaining_update.ns +
           other.ns;
  }
};

/// Totals of every controller a TimedAdmission wrapped.
struct AdmissionStats {
  CallStat decide;
  CallStat observe;
  uint64_t rejects = 0;

  uint64_t TotalNs() const { return decide.ns + observe.ns; }
};

/// Forwards every SchedulerPolicy virtual to `inner`, timing each call
/// into `stats`. Behaviour-transparent: a decorated run digests exactly
/// like the undecorated one (decorator_test.cc).
class TimedPolicy final : public webtx::SchedulerPolicy {
 public:
  TimedPolicy(std::unique_ptr<webtx::SchedulerPolicy> inner,
              PolicyStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::string name() const override { return inner_->name(); }
  void Bind(const webtx::SimView& view) override {
    CallTimer t(stats_->other);
    inner_->Bind(view);
  }
  void OnArrival(webtx::TxnId id, webtx::SimTime now) override {
    CallTimer t(stats_->other);
    inner_->OnArrival(id, now);
  }
  void OnReady(webtx::TxnId id, webtx::SimTime now) override {
    CallTimer t(stats_->ready);
    inner_->OnReady(id, now);
  }
  void OnCompletion(webtx::TxnId id, webtx::SimTime now) override {
    CallTimer t(stats_->completion);
    inner_->OnCompletion(id, now);
  }
  void OnRemainingUpdated(webtx::TxnId id, webtx::SimTime now) override {
    CallTimer t(stats_->remaining_update);
    inner_->OnRemainingUpdated(id, now);
  }
  void OnDropped(webtx::TxnId id, webtx::SimTime now) override {
    CallTimer t(stats_->other);
    inner_->OnDropped(id, now);
  }
  void OnMigrated(webtx::TxnId id, webtx::SimTime now) override {
    CallTimer t(stats_->other);
    inner_->OnMigrated(id, now);
  }
  webtx::TxnId PickNext(webtx::SimTime now) override {
    CallTimer t(stats_->pick);
    return inner_->PickNext(now);
  }
  webtx::TxnId PickNextExcluding(
      webtx::SimTime now, const std::vector<webtx::TxnId>& exclude) override {
    CallTimer t(stats_->pick);
    return inner_->PickNextExcluding(now, exclude);
  }
  void PickBatch(webtx::SimTime now, size_t k,
                 std::vector<webtx::TxnId>& out) override {
    CallTimer t(stats_->pick);
    inner_->PickBatch(now, k, out);
  }
  bool WantsRemainingUpdates() const override {
    return inner_->WantsRemainingUpdates();
  }
  webtx::ShardedPolicyState* AsShardedState() override {
    return inner_->AsShardedState();
  }

 protected:
  void Reset() override {}  // inner_->Bind resets the wrapped policy

 private:
  std::unique_ptr<webtx::SchedulerPolicy> inner_;
  PolicyStats* stats_;
};

/// Forwards every AdmissionController virtual to `inner`, timing each
/// call into `stats` and counting rejections.
class TimedAdmission final : public webtx::AdmissionController {
 public:
  TimedAdmission(std::unique_ptr<webtx::AdmissionController> inner,
                 AdmissionStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::string name() const override { return inner_->name(); }
  void Bind(const webtx::SimView& view) override { inner_->Bind(view); }
  webtx::AdmissionDecision Decide(webtx::TxnId id,
                                  webtx::SimTime now) override {
    webtx::AdmissionDecision decision;
    {
      CallTimer t(stats_->decide);
      decision = inner_->Decide(id, now);
    }
    if (decision.action == webtx::AdmissionDecision::Action::kReject) {
      ++stats_->rejects;
    }
    return decision;
  }
  void ObserveCompletion(webtx::TxnId id, webtx::SimTime tardiness,
                         webtx::SimTime now) override {
    CallTimer t(stats_->observe);
    inner_->ObserveCompletion(id, tardiness, now);
  }

 private:
  std::unique_ptr<webtx::AdmissionController> inner_;
  AdmissionStats* stats_;
};

/// A factory whose policies are `inner`'s, wrapped in TimedPolicy. The
/// stats are shared, so use it from one thread only.
inline webtx::PolicyFactory TimedFactory(webtx::PolicyFactory inner,
                                         PolicyStats* stats) {
  return [inner = std::move(inner), stats] {
    return std::make_unique<TimedPolicy>(inner(), stats);
  };
}

inline webtx::AdmissionFactory TimedAdmissionFactory(
    webtx::AdmissionFactory inner, AdmissionStats* stats) {
  return [inner = std::move(inner), stats] {
    return std::make_unique<TimedAdmission>(inner(), stats);
  };
}

/// Nested bench-side spans folded into per-layer self time. A layer's
/// self time is its spans' duration minus the part covered by child
/// spans and by child time reported from inside (AddChild: decorator
/// totals, program-reported timers). The root span, opened by the
/// constructor and closed by Finish, is the "unattributed" residual:
/// whatever the traced pass spent outside every named layer. So the
/// self times sum to the traced wall time by construction.
class Tracer {
 public:
  Tracer() { frames_.push_back(Frame{"unattributed", Clock::now(), 0.0}); }

  /// Runs `fn` inside a span of `layer`.
  template <typename Fn>
  void Span(const std::string& layer, Fn&& fn) {
    frames_.push_back(Frame{layer, Clock::now(), 0.0});
    fn();
    (void)Close();
  }

  /// Attributes `seconds` measured inside the innermost open span to
  /// `layer` instead of the span's own layer.
  void AddChild(const std::string& layer, double seconds) {
    self_[layer] += seconds;
    frames_.back().child_s += seconds;
  }

  /// Closes the root span; returns the traced wall time.
  double Finish() {
    wall_s_ = Close();
    return wall_s_;
  }

  const std::map<std::string, double>& self() const { return self_; }
  double wall_s() const { return wall_s_; }

 private:
  struct Frame {
    std::string layer;
    Clock::time_point start;
    double child_s;
  };

  double Close() {
    const Frame frame = frames_.back();
    frames_.pop_back();
    const double duration = SecondsSince(frame.start);
    self_[frame.layer] += duration - frame.child_s;
    if (!frames_.empty()) frames_.back().child_s += duration;
    return duration;
  }

  std::vector<Frame> frames_;
  std::map<std::string, double> self_;
  double wall_s_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_H_
