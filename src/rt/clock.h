#ifndef WEBTX_RT_CLOCK_H_
#define WEBTX_RT_CLOCK_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace webtx::rt {

class Clock;

/// "No wake-up time" sentinel for Clock waits.
inline constexpr double kNeverSeconds =
    std::numeric_limits<double>::infinity();

/// Cooperative cancellation handle passed to TaskSpec::cancellable_fn
/// (and consulted by Clock::SleepUntil). Reports true once the executor
/// wants the attempt to stop: the attempt overran its timeout, a fault
/// was injected into it (forced abort, failover), or ShutdownNow was
/// called. Long-running tasks should poll it at convenient boundaries
/// and return early; the executor never interrupts a task forcibly.
class CancelToken {
 public:
  CancelToken() = default;

  /// Trips once `*flag` (may be null) is set or once `clock` reads
  /// `deadline_seconds` or later (kNeverSeconds: no deadline).
  CancelToken(std::shared_ptr<std::atomic<bool>> flag, const Clock* clock,
              double deadline_seconds)
      : flag_(std::move(flag)),
        clock_(clock),
        has_deadline_(deadline_seconds < kNeverSeconds),
        deadline_seconds_(deadline_seconds) {}

  bool cancelled() const;

  /// Same answer evaluated against an externally supplied clock reading
  /// — lets a Clock implementation check the token while holding its
  /// own lock (cancelled() would re-enter the clock via Now()).
  bool CancelledAt(double now_seconds) const {
    if (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) {
      return true;
    }
    return has_deadline_ && now_seconds >= deadline_seconds_;
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
  const Clock* clock_ = nullptr;  // deadline time base (null: flag only)
  bool has_deadline_ = false;
  double deadline_seconds_ = 0.0;
};

/// Time source and wait primitive of the live executor. Threading every
/// sleep, timeout, and retry-release wait through one of these is what
/// makes a live run replayable: under the RealClock the executor runs
/// on the wall clock exactly as before, under a VirtualClock the same
/// code executes a deterministic discrete-event timeline (see below).
///
/// Times are seconds since the clock's epoch, the executor's SimTime.
class Clock {
 public:
  virtual ~Clock() = default;

  Clock(const Clock&) = delete;
  Clock& operator=(const Clock&) = delete;

  /// Current clock reading in seconds.
  virtual double Now() const = 0;

  virtual bool is_virtual() const { return false; }

  /// Declares the calling thread a persistent participant of the
  /// timeline: a thread that alternates between doing work and blocking
  /// in WaitUntil/SleepUntil. The VirtualClock only advances when every
  /// registered participant is blocked (quiescence), so executor worker
  /// threads, the fault pump, and any submission driver must register;
  /// unregistered threads may still call the wait primitives and are
  /// treated as pure observers (they never gate an advance). No-ops on
  /// the real clock.
  virtual void RegisterParticipant() {}
  virtual void DeregisterParticipant() {}

  /// Blocks the caller on `cv` — whose mutex `lock` holds — until
  /// roughly clock-time `due` (kNeverSeconds: until notified). May wake
  /// early or spuriously; callers re-check their predicate in a loop.
  /// This is the executor's "wait for state change or timer" primitive.
  virtual void WaitUntil(std::unique_lock<std::mutex>& lock,
                         std::condition_variable& cv, double due) = 0;

  /// Sleeps until clock-time `due`, returning early once `token` (may
  /// be null) reports cancellation. Models an execution attempt's
  /// in-flight time; must be called without holding executor locks.
  virtual void SleepUntil(double due, const CancelToken* token) = 0;

  /// Wakes current SleepUntil callers so they re-check their cancel
  /// tokens. Called after tripping tokens (forced abort, failover,
  /// ShutdownNow).
  virtual void InterruptSleepers() {}

  /// Wakes every WaitUntil caller blocked on `cv`. State changes that
  /// make a waiter runnable MUST be published through this (not a bare
  /// cv.notify_all()): a virtual clock has to see the wake-up, or it
  /// would keep counting the woken thread as blocked while it waits to
  /// reacquire the caller's mutex — and advance the timeline past a
  /// moment where that thread had work to do at the current time.
  /// The flip side: every woken waiter holds the virtual timeline until
  /// it has re-parked, so notify only the cv whose waiters the change
  /// concerns — a thread that shares a cv with unrelated state changes
  /// stalls the timeline at each of them.
  virtual void NotifyAll(std::condition_variable& cv) { cv.notify_all(); }

 protected:
  Clock() = default;
};

inline bool CancelToken::cancelled() const {
  if (flag_ != nullptr && flag_->load(std::memory_order_relaxed)) {
    return true;
  }
  if (!has_deadline_ || clock_ == nullptr) return false;
  return clock_->Now() >= deadline_seconds_;
}

/// Wall-clock time, seconds since construction (steady_clock based).
class RealClock final : public Clock {
 public:
  RealClock() : epoch_(std::chrono::steady_clock::now()) {}

  double Now() const override;
  void WaitUntil(std::unique_lock<std::mutex>& lock,
                 std::condition_variable& cv, double due) override;
  void SleepUntil(double due, const CancelToken* token) override;

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// Deterministic discrete-event clock. Time stands still while any
/// registered participant is runnable and jumps to the earliest blocked
/// wake-up time once ALL participants are blocked — the executor's
/// threads become a discrete-event simulation of themselves: every
/// dispatch, timeout, retry release, and fault lands at an exact,
/// reproducible virtual instant regardless of host scheduling.
///
/// Mechanics: WaitUntil/SleepUntil from a registered thread record the
/// caller's due time; when the number of blocked registered threads
/// reaches the number registered, now() advances to the minimum finite
/// due and wakes exactly the participants the advance made runnable:
/// each SleepUntil caller whose due was reached or whose cancel token
/// trips at the new instant (every sleeper waits on a condition variable
/// of its own), and each WaitUntil caller whose due was reached (through
/// the caller's own condition variable). Nobody else is woken.
///
/// The WaitUntil notify is issued without the caller's mutex, so it can
/// land between the caller recording its due and parking on its cv; a
/// short real-time poll is the backstop for that race. The poll affects
/// only wall-clock latency, never the virtual timeline: a recorded entry
/// whose due has been reached blocks every further advance until its
/// owner resumes, and advance decisions depend solely on the recorded
/// participant state.
class VirtualClock final : public Clock {
 public:
  VirtualClock() = default;

  double Now() const override;
  bool is_virtual() const override { return true; }
  void RegisterParticipant() override;
  void DeregisterParticipant() override;
  void WaitUntil(std::unique_lock<std::mutex>& lock,
                 std::condition_variable& cv, double due) override;
  void SleepUntil(double due, const CancelToken* token) override;
  void InterruptSleepers() override;
  void NotifyAll(std::condition_variable& cv) override;

  /// Manually advances to `t` (>= now). Test hook for driving the clock
  /// without participants.
  void AdvanceTo(double t);

 private:
  /// One blocked registered participant. WaitUntil entries carry the
  /// wake epoch of their cv at park time: a NotifyAll on that cv bumps
  /// the epoch, which marks the entry stale — its owner has been woken
  /// and is merely waiting to reacquire the caller's mutex, so it is
  /// runnable at the CURRENT time and must gate any further advance
  /// until it resumes and re-parks (or leaves).
  /// SleepUntil entries use the sleeper epoch instead: InterruptSleepers
  /// bumps it, and a sleeper refreshes its entry (under the clock lock,
  /// in its wait loop) once it has re-checked its cancel token. A stale
  /// sleeper entry therefore means "interrupt delivered but not yet
  /// examined" — the sleeper may be about to return at the current
  /// time, so the timeline must hold still.
  struct BlockedEntry {
    double due;
    /// WaitUntil: the caller's cv. SleepUntil: the sleeper's own wake
    /// cv, waited on with mu_.
    std::condition_variable* cv;
    const CancelToken* token;  // SleepUntil only (may be null)
    bool sleeper;
    uint64_t epoch;
    uint64_t ticket;  // identity for exact erase
  };

  /// Advances to the earliest blocked due once everyone is blocked and
  /// no waiter is stale, then wakes the participants the advance made
  /// runnable. Requires mu_.
  void MaybeAdvanceLocked();

  /// Wakes every SleepUntil caller, registered or observer, so each
  /// re-checks its due and token. Requires mu_.
  void NotifySleepersLocked();

  /// Current wake epoch of `cv` (0 if never notified). Requires mu_.
  uint64_t EpochOfLocked(const std::condition_variable* cv) const;

  void EraseEntryLocked(uint64_t ticket);

  mutable std::mutex mu_;
  /// Polled by observer (unregistered) SleepUntil callers; registered
  /// sleepers wait on their entry's own cv.
  std::condition_variable sleepers_;
  double now_ = 0.0;
  size_t participants_ = 0;
  /// Currently blocked registered participants (multiset semantics;
  /// size == number blocked).
  std::vector<BlockedEntry> blocked_dues_;
  /// Wake epoch per condition variable seen by NotifyAll.
  std::vector<std::pair<const std::condition_variable*, uint64_t>> epochs_;
  /// Wake epoch of SleepUntil callers; bumped by InterruptSleepers.
  uint64_t sleeper_epoch_ = 0;
  uint64_t next_ticket_ = 0;
};

}  // namespace webtx::rt

#endif  // WEBTX_RT_CLOCK_H_
