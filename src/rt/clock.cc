#include "rt/clock.h"

#include <algorithm>
#include <thread>

#include "common/check.h"

namespace webtx::rt {
namespace {

/// The virtual clock a thread registered with via RegisterParticipant,
/// if any. Lets the wait primitives distinguish timeline participants
/// (whose blocking gates advances) from observer threads (pure polling,
/// no accounting) without widening the call signatures.
thread_local const VirtualClock* tls_registered_clock = nullptr;

/// Wake-up backstop for a WaitUntil whose due-reached notify fired
/// before the caller parked. Wall-clock latency only; never affects
/// virtual time.
constexpr std::chrono::microseconds kVirtualPoll{500};

std::chrono::steady_clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

double RealClock::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void RealClock::WaitUntil(std::unique_lock<std::mutex>& lock,
                          std::condition_variable& cv, double due) {
  if (due == kNeverSeconds) {
    cv.wait(lock);
  } else {
    cv.wait_until(lock, epoch_ + ToDuration(due));
  }
}

void RealClock::SleepUntil(double due, const CancelToken* token) {
  // Chunked so a tripped token is honored within ~1ms even though the
  // real clock has no way to interrupt a plain sleep.
  constexpr std::chrono::milliseconds kChunk{1};
  while (true) {
    const double now = Now();
    if (now >= due) return;
    if (token != nullptr && token->CancelledAt(now)) return;
    const auto remaining = ToDuration(due - now);
    std::this_thread::sleep_for(
        remaining < std::chrono::steady_clock::duration(kChunk)
            ? remaining
            : std::chrono::steady_clock::duration(kChunk));
  }
}

double VirtualClock::Now() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

void VirtualClock::RegisterParticipant() {
  WEBTX_CHECK(tls_registered_clock == nullptr)
      << "thread is already registered with a virtual clock";
  tls_registered_clock = this;
  std::lock_guard<std::mutex> lock(mu_);
  ++participants_;
}

void VirtualClock::DeregisterParticipant() {
  WEBTX_CHECK(tls_registered_clock == this)
      << "thread is not registered with this clock";
  tls_registered_clock = nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  WEBTX_CHECK_GE(participants_, 1u);
  --participants_;
  // The departing thread may have been the last runnable one.
  MaybeAdvanceLocked();
}

void VirtualClock::MaybeAdvanceLocked() {
  if (participants_ == 0 || blocked_dues_.size() < participants_) return;
  double min_due = kNeverSeconds;
  for (const BlockedEntry& entry : blocked_dues_) {
    // A stale waiter was notified but has not resumed yet (it is
    // between its cv wake-up and reacquiring the caller's mutex). It
    // has work to do at the CURRENT time; advancing would timestamp
    // that work by host-scheduling luck.
    const uint64_t current =
        entry.sleeper ? sleeper_epoch_ : EpochOfLocked(entry.cv);
    if (entry.epoch != current) return;
    // A sleeper whose token tripped (a deadline before its due) returns
    // at the current time; it holds the timeline like a reached due. The
    // notify covers a flag set without InterruptSleepers.
    if (entry.token != nullptr && entry.token->CancelledAt(now_)) {
      entry.cv->notify_all();
      return;
    }
    min_due = std::min(min_due, entry.due);
  }
  // All-infinite: the timeline is idle until an external event (e.g. a
  // new submission from an unregistered thread) creates a finite due.
  if (min_due == kNeverSeconds || min_due <= now_) return;
  now_ = min_due;
  // Wake only the participants the advance made runnable. A sleeper is
  // runnable once its due is reached or its token trips at the new
  // instant (a deadline before the due). A WaitUntil caller is notified
  // on its own cv without holding the caller's mutex; should the notify
  // beat its park, the poll in WaitUntil wakes it, and meanwhile its
  // reached due keeps the timeline from moving on.
  for (const BlockedEntry& entry : blocked_dues_) {
    const bool runnable =
        now_ >= entry.due ||
        (entry.token != nullptr && entry.token->CancelledAt(now_));
    if (runnable) entry.cv->notify_all();
  }
  sleepers_.notify_all();  // observers
}

void VirtualClock::NotifySleepersLocked() {
  for (const BlockedEntry& entry : blocked_dues_) {
    if (entry.sleeper) entry.cv->notify_all();
  }
  sleepers_.notify_all();
}

uint64_t VirtualClock::EpochOfLocked(const std::condition_variable* cv) const {
  for (const auto& [known, epoch] : epochs_) {
    if (known == cv) return epoch;
  }
  return 0;
}

void VirtualClock::EraseEntryLocked(uint64_t ticket) {
  blocked_dues_.erase(std::find_if(
      blocked_dues_.begin(), blocked_dues_.end(),
      [ticket](const BlockedEntry& e) { return e.ticket == ticket; }));
}

void VirtualClock::NotifyAll(std::condition_variable& cv) {
  {
    std::lock_guard<std::mutex> clk(mu_);
    bool known_cv = false;
    for (auto& [known, epoch] : epochs_) {
      if (known == &cv) {
        ++epoch;
        known_cv = true;
        break;
      }
    }
    if (!known_cv) epochs_.emplace_back(&cv, 1);
  }
  cv.notify_all();
}

void VirtualClock::WaitUntil(std::unique_lock<std::mutex>& lock,
                             std::condition_variable& cv, double due) {
  if (tls_registered_clock != this) {
    // Observer thread: poll, no timeline accounting.
    cv.wait_for(lock, std::chrono::milliseconds(1));
    return;
  }
  uint64_t ticket;
  {
    std::lock_guard<std::mutex> clk(mu_);
    if (now_ >= due) return;  // already due; caller re-checks state
    ticket = next_ticket_++;
    blocked_dues_.push_back(
        {due, &cv, nullptr, /*sleeper=*/false, EpochOfLocked(&cv), ticket});
    MaybeAdvanceLocked();
    if (now_ >= due) {
      // Our own due was the advance target; unblock immediately.
      EraseEntryLocked(ticket);
      return;
    }
  }
  // Blocked on the caller's cv, which state changes notify and which an
  // advance reaching `due` notifies too. The short timeout is only the
  // backstop for an advance whose notify fired before this wait began.
  cv.wait_for(lock, kVirtualPoll);
  {
    std::lock_guard<std::mutex> clk(mu_);
    EraseEntryLocked(ticket);
  }
}

void VirtualClock::SleepUntil(double due, const CancelToken* token) {
  std::unique_lock<std::mutex> clk(mu_);
  if (tls_registered_clock != this) {
    while (now_ < due && !(token != nullptr && token->CancelledAt(now_))) {
      sleepers_.wait_for(clk, std::chrono::milliseconds(1));
    }
    return;
  }
  if (now_ >= due || (token != nullptr && token->CancelledAt(now_))) return;
  // Declared after `clk`, so it is destroyed while mu_ is still held:
  // every notify of it happens under mu_ and after the erase below.
  std::condition_variable wake;
  const uint64_t ticket = next_ticket_++;
  blocked_dues_.push_back(
      {due, &wake, token, /*sleeper=*/true, sleeper_epoch_, ticket});
  MaybeAdvanceLocked();
  while (now_ < due && !(token != nullptr && token->CancelledAt(now_))) {
    // Interrupt examined, still sleeping: refresh the entry so the
    // timeline may move again (a stale sleeper entry holds it still).
    // Must come AFTER the continue-sleeping check: a cancelled sleeper
    // returns at the current time, so its entry must never go fresh
    // again (the advance it could enable would postdate the return).
    for (BlockedEntry& entry : blocked_dues_) {
      if (entry.ticket == ticket) {
        if (entry.epoch != sleeper_epoch_) {
          entry.epoch = sleeper_epoch_;
          MaybeAdvanceLocked();
        }
        break;
      }
    }
    // The refresh's advance may have landed on OUR due (its notify
    // fired before we were back in wait; re-checking avoids sleeping
    // through our own wake-up).
    if (now_ >= due || (token != nullptr && token->CancelledAt(now_))) {
      break;
    }
    wake.wait(clk);
  }
  EraseEntryLocked(ticket);
}

void VirtualClock::InterruptSleepers() {
  std::lock_guard<std::mutex> lock(mu_);
  // Every sleeper must re-examine its cancel token before the timeline
  // may move: the tripped one will return at the CURRENT time.
  ++sleeper_epoch_;
  NotifySleepersLocked();
}

void VirtualClock::AdvanceTo(double t) {
  std::lock_guard<std::mutex> lock(mu_);
  WEBTX_CHECK_GE(t, now_);
  now_ = t;
  NotifySleepersLocked();
}

}  // namespace webtx::rt
