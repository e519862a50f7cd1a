//===- robust/Deadline.h - Cooperative deadlines with injectable clocks ---===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Cooperative time budgets for balign-shield: a Deadline wraps a
/// monotonic millisecond clock and a budget; long-running stages (the
/// iterated 3-Opt solver) poll expired() at iteration boundaries and
/// bail out with DeadlineExceeded, which the pipeline's per-procedure
/// isolation turns into a degradation-ladder fallback instead of a lost
/// run.
///
/// The clock is injectable (ClockFn), so tests drive expiry from a
/// ManualClock deterministically — no sleeping, no flaky timing — while
/// production uses steady_clock. Deadlines chain: a per-procedure budget
/// constructed with the whole-run deadline as parent expires when either
/// does.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ROBUST_DEADLINE_H
#define BALIGN_ROBUST_DEADLINE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace balign {

/// A monotonic clock returning milliseconds since an arbitrary epoch.
using ClockFn = std::function<uint64_t()>;

/// \p A + \p B, or UINT64_MAX where the sum would wrap, so a budget near
/// 2^64 never expires sooner than a smaller one.
inline uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  uint64_t Sum;
  return __builtin_add_overflow(A, B, &Sum) ? UINT64_MAX : Sum;
}

/// The production clock: std::chrono::steady_clock in milliseconds.
uint64_t steadyClockMs();

/// A hand-cranked clock for deterministic tests. Atomic because a test
/// cranks it from one thread while server-side watchers (the serve
/// watchdog, a drain's deadline poll) read it from theirs.
class ManualClock {
public:
  explicit ManualClock(uint64_t StartMs = 0) : NowMs(StartMs) {}

  void advance(uint64_t Ms) { NowMs.fetch_add(Ms); }
  void set(uint64_t Ms) { NowMs.store(Ms); }
  uint64_t now() const { return NowMs.load(); }

  /// The ClockFn view; the clock must outlive it.
  ClockFn fn() {
    return [this] { return NowMs.load(); };
  }

private:
  std::atomic<uint64_t> NowMs;
};

/// Thrown by budget-aware stages when their deadline expires; caught at
/// the procedure boundary by the pipeline's failure isolation.
class DeadlineExceeded : public std::runtime_error {
public:
  explicit DeadlineExceeded(const std::string &What)
      : std::runtime_error(What) {}
};

/// A wall-clock budget. Copyable only by intent of construction;
/// stages hold `const Deadline *` and poll.
class Deadline {
public:
  /// Unlimited deadline (never expires) over \p Clock.
  Deadline() = default;

  /// Expires \p BudgetMs after construction on \p Clock (empty =
  /// steadyClockMs). BudgetMs == 0 means unlimited, mirroring the CLI
  /// convention that 0 disables a budget.
  explicit Deadline(uint64_t BudgetMs, ClockFn Clock = {},
                    const Deadline *Parent = nullptr)
      : Clock(Clock ? std::move(Clock) : ClockFn(steadyClockMs)),
        Parent(Parent), Limited(BudgetMs != 0) {
    StartMs = this->Clock();
    ExpiryMs = saturatingAdd(StartMs, BudgetMs);
  }

  /// True once the clock passes the budget (or the parent expired).
  bool expired() const {
    if (Parent && Parent->expired())
      return true;
    return Limited && Clock() >= ExpiryMs;
  }

  /// Milliseconds spent since construction (0 for the unlimited default
  /// constructor, which never read its clock).
  uint64_t elapsedMs() const { return Clock ? Clock() - StartMs : 0; }

  bool isLimited() const { return Limited || (Parent && Parent->isLimited()); }

  /// Polls and throws DeadlineExceeded naming \p What when expired.
  void check(const char *What) const {
    if (expired())
      throw DeadlineExceeded(std::string(What) + " exceeded its deadline");
  }

private:
  ClockFn Clock;
  const Deadline *Parent = nullptr;
  uint64_t StartMs = 0;
  uint64_t ExpiryMs = 0;
  bool Limited = false;
};

} // namespace balign

#endif // BALIGN_ROBUST_DEADLINE_H
