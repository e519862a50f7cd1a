//===- support/Timer.h - Wall-clock stopwatch ----------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// A wall-clock stopwatch for the harnesses that time work outside the
/// pipeline (workload construction, the profile walk, materialization,
/// whole runs). The library times its own stages and cache calls only
/// through trace spans (trace/Scope.h); all algorithmic results in the
/// reproduction are deterministic and never read the clock.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_TIMER_H
#define BALIGN_SUPPORT_TIMER_H

#include <chrono>

namespace balign {

/// Wall-clock stopwatch with millisecond-precision reporting.
class Stopwatch {
public:
  Stopwatch() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  }

  /// Milliseconds elapsed since construction or the last reset().
  double milliseconds() const { return seconds() * 1e3; }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

} // namespace balign

#endif // BALIGN_SUPPORT_TIMER_H
