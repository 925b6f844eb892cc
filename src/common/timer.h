// Wall-clock stopwatch for benches, tests and the deadline watchdog. Region
// timing inside the engine goes through spans (common/trace.h), whose
// always-on totals feed the Table II buckets.

#pragma once

#include <chrono>

namespace fastft {

/// Simple wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() { Restart(); }
  // Measuring wall time is this class's purpose; every other call site must
  // go through WallTimer or a span so the analyzer can keep clock reads out
  // of scoring paths.
  void Restart() { start_ = Clock::now(); }  // fastft-analyze: allow(nondeterminism): the stopwatch itself
  /// Seconds elapsed since construction / last Restart().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();  // fastft-analyze: allow(nondeterminism): the stopwatch itself
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace fastft
