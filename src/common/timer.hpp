// Wall-clock timing for the native host measurements.
#pragma once

#include <chrono>
#include <functional>

#include "common/types.hpp"

namespace fz {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Elapsed seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Run `fn` `iters` times and return the best (minimum) wall-clock seconds.
/// Minimum-of-N is the standard noise-robust estimator for kernel timing.
double time_best_of(int iters, const std::function<void()>& fn);

/// GB/s for processing `bytes` in `seconds` (decimal GB, as in the paper).
constexpr double throughput_gbps(size_t bytes, double seconds) {
  return seconds <= 0 ? 0.0 : static_cast<double>(bytes) / 1e9 / seconds;
}

}  // namespace fz
