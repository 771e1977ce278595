// Shared helpers for the fzbench program: clocks, percentiles, the metric
// report, peak memory, and the error-bound check every codec output goes
// through.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace fzbench {

using fz::f32;
using fz::f64;
using fz::u64;
using fz::u8;

inline u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Hardware threads (>= 1).
size_t nproc();

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run measured.  `metrics` become the JSON result line;
/// `attempted`/`failed` count operations and correctness checks.
struct Report {
  std::vector<Metric> metrics;
  u64 attempted = 0;
  u64 failed = 0;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Peak resident set of this process so far, in MB (decimal).
double peak_rss_mb();

/// Number of reconstructed values whose error exceeds `abs_eb`, with the
/// same slack fz::error_bounded allows for rounding the reconstruction to
/// the sample type (half an ulp at the value's magnitude).  Large arrays
/// are split across hardware threads.
template <typename T>
size_t bound_violations(std::span<const T> in, std::span<const T> out,
                        double abs_eb) {
  if (in.size() != out.size()) return in.size() + 1;
  const double ulp = sizeof(T) == 4 ? 6e-8 : 2.3e-16;
  auto count = [&](size_t b, size_t e) {
    size_t bad = 0;
    for (size_t i = b; i < e; ++i) {
      const double v = static_cast<double>(in[i]);
      const double d = std::fabs(v - static_cast<double>(out[i]));
      if (!(d <= abs_eb + abs_eb * 1e-6 + std::fabs(v) * ulp + 1e-30)) ++bad;
    }
    return bad;
  };
  const size_t n = in.size();
  const size_t threads = n < (size_t{1} << 20) ? 1 : nproc();
  if (threads == 1) return count(0, n);
  std::vector<size_t> bad(threads, 0);
  std::vector<std::thread> crew;
  for (size_t t = 0; t < threads; ++t)
    crew.emplace_back([&, t] { bad[t] = count(n * t / threads, n * (t + 1) / threads); });
  for (auto& th : crew) th.join();
  size_t total = 0;
  for (size_t b : bad) total += b;
  return total;
}

}  // namespace fzbench
