// Parallel-loop helpers: every parallel loop in the native backends forks
// through these on the executor in common/thread_pool.hpp, with at most
// worker_budget() workers (FzParams::fused_workers inside a codec run).
// The first exception is rethrown on the caller after the join — decoders
// rely on that to reject corrupt streams from parallel loops.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <mutex>
#include <span>
#include <type_traits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace fz {

/// Run fn(task, worker) for every task in [0, count) using at most `workers`
/// concurrent threads (0 = worker_budget()).  Each worker index in
/// [0, workers) is used by exactly one thread at a time, so fn may use it to
/// address per-worker state (e.g. one fz::Codec per worker).  Tasks are
/// claimed dynamically: uneven task costs still balance.
template <typename Fn>
void parallel_tasks(size_t count, size_t workers, Fn&& fn) {
  using F = std::remove_reference_t<Fn>;
  detail::fork_join(
      count, workers != 0 ? workers : worker_budget(),
      [](void* f, size_t task, size_t worker) {
        (*static_cast<F*>(f))(task, worker);
      },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

/// Parallel for over [begin, end): one contiguous block per worker of the
/// budget.  `fn(i)` must be independent across iterations.
template <typename Fn>
void parallel_for(size_t begin, size_t end, Fn&& fn) {
  if (end <= begin) return;
  const size_t n = end - begin;
  const size_t parts = std::min(worker_budget(), n);
  parallel_tasks(parts, parts, [&](size_t t, size_t) {
    const size_t e = begin + n * (t + 1) / parts;
    for (size_t i = begin + n * t / parts; i < e; ++i) fn(i);
  });
}

/// Parallel for over chunks: fn(chunk_begin, chunk_end).  Used when per-
/// iteration work is tiny and the body wants sequential inner loops.
/// `chunk` must be nonzero (a zero chunk would divide by zero).
template <typename Fn>
void parallel_chunks(size_t count, size_t chunk, Fn&& fn) {
  FZ_REQUIRE(chunk > 0, "parallel_chunks: chunk size must be nonzero");
  const size_t nchunks = count == 0 ? 0 : (count + chunk - 1) / chunk;
  parallel_for(0, nchunks, [&](size_t c) {
    const size_t b = c * chunk;
    const size_t e = b + chunk < count ? b + chunk : count;
    fn(b, e);
  });
}

template <typename T>
struct FiniteMinmax {
  bool finite = true;  ///< no element is NaN/Inf
  T lo{};              ///< meaningful only when `finite`
  T hi{};
};

/// Finiteness test and min/max in one parallel read of a non-empty span.
/// Each worker reduces one block in 16 bytes of independent lanes (one
/// vector register).  x - x is NaN exactly when x is not finite, so a lane
/// sum of them stays 0 iff all are finite.  The selects are order-
/// independent on NaN-free data: lo/hi equal a serial scan's when finite.
template <typename T>
FiniteMinmax<T> parallel_finite_minmax(std::span<const T> v) {
  FZ_REQUIRE(!v.empty(), "parallel_finite_minmax: empty span");
  constexpr size_t kLanes = 16 / sizeof(T);
  const size_t block = (v.size() + worker_budget() - 1) / worker_budget();
  FiniteMinmax<T> r{true, v[0], v[0]};
  std::mutex mu;
  parallel_chunks(v.size(), block, [&](size_t b, size_t e) {
    const T* p = v.data() + b;
    const size_t m = e - b;
    T nan[kLanes] = {}, lo[kLanes], hi[kLanes];
    for (size_t j = 0; j < kLanes; ++j) lo[j] = hi[j] = p[0];
    const auto step = [&](size_t j, T x) {
      nan[j] += x - x;
      lo[j] = x < lo[j] ? x : lo[j];
      hi[j] = x > hi[j] ? x : hi[j];
    };
    size_t i = 0;
    for (; i + kLanes <= m; i += kLanes)
      for (size_t j = 0; j < kLanes; ++j) step(j, p[i + j]);
    for (; i < m; ++i) step(0, p[i]);
    const std::lock_guard<std::mutex> lock(mu);
    for (size_t j = 0; j < kLanes; ++j) {
      r.finite &= nan[j] == T(0);
      r.lo = lo[j] < r.lo ? lo[j] : r.lo;
      r.hi = hi[j] > r.hi ? hi[j] : r.hi;
    }
  });
  return r;
}

/// True iff every element is finite (no NaN/Inf); an empty span is.
template <typename T>
bool parallel_all_finite(std::span<const T> v) {
  return v.empty() || parallel_finite_minmax(v).finite;
}

}  // namespace fz
