#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <mutex>
#include <set>
#include <thread>

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/buffer.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace fz {
namespace {

TEST(Dims, RankAndCount) {
  EXPECT_EQ(Dims{100}.rank(), 1);
  EXPECT_EQ((Dims{4, 5}.rank()), 2);
  EXPECT_EQ((Dims{4, 5, 6}.rank()), 3);
  EXPECT_EQ((Dims{4, 1, 1}.rank()), 1);
  EXPECT_EQ((Dims{4, 5, 6}.count()), 120u);
  EXPECT_EQ(Dims{7}.count(), 7u);
}

TEST(Dims, LinearIndexIsRowMajorXFastest) {
  const Dims d{4, 3, 2};
  EXPECT_EQ(d.linear(0, 0, 0), 0u);
  EXPECT_EQ(d.linear(1, 0, 0), 1u);
  EXPECT_EQ(d.linear(0, 1, 0), 4u);
  EXPECT_EQ(d.linear(0, 0, 1), 12u);
  EXPECT_EQ(d.linear(3, 2, 1), 23u);
}

TEST(Dims, ToString) {
  EXPECT_EQ(Dims{8}.to_string(), "8");
  EXPECT_EQ((Dims{8, 9}.to_string()), "8x9");
  EXPECT_EQ((Dims{8, 9, 10}.to_string()), "8x9x10");
}

TEST(ErrorBound, ResolveModes) {
  EXPECT_DOUBLE_EQ(ErrorBound::absolute(0.5).resolve(100.0), 0.5);
  EXPECT_DOUBLE_EQ(ErrorBound::relative(1e-3).resolve(100.0), 0.1);
}

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  AlignedBuffer b(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % AlignedBuffer::kAlignment, 0u);
  for (const u8 v : b.bytes()) EXPECT_EQ(v, 0);
}

TEST(AlignedBuffer, ResizePreservingKeepsPrefix) {
  AlignedBuffer b(16);
  for (size_t i = 0; i < 16; ++i) b.data()[i] = static_cast<u8>(i + 1);
  b.resize_preserving(32);
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(b.data()[i], i + 1);
  for (size_t i = 16; i < 32; ++i) EXPECT_EQ(b.data()[i], 0);
  b.resize_preserving(8);
  EXPECT_EQ(b.size(), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(b.data()[i], i + 1);
}

TEST(AlignedBuffer, CopyAndMove) {
  AlignedBuffer a(8);
  a.data()[3] = 42;
  AlignedBuffer b = a;
  EXPECT_EQ(b.data()[3], 42);
  b.data()[3] = 1;
  EXPECT_EQ(a.data()[3], 42);  // deep copy
  AlignedBuffer c = std::move(a);
  EXPECT_EQ(c.data()[3], 42);
}

TEST(AlignedBuffer, TypedViews) {
  AlignedBuffer b(16);
  auto u32s = b.as<u32>();
  ASSERT_EQ(u32s.size(), 4u);
  u32s[2] = 0xdeadbeef;
  EXPECT_EQ(b.as<u16>()[4], 0xbeef);
}

TEST(Bits, SignMagnitudeRoundTrip) {
  for (const i32 v : {0, 1, -1, 5000, -5000, 32766, -32766, 32767, -32767}) {
    EXPECT_EQ(sign_magnitude_decode(sign_magnitude_encode(v)), v) << v;
  }
}

TEST(Bits, SignMagnitudeSaturates) {
  EXPECT_EQ(sign_magnitude_decode(sign_magnitude_encode(40000)), 32767);
  EXPECT_EQ(sign_magnitude_decode(sign_magnitude_encode(-40000)), -32767);
  EXPECT_TRUE(sign_magnitude_saturates(32768));
  EXPECT_TRUE(sign_magnitude_saturates(-32768));
  EXPECT_FALSE(sign_magnitude_saturates(32767));
  EXPECT_FALSE(sign_magnitude_saturates(-32767));
}

TEST(Bits, SignMagnitudeSmallValuesHaveFewSetBits) {
  // The design rationale (§3.2): small negatives must not light up the
  // high bit planes the way two's complement does.
  EXPECT_EQ(popcount_u32(sign_magnitude_encode(-1)), 2);  // sign + 1 bit
  EXPECT_EQ(popcount_u32(static_cast<u32>(static_cast<u16>(i16{-1}))), 16);
}

TEST(Bits, ZigZag) {
  for (const i32 v : {0, 1, -1, 123456, -123456, INT32_MAX, INT32_MIN + 1}) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
}

TEST(Bits, RoundUpDivCeil) {
  EXPECT_EQ(round_up(0, 8), 0u);
  EXPECT_EQ(round_up(1, 8), 8u);
  EXPECT_EQ(round_up(8, 8), 8u);
  EXPECT_EQ(div_ceil(9, 8), 2u);
  EXPECT_EQ(div_ceil(16, 8), 2u);
}

TEST(Rng, DeterministicAndWellDistributed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());

  Rng r(123);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(99);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Parallel, ForCoversRangeOnce) {
  std::vector<int> hits(1000, 0);
  parallel_for(0, hits.size(), [&](size_t i) { hits[i]++; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  // An exception thrown on a helper thread must reach the caller after the
  // join (an escaping one would call std::terminate); decoders depend on it.
  EXPECT_THROW(parallel_for(0, 1000,
                            [&](size_t i) {
                              if (i == 517) throw Error("boom");
                            }),
               Error);
}

TEST(Parallel, ChunksCoverRangeOnce) {
  std::vector<int> hits(1003, 0);
  parallel_chunks(hits.size(), 64, [&](size_t b, size_t e) {
    ASSERT_LE(e, hits.size());
    for (size_t i = b; i < e; ++i) hits[i]++;
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, ChunksRejectZeroChunkSize) {
  // Regression: chunk == 0 used to divide by zero when computing the chunk
  // count; it must be a reported error instead.
  EXPECT_THROW(parallel_chunks(100, 0, [&](size_t, size_t) {}), Error);
  // count == 0 with a valid chunk stays a silent no-op.
  parallel_chunks(0, 64, [&](size_t, size_t) { FAIL(); });
}

TEST(Parallel, TasksCoverAllTasksWithBoundedWorkers) {
  constexpr size_t kTasks = 137;
  constexpr size_t kWorkers = 3;
  std::vector<int> hits(kTasks, 0);
  std::vector<std::atomic<int>> active(kWorkers);
  parallel_tasks(kTasks, kWorkers, [&](size_t task, size_t worker) {
    ASSERT_LT(worker, kWorkers);
    // Worker slots are exclusive: two tasks never share one concurrently.
    ASSERT_EQ(active[worker].fetch_add(1), 0);
    hits[task]++;
    active[worker].fetch_sub(1);
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(Parallel, TasksSerialWhenOneWorker) {
  std::vector<size_t> order;
  parallel_tasks(10, 1, [&](size_t task, size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(task);
  });
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Parallel, TasksPropagateExceptions) {
  EXPECT_THROW(parallel_tasks(100, 4,
                              [&](size_t task, size_t) {
                                if (task == 41) throw Error("boom");
                              }),
               Error);
}

TEST(Parallel, NestedForksCompleteWhenHelpersAreBusy) {
  // Every outer task forks again and asks for more workers than there are
  // free helpers: each inner fork must finish (running its remaining tasks
  // inline when no helper is idle) with exclusive worker slots.
  constexpr size_t kOuter = 6;
  constexpr size_t kInner = 40;
  constexpr size_t kInnerWorkers = 32;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  parallel_tasks(kOuter, kOuter, [&](size_t o, size_t) {
    std::vector<std::atomic<int>> active(kInnerWorkers);
    parallel_tasks(kInner, kInnerWorkers, [&](size_t i, size_t w) {
      ASSERT_LT(w, kInnerWorkers);
      ASSERT_EQ(active[w].fetch_add(1), 0);
      hits[o * kInner + i].fetch_add(1);
      active[w].fetch_sub(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ConcurrentCallersGetExclusiveWorkerSlots) {
  // Eight raw threads fork at once on the shared helpers; every fork still
  // covers its tasks once, and within a fork no worker slot is used by two
  // threads at the same time.
  constexpr size_t kCallers = 8;
  constexpr size_t kRounds = 50;
  constexpr size_t kTasks = 97;
  constexpr size_t kWorkers = 4;
  std::atomic<size_t> bad{0};
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> hits(kTasks);
        std::vector<std::atomic<int>> active(kWorkers);
        parallel_tasks(kTasks, kWorkers, [&](size_t t, size_t w) {
          if (w >= kWorkers || active[w].fetch_add(1) != 0) ++bad;
          hits[t].fetch_add(1);
          active[w].fetch_sub(1);
        });
        for (const auto& h : hits)
          if (h.load() != 1) ++bad;
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(Parallel, ExecutorStaysUsableAfterAnException) {
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(parallel_tasks(64, 4,
                                [&](size_t task, size_t) {
                                  if (task % 7 == 3) throw Error("boom");
                                }),
                 Error);
    std::vector<std::atomic<int>> hits(200);
    parallel_tasks(hits.size(), 4,
                   [&](size_t t, size_t) { hits[t].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, DistinctThreadsNeverExceedTheCap) {
  // A budget far above the cap is clamped: 64 tasks at 1000 workers run on
  // at most max_fork_workers() threads, the caller included.
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_tasks(64, 1000, [&](size_t, size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_LE(ids.size(), max_fork_workers());
  EXPECT_GT(ids.size(), 1u);  // an idle helper always takes part
}

TEST(Parallel, WorkerBudgetBoundsEveryHelper) {
  const size_t before = offloaded_tasks();
  {
    const WorkerBudget one(1);
    EXPECT_EQ(worker_budget(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> off_caller{0};
    const auto check = [&] {
      if (std::this_thread::get_id() != caller) ++off_caller;
    };
    parallel_for(0, 1000, [&](size_t) { check(); });
    parallel_chunks(1000, 7, [&](size_t, size_t) { check(); });
    parallel_tasks(50, 0, [&](size_t, size_t) { check(); });
    std::vector<f32> v(100000, 1.0f);
    EXPECT_TRUE(parallel_finite_minmax(std::span<const f32>{v}).finite);
    EXPECT_EQ(off_caller.load(), 0);
  }
  EXPECT_EQ(offloaded_tasks(), before);
  EXPECT_EQ(worker_budget(), static_cast<size_t>(max_threads()));
  {
    // A helper runs its share under the forking thread's budget, so a
    // fork nested in a task is bounded too.
    const WorkerBudget two(2);
    std::atomic<int> wider{0};
    parallel_tasks(2, 2, [&](size_t, size_t) {
      if (worker_budget() != 2) ++wider;
    });
    EXPECT_EQ(wider.load(), 0);
    EXPECT_GT(offloaded_tasks(), before);  // the helper ran its task
  }
}

TEST(Parallel, FiniteMinmaxMatchesSerialScan) {
  Rng rng(7);
  std::vector<f32> v(10001);
  for (auto& x : v) x = static_cast<f32>(rng.uniform(-50, 50));
  v[1234] = -100.0f;
  v[8888] = 175.5f;
  const auto r = parallel_finite_minmax(std::span<const f32>{v});
  EXPECT_TRUE(r.finite);
  EXPECT_EQ(r.lo, -100.0f);
  EXPECT_EQ(r.hi, 175.5f);
  const auto one = parallel_finite_minmax(std::span<const f32>{v.data(), 1});
  EXPECT_TRUE(one.finite);
  EXPECT_EQ(one.lo, v[0]);
  EXPECT_EQ(one.hi, v[0]);
  EXPECT_THROW(parallel_finite_minmax(std::span<const f32>{}), Error);

  std::vector<f64> w(v.begin(), v.end());
  const auto r64 = parallel_finite_minmax(std::span<const f64>{w});
  EXPECT_TRUE(r64.finite);
  EXPECT_EQ(r64.lo, -100.0);
  EXPECT_EQ(r64.hi, 175.5);

  // The per-worker blocks merge to the same answer at any budget.
  for (const size_t workers : {size_t{1}, size_t{3}, size_t{8}}) {
    const WorkerBudget budget(workers);
    const auto rb = parallel_finite_minmax(std::span<const f32>{v});
    EXPECT_TRUE(rb.finite);
    EXPECT_EQ(rb.lo, -100.0f) << workers;
    EXPECT_EQ(rb.hi, 175.5f) << workers;
  }
}

template <typename T>
void expect_finite_minmax_rejects_non_finite() {
  const T specials[] = {std::numeric_limits<T>::quiet_NaN(),
                        std::numeric_limits<T>::infinity(),
                        -std::numeric_limits<T>::infinity()};
  const size_t n = 4099;  // not a multiple of any vector width
  for (const T bad : specials) {
    for (const size_t at : {size_t{0}, n / 2, n - 1}) {
      std::vector<T> v(n, T(1.5));
      v[at] = bad;
      EXPECT_FALSE(parallel_finite_minmax(std::span<const T>{v}).finite)
          << "value " << bad << " at index " << at;
      EXPECT_FALSE(parallel_all_finite(std::span<const T>{v}))
          << "value " << bad << " at index " << at;
    }
    const std::vector<T> single{bad};
    EXPECT_FALSE(parallel_finite_minmax(std::span<const T>{single}).finite);
  }
}

TEST(Parallel, FiniteMinmaxDetectsNaNAndInfF32) {
  expect_finite_minmax_rejects_non_finite<f32>();
}

TEST(Parallel, FiniteMinmaxDetectsNaNAndInfF64) {
  expect_finite_minmax_rejects_non_finite<f64>();
}

TEST(Parallel, AllFiniteDetectsNaNAndInf) {
  std::vector<f64> v(4096, 1.5);
  EXPECT_TRUE(parallel_all_finite(std::span<const f64>{v}));
  v[4000] = std::numeric_limits<f64>::quiet_NaN();
  EXPECT_FALSE(parallel_all_finite(std::span<const f64>{v}));
  v[4000] = std::numeric_limits<f64>::infinity();
  EXPECT_FALSE(parallel_all_finite(std::span<const f64>{v}));
  EXPECT_TRUE(parallel_all_finite(std::span<const f64>{}));
}

}  // namespace
}  // namespace fz
