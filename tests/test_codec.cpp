#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/chunked.hpp"
#include "core/codec.hpp"
#include "datasets/generators.hpp"
#include "metrics/metrics.hpp"
#include "reference_graph.hpp"

// Program-wide allocation counter for the steady-state test: every operator
// new variant is replaced, including the aligned array forms AlignedBuffer
// uses, so `g_alloc_count` sees every heap allocation in this binary.
namespace {

std::atomic<size_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_alloc_count;
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t padded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, padded != 0 ? padded : a)) return p;
  throw std::bad_alloc{};
}

void* counted_alloc_nothrow(std::size_t n) noexcept {
  ++g_alloc_count;
  return std::malloc(n != 0 ? n : 1);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
// The nothrow forms must be replaced too: the library pairs
// operator new(n, nothrow) with the sized operator delete (e.g.
// std::stable_sort's temporary buffer) — mixing the default nothrow new
// with our free() is an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fz {
namespace {

Field noisy_field(Dims dims, u64 seed) {
  Field f;
  f.dataset = "synthetic";
  f.name = "noisy";
  f.dims = dims;
  f.data.resize(dims.count());
  Rng rng(seed);
  for (size_t i = 0; i < f.data.size(); ++i)
    f.data[i] = static_cast<f32>(
        100.0 + 40.0 * std::sin(static_cast<double>(i) * 0.013) +
        rng.uniform(-0.3, 0.3));
  return f;
}

TEST(Codec, MatchesOneShotApiByteForByte) {
  const Field f = noisy_field(Dims{64, 48, 5}, 11);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);

  const FzCompressed one_shot = fz_compress(f.values(), f.dims, params);

  Codec codec(params);
  const FzCompressed first = codec.compress(f.values(), f.dims);
  const FzCompressed second = codec.compress(f.values(), f.dims);

  EXPECT_EQ(first.bytes, one_shot.bytes);
  EXPECT_EQ(second.bytes, one_shot.bytes);  // reuse changes nothing
  EXPECT_EQ(first.stats.nonzero_blocks, one_shot.stats.nonzero_blocks);

  const FzDecompressed via_codec = codec.decompress(first.bytes);
  const FzDecompressed via_api = fz_decompress(one_shot.bytes);
  EXPECT_EQ(via_codec.data, via_api.data);
  EXPECT_EQ(via_codec.dims, f.dims);
}

TEST(Codec, SteadyStateDoesNotAllocate) {
  const Field f = noisy_field(Dims{96, 80, 4}, 23);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  Codec codec(params);

  // Warm-up: every scratch buffer for both paths is a pool miss once.
  const FzCompressed c = codec.compress(f.values(), f.dims);
  std::vector<f32> out(f.data.size());
  codec.decompress_into(c.bytes, out);
  const auto warm = codec.pool().stats();
  EXPECT_GT(warm.misses, 0u);
  EXPECT_EQ(warm.leased_buffers, 0u);  // all scratch returned after the runs

  // Steady state: same shapes -> pure pool hits, zero new allocations.
  for (int round = 0; round < 3; ++round) {
    const FzCompressed again = codec.compress(f.values(), f.dims);
    EXPECT_EQ(again.bytes, c.bytes);
    codec.decompress_into(again.bytes, out);
  }
  const auto steady = codec.pool().stats();
  EXPECT_EQ(steady.misses, warm.misses) << "steady-state run hit the heap";
  EXPECT_GT(steady.hits, warm.hits);
  EXPECT_EQ(steady.allocated_bytes, warm.allocated_bytes);
  EXPECT_EQ(steady.peak_allocated_bytes, warm.peak_allocated_bytes);
  EXPECT_TRUE(error_bounded(f.values(), out, c.stats.abs_eb));

  // The pool-stats check above only proves scratch buffers recycle; the
  // global counter proves the whole decompress path (header parse, stage
  // graph, disabled telemetry hooks) performs literally zero heap
  // allocations once warm; the fork/join executor reuses its helper threads
  // and keeps each fork on the caller's stack.
  EXPECT_GT(g_alloc_count.load(), 0u);  // the counter is actually wired in
  const size_t before = g_alloc_count.load();
  for (int round = 0; round < 3; ++round) codec.decompress_into(c.bytes, out);
  EXPECT_EQ(g_alloc_count.load(), before)
      << "steady-state decompress_into allocated";

  // The loop above rides the fused decompress graph (V2 streams); the
  // classic staged graph, which V1 streams take, must stay allocation-free
  // in steady state too.
  FzParams v1 = params;
  v1.quant = QuantVersion::V1Original;
  Codec classic(v1);
  const FzCompressed c1 = classic.compress(f.values(), f.dims);
  for (int round = 0; round < 3; ++round)  // warm the classic scratch set
    classic.decompress_into(c1.bytes, out);
  const auto classic_warm = classic.pool().stats();
  const size_t classic_before = g_alloc_count.load();
  for (int round = 0; round < 3; ++round)
    classic.decompress_into(c1.bytes, out);
  const auto classic_steady = classic.pool().stats();
  EXPECT_EQ(classic_steady.misses, classic_warm.misses)
      << "classic decompress steady state hit the heap";
  EXPECT_EQ(g_alloc_count.load(), classic_before)
      << "steady-state classic decompress_into allocated";
  EXPECT_TRUE(error_bounded(f.values(), out, c.stats.abs_eb));
}

TEST(Codec, SteadyStateHoldsForV1AndPointwiseAndF64) {
  const Field f = noisy_field(Dims{40, 30, 3}, 31);
  std::vector<f64> wide(f.data.begin(), f.data.end());

  FzParams v1;
  v1.quant = QuantVersion::V1Original;
  v1.eb = ErrorBound::absolute(1e-2);
  FzParams pw;
  pw.eb = ErrorBound::pointwise_relative(1e-3);

  Codec codec_v1(v1), codec_pw(pw), codec_f64;
  const auto c1 = codec_v1.compress(f.values(), f.dims);
  const auto c2 = codec_pw.compress(f.values(), f.dims);
  const auto c3 = codec_f64.compress(std::span<const f64>{wide}, f.dims);
  const auto m1 = codec_v1.pool().stats().misses;
  const auto m2 = codec_pw.pool().stats().misses;
  const auto m3 = codec_f64.pool().stats().misses;

  EXPECT_EQ(codec_v1.compress(f.values(), f.dims).bytes, c1.bytes);
  EXPECT_EQ(codec_pw.compress(f.values(), f.dims).bytes, c2.bytes);
  EXPECT_EQ(codec_f64.compress(std::span<const f64>{wide}, f.dims).bytes,
            c3.bytes);
  EXPECT_EQ(codec_v1.pool().stats().misses, m1);
  EXPECT_EQ(codec_pw.pool().stats().misses, m2);
  EXPECT_EQ(codec_f64.pool().stats().misses, m3);
}

TEST(Codec, OneWorkerRunsEveryTaskOnTheCaller) {
  // fused_workers bounds every fork of a run, the stage helpers included:
  // at one worker a round trip hands no task to a helper thread, whatever
  // the quant version, bound mode or dtype.  At four workers the same
  // round trip does, so the check cannot pass vacuously.
  const Field f = noisy_field(Dims{64, 48, 8}, 37);
  const std::vector<f64> wide(f.data.begin(), f.data.end());
  for (const QuantVersion quant :
       {QuantVersion::V1Original, QuantVersion::V2Optimized}) {
    for (const ErrorBound eb : {ErrorBound::relative(1e-3),
                                ErrorBound::absolute(1e-2),
                                ErrorBound::pointwise_relative(1e-3)}) {
      for (const size_t workers : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("quant " + std::to_string(static_cast<int>(quant)) +
                     " mode " + std::to_string(static_cast<int>(eb.mode)) +
                     " workers " + std::to_string(workers));
        FzParams params;
        params.quant = quant;
        params.eb = eb;
        params.fused_workers = workers;
        Codec codec(params);
        const size_t before = offloaded_tasks();
        const FzCompressed c32 = codec.compress(f.values(), f.dims);
        EXPECT_EQ(codec.decompress(c32.bytes).data.size(), f.data.size());
        const FzCompressed c64 =
            codec.compress(std::span<const f64>{wide}, f.dims);
        EXPECT_EQ(codec.decompress_f64(c64.bytes).data.size(), wide.size());
        const size_t offloaded = offloaded_tasks() - before;
        if (workers == 1) {
          EXPECT_EQ(offloaded, 0u);
        } else {
          EXPECT_GT(offloaded, 0u);
        }
      }
    }
  }
}

TEST(Codec, DecompressIntoValidatesOutputSize) {
  const Field f = noisy_field(Dims{2048}, 5);
  FzParams params;
  params.eb = ErrorBound::absolute(1e-2);
  Codec codec(params);
  const FzCompressed c = codec.compress(f.values(), f.dims);

  std::vector<f32> wrong(f.data.size() - 1);
  EXPECT_THROW(codec.decompress_into(c.bytes, wrong), FormatError);
  std::vector<f64> wrong_type(f.data.size());
  EXPECT_THROW(codec.decompress_into(c.bytes, wrong_type), FormatError);

  std::vector<f32> right(f.data.size());
  const Dims dims = codec.decompress_into(c.bytes, right);
  EXPECT_EQ(dims, f.dims);
  EXPECT_TRUE(error_bounded(f.values(), right, c.stats.abs_eb));
}

TEST(Codec, ScratchIsReleasedEvenWhenARunThrows) {
  Codec codec;
  const Field f = noisy_field(Dims{4096}, 17);
  const FzCompressed c = codec.compress(f.values(), f.dims);

  std::vector<u8> clipped(c.bytes.begin(), c.bytes.end() - 8);
  std::vector<f32> out(f.data.size());
  EXPECT_THROW(codec.decompress_into(clipped, out), FormatError);
  EXPECT_EQ(codec.pool().stats().leased_buffers, 0u);

  // The codec stays usable after the failure.
  codec.decompress_into(c.bytes, out);
  EXPECT_TRUE(error_bounded(f.values(), out, c.stats.abs_eb));
}

TEST(Codec, NonFiniteInputRejectedWithTheSameMessageInEveryMode) {
  // Relative mode validates inside the range reduction; absolute and
  // point-wise modes run the finiteness test alone.  All three (and the
  // chunked container's whole-field range) reject NaN/Inf identically.
  const std::string want =
      "input contains NaN/Inf; error-bounded compression requires finite data";
  auto message_of = [](auto&& fn) -> std::string {
    try {
      fn();
    } catch (const Error& e) {
      return e.what();
    }
    return "(no throw)";
  };
  const Field f = noisy_field(Dims{64, 40}, 31);
  for (const f32 bad : {std::numeric_limits<f32>::quiet_NaN(),
                        std::numeric_limits<f32>::infinity()}) {
    std::vector<f32> data = f.data;
    for (auto& x : data) x = std::fabs(x) + 1.0f;  // point-wise needs > 0
    data[data.size() / 2] = bad;
    const std::vector<f64> wide(data.begin(), data.end());
    for (const ErrorBound eb :
         {ErrorBound::relative(1e-3), ErrorBound::absolute(1e-2),
          ErrorBound::pointwise_relative(1e-3)}) {
      FzParams params;
      params.eb = eb;
      Codec codec(params);
      const std::string narrow_msg =
          message_of([&] { codec.compress(data, f.dims); });
      EXPECT_NE(narrow_msg.find(want), std::string::npos) << narrow_msg;
      const std::string wide_msg = message_of(
          [&] { codec.compress(std::span<const f64>{wide}, f.dims); });
      EXPECT_NE(wide_msg.find(want), std::string::npos) << wide_msg;
      EXPECT_EQ(codec.pool().stats().leased_buffers, 0u);
    }
    ChunkedParams chunked;
    chunked.num_chunks = 4;
    const std::string chunked_msg = message_of(
        [&] { fz_compress_chunked(data, f.dims, chunked); });
    EXPECT_NE(chunked_msg.find(want), std::string::npos) << chunked_msg;
  }
}

TEST(ChunkedParallel, OutputIsIndependentOfWorkerCount) {
  const Field f = noisy_field(Dims{48, 40, 24}, 29);
  ChunkedParams serial;
  serial.base.eb = ErrorBound::relative(1e-3);
  serial.num_chunks = 8;
  serial.max_parallelism = 1;
  ChunkedParams parallel = serial;
  parallel.max_parallelism = 0;  // all hardware threads

  const ChunkedCompressed cs = fz_compress_chunked(f.values(), f.dims, serial);
  const ChunkedCompressed cp =
      fz_compress_chunked(f.values(), f.dims, parallel);
  EXPECT_EQ(cs.bytes, cp.bytes);
  EXPECT_EQ(cs.num_chunks, cp.num_chunks);
  EXPECT_EQ(cs.stats.nonzero_blocks, cp.stats.nonzero_blocks);

  const FzDecompressed ds = fz_decompress_chunked(cs.bytes, 1);
  const FzDecompressed dp = fz_decompress_chunked(cs.bytes, 0);
  EXPECT_EQ(ds.data, dp.data);
  EXPECT_EQ(ds.dims, dp.dims);
  EXPECT_TRUE(error_bounded(f.values(), dp.data, cs.stats.abs_eb));
}

TEST(ChunkedParallel, WorkerCountAboveChunkCountIsFine) {
  const Field f = noisy_field(Dims{2048}, 3);
  ChunkedParams params;
  params.base.eb = ErrorBound::absolute(1e-2);
  params.num_chunks = 2;
  params.max_parallelism = 64;
  const ChunkedCompressed c = fz_compress_chunked(f.values(), f.dims, params);
  const FzDecompressed d = fz_decompress_chunked(c.bytes, 64);
  EXPECT_TRUE(error_bounded(f.values(), d.data, c.stats.abs_eb));
}

TEST(Codec, FusedGraphMatchesUnfusedByteForByte) {
  // The fused tile pipeline must emit *exactly* the bytes the classic
  // five-stage graph (tests/reference_graph.hpp) emits, for every rank,
  // dtype, SIMD tier and bound, and its f32 round trip must hold the bound.
  const Dims cases[] = {Dims{4113}, Dims{129, 65}, Dims{24, 17, 9},
                        Dims{64, 48, 5}};
  for (const Dims dims : cases) {
    const Field f = noisy_field(dims, 5 + dims.count());
    const std::vector<f64> wide(f.data.begin(), f.data.end());
    for (const double rel : {1e-2, 1e-3, 1e-4}) {
      for (const SimdDispatch d :
           {SimdDispatch::Auto, SimdDispatch::Scalar, SimdDispatch::SSE2,
            SimdDispatch::AVX2}) {
        const std::string where =
            "dims " + dims.to_string() + " rel " + std::to_string(rel);
        FzParams params;
        params.eb = ErrorBound::relative(rel);
        params.simd = d;

        Codec cf(params);
        const auto u32s = ref::compress(f.values(), f.dims, params);
        const auto f32s = cf.compress(f.values(), f.dims);
        ASSERT_EQ(u32s.bytes, f32s.bytes) << "f32 " << where;
        EXPECT_EQ(u32s.stats.saturated, f32s.stats.saturated);
        if (f32s.stats.saturated == 0) {
          EXPECT_TRUE(error_bounded(f.values(), cf.decompress(f32s.bytes).data,
                                    f32s.stats.abs_eb))
              << where;
        }

        const auto u64s =
            ref::compress(std::span<const f64>{wide}, f.dims, params);
        const auto f64s = cf.compress(std::span<const f64>{wide}, f.dims);
        ASSERT_EQ(u64s.bytes, f64s.bytes) << "f64 " << where;
      }
    }
  }
}

TEST(Codec, FusedGraphMatchesUnfusedWithTransformsAndV1RunsClassic) {
  // Log transform feeds the fused stage from the transformed buffer; a V1
  // codec runs the classic graph, so its stream is the reference's.
  const Field f = noisy_field(Dims{96, 40}, 41);
  FzParams base;
  base.eb = ErrorBound::pointwise_relative(1e-3);
  Codec cf(base);
  EXPECT_EQ(cf.compress(f.values(), f.dims).bytes,
            ref::compress(f.values(), f.dims, base).bytes);

  FzParams v1 = base;
  v1.eb = ErrorBound::relative(1e-3);
  v1.quant = QuantVersion::V1Original;
  Codec cv1(v1);
  const auto a = cv1.compress(f.values(), f.dims);
  EXPECT_EQ(a.bytes, ref::compress(f.values(), f.dims, v1).bytes);
  const FzDecompressed rt = cv1.decompress(a.bytes);
  EXPECT_TRUE(error_bounded(f.values(), rt.data, a.stats.abs_eb));
}

}  // namespace
}  // namespace fz
