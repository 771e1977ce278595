// Schedule independence of the tile-parallel fused pipeline: the
// strip-parallel kernel must produce byte-identical output to its own
// one-strip pass for EVERY worker count, dtype, SIMD tier and rank — the
// halo re-prequantization makes each strip's stencil inputs pointwise
// recomputations of the exact values the previous strip computed, so the
// partition never shows in the stream.  (The one-strip pass is pinned to
// the classic stages by tests/test_simd.cpp.)  Also pins the plan's
// determinism, the per-strip telemetry spans, and Codec-level stream
// equality across fused_workers settings against the classic graph
// (tests/reference_graph.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/chunked.hpp"
#include "core/codec.hpp"
#include "core/encoder.hpp"
#include "core/kernels_simd.hpp"
#include "reference_graph.hpp"
#include "telemetry/telemetry.hpp"

namespace fz {
namespace {

std::vector<SimdLevel> levels_under_test() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  if (simd_supported() >= SimdLevel::SSE2) levels.push_back(SimdLevel::SSE2);
  if (simd_supported() >= SimdLevel::AVX2) levels.push_back(SimdLevel::AVX2);
  return levels;
}

// Multi-tile shapes for every rank, chosen so fused_parallel_plan actually
// yields several strips (the clamp caps strips at count / (4 * halo
// reach), which rules out tiny 3-D fields).  2049 exercises the padded
// final tile.
const Dims kDims[] = {Dims{5000},       Dims{2049},       Dims{64, 256},
                      Dims{96, 40},     Dims{24, 20, 20}, Dims{32, 24, 24}};

template <typename T>
std::vector<T> field(Dims dims, u64 seed) {
  Rng rng(seed);
  const size_t n = dims.count();
  std::vector<T> v(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % std::max<size_t>(dims.x, 1));
    v[i] = static_cast<T>(40.0 * std::sin(x * 0.11) +
                          10.0 * std::cos(static_cast<double>(i) * 0.003) +
                          rng.uniform(-0.5, 0.5));
  }
  return v;
}

struct FusedOut {
  std::vector<u32> shuffled;
  std::vector<u8> byte_flags;
  std::vector<u8> bit_flags;
  FusedTileResult res;
};

template <typename T>
FusedOut run_parallel(std::span<const T> data, Dims dims, double eb,
                      size_t workers, SimdLevel level,
                      telemetry::Sink* sink = nullptr) {
  const size_t words = round_up(data.size(), kCodesPerTile) / 2;
  FusedOut o;
  o.shuffled.assign(words, 0xdeadbeefu);
  o.byte_flags.assign(words / kBlockWords, 0xcd);
  o.bit_flags.assign(div_ceil(o.byte_flags.size(), 8), 0xcd);
  const FusedParallelPlan plan = fused_parallel_plan(dims, workers);
  std::vector<i64> scratch(plan.scratch_elems, -1);
  if constexpr (std::is_same_v<T, f32>) {
    o.res = fused_quant_shuffle_mark_parallel(
        data, dims, eb, false, o.shuffled, o.byte_flags, o.bit_flags,
        scratch, plan, level, sink);
  } else {
    o.res = fused_quant_shuffle_mark_parallel(
        data, dims, eb, o.shuffled, o.byte_flags, o.bit_flags, scratch, plan,
        level, sink);
  }
  return o;
}

template <typename T>
void check_schedule_independent(Dims dims, double eb, u64 seed) {
  const auto data = field<T>(dims, seed);
  const std::span<const T> span{data};
  for (const SimdLevel level : levels_under_test()) {
    // The single-thread reference: one strip.
    const FusedOut want = run_parallel(span, dims, eb, 1, level);
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      const FusedOut got = run_parallel(span, dims, eb, workers, level);
      const std::string where = std::string(simd_level_name(level)) + " dims " +
                                std::to_string(dims.x) + "x" +
                                std::to_string(dims.y) + "x" +
                                std::to_string(dims.z) + " workers " +
                                std::to_string(workers);
      ASSERT_EQ(want.shuffled, got.shuffled) << where;
      ASSERT_EQ(want.byte_flags, got.byte_flags) << where;
      ASSERT_EQ(want.bit_flags, got.bit_flags) << where;
      EXPECT_EQ(want.res.anchor, got.res.anchor) << where;
      EXPECT_EQ(want.res.saturated, got.res.saturated) << where;
    }
  }
}

TEST(FusedParallel, ByteIdenticalToSerialF32) {
  for (const Dims dims : kDims)
    check_schedule_independent<f32>(dims, 1e-3, 101 + dims.count());
}

TEST(FusedParallel, ByteIdenticalToSerialF64) {
  for (const Dims dims : kDims)
    check_schedule_independent<f64>(dims, 1e-3, 301 + dims.count());
}

TEST(FusedParallel, ByteIdenticalWithSaturationAndCoarseBound) {
  // A coarse bound drives most codes to zero (exercises zero blocks); a
  // needle of huge values exercises the saturation counter across strips.
  const Dims dims{64, 256};
  auto data = field<f32>(dims, 77);
  data[5] = 4.0e9f;
  data[9000] = -3.9e9f;
  data[dims.count() - 1] = 2.5e9f;
  const std::span<const f32> span{data};
  for (const SimdLevel level : levels_under_test()) {
    const FusedOut want = run_parallel(span, dims, 20.0, 1, level);
    EXPECT_GT(want.res.saturated, 0u);
    for (const size_t workers : {size_t{2}, size_t{8}}) {
      const FusedOut got = run_parallel(span, dims, 20.0, workers, level);
      ASSERT_EQ(want.shuffled, got.shuffled) << simd_level_name(level);
      EXPECT_EQ(want.res.saturated, got.res.saturated);
      EXPECT_EQ(want.res.anchor, got.res.anchor);
    }
  }
}

TEST(FusedParallel, PlanIsDeterministicAndClamped) {
  for (const Dims dims : kDims) {
    for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                                 size_t{8}, size_t{64}}) {
      const FusedParallelPlan a = fused_parallel_plan(dims, workers);
      const FusedParallelPlan b = fused_parallel_plan(dims, workers);
      EXPECT_EQ(a.strips, b.strips);
      EXPECT_EQ(a.scratch_elems, b.scratch_elems);
      EXPECT_EQ(a.halo_elems, b.halo_elems);

      EXPECT_GE(a.strips, 1u);
      EXPECT_LE(a.strips, div_ceil(dims.count(), kCodesPerTile));
      if (workers == 1) {
        EXPECT_EQ(a.strips, 1u);
        EXPECT_EQ(a.halo_elems, 0u);
      }
      if (a.strips == 1) {
        EXPECT_EQ(a.halo_elems, 0u);
      }
      EXPECT_GT(a.scratch_elems, 0u);
      // The clamp keeps the halo recompute a small fraction of the work.
      EXPECT_LE(a.halo_elems * 4, dims.count());
    }
  }
  // Tiny inputs never split.
  EXPECT_EQ(fused_parallel_plan(Dims{100}, 8).strips, 1u);
  EXPECT_EQ(fused_parallel_plan(Dims{10, 10, 3}, 8).strips, 1u);
}

TEST(FusedParallel, EmitsOneTelemetrySpanPerStrip) {
  const Dims dims{64, 256};
  const auto data = field<f32>(dims, 55);
  const size_t workers = 3;
  const FusedParallelPlan plan = fused_parallel_plan(dims, workers);
  ASSERT_GT(plan.strips, 1u);

  telemetry::Sink sink;
  run_parallel(std::span<const f32>{data}, dims, 1e-3, workers,
               SimdLevel::Scalar, &sink);

  size_t spans = 0;
  std::vector<bool> strip_seen(plan.strips, false);
  u64 halo_total = 0, bytes_total = 0;
  for (const telemetry::TraceEvent& ev : sink.snapshot()) {
    if (std::string_view{ev.name} != "fused-strip") continue;
    ++spans;
    double strip = -1, halo = -1, bytes = -1;
    for (u32 i = 0; i < ev.n_args; ++i) {
      const std::string_view key{ev.args[i].key};
      if (key == "strip") strip = ev.args[i].value;
      if (key == "halo_elems") halo = ev.args[i].value;
      if (key == "bytes") bytes = ev.args[i].value;
    }
    ASSERT_GE(strip, 0.0) << "span missing strip arg";
    ASSERT_GE(halo, 0.0) << "span missing halo_elems arg";
    ASSERT_GT(bytes, 0.0) << "span missing bytes arg";
    strip_seen.at(static_cast<size_t>(strip)) = true;
    halo_total += static_cast<u64>(halo);
    bytes_total += static_cast<u64>(bytes);
  }
  EXPECT_EQ(spans, plan.strips);
  for (size_t s = 0; s < plan.strips; ++s)
    EXPECT_TRUE(strip_seen[s]) << "no span for strip " << s;
  // Every strip after the first recomputes at least its predecessor row;
  // plan.halo_elems is the worst-case bound the clamp uses.
  EXPECT_GE(halo_total, (plan.strips - 1) * dims.x);
  EXPECT_LE(halo_total, plan.halo_elems);
  EXPECT_GE(bytes_total, dims.count() * sizeof(f32));
}

// ---- compacting strips (fused_quant_encode_parallel) ----------------------

struct CompactOut {
  std::vector<u8> bit_flags;
  std::vector<u32> blocks;  ///< the strip runs, concatenated in strip order
  FusedTileResult res;
};

template <typename T>
CompactOut run_compacting(std::span<const T> data, Dims dims, double eb,
                          size_t workers, SimdLevel level) {
  const size_t words = round_up(data.size(), kCodesPerTile) / 2;
  const FusedParallelPlan plan = fused_parallel_plan(dims, workers);
  std::vector<u32> out(words, 0xdeadbeefu);
  std::vector<FusedStripRun> runs(plan.strips, FusedStripRun{7, 7});
  std::vector<i64> scratch(plan.scratch_elems, -1);
  CompactOut o;
  o.bit_flags.assign(div_ceil(words / kBlockWords, 8), 0xcd);
  o.res = fused_quant_encode_parallel(data, dims, eb, out, o.bit_flags, runs,
                                      scratch, plan, level);
  // Each run starts at its strip's first tile and fits inside its tiles.
  const size_t tiles = words / kTileWords;
  const size_t tiles_per = div_ceil(tiles, plan.strips);
  for (size_t t = 0; t < runs.size(); ++t) {
    EXPECT_EQ(runs[t].offset, t * tiles_per * kTileWords) << "strip " << t;
    EXPECT_LE(runs[t].offset + runs[t].blocks * kBlockWords, words);
    o.blocks.insert(o.blocks.end(), out.begin() + runs[t].offset,
                    out.begin() + runs[t].offset +
                        runs[t].blocks * kBlockWords);
  }
  return o;
}

/// The expanded kernel + the global prefix-sum compaction it replaces.  f32
/// takes the exact quantize row, so a match also checks the compacting
/// kernel's fast row.
template <typename T>
CompactOut run_expanded_then_compact(std::span<const T> data, Dims dims,
                                     double eb, SimdLevel level) {
  const size_t words = round_up(data.size(), kCodesPerTile) / 2;
  const FusedParallelPlan plan = fused_parallel_plan(dims, 2);
  std::vector<u32> shuffled(words);
  std::vector<u8> byte_flags(words / kBlockWords);
  std::vector<i64> scratch(plan.scratch_elems);
  CompactOut o;
  o.bit_flags.resize(div_ceil(byte_flags.size(), 8));
  if constexpr (std::is_same_v<T, f32>) {
    o.res = fused_quant_shuffle_mark_parallel(data, dims, eb, false, shuffled,
                                              byte_flags, o.bit_flags,
                                              scratch, plan, level);
  } else {
    o.res = fused_quant_shuffle_mark_parallel(data, dims, eb, shuffled,
                                              byte_flags, o.bit_flags,
                                              scratch, plan, level);
  }
  compact_blocks(shuffled, byte_flags, o.blocks);
  return o;
}

template <typename T>
void check_compaction_matches(const std::vector<T>& data, Dims dims,
                              double eb, const std::string& label) {
  const std::span<const T> span{data};
  for (const SimdLevel level : levels_under_test()) {
    const CompactOut want = run_expanded_then_compact(span, dims, eb, level);
    for (const size_t workers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      const CompactOut got = run_compacting(span, dims, eb, workers, level);
      const std::string where = label + " " + simd_level_name(level) +
                                " workers " + std::to_string(workers);
      ASSERT_EQ(want.bit_flags, got.bit_flags) << where;
      ASSERT_EQ(want.blocks, got.blocks) << where;
      EXPECT_EQ(want.res.anchor, got.res.anchor) << where;
      EXPECT_EQ(want.res.saturated, got.res.saturated) << where;
    }
  }
}

std::string dims_label(Dims dims) {
  return std::to_string(dims.x) + "x" + std::to_string(dims.y) + "x" +
         std::to_string(dims.z);
}

// Shapes for the compaction sweep: every rank, a single full tile, a
// single partial tile, and sizes ending mid-tile.
const Dims kCompactDims[] = {Dims{5000},   Dims{2048},      Dims{700},
                             Dims{64, 256}, Dims{40, 30},   Dims{96, 41},
                             Dims{24, 20, 20}, Dims{32, 24, 24},
                             Dims{9, 7, 5}};

TEST(FusedCompaction, MatchesExpandedKernelPlusCompactBlocksF32) {
  for (const Dims dims : kCompactDims)
    check_compaction_matches(field<f32>(dims, 501 + dims.count()), dims, 1e-3,
                             "f32 " + dims_label(dims));
}

TEST(FusedCompaction, MatchesExpandedKernelPlusCompactBlocksF64) {
  for (const Dims dims : kCompactDims)
    check_compaction_matches(field<f64>(dims, 701 + dims.count()), dims, 1e-3,
                             "f64 " + dims_label(dims));
}

TEST(FusedCompaction, MatchesOnLogTransformedStream) {
  // The point-wise relative mode feeds the pass log(d) with bound
  // log(1 + rel).
  for (const Dims dims : {Dims{5000}, Dims{64, 256}, Dims{24, 20, 20}}) {
    auto data = field<f32>(dims, 901 + dims.count());
    for (auto& x : data) x = std::log(std::fabs(x) + 1.0f);
    check_compaction_matches(data, dims, std::log1p(1e-3),
                             "log " + dims_label(dims));
  }
}

TEST(FusedCompaction, StripsWithNoNonzeroBlocks) {
  // A constant field's Lorenzo residuals are all zero (the anchor rides
  // the header): every strip's run is empty.
  const Dims cube{32, 24, 24};
  const std::vector<f32> constant(cube.count(), 3.25f);
  check_compaction_matches(constant, cube, 1e-3, "constant");
  const CompactOut c = run_compacting(std::span<const f32>{constant}, cube,
                                      1e-3, 8, SimdLevel::Scalar);
  EXPECT_TRUE(c.blocks.empty());

  // RTM-like: the wavefield is exactly zero in the leading planes, so the
  // first strips compact to nothing while later ones carry the blocks.
  const Dims rtm{32, 32, 40};
  std::vector<f32> wave = field<f32>(rtm, 1234);
  std::fill(wave.begin(), wave.begin() + 24 * rtm.x * rtm.y, 0.0f);
  check_compaction_matches(wave, rtm, 1e-3, "rtm-like");
  const FusedParallelPlan plan = fused_parallel_plan(rtm, 8);
  ASSERT_GT(plan.strips, 2u);
  const size_t words = round_up(rtm.count(), kCodesPerTile) / 2;
  std::vector<u32> out(words);
  std::vector<u8> bit_flags(div_ceil(words / kBlockWords, 8));
  std::vector<FusedStripRun> runs(plan.strips);
  std::vector<i64> scratch(plan.scratch_elems);
  fused_quant_encode_parallel(std::span<const f32>{wave}, rtm, 1e-3, out,
                              bit_flags, runs, scratch, plan, resolve_simd());
  EXPECT_EQ(runs.front().blocks, 0u);
  EXPECT_GT(runs.back().blocks, 0u);
}

TEST(FusedCompaction, CodecStreamsMatchUnfusedGraph) {
  // The fused graph (compacting strips) against the classic five-stage
  // graph, across ranks, dtypes, bound modes and workers.
  for (const Dims dims : {Dims{5000}, Dims{96, 41}, Dims{32, 24, 24}}) {
    auto data = field<f32>(dims, 77 + dims.count());
    for (auto& x : data) x = std::fabs(x) + 0.5f;  // point-wise needs > 0
    const std::vector<f64> wide(data.begin(), data.end());
    for (const ErrorBound eb :
         {ErrorBound::relative(1e-3), ErrorBound::absolute(1e-2),
          ErrorBound::pointwise_relative(1e-3)}) {
      FzParams unfused;
      unfused.eb = eb;
      const std::vector<u8> want32 = ref::compress(data, dims, unfused).bytes;
      const std::vector<u8> want64 =
          ref::compress(std::span<const f64>{wide}, dims, unfused).bytes;
      for (const size_t workers : {size_t{0}, size_t{1}, size_t{3}}) {
        FzParams fused = unfused;
        fused.fused_workers = workers;
        Codec cf(fused);
        const std::string where =
            dims_label(dims) + " workers " + std::to_string(workers);
        ASSERT_EQ(want32, cf.compress(data, dims).bytes) << where;
        ASSERT_EQ(want64, cf.compress(std::span<const f64>{wide}, dims).bytes)
            << where;
      }
    }
  }
}

TEST(FusedCompaction, ChunkedContainersMatchUnfusedGraph) {
  // Every chunk of the container is the classic graph's stream of its slab
  // at the container's resolved absolute bound.
  const Dims dims{48, 40, 24};
  const auto data = field<f32>(dims, 4242);
  ChunkedParams fused;
  fused.base.eb = ErrorBound::relative(1e-3);
  fused.num_chunks = 5;
  const ChunkedCompressed c = fz_compress_chunked(data, dims, fused);
  const ContainerInfo info = fz_container_info(c.bytes);
  ASSERT_EQ(info.chunks.size(), c.num_chunks);
  ASSERT_GT(c.num_chunks, 1u);
  FzParams unfused;
  unfused.eb = ErrorBound::absolute(c.stats.abs_eb);
  for (const ChunkEntry& e : info.chunks) {
    const FloatSpan slab =
        FloatSpan{data}.subspan(e.elem_offset, e.dims.count());
    const std::vector<u8> want = ref::compress(slab, e.dims, unfused).bytes;
    ASSERT_EQ(want.size(), e.bytes) << "chunk at " << e.elem_offset;
    EXPECT_TRUE(std::equal(want.begin(), want.end(),
                           c.bytes.begin() + static_cast<std::ptrdiff_t>(
                                                 e.offset)))
        << "chunk at " << e.elem_offset;
  }
}

TEST(FusedParallel, CodecStreamsIdenticalAcrossWorkerSettings) {
  const Dims dims{64, 256};
  const auto data = field<f32>(dims, 91);

  FzParams params;
  params.eb = ErrorBound::absolute(1e-3);
  auto compress_with = [&](size_t workers) {
    FzParams p = params;
    p.fused_workers = workers;
    Codec codec(p);
    return codec.compress(data, dims).bytes;
  };

  const std::vector<u8> want = ref::compress(data, dims, params).bytes;
  for (const size_t workers : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                               size_t{8}})
    EXPECT_EQ(want, compress_with(workers)) << "workers " << workers;

  // Decompression's chunked scans must also be schedule-independent: the
  // same stream reconstructs to identical bytes for every worker count.
  FzParams dp;
  dp.eb = ErrorBound::absolute(1e-3);
  dp.fused_workers = 1;
  Codec ref(dp);
  const std::vector<f32> base = ref.decompress(want).data;
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{3}, size_t{8}}) {
    FzParams p;
    p.eb = ErrorBound::absolute(1e-3);
    p.fused_workers = workers;
    Codec codec(p);
    const FzDecompressed out = codec.decompress(want);
    ASSERT_EQ(base.size(), out.data.size());
    for (size_t i = 0; i < base.size(); ++i)
      ASSERT_EQ(std::bit_cast<u32>(base[i]), std::bit_cast<u32>(out.data[i]))
          << "workers " << workers << " elem " << i;
  }
  for (size_t i = 0; i < base.size(); ++i)
    ASSERT_LE(std::abs(static_cast<double>(base[i]) - data[i]), 1e-3 + 1e-7);
}

TEST(FusedParallel, F64CodecStreamsIdenticalAcrossWorkerSettings) {
  const Dims dims{24, 20, 20};
  const auto data = field<f64>(dims, 13);

  FzParams params;
  params.eb = ErrorBound::absolute(1e-4);
  auto compress_with = [&](size_t workers) {
    FzParams p = params;
    p.fused_workers = workers;
    Codec codec(p);
    return codec.compress(std::span<const f64>{data}, dims).bytes;
  };

  const std::vector<u8> want =
      ref::compress(std::span<const f64>{data}, dims, params).bytes;
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{8}})
    EXPECT_EQ(want, compress_with(workers)) << "workers " << workers;
}

}  // namespace
}  // namespace fz
