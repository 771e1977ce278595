// The classic stage graphs as the tests' V2 reference.
//
// fz::Codec runs the fused graphs for V2 and the classic graphs only for V1,
// so no FzParams field routes a V2 field through the classic graphs.  These
// helpers run make_compress_stages() / make_decompress_stages() directly
// over a PipelineContext with its own BufferPool, as the public
// core/stages.hpp allows, so every fused path keeps a byte-for-byte
// reference: DualQuantStage + BitshuffleMarkStage + EncodeStage on compress,
// ScatterUnshuffleStage + InverseQuantStage + ReconstructStage on
// decompress.  Call them as fz::ref::compress / fz::ref::decompress.
//
// ref::one_strip_tiles is the single-thread reference for the fused tile
// kernels: the expanded kernel at one strip.
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "common/bits.hpp"
#include "common/pool.hpp"
#include "core/format.hpp"
#include "core/kernels_simd.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"

namespace fz::ref {

namespace detail {

template <typename T>
FzCompressed compress_impl(std::span<const T> data, Dims dims,
                           const FzParams& params) {
  BufferPool pool;
  PipelineContext ctx;
  FzCompressed out;
  ctx.begin_compress(&pool, params, dims, data.size(), sizeof(T), data.data(),
                     &out.bytes);
  for (const auto& stage : make_compress_stages()) stage->run(ctx);
  out.stats = ctx.stats;
  ctx.release_scratch();
  return out;
}

}  // namespace detail

/// Compress through the classic graph (bytes and stats; no cost sheets).
inline FzCompressed compress(FloatSpan data, Dims dims,
                             const FzParams& params) {
  return detail::compress_impl(data, dims, params);
}
inline FzCompressed compress(std::span<const f64> data, Dims dims,
                             const FzParams& params) {
  return detail::compress_impl(data, dims, params);
}

/// Decompress through the classic graph into `out`, which must hold the
/// stream's element count.  `params` supplies only the host execution
/// knobs (simd, fused_workers), as for Codec.  Returns the
/// stream's dims.
template <typename T>
Dims decompress_into(ByteSpan stream, std::span<T> out,
                     const FzParams& params = {}) {
  BufferPool pool;
  PipelineContext ctx;
  ctx.begin_decompress(&pool, params, stream, out.size(), sizeof(T),
                       out.data());
  for (const auto& stage : make_decompress_stages()) stage->run(ctx);
  ctx.release_scratch();
  return ctx.dims;
}

inline FzDecompressed decompress(ByteSpan stream,
                                 const FzParams& params = {}) {
  FzDecompressed out;
  out.data.resize(inspect(stream).count);
  out.dims = decompress_into(stream, std::span<f32>{out.data}, params);
  return out;
}

inline FzDecompressed64 decompress_f64(ByteSpan stream,
                                       const FzParams& params = {}) {
  FzDecompressed64 out;
  out.data.resize(inspect(stream).count);
  out.dims = decompress_into(stream, std::span<f64>{out.data}, params);
  return out;
}

/// The expanded fused kernel's outputs for one field: the shuffled words,
/// one byte flag per 16-byte block, the packed bit flags, and the anchor
/// and saturation count.
struct FusedTiles {
  std::vector<u32> shuffled;
  std::vector<u8> byte_flags;
  std::vector<u8> bit_flags;
  FusedTileResult res;
};

namespace detail {

template <typename T>
FusedTiles one_strip_tiles_impl(std::span<const T> data, Dims dims,
                                double abs_eb, SimdLevel level) {
  // Outputs and scratch start poisoned, so a byte the kernel fails to
  // write shows up in any comparison.
  const size_t words = round_up(data.size(), kCodesPerTile) / 2;
  FusedTiles t;
  t.shuffled.assign(words, 0xdeadbeefu);
  t.byte_flags.assign(words / kBlockWords, 0xee);
  t.bit_flags.assign(words / kBlockWords / 8, 0xee);
  const FusedParallelPlan plan = fused_parallel_plan(dims, 1);
  std::vector<i64> scratch(plan.scratch_elems, -1);
  if constexpr (std::is_same_v<T, f32>) {
    t.res = fused_quant_shuffle_mark_parallel(
        data, dims, abs_eb, /*f32_fast=*/false, t.shuffled, t.byte_flags,
        t.bit_flags, scratch, plan, level);
  } else {
    t.res = fused_quant_shuffle_mark_parallel(data, dims, abs_eb, t.shuffled,
                                              t.byte_flags, t.bit_flags,
                                              scratch, plan, level);
  }
  return t;
}

}  // namespace detail

/// fused_quant_shuffle_mark_parallel at fused_parallel_plan(dims, 1): what
/// DualQuantStage + BitshuffleMarkStage produce, computed in one pass on
/// one thread.  f32 input takes prequantize's exact row, so a match with
/// the codec's output also checks its margin-tested fast row.
inline FusedTiles one_strip_tiles(FloatSpan data, Dims dims, double abs_eb,
                                  SimdLevel level) {
  return detail::one_strip_tiles_impl(data, dims, abs_eb, level);
}
inline FusedTiles one_strip_tiles(std::span<const f64> data, Dims dims,
                                  double abs_eb, SimdLevel level) {
  return detail::one_strip_tiles_impl(data, dims, abs_eb, level);
}

}  // namespace fz::ref
