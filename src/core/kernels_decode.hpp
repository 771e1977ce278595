// The fused tile-parallel decompress passes — the decode-side twin of the
// PR5 compress fusion (core/kernels_simd.hpp).
//
// The unfused decompress graph materializes two full intermediate arrays
// between the stream and the i64 residuals: the scattered shuffled words
// (u32[total_words]) and the unshuffled code words (u32[total_words]).
// Both are written once and read once — pure DRAM traffic.  These passes
// walk the stream tile by tile instead: scatter one tile's compacted
// blocks into a stack-resident 4 KiB buffer, inverse-bitshuffle it into a
// second 4 KiB buffer, and sign-magnitude-decode the 2048 codes.  Both
// tile buffers live in L1 for the whole pass.
//
// fused_scatter_decode_parallel stops at the i64 residuals (the inverse
// Lorenzo and dequantize run after it, as separate kernels) and takes the
// expanded flags and offsets of decode_block_offsets.
// fused_decode_parallel, which the fused decompress graph runs, goes all
// the way to the field and reads the stream in place: one serial popcount
// pass over the bit flags gives each tile's first payload block
// (decode_tile_offsets), and each tile scatters straight from the
// stream's flag and payload bytes, so there is no offset scan, no
// alignment copy and, at one strip, no fork.  It splits the field into
// strips of whole lines (fused_decode_plan: z-planes, or y-rows spanning
// every plane for thin 3-D slabs; y-rows in 2-D; elements in 1-D) and
//   1. per strip, decodes each tile and runs the whole inverse Lorenzo in
//      the same loop, treating everything before the strip as 0, and
//      writes the strip-local i64 values once;
//   2. globalizes each strip's last line (in every plane, for row strips)
//      by adding the previous strip's already global last line, one short
//      serial pass;
//   3. per strip, adds the previous strip's last line to every other line
//      and dequantizes (plus exp for log-transformed streams) straight
//      into the caller's output.
// The i64 array is written once and read once.  Integer adds are
// associative, so the result is bit-identical to the classic graph
// (decode + lorenzo_inverse + dequantize) for every plan, SIMD tier,
// dtype and rank — pinned by tests/test_fused_decompress.cpp.
#pragma once

#include <span>

#include "common/simd.hpp"
#include "common/types.hpp"
#include "core/format.hpp"
#include "core/kernels_simd.hpp"

namespace fz::telemetry {
class Sink;
}  // namespace fz::telemetry

namespace fz {

/// Fused scatter + inverse bitshuffle + sign-magnitude decode.  `flags32`
/// and `offsets` are the expanded block flags and their exclusive prefix
/// sum (decode_block_offsets, core/encoder.hpp), `blocks` the compacted
/// nonzero payload, and `deltas` the caller's i64 residual array of exactly
/// the field's element count (tile padding never leaves the tile buffer).
/// Tiles are processed in plan.strips disjoint strips; when `sink` is
/// non-null each strip records a "fused-decode-strip" span (strip id, tile
/// count, decoded bytes) on its worker thread.  Output is bit-identical to
/// decode_blocks + bitunshuffle_tiles_simd + quant_decode_v2 for every plan
/// and SIMD tier.  The codec runs fused_decode_parallel instead; this
/// kernel is the residual-only building block (layer probes, sim mirror).
void fused_scatter_decode_parallel(std::span<const u32> flags32,
                                   std::span<const u32> offsets,
                                   std::span<const u32> blocks,
                                   std::span<i64> deltas,
                                   const FusedParallelPlan& plan,
                                   SimdLevel level,
                                   telemetry::Sink* sink = nullptr);

/// Bit-flag bytes of one 256-block tile.
constexpr size_t kFlagBytesPerTile = kBlocksPerTile / 8;

/// Fill `tile_offsets` (tiles + 1 entries) with each tile's first block in
/// the compacted payload, by popcounting each tile's 32 flag bytes in one
/// serial pass; the last entry is the nonzero block total.  Throws
/// FormatError when `bit_flags` is shorter than the tiles' flags or the
/// total disagrees with `block_bytes` (the payload size).  Returns the
/// nonzero block count.  The in-place decode's replacement for
/// decode_block_offsets: no expanded flags, no scan, no fork.
size_t decode_tile_offsets(ByteSpan bit_flags, size_t block_bytes,
                           std::span<u32> tile_offsets);

/// Partition of fused_decode_parallel: `strips` strips of whole lines.
/// Plane strips (`rows` false) split the Lorenzo carry axis — z-planes in
/// 3-D, y-rows in 2-D, elements in 1-D — and carry one line (a whole
/// plane in 3-D).  Row strips (`rows` true, 3-D only) split the y-rows
/// and span every plane, so a thin slab still splits many ways; strip
/// s's carry is the previous strip's last row in each plane (nz × nx
/// values).
struct FusedDecodePlan {
  size_t strips = 1;
  bool rows = false;
};

/// The decode's own plan, deterministic in (dims, workers) (0 = one per
/// hardware thread): at least 16 tiles per strip and no compress-halo
/// clamp (the decode re-reads no input).  3-D fields use plane strips when
/// nz >= 4 · strips — so the serial carry pass stays a small share of the
/// work — or when nz >= ny, and row strips otherwise.  The strip count is
/// clamped to the split axis's line count.
FusedDecodePlan fused_decode_plan(Dims dims, size_t workers);

/// Fused scatter + inverse bitshuffle + sign-magnitude decode + inverse
/// Lorenzo + dequantize (+ exp when `header.transform` is the log
/// transform) of a V2 stream into `out` (see the file comment), reading
/// the stream's sections in place: `bit_flags` and `blocks` are the
/// stream's flag and payload sections at any byte alignment, and
/// `tile_offsets` comes from decode_tile_offsets over them.  `header`
/// supplies the dims, anchor, error bound and transform; `pq` is i64
/// staging of the field's element count (contents need not be
/// initialized).  `plan` comes from fused_decode_plan (any
/// strip count from 1 to the split axis's line count is exact).  When
/// `sink` is non-null each strip records a "fused-decode-strip" span
/// (strip id, tile count, staged bytes) for its decode pass and a
/// "fused-decode-write" span (strip id, written bytes) for its write-out.
/// Output is bit-identical to the classic graph's InverseQuantStage +
/// ReconstructStage for every plan and SIMD tier.
void fused_decode_parallel(ByteSpan bit_flags,
                           std::span<const u32> tile_offsets, ByteSpan blocks,
                           const StreamHeader& header, std::span<i64> pq,
                           std::span<f32> out, const FusedDecodePlan& plan,
                           SimdLevel level, telemetry::Sink* sink = nullptr);
void fused_decode_parallel(ByteSpan bit_flags,
                           std::span<const u32> tile_offsets, ByteSpan blocks,
                           const StreamHeader& header, std::span<i64> pq,
                           std::span<f64> out, const FusedDecodePlan& plan,
                           SimdLevel level, telemetry::Sink* sink = nullptr);

}  // namespace fz
