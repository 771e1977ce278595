// Analytical device cost sheets for the FZ pipeline stages.
//
// Each stage's CostSheet is assembled from the *measured* data-dependent
// statistics of a real compression run (outlier count, nonzero-block count,
// saturation) plus per-element resource counts derived from the kernel
// structure (§3.2–3.4).  The DeviceModel turns these into modeled kernel
// times for the throughput figures; see DESIGN.md §1 for why this
// reproduces the paper's relative results.
#pragma once

#include <vector>

#include "core/pipeline.hpp"
#include "cudasim/cost_sheet.hpp"

namespace fz {

/// The compress kernels FZ ships, in order: pred-quant (V1 or V2 per
/// params.quant), the fused bitshuffle + mark (§3.4), prefix-sum + encode.
std::vector<cudasim::CostSheet> fz_compression_costs(const FzStats& st,
                                                     const FzParams& params);
/// The unfused alternative to the "bitshuffle-mark-fused" sheet for the
/// fusion ablation (bench/fig10_ablation): separate "bitshuffle" and
/// "mark" kernels, the second re-reading the shuffled words.
std::vector<cudasim::CostSheet> fz_split_bitshuffle_mark_costs(
    const FzStats& st);
std::vector<cudasim::CostSheet> fz_decompression_costs(const FzStats& st,
                                                       const FzParams& params);

/// Modeled cost of the fused tile pipeline (make_compress_stages_fused):
/// quantize + Lorenzo + encode + bitshuffle + mark in one pass over
/// cache-resident tiles.  Merges the first two sheets of
/// fz_compression_costs into one launch and drops the quantization-code
/// round trip (the u16 array written by pred-quant and re-read by
/// bitshuffle) — exactly the traffic the paper's kernel fusion removes
/// (§3.4).  The arithmetic is unchanged; only the memory system sees the
/// difference.
cudasim::CostSheet fz_fused_tile_cost(const FzStats& st);

/// DRAM bytes the fused tile pipeline avoids relative to the unfused
/// graph: the intermediate code array's write + re-read.
u64 fz_fusion_traffic_saved(const FzStats& st);

/// Extra elements the tile-parallel strip scheme re-prequantizes: every
/// strip after the first recomputes the predecessor values its Lorenzo
/// stencil reaches across the strip boundary (one element in 1-D, a row in
/// 2-D, a plane in 3-D — the linear stencil reach).  Zero for one strip.
u64 fz_halo_recompute_elems(Dims dims, size_t strips);

/// Modeled cost of the tile-parallel fused pass (host strips / the
/// sim_fused_quant_shuffle_mark_strips device kernel): fz_fused_tile_cost
/// plus the halo re-prequantization term — each halo element is one extra
/// input load and pointwise quantization, priced so the device model can
/// weigh strip parallelism against its recompute overhead.
cudasim::CostSheet fz_fused_parallel_cost(const FzStats& st, Dims dims,
                                          size_t strips);

/// Modeled host cost of the compress pass the codec runs
/// (fused_quant_encode_parallel, core/kernels_simd.hpp): the input plus
/// the strips' halo is read once, in its own dtype (st.input_bytes), and
/// only the stream's sections are written — the packed bit flags and the
/// nonzero blocks.  Unlike fz_fused_parallel_cost (the expanded kernel),
/// neither the full shuffled array nor the byte flags reach DRAM, and the
/// prefix-sum-encode stage's scan and re-reads are gone: each strip
/// compacts its own tiles.
cudasim::CostSheet fz_fused_encode_cost(const FzStats& st, Dims dims,
                                        size_t strips);

/// Modeled cost of the fused decompress pass (make_decompress_stages_fused
/// / the sim_fused_decode device kernel): scatter + inverse bitshuffle +
/// sign-magnitude decode in one launch over cache-resident tiles — the
/// decode-side mirror of fz_fused_tile_cost.  The intermediate scattered
/// words and u16 codes never touch DRAM.
cudasim::CostSheet fz_fused_decode_cost(const FzStats& st);

/// Modeled host cost of the fused decode's pass 1 as the codec runs it
/// (fused_decode_parallel, core/kernels_decode.hpp), reading the stream
/// in place: the packed bit flags, the (tiles + 1) u32 tile offsets from
/// one popcount pass, and the nonzero payload are each read once, and the
/// strip-local i64 values are written once.  Unlike fz_fused_decode_cost
/// (the expanded scatter kernel), no u8/u32 expanded flags or per-block
/// offsets are read.
cudasim::CostSheet fz_fused_decode_inplace_cost(const FzStats& st);

/// Modeled host cost of the whole fused decompress pass the codec runs:
/// fz_fused_decode_inplace_cost's section reads and i64 write, plus one
/// read of that i64 staging and one output value of the stream's dtype
/// (st.input_bytes) per element — the inverse Lorenzo and dequantize add
/// no further DRAM round trip.  For f32 that is 20 B/value beyond the
/// compressed sections.
cudasim::CostSheet fz_fused_decode_into_cost(const FzStats& st);

/// Modeled cost of the segment-parallel gap-array Huffman decode
/// (substrate/huffman.cpp, sim_huffman_decode_gap) — the
/// codebook_build_serial_ns sibling on the decode side.  `encoded_bytes`
/// is the whole stream including the gap array; `gap_bytes` (see
/// huffman_gap_bytes) is the slice of it that is pure parallelism
/// metadata, priced as per-segment launch/setup work on top of the
/// table-driven per-symbol decode.  Replaces the hand-tuned 40-ops/symbol
/// bit-serial estimate the cusz baseline used before the gap decode
/// existed.
cudasim::CostSheet huffman_gap_decode_cost(size_t count, size_t encoded_bytes,
                                           size_t gap_bytes);

/// Projected cost of the paper's future work (§6, item 1): "fusing all GPU
/// kernels into one".  A single persistent kernel keeps the quantization
/// codes and the shuffled tile in shared memory and resolves the block
/// offsets with a decoupled-lookback scan, so the only DRAM traffic is the
/// input read and the compressed output write, with one launch.  The
/// bench/future_fused_all binary compares this projection against the
/// shipped three-kernel pipeline.
cudasim::CostSheet fz_fully_fused_cost(const FzStats& st);

}  // namespace fz
