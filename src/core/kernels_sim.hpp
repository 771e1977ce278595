// The paper's GPU kernels, written against the cudasim execution model.
//
// These follow the pseudocode of §3.4 line-for-line: a 32×32 thread block
// per 4096-byte tile, a padded 32×33 shared tile, 32 rounds of
// __ballot_sync per warp for the bit transpose, fused zero-block marking
// into ByteFlagArr/BitFlagArr, and a separate compaction kernel driven by
// the prefix-summed byte flags.  Tests assert bit-identical output against
// the native pipeline (core/bitshuffle.cpp, core/encoder.cpp) and use the
// simulator's bank-conflict counters to verify the padding claim (§3.3).
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "cudasim/cost_sheet.hpp"
#include "substrate/huffman.hpp"

namespace fz {

/// Dual-quantization kernel (pred-quant v2, §3.2).  The key property that
/// makes this embarrassingly parallel is dual-quantization itself: the
/// Lorenzo prediction runs on *pre-quantized* values, and pre-quantization
/// is pointwise, so each thread recomputes its neighbours' quantized values
/// instead of waiting for them — no dependency, no halo exchange.  Each
/// thread emits one 16-bit sign-magnitude residual code.
cudasim::CostSheet sim_pred_quant_v2(FloatSpan data, Dims dims, double abs_eb,
                                     std::span<u16> codes_out);

/// Deliberate defect injection for the fused bitshuffle kernel — fzcheck
/// regression fodder (each variant must produce its expected diagnostic;
/// see tests/test_sanitizer.cpp and docs/SANITIZER.md).
enum class BitshuffleFault {
  None = 0,
  /// Skip the __syncthreads between the ballot transpose's shared stores
  /// and the transposed read-back: a classic missing-barrier R/W race.
  MissingBarrier,
  /// Narrow the flag-ballot guard so 8 lanes of warp 7 skip the
  /// __ballot_sync: a divergent collective that deadlocks the block.
  DivergentBallot,
};

/// Fused bitshuffle + mark kernel (encode phase 1).  `in.size()` must be a
/// multiple of one tile (1024 words).  `padded_shared=false` switches the
/// shared tile from 32×33 to 32×32 — functionally identical but with the
/// bank conflicts the padding exists to avoid (ablation knob, and the
/// target of fzcheck's bank-conflict lint).
cudasim::CostSheet sim_bitshuffle_mark_fused(
    std::span<const u32> in, std::span<u32> out, std::vector<u8>& byte_flags,
    std::vector<u8>& bit_flags, bool padded_shared = true,
    BitshuffleFault fault = BitshuffleFault::None);

/// Device mirror of the host fused tile pipeline (core/kernels_simd.hpp
/// fused_quant_shuffle_mark_parallel): dual-quantization,
/// Lorenzo encoding, bit transpose and zero-block marking in ONE launch.
/// Each thread of a 32x32 block computes the two u16 codes of its tile
/// word via neighbour recomputation, packs them into the shared tile, and
/// the block runs the same ballot transpose + mark tail as
/// sim_bitshuffle_mark_fused — the quantization codes never touch global
/// memory (the traffic fz_fused_tile_cost models as saved, §3.4).
/// `out.size()` must be whole tiles covering `data` (padding shuffles to
/// zero blocks); `anchor_out[0]` receives the first value's pre-quantized
/// anchor, matching the host stream header.  Output is byte-identical to
/// the host fused stage, which tests/test_kernels_sim.cpp asserts.
cudasim::CostSheet sim_fused_quant_shuffle_mark(
    FloatSpan data, Dims dims, double abs_eb, std::span<u32> out,
    std::vector<u8>& byte_flags, std::vector<u8>& bit_flags,
    std::span<i64> anchor_out, bool padded_shared = true,
    BitshuffleFault fault = BitshuffleFault::None);

/// Device mirror of the PR5 tile-parallel strip scheme: each block first
/// *cooperatively re-prequantizes* its tile's elements plus the halo its
/// Lorenzo stencils reach backwards (nx*ny + nx + 1 linear elements at
/// most) into a shared i64 buffer — one global load + quantization per
/// element — then computes codes from shared neighbours instead of up to
/// eight global recomputes per element.  When a 3-D plane halo exceeds
/// the 200 KB shared budget, the staging splits into two bounded windows
/// (the near rows and the z-plane band — the stencil's two read clusters)
/// and stays cooperative; only past the split windows' own budget (nx
/// beyond ~10750) does it fall back to sim_fused_quant_shuffle_mark.
/// Output is byte-identical to the single-pass kernel and the host fused
/// stage; hazard-freedom (no uninitialized shared reads, barrier
/// placement) is asserted under fzcheck.
cudasim::CostSheet sim_fused_quant_shuffle_mark_strips(
    FloatSpan data, Dims dims, double abs_eb, std::span<u32> out,
    std::vector<u8>& byte_flags, std::vector<u8>& bit_flags,
    std::span<i64> anchor_out, bool padded_shared = true);

/// Encode phase 2: prefix-sum the byte flags (host-side CUB stand-in) and
/// run the compaction kernel.  Returns the combined cost.
cudasim::CostSheet sim_compact_blocks(std::span<const u32> shuffled,
                                      std::span<const u8> byte_flags,
                                      std::vector<u32>& blocks_out);

/// cuSZ-style coarse-grained GPU Huffman encoding (Tian et al., IPDPS'21,
/// paper reference [47]): ONE THREAD serially encodes one whole chunk of
/// symbols into its private buffer (the "coarse-grained" design the paper
/// contrasts with fine-grained alternatives), then the chunk payloads are
/// compacted by a prefix sum over their byte sizes.  While packing, each
/// thread also records the gap array — the bit offset of every
/// segment_size-symbol segment inside its chunk (Rivera et al.'s two-pass
/// scheme folds into one pass here because the encoder knows the offsets
/// for free).  Produces byte-identical output to fz::huffman_encode for
/// the same codebook/chunk/segment sizes (segment_size = 0 emits the
/// legacy layout), which the tests assert.
cudasim::CostSheet sim_huffman_encode(std::span<const u16> symbols,
                                      const HuffmanCodebook& book,
                                      size_t chunk_size,
                                      std::vector<u8>& encoded_out,
                                      size_t segment_size = kHuffDefaultSegment);

/// Chunk-parallel GPU Huffman decoding: the chunked stream layout makes
/// every chunk's bit offset known up front, so one thread decodes each
/// chunk independently with the bit-serial canonical walk.  Accepts both
/// stream versions (gap arrays are simply ignored).  Byte-identical output
/// to fz::huffman_decode.  Kept as the pre-gap reference kernel the
/// gap-parallel kernel is measured against.
cudasim::CostSheet sim_huffman_decode(ByteSpan encoded,
                                      const HuffmanCodebook& book,
                                      std::vector<u16>& symbols_out);

/// Segment-parallel gap-array GPU Huffman decoding (Rivera et al.,
/// IPDPS'22, paper reference [48]): one thread decodes each
/// segment_size-symbol segment, entering the chunk's bit stream at the
/// offset the encoder recorded — a single-chunk stream no longer
/// serializes on one thread.  Codes resolve through the shared
/// HuffmanDecodeTables K-bit lookup table, cooperatively staged into
/// shared memory by each block (bit-serial walk when the codebook is too
/// deep for the table budget).  Legacy streams decode too (one segment
/// per chunk).  Byte-identical output to fz::huffman_decode; hazard
/// freedom of the staging barrier is asserted under fzcheck.
cudasim::CostSheet sim_huffman_decode_gap(ByteSpan encoded,
                                          const HuffmanCodebook& book,
                                          std::vector<u16>& symbols_out);

/// cuSZx block-statistics kernel (Yu et al., HPDC'22): per 128-value block,
/// min and max are computed with warp-shuffle butterfly reductions (the
/// lightweight bitwise operations the paper credits for cuSZx's speed),
/// combined across the block's four warps through shared memory.  These
/// stats drive the constant/non-constant block split of the cuSZx
/// baseline; tests check them against a scalar reference.
cudasim::CostSheet sim_szx_block_stats(FloatSpan data, std::span<f32> mins,
                                       std::span<f32> maxs);

/// Decompression phase 1: scatter the compacted nonzero blocks back to
/// their tile positions (zero blocks zero-filled), driven by the bit-flag
/// array — the mirror of sim_compact_blocks.
cudasim::CostSheet sim_scatter_blocks(std::span<const u8> bit_flags,
                                      std::span<const u32> blocks,
                                      std::span<u32> shuffled_out);

/// Decompression phase 2: inverse bitshuffle (same 32-round ballot
/// transpose, transposed addressing on the way in).
cudasim::CostSheet sim_bitunshuffle(std::span<const u32> in, std::span<u32> out,
                                    bool padded_shared = true);

/// Device mirror of the fused decompress pass (core/kernels_decode.hpp):
/// scatter + inverse bitshuffle + sign-magnitude decode in ONE launch.
/// Each 32x32 block scatters its tile's 256 compacted blocks straight
/// into the shared transpose tile, runs the ballot transpose, and decodes
/// its word's two u16 codes directly to the i64 residual output — the
/// scattered words and the code array never touch global memory (the
/// traffic fz_fused_decode_cost models as saved).  deltas_out receives
/// the raw sign-magnitude residuals (the inverse Lorenzo runs after, on
/// the host side).  Output matches sim_scatter_blocks +
/// sim_bitunshuffle + a scalar decode; hazard freedom of the scatter /
/// transpose barriers is asserted under fzcheck.
cudasim::CostSheet sim_fused_decode(std::span<const u8> bit_flags,
                                    std::span<const u32> blocks,
                                    std::span<i64> deltas_out,
                                    bool padded_shared = true);

}  // namespace fz
