#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/bitshuffle.hpp"
#include "core/encoder.hpp"
#include "core/format.hpp"
#include "core/kernels_sim.hpp"
#include "core/kernels_simd.hpp"
#include "core/lorenzo.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "baselines/cuszx.hpp"
#include "substrate/huffman.hpp"
#include "datasets/field.hpp"
#include "metrics/metrics.hpp"
#include "reference_graph.hpp"

namespace fz {
namespace {

std::vector<u32> random_words(size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<u32> v(n);
  for (auto& w : v) w = rng.next_u32();
  return v;
}

std::vector<u32> sparse_code_words(size_t n, u64 seed) {
  // Small sign-magnitude codes, like real post-quantization data.
  Rng rng(seed);
  std::vector<u32> v(n);
  for (auto& w : v) {
    const u16 lo = static_cast<u16>(rng.below(32));
    const u16 hi = static_cast<u16>(rng.below(32)) |
                   (rng.below(4) == 0 ? u16{0x8000} : u16{0});
    w = static_cast<u32>(lo) | (static_cast<u32>(hi) << 16);
  }
  return v;
}

TEST(SimFusedKernel, MatchesNativeBitshuffleExactly) {
  const auto in = random_words(2 * kTileWords, 1);
  std::vector<u32> native(in.size()), simulated(in.size());
  bitshuffle_tiles(in, native);

  std::vector<u8> sim_byte_flags, sim_bit_flags;
  sim_bitshuffle_mark_fused(in, simulated, sim_byte_flags, sim_bit_flags);
  EXPECT_EQ(simulated, native);
}

TEST(SimFusedKernel, FlagsMatchNativeMark) {
  const auto in = sparse_code_words(3 * kTileWords, 2);
  std::vector<u32> native(in.size()), simulated(in.size());
  bitshuffle_tiles(in, native);
  std::vector<u8> native_byte_flags, native_bit_flags;
  mark_blocks(native, native_byte_flags, native_bit_flags);

  std::vector<u8> sim_byte_flags, sim_bit_flags;
  sim_bitshuffle_mark_fused(in, simulated, sim_byte_flags, sim_bit_flags);
  EXPECT_EQ(sim_byte_flags, native_byte_flags);
  EXPECT_EQ(sim_bit_flags, native_bit_flags);
}

TEST(SimFusedKernel, PaddingEliminatesBankConflicts) {
  // The §3.3 claim, measured on the real kernel: with the 32x33 padded
  // shared tile the column-wise accesses are conflict-free; dropping the
  // padding multiplies shared-memory transactions.
  const auto in = random_words(kTileWords, 3);
  std::vector<u32> out_p(in.size()), out_u(in.size());
  std::vector<u8> bf, ff;
  const auto padded = sim_bitshuffle_mark_fused(in, out_p, bf, ff, true);
  const auto unpadded = sim_bitshuffle_mark_fused(in, out_u, bf, ff, false);
  EXPECT_EQ(out_p, out_u);  // functionally identical
  EXPECT_GT(unpadded.shared_transactions, 4 * padded.shared_transactions);
}

TEST(SimFusedKernel, CountsGlobalTraffic) {
  const auto in = random_words(kTileWords, 4);
  std::vector<u32> out(in.size());
  std::vector<u8> bf, ff;
  const auto cost = sim_bitshuffle_mark_fused(in, out, bf, ff);
  EXPECT_EQ(cost.kernel_launches, 1u);
  // Reads the tile once, writes tile + byte flags + bit flags.
  EXPECT_EQ(cost.global_bytes_read, kTileBytes);
  EXPECT_EQ(cost.global_bytes_written, kTileBytes + kBlocksPerTile + kBlocksPerTile / 8);
}

TEST(SimCompact, MatchesNativeCompaction) {
  const auto in = sparse_code_words(2 * kTileWords, 5);
  std::vector<u32> shuffled(in.size());
  bitshuffle_tiles(in, shuffled);
  std::vector<u8> byte_flags, bit_flags;
  mark_blocks(shuffled, byte_flags, bit_flags);

  std::vector<u32> native_blocks;
  compact_blocks(shuffled, byte_flags, native_blocks);
  std::vector<u32> sim_blocks;
  sim_compact_blocks(shuffled, byte_flags, sim_blocks);
  EXPECT_EQ(sim_blocks, native_blocks);
}

TEST(SimCompact, EndToEndSimulatedEncodeDecodes) {
  // Full simulated phase-1 + phase-2, decoded by the native decoder.
  const auto in = sparse_code_words(kTileWords, 6);
  std::vector<u32> shuffled(in.size());
  std::vector<u8> byte_flags, bit_flags;
  sim_bitshuffle_mark_fused(in, shuffled, byte_flags, bit_flags);
  std::vector<u32> blocks;
  sim_compact_blocks(shuffled, byte_flags, blocks);

  std::vector<u32> restored_shuffled(in.size());
  decode_blocks(bit_flags, blocks, restored_shuffled);
  std::vector<u32> back(in.size());
  bitunshuffle_tiles(restored_shuffled, back);
  EXPECT_EQ(back, in);
}

TEST(SimPredQuant, MatchesNativeDualQuantization) {
  // The simulated kernel recomputes neighbour prequants per thread; the
  // native path prequantizes once then runs Lorenzo.  Identical results
  // prove dual-quantization's independence claim (2.3).
  for (const Dims dims : {Dims{777}, Dims{33, 21}, Dims{9, 10, 11}}) {
    Field f;
    f.dims = dims;
    f.data.resize(dims.count());
    Rng rng(dims.count());
    for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));
    const double abs_eb = 0.01;

    std::vector<i64> pq(f.count());
    prequantize(f.values(), abs_eb, pq);
    lorenzo_forward(pq, dims, pq);
    const QuantV2Result native = quant_encode_v2(pq);

    std::vector<u16> simulated(f.count());
    const auto cost = sim_pred_quant_v2(f.values(), dims, abs_eb, simulated);
    EXPECT_EQ(simulated, native.codes) << dims.to_string();
    EXPECT_EQ(cost.kernel_launches, 1u);
    EXPECT_GE(cost.global_bytes_read, f.bytes());
    EXPECT_EQ(cost.global_bytes_written, f.count() * sizeof(u16));
  }
}

TEST(SimPredQuant, FeedsTheFullSimulatedPipeline) {
  // All three paper kernels, simulated end to end: pred-quant -> fused
  // bitshuffle+mark -> compact; decoded by the NATIVE decompressor.
  Field f;
  f.dims = Dims{64, 32};  // 2048 values = exactly one tile of codes
  f.data.resize(f.dims.count());
  Rng rng(99);
  f32 acc = 0;
  for (auto& v : f.data) {
    acc += static_cast<f32>(rng.normal(0.0, 0.05));
    v = acc;
  }
  const double abs_eb = 1e-3;

  std::vector<u16> codes(f.count());
  sim_pred_quant_v2(f.values(), f.dims, abs_eb, codes);

  // Native path for comparison: full pipeline compress.
  FzParams params;
  params.eb = ErrorBound::absolute(abs_eb);
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  const FzDecompressed d = fz_decompress(c.bytes);
  EXPECT_TRUE(error_bounded(f.values(), d.data, abs_eb));

  // The simulated codes must round-trip through the simulated encoder.
  std::span<const u32> words{reinterpret_cast<const u32*>(codes.data()),
                             codes.size() / 2};
  std::vector<u32> shuffled(words.size());
  std::vector<u8> byte_flags, bit_flags;
  sim_bitshuffle_mark_fused(words, shuffled, byte_flags, bit_flags);
  std::vector<u32> blocks;
  sim_compact_blocks(shuffled, byte_flags, blocks);
  std::vector<u32> restored(words.size());
  sim_scatter_blocks(bit_flags, blocks, restored);
  std::vector<u32> back(words.size());
  sim_bitunshuffle(restored, back);
  EXPECT_TRUE(std::equal(words.begin(), words.end(), back.begin()));
}

TEST(SimFusedQuant, MatchesHostFusedStageExactly) {
  // The single-launch device kernel (quant + Lorenzo + encode + transpose
  // + mark) must produce the same shuffled words, flag arrays and anchor
  // as the host fused tile pipeline, byte for byte — including tile
  // padding and residual saturation clipping.
  for (const Dims dims : {Dims{777}, Dims{4113}, Dims{33, 21}, Dims{9, 10, 11}}) {
    Field f;
    f.dims = dims;
    f.data.resize(dims.count());
    Rng rng(dims.count() + 1);
    for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));
    const double abs_eb = 0.01;

    const size_t words = round_up(f.count(), kCodesPerTile) / 2;
    const size_t blocks = words / kBlockWords;
    std::vector<u32> sim_shuffled(words);
    const ref::FusedTiles host = ref::one_strip_tiles(
        f.values(), dims, abs_eb, SimdLevel::Scalar);

    std::vector<u8> sim_byte, sim_bit;
    std::vector<i64> anchor(1, -1);
    const auto cost = sim_fused_quant_shuffle_mark(
        f.values(), dims, abs_eb, sim_shuffled, sim_byte, sim_bit, anchor);
    EXPECT_EQ(sim_shuffled, host.shuffled) << dims.to_string();
    EXPECT_EQ(sim_byte, host.byte_flags) << dims.to_string();
    EXPECT_EQ(sim_bit, host.bit_flags) << dims.to_string();
    EXPECT_EQ(anchor[0], host.res.anchor) << dims.to_string();

    // One launch; the u16 code array never touches global memory, so the
    // only writes are the shuffled words, the flags, and the anchor.
    EXPECT_EQ(cost.kernel_launches, 1u);
    EXPECT_EQ(cost.global_bytes_written, words * sizeof(u32) + blocks +
                                             blocks / 8 + sizeof(i64));
  }
}

TEST(SimFusedQuant, ClipsSaturatedResidualsLikeTheHost) {
  // Steps far beyond the 16-bit residual range must clip identically.
  Field f;
  f.dims = Dims{1500};
  f.data.resize(f.dims.count());
  Rng rng(5);
  for (size_t i = 0; i < f.data.size(); ++i)
    f.data[i] = (i % 7 == 0) ? static_cast<f32>(rng.uniform(-4e6, 4e6))
                             : static_cast<f32>(rng.uniform(-1.0, 1.0));
  const double abs_eb = 1e-3;

  const size_t words = round_up(f.count(), kCodesPerTile) / 2;
  std::vector<u32> sim_shuffled(words);
  const ref::FusedTiles host = ref::one_strip_tiles(
      f.values(), f.dims, abs_eb, SimdLevel::Scalar);
  ASSERT_GT(host.res.saturated, 0u);  // the test is vacuous otherwise

  std::vector<u8> sim_byte, sim_bit;
  std::vector<i64> anchor(1);
  sim_fused_quant_shuffle_mark(f.values(), f.dims, abs_eb, sim_shuffled,
                               sim_byte, sim_bit, anchor);
  EXPECT_EQ(sim_shuffled, host.shuffled);
  EXPECT_EQ(anchor[0], host.res.anchor);
}

TEST(SimFusedQuant, StripsKernelMatchesHostAndSinglePassExactly) {
  // The PR5 strips variant re-prequantizes each block's halo cooperatively
  // into shared memory instead of recomputing neighbours per thread.  Its
  // output must stay byte-identical to both the host fused stage and the
  // single-pass kernel for every rank — including multi-tile 3-D shapes
  // where the halo spans a whole plane.
  for (const Dims dims :
       {Dims{777}, Dims{4113}, Dims{64, 80}, Dims{40, 24, 8}}) {
    Field f;
    f.dims = dims;
    f.data.resize(dims.count());
    Rng rng(dims.count() + 3);
    for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));
    const double abs_eb = 0.01;

    const size_t words = round_up(f.count(), kCodesPerTile) / 2;
    std::vector<u32> sim_shuffled(words);
    const ref::FusedTiles host = ref::one_strip_tiles(
        f.values(), dims, abs_eb, SimdLevel::Scalar);

    std::vector<u8> sim_byte, sim_bit;
    std::vector<i64> anchor(1, -1);
    const auto cost = sim_fused_quant_shuffle_mark_strips(
        f.values(), dims, abs_eb, sim_shuffled, sim_byte, sim_bit, anchor);
    EXPECT_EQ(sim_shuffled, host.shuffled) << dims.to_string();
    EXPECT_EQ(sim_byte, host.byte_flags) << dims.to_string();
    EXPECT_EQ(sim_bit, host.bit_flags) << dims.to_string();
    EXPECT_EQ(anchor[0], host.res.anchor) << dims.to_string();
    EXPECT_EQ(cost.kernel_launches, 1u);
  }
}

TEST(SimFusedQuant, StripsKernelCutsGlobalReadsOnHigherRanks) {
  // The point of the cooperative halo: each element is loaded from global
  // memory once per block (plus the halo), not once per stencil use.  On a
  // 3-D field the single-pass kernel performs up to eight global
  // recomputes per element, so the strips kernel must read strictly less.
  Field f;
  f.dims = Dims{40, 24, 8};
  f.data.resize(f.dims.count());
  Rng rng(9);
  for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));

  const size_t words = round_up(f.count(), kCodesPerTile) / 2;
  std::vector<u32> a(words), b(words);
  std::vector<u8> byte_a, bit_a, byte_b, bit_b;
  std::vector<i64> anchor_a(1), anchor_b(1);
  const auto single = sim_fused_quant_shuffle_mark(f.values(), f.dims, 0.01,
                                                   a, byte_a, bit_a, anchor_a);
  const auto strips = sim_fused_quant_shuffle_mark_strips(
      f.values(), f.dims, 0.01, b, byte_b, bit_b, anchor_b);
  EXPECT_EQ(a, b);
  EXPECT_LT(strips.global_bytes_read, single.global_bytes_read);
}

TEST(SimFusedQuant, StripsKernelSplitsPlaneHaloWhenItExceedsBudget) {
  // A 3-D slab whose plane halo would blow the shared-memory budget
  // (300*200 i64 ≈ 480 KB) now stages through the two bounded split
  // windows (near rows + z-plane band) and must still match the host
  // stage byte for byte.  (The genuine fallback — split windows too big —
  // is pinned in tests/test_fused_decompress.cpp.)
  Field f;
  f.dims = Dims{300, 200, 2};
  f.data.resize(f.dims.count());
  Rng rng(11);
  for (auto& v : f.data) v = static_cast<f32>(rng.uniform(-50.0, 50.0));

  const size_t words = round_up(f.count(), kCodesPerTile) / 2;
  std::vector<u32> sim_shuffled(words);
  const ref::FusedTiles host = ref::one_strip_tiles(
      f.values(), f.dims, 0.01, SimdLevel::Scalar);

  std::vector<u8> sim_byte, sim_bit;
  std::vector<i64> anchor(1, -1);
  sim_fused_quant_shuffle_mark_strips(f.values(), f.dims, 0.01, sim_shuffled,
                                      sim_byte, sim_bit, anchor);
  EXPECT_EQ(sim_shuffled, host.shuffled);
  EXPECT_EQ(sim_byte, host.byte_flags);
  EXPECT_EQ(anchor[0], host.res.anchor);
}

TEST(SimHuffman, CoarseGrainedEncodeMatchesNativeByteForByte) {
  Rng rng(42);
  std::vector<u16> syms(20000);
  for (auto& v : syms)
    v = static_cast<u16>(
        std::clamp<i64>(512 + std::llround(rng.normal(0.0, 5.0)), 0, 1023));
  std::vector<u64> hist(1024, 0);
  for (const u16 v : syms) ++hist[v];
  const HuffmanCodebook book = HuffmanCodebook::build(hist);

  const std::vector<u8> native = huffman_encode(syms, book, 4096);
  std::vector<u8> simulated;
  const auto cost = sim_huffman_encode(syms, book, 4096, simulated);
  EXPECT_EQ(simulated, native);
  EXPECT_EQ(huffman_decode(simulated, book), syms);
  EXPECT_GE(cost.kernel_launches, 3u);  // encode + 2-kernel scan
}

TEST(SimHuffman, RaggedFinalChunk) {
  Rng rng(43);
  std::vector<u16> syms(10001);  // not a chunk multiple
  for (auto& v : syms) v = static_cast<u16>(rng.below(64));
  std::vector<u64> hist(64, 0);
  for (const u16 v : syms) ++hist[v];
  const HuffmanCodebook book = HuffmanCodebook::build(hist);
  std::vector<u8> simulated;
  sim_huffman_encode(syms, book, 1000, simulated);
  EXPECT_EQ(simulated, huffman_encode(syms, book, 1000));
}

TEST(SimHuffman, ChunkParallelDecodeMatchesNative) {
  Rng rng(44);
  std::vector<u16> syms(15000);
  for (auto& v : syms)
    v = static_cast<u16>(
        std::clamp<i64>(512 + std::llround(rng.normal(0.0, 8.0)), 0, 1023));
  std::vector<u64> hist(1024, 0);
  for (const u16 v : syms) ++hist[v];
  const HuffmanCodebook book = HuffmanCodebook::build(hist);
  const std::vector<u8> stream = huffman_encode(syms, book, 2000);

  std::vector<u16> decoded;
  const auto cost = sim_huffman_decode(stream, book, decoded);
  EXPECT_EQ(decoded, syms);
  EXPECT_EQ(decoded, huffman_decode(stream, book));
  EXPECT_EQ(cost.kernel_launches, 1u);
}

TEST(SimHuffman, EncodeDecodeComposeOnSimulatorOnly) {
  // Encode on the simulated coarse-grained kernel, decode on the simulated
  // chunk-parallel kernel — no native codec in the loop.
  Rng rng(45);
  std::vector<u16> syms(8192);
  for (auto& v : syms) v = static_cast<u16>(rng.below(300));
  std::vector<u64> hist(512, 0);
  for (const u16 v : syms) ++hist[v];
  const HuffmanCodebook book = HuffmanCodebook::build(hist);
  std::vector<u8> stream;
  sim_huffman_encode(syms, book, 1024, stream);
  std::vector<u16> decoded;
  sim_huffman_decode(stream, book, decoded);
  EXPECT_EQ(decoded, syms);
}

TEST(SimHuffman, GapSegmentParallelDecodeMatchesNative) {
  Rng rng(48);
  std::vector<u16> syms(15000);
  for (auto& v : syms)
    v = static_cast<u16>(
        std::clamp<i64>(512 + std::llround(rng.normal(0.0, 8.0)), 0, 1023));
  std::vector<u64> hist(1024, 0);
  for (const u16 v : syms) ++hist[v];
  const HuffmanCodebook book = HuffmanCodebook::build(hist);
  const std::vector<u8> stream =
      huffman_encode(syms, book, HuffmanEncodeOptions{2000, 256});

  std::vector<u16> decoded;
  const auto cost = sim_huffman_decode_gap(stream, book, decoded);
  EXPECT_EQ(decoded, syms);
  EXPECT_EQ(decoded, huffman_decode(stream, book));
  EXPECT_EQ(cost.kernel_launches, 1u);
  // One thread per segment: more parallel slots than the chunk-grained
  // kernel has chunks.
  EXPECT_GT(parse_huffman_layout(stream).total_segments(),
            parse_huffman_layout(stream).num_chunks);
}

TEST(SimHuffman, GapDecodeHandlesSingleChunkManySegments) {
  // The motivating shape: one chunk used to serialize on one thread.
  Rng rng(49);
  std::vector<u16> syms(30000);
  for (auto& v : syms) v = static_cast<u16>(rng.below(200));
  std::vector<u64> hist(512, 0);
  for (const u16 v : syms) ++hist[v];
  const HuffmanCodebook book = HuffmanCodebook::build(hist);
  const std::vector<u8> stream =
      huffman_encode(syms, book, HuffmanEncodeOptions{1u << 20, 512});
  ASSERT_EQ(parse_huffman_layout(stream).num_chunks, 1u);
  std::vector<u16> decoded;
  sim_huffman_decode_gap(stream, book, decoded);
  EXPECT_EQ(decoded, syms);
}

TEST(SimHuffman, GapDecodeAcceptsLegacyStreams) {
  // A pre-gap (v1) stream decodes on the same kernel: one segment per
  // chunk, no gap array.
  Rng rng(50);
  std::vector<u16> syms(9000);
  for (auto& v : syms) v = static_cast<u16>(rng.below(128));
  std::vector<u64> hist(128, 0);
  for (const u16 v : syms) ++hist[v];
  const HuffmanCodebook book = HuffmanCodebook::build(hist);
  const std::vector<u8> legacy =
      huffman_encode(syms, book, HuffmanEncodeOptions{1500, 0});
  std::vector<u16> decoded;
  sim_huffman_decode_gap(legacy, book, decoded);
  EXPECT_EQ(decoded, syms);
}

TEST(SimHuffman, GapDecodeDeepCodebookUsesFallbackPath) {
  // A staircase codebook past the two-level table budget exercises the
  // in-kernel bit-serial branch.
  std::vector<u64> hist(40, 0);
  u64 f = 1;
  for (size_t s = 0; s < hist.size(); ++s) {
    hist[s] = f;
    if (f < (u64{1} << 40)) f *= 2;
  }
  const HuffmanCodebook book = HuffmanCodebook::build(hist);
  ASSERT_FALSE(build_decode_tables(book).table_ok);
  Rng rng(51);
  std::vector<u16> syms(8000);
  for (auto& v : syms) v = static_cast<u16>(39 - std::min<u64>(rng.below(40), 39));
  const std::vector<u8> stream =
      huffman_encode(syms, book, HuffmanEncodeOptions{2048, 256});
  std::vector<u16> decoded;
  sim_huffman_decode_gap(stream, book, decoded);
  EXPECT_EQ(decoded, syms);
}

TEST(SimSzx, BlockStatsMatchScalarReference) {
  Rng rng(46);
  std::vector<f32> data(1000);  // 7 full blocks + 1 partial (104 values)
  for (auto& v : data) v = static_cast<f32>(rng.uniform(-100.0, 100.0));
  const size_t nblocks = (data.size() + 127) / 128;
  std::vector<f32> mins(nblocks), maxs(nblocks);
  const auto cost = sim_szx_block_stats(data, mins, maxs);
  EXPECT_EQ(cost.kernel_launches, 1u);
  for (size_t blk = 0; blk < nblocks; ++blk) {
    const size_t b = blk * 128;
    const size_t e = std::min(b + 128, data.size());
    f32 lo = data[b], hi = data[b];
    for (size_t i = b; i < e; ++i) {
      lo = std::min(lo, data[i]);
      hi = std::max(hi, data[i]);
    }
    EXPECT_EQ(mins[blk], lo) << blk;
    EXPECT_EQ(maxs[blk], hi) << blk;
  }
}

TEST(SimSzx, StatsDriveTheSameConstantBlockDecisions) {
  // The stats kernel's min/max must reproduce the native encoder's
  // constant/non-constant split exactly (tag byte 0 vs width).
  Rng rng(47);
  std::vector<f32> data(128 * 16);
  for (size_t blk = 0; blk < 16; ++blk) {
    const f32 base = static_cast<f32>(rng.uniform(-10.0, 10.0));
    const bool constant = blk % 3 == 0;
    for (size_t k = 0; k < 128; ++k)
      data[blk * 128 + k] =
          base + (constant ? 0.0f : static_cast<f32>(rng.uniform(0.0, 1.0)));
  }
  const double abs_eb = 1e-3;
  std::vector<f32> mins(16), maxs(16);
  sim_szx_block_stats(data, mins, maxs);

  const std::vector<u8> payload = bench::szx_encode_payload(data, abs_eb);
  // Walk the payload and compare each tag with the kernel's decision.
  size_t pos = 0;
  for (size_t blk = 0; blk < 16; ++blk) {
    const u8 tag = payload[pos];
    const bool kernel_constant =
        static_cast<double>(maxs[blk]) - mins[blk] <= 2 * abs_eb;
    EXPECT_EQ(tag == 0, kernel_constant) << blk;
    pos += 1 + 4;  // tag + mid
    if (tag != 0) pos += (static_cast<size_t>(tag) * 128 + 7) / 8;
  }
  EXPECT_EQ(pos, payload.size());
}

TEST(SimSzx, CodecRoundTripsThroughStandaloneFunctions) {
  Rng rng(48);
  std::vector<f32> data(5000);
  f32 acc = 0;
  for (auto& v : data) {
    acc += static_cast<f32>(rng.normal(0.0, 0.1));
    v = acc;
  }
  const double abs_eb = 1e-2;
  const auto payload = bench::szx_encode_payload(data, abs_eb);
  const auto back = bench::szx_decode_payload(payload, data.size(), abs_eb);
  ASSERT_EQ(back.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i)
    ASSERT_LE(std::fabs(static_cast<double>(data[i]) - back[i]),
              abs_eb * (1 + 1e-6))
        << i;
}

TEST(SimDecode, ScatterMirrorsNativeDecode) {
  const auto in = sparse_code_words(2 * kTileWords, 7);
  std::vector<u32> shuffled(in.size());
  bitshuffle_tiles(in, shuffled);
  std::vector<u8> byte_flags, bit_flags;
  mark_blocks(shuffled, byte_flags, bit_flags);
  std::vector<u32> blocks;
  compact_blocks(shuffled, byte_flags, blocks);

  std::vector<u32> native(shuffled.size());
  decode_blocks(bit_flags, blocks, native);
  std::vector<u32> simulated(shuffled.size(), 0xffffffffu);
  const auto cost = sim_scatter_blocks(bit_flags, blocks, simulated);
  EXPECT_EQ(simulated, native);
  EXPECT_EQ(simulated, shuffled);
  EXPECT_GE(cost.kernel_launches, 3u);  // scan (2) + scatter (1)
}

TEST(SimDecode, UnshuffleInvertsSimulatedShuffle) {
  const auto in = random_words(2 * kTileWords, 8);
  std::vector<u32> shuffled(in.size()), back(in.size());
  std::vector<u8> bf, ff;
  sim_bitshuffle_mark_fused(in, shuffled, bf, ff);
  sim_bitunshuffle(shuffled, back);
  EXPECT_EQ(back, in);
}

TEST(SimDecode, UnshuffleMatchesNativeInverse) {
  const auto shuffled = random_words(kTileWords, 9);
  std::vector<u32> native(shuffled.size()), simulated(shuffled.size());
  bitunshuffle_tiles(shuffled, native);
  sim_bitunshuffle(shuffled, simulated);
  EXPECT_EQ(simulated, native);
}

TEST(SimDecode, UnshufflePaddingRemovesConflictsToo) {
  const auto in = random_words(kTileWords, 10);
  std::vector<u32> out_p(in.size()), out_u(in.size());
  const auto padded = sim_bitunshuffle(in, out_p, true);
  const auto unpadded = sim_bitunshuffle(in, out_u, false);
  EXPECT_EQ(out_p, out_u);
  EXPECT_GT(unpadded.shared_transactions, 4 * padded.shared_transactions);
}

TEST(SimDecode, FullSimulatedPipelineRoundTrip) {
  // Simulated encode (fused shuffle+mark, compact) then simulated decode
  // (scatter, unshuffle): end-to-end on the device model's own kernels.
  const auto in = sparse_code_words(3 * kTileWords, 11);
  std::vector<u32> shuffled(in.size());
  std::vector<u8> byte_flags, bit_flags;
  sim_bitshuffle_mark_fused(in, shuffled, byte_flags, bit_flags);
  std::vector<u32> blocks;
  sim_compact_blocks(shuffled, byte_flags, blocks);

  std::vector<u32> restored(in.size());
  sim_scatter_blocks(bit_flags, blocks, restored);
  std::vector<u32> codes(in.size());
  sim_bitunshuffle(restored, codes);
  EXPECT_EQ(codes, in);
}

}  // namespace
}  // namespace fz
