// Invariants of the analytical device cost model — the part of the
// reproduction that stands in for GPU wall clocks (DESIGN.md §1), so its
// structure is tested like any other component.
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "core/costs.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "cudasim/device_model.hpp"
#include "datasets/generators.hpp"

namespace fz {
namespace {

FzStats stats_for(size_t count, double nz_fraction, size_t outliers = 0) {
  FzStats st;
  st.count = count;
  st.input_bytes = count * 4;
  st.total_blocks = count * 2 / 16;  // u16 codes, 16-byte blocks
  st.nonzero_blocks =
      static_cast<size_t>(static_cast<double>(st.total_blocks) * nz_fraction);
  st.outliers = outliers;
  return st;
}

TEST(CostModel, PipelineHasThreeStagesSplitShuffleMarkTwo) {
  const FzStats st = stats_for(1 << 20, 0.3);
  const auto costs = fz_compression_costs(st, FzParams{});
  ASSERT_EQ(costs.size(), 3u);
  EXPECT_EQ(costs[1].name, "bitshuffle-mark-fused");
  const auto split = fz_split_bitshuffle_mark_costs(st);
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[0].name, "bitshuffle");
  EXPECT_EQ(split[1].name, "mark");
}

TEST(CostModel, CostsScaleLinearlyWithSize) {
  FzParams params;
  const auto small = fz_compression_costs(stats_for(1 << 18, 0.3), params);
  const auto big = fz_compression_costs(stats_for(1 << 22, 0.3), params);
  for (size_t i = 0; i < small.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(big[i].global_bytes()) /
                    static_cast<double>(small[i].global_bytes()),
                16.0, 0.5)
        << small[i].name;
    EXPECT_EQ(big[i].kernel_launches, small[i].kernel_launches);
  }
}

TEST(CostModel, V1WritesMoreThanV2) {
  // The dense outlier array + shift writes are the 1.7x story (§4.5).
  const FzStats st = stats_for(1 << 20, 0.3, /*outliers=*/1000);
  FzParams v1, v2;
  v1.quant = QuantVersion::V1Original;
  EXPECT_GT(fz_compression_costs(st, v1)[0].global_bytes(),
            fz_compression_costs(st, v2)[0].global_bytes());
}

TEST(CostModel, FusionSavesOneGlobalRoundTrip) {
  const FzStats st = stats_for(1 << 20, 0.3);
  const cudasim::CostSheet fused = fz_compression_costs(st, FzParams{})[1];
  u64 split_bytes = 0, split_launches = 0;
  for (const auto& c : fz_split_bitshuffle_mark_costs(st)) {
    split_bytes += c.global_bytes();
    split_launches += c.kernel_launches;
  }
  // The split mark kernel re-reads the whole shuffled array.
  EXPECT_EQ(split_bytes - fused.global_bytes(), (st.count / 2) * 4);
  EXPECT_EQ(split_launches, fused.kernel_launches + 1u);
}

TEST(CostModel, EncodeCostTracksNonzeroBlocks) {
  FzParams params;
  const auto sparse = fz_compression_costs(stats_for(1 << 20, 0.05), params);
  const auto dense = fz_compression_costs(stats_for(1 << 20, 0.95), params);
  EXPECT_GT(dense.back().global_bytes(), sparse.back().global_bytes());
}

TEST(CostModel, DecompressionMirrorsCompression) {
  const FzStats st = stats_for(1 << 20, 0.3);
  FzParams params;
  const auto comp = fz_compression_costs(st, params);
  const auto decomp = fz_decompression_costs(st, params);
  ASSERT_EQ(comp.size(), decomp.size());
  u64 cb = 0, db = 0;
  for (const auto& c : comp) cb += c.global_bytes();
  for (const auto& c : decomp) db += c.global_bytes();
  EXPECT_EQ(cb, db);  // symmetric traffic => symmetric throughput (§4.4)
  EXPECT_EQ(decomp.front().name.rfind("inv-", 0), 0u);
}

TEST(CostModel, FullyFusedBeatsPipelineOnTrafficAndLaunches) {
  const FzStats st = stats_for(1 << 22, 0.3);
  FzParams params;
  u64 pipeline_bytes = 0, pipeline_launches = 0;
  for (const auto& c : fz_compression_costs(st, params)) {
    pipeline_bytes += c.global_bytes();
    pipeline_launches += c.kernel_launches;
  }
  const auto fused = fz_fully_fused_cost(st);
  EXPECT_LT(fused.global_bytes(), pipeline_bytes / 2);
  EXPECT_EQ(fused.kernel_launches, 1u);
  EXPECT_LT(fused.kernel_launches, pipeline_launches);

  const cudasim::DeviceModel a100(cudasim::DeviceSpec::a100());
  double pipeline_s = 0;
  for (const auto& c : fz_compression_costs(st, params))
    pipeline_s += a100.seconds(c);
  EXPECT_LT(a100.seconds(fused), pipeline_s);
}

TEST(CostModel, RealRunStatsFeedTheModelConsistently) {
  // End-to-end: stats from a real compression produce stage costs whose
  // DRAM traffic is within sane physical bounds.
  const Field f = generate_field(Dataset::Hurricane,
                                 scaled_dims(Dataset::Hurricane, 0.1), 5);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  u64 total = 0;
  for (const auto& k : c.stage_costs) total += k.global_bytes();
  // Must at least read the input once and write the codes once...
  EXPECT_GE(total, f.bytes() + f.count() * 2);
  // ...and cannot exceed a handful of full-array round trips.
  EXPECT_LE(total, 10 * f.bytes());
}

TEST(CostModel, FusedTileSheetDropsExactlyTheCodeRoundTrip) {
  // The fused tile pipeline (PR3) merges the pred-quant and
  // bitshuffle-mark sheets into one launch; the DRAM bytes it saves are
  // precisely the u16 code array's write + padded re-read, with the
  // arithmetic (thread ops, shared traffic) unchanged.
  const FzStats st = stats_for((1 << 20) + 12345, 0.3);
  FzParams params;  // V2, fused bitshuffle-mark
  const auto split = fz_compression_costs(st, params);
  const cudasim::CostSheet fused = fz_fused_tile_cost(st);

  const u64 split_bytes = split[0].global_bytes() + split[1].global_bytes();
  EXPECT_EQ(split_bytes - fused.global_bytes(), fz_fusion_traffic_saved(st));
  EXPECT_EQ(fused.thread_ops, split[0].thread_ops + split[1].thread_ops);
  EXPECT_EQ(fused.shared_transactions,
            split[0].shared_transactions + split[1].shared_transactions);
  EXPECT_EQ(fused.kernel_launches, 1u);
  EXPECT_LT(fused.global_bytes(), split_bytes);

  // On the modeled device the fused stage is strictly faster.
  const cudasim::DeviceModel dev{cudasim::DeviceSpec::a100()};
  EXPECT_LT(dev.seconds(fused),
            dev.seconds(split[0]) + dev.seconds(split[1]));
}

TEST(CostModel, FusedDecodeIntoStagesI64OnceAndWritesTheDtype) {
  // The fused decompress pass reads the stream's sections in place — the
  // packed bit flags, one u32 offset per tile plus the total, and the
  // nonzero payload — writes and re-reads the i64 staging once, and
  // writes one output value: 8 + 8 + 4 = 20 B per f32 value, 24 for f64,
  // beyond the sections.
  const size_t n = (1 << 20) + 12345;
  const FzStats st = stats_for(n, 0.3);
  const u64 tiles = round_up(n, kCodesPerTile) / kCodesPerTile;
  const u64 sections = st.total_blocks / 8 + (tiles + 1) * 4 +
                       st.nonzero_blocks * 16;
  const cudasim::CostSheet inplace = fz_fused_decode_inplace_cost(st);
  EXPECT_EQ(inplace.global_bytes_read, sections);
  EXPECT_EQ(inplace.global_bytes_written, n * 8);
  EXPECT_EQ(inplace.kernel_launches, 1u);

  const cudasim::CostSheet into = fz_fused_decode_into_cost(st);
  EXPECT_EQ(into.global_bytes_read, sections + n * 8);
  EXPECT_EQ(into.global_bytes_written, n * 8 + n * 4);
  EXPECT_EQ(into.global_bytes(), sections + n * 20);
  EXPECT_EQ(into.kernel_launches, 1u);
  EXPECT_GT(into.thread_ops, inplace.thread_ops);

  FzStats st64 = st;
  st64.input_bytes = n * sizeof(f64);
  EXPECT_EQ(fz_fused_decode_into_cost(st64).global_bytes(),
            sections + n * 24);

  // Reading in place drops the expanded kernel's u8 flag bytes and u32
  // per-block offsets: the in-place pass reads strictly less than
  // fz_fused_decode_cost, which still prices that kernel.
  const cudasim::CostSheet expanded = fz_fused_decode_cost(st);
  EXPECT_EQ(expanded.global_bytes_read,
            st.total_blocks + st.total_blocks / 8 + st.total_blocks * 4 +
                st.nonzero_blocks * 16);
  EXPECT_LT(inplace.global_bytes_read, expanded.global_bytes_read);
  EXPECT_EQ(inplace.global_bytes_written, expanded.global_bytes_written);
}

TEST(CostModel, HaloRecomputeTermScalesWithStripsAndStencilReach) {
  // PR5's strip scheme pays (strips - 1) halo re-prequantizations whose
  // size is the Lorenzo stencil's linear reach: 1 element in 1-D, a row
  // plus one in 2-D, a plane plus a row plus one in 3-D.
  EXPECT_EQ(fz_halo_recompute_elems(Dims{1 << 20}, 1), 0u);
  EXPECT_EQ(fz_halo_recompute_elems(Dims{1 << 20}, 4), 3u);
  EXPECT_EQ(fz_halo_recompute_elems(Dims{512, 2048}, 4), 3u * 513);
  EXPECT_EQ(fz_halo_recompute_elems(Dims{128, 64, 128}, 8),
            7u * (128 * 64 + 128 + 1));

  const FzStats st = stats_for((1 << 20) + 12345, 0.3);
  const Dims dims{512, 2048};
  const cudasim::CostSheet serial = fz_fused_tile_cost(st);
  const cudasim::CostSheet one = fz_fused_parallel_cost(st, dims, 1);
  // A single strip recomputes nothing: identical resource counts.
  EXPECT_EQ(one.global_bytes(), serial.global_bytes());
  EXPECT_EQ(one.thread_ops, serial.thread_ops);

  // More strips → strictly more halo input reads and quantization ops,
  // monotonically, and by exactly the halo term.
  u64 prev_bytes = one.global_bytes();
  for (const size_t strips : {size_t{2}, size_t{4}, size_t{16}}) {
    const cudasim::CostSheet c = fz_fused_parallel_cost(st, dims, strips);
    const u64 halo = fz_halo_recompute_elems(dims, strips);
    EXPECT_EQ(c.global_bytes_read,
              serial.global_bytes_read + halo * sizeof(f32));
    EXPECT_GT(c.global_bytes(), prev_bytes);
    EXPECT_GT(c.thread_ops, serial.thread_ops);
    prev_bytes = c.global_bytes();
  }

  // The overhead stays a sliver of the stage: even at 16 strips the halo
  // reads are under 1% of the input on this shape.
  const cudasim::CostSheet wide = fz_fused_parallel_cost(st, dims, 16);
  EXPECT_LT(wide.global_bytes_read - serial.global_bytes_read,
            serial.global_bytes_read / 100);
}

TEST(CostModel, FusedEncodeReadsInputOnceAndWritesOnlyTheStreamSections) {
  // The compacting pass reads the input (plus the strip halo) in its own
  // dtype and writes the packed bit flags and the nonzero blocks — no
  // shuffled array, byte flags or scan arrays.
  const size_t n = size_t{1} << 20;
  const Dims dims{512, 2048};
  const FzStats st = stats_for(n, 0.3);
  const u64 flags = st.total_blocks / 8;
  const u64 payload = static_cast<u64>(st.nonzero_blocks) * 16;

  const cudasim::CostSheet one = fz_fused_encode_cost(st, dims, 1);
  EXPECT_EQ(one.global_bytes_read, n * 4);
  EXPECT_EQ(one.global_bytes_written, flags + payload);
  EXPECT_EQ(one.kernel_launches, 1u);

  const u64 halo = fz_halo_recompute_elems(dims, 4);
  EXPECT_EQ(halo, 3u * 513);
  const cudasim::CostSheet four = fz_fused_encode_cost(st, dims, 4);
  EXPECT_EQ(four.global_bytes_read, n * 4 + halo * 4);
  EXPECT_EQ(four.global_bytes_written, flags + payload);
  EXPECT_GT(four.thread_ops, one.thread_ops);

  FzStats st64 = st;
  st64.input_bytes = n * 8;
  EXPECT_EQ(fz_fused_encode_cost(st64, dims, 4).global_bytes_read,
            n * 8 + halo * 8);

  // Against the expanded kernel + the device encode stage it replaces: the
  // expanded sheet writes the whole shuffled array and byte flags, and the
  // encode sheet re-reads them.
  const cudasim::CostSheet expanded = fz_fused_parallel_cost(st, dims, 4);
  const size_t words = n / 2;
  EXPECT_EQ(expanded.global_bytes_written - four.global_bytes_written,
            words * 4 + st.total_blocks - payload);
  FzParams params;
  const cudasim::CostSheet encode = fz_compression_costs(st, params).back();
  ASSERT_EQ(encode.name, "prefix-sum-encode");
  EXPECT_LT(four.global_bytes(),
            expanded.global_bytes() + encode.global_bytes());
}

}  // namespace
}  // namespace fz
