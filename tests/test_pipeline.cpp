#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "core/chunked.hpp"
#include "core/codec.hpp"
#include "core/pipeline.hpp"
#include "datasets/generators.hpp"
#include "metrics/metrics.hpp"

namespace fz {
namespace {

Field smooth_field(Dims dims, u64 seed) {
  Field f;
  f.dataset = "synthetic";
  f.name = "smooth";
  f.dims = dims;
  f.data.resize(dims.count());
  Rng rng(seed);
  const double fx = rng.uniform(0.02, 0.2);
  const double fy = rng.uniform(0.02, 0.2);
  const double fz_ = rng.uniform(0.02, 0.2);
  for (size_t z = 0; z < dims.z; ++z)
    for (size_t y = 0; y < dims.y; ++y)
      for (size_t x = 0; x < dims.x; ++x)
        f.data[dims.linear(x, y, z)] = static_cast<f32>(
            100.0 * std::sin(fx * static_cast<double>(x)) *
                std::cos(fy * static_cast<double>(y)) +
            10.0 * std::sin(fz_ * static_cast<double>(z)));
  return f;
}

// ---- error-bound invariant across dims x bounds -----------------------------

struct PipelineCase {
  Dims dims;
  double rel_eb;
};

class PipelineProperty : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineProperty, ErrorBoundHolds) {
  const auto [dims, rel_eb] = GetParam();
  const Field f = smooth_field(dims, 17 + dims.count());
  FzParams params;
  params.eb = ErrorBound::relative(rel_eb);
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  EXPECT_EQ(c.stats.saturated, 0u);
  const FzDecompressed d = fz_decompress(c.bytes);
  ASSERT_EQ(d.data.size(), f.data.size());
  EXPECT_EQ(d.dims, f.dims);
  EXPECT_TRUE(error_bounded(f.values(), d.data, c.stats.abs_eb))
      << "dims=" << dims.to_string() << " eb=" << rel_eb;
}

TEST_P(PipelineProperty, V1QuantAlsoRoundTrips) {
  const auto [dims, rel_eb] = GetParam();
  const Field f = smooth_field(dims, 31 + dims.count());
  FzParams params;
  params.eb = ErrorBound::relative(rel_eb);
  params.quant = QuantVersion::V1Original;
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  const FzDecompressed d = fz_decompress(c.bytes);
  EXPECT_TRUE(error_bounded(f.values(), d.data, c.stats.abs_eb));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineProperty,
    ::testing::Values(PipelineCase{Dims{100}, 1e-2},
                      PipelineCase{Dims{2048}, 1e-3},
                      PipelineCase{Dims{2049}, 1e-3},  // non-tile-multiple
                      PipelineCase{Dims{10000}, 1e-4},
                      PipelineCase{Dims{37, 23}, 1e-3},
                      PipelineCase{Dims{128, 128}, 1e-4},
                      PipelineCase{Dims{24, 25, 26}, 1e-2},
                      PipelineCase{Dims{64, 64, 64}, 1e-3},
                      PipelineCase{Dims{64, 64, 64}, 1e-4},
                      PipelineCase{Dims{1}, 1e-3},
                      PipelineCase{Dims{3, 3, 3}, 5e-3}));

// ---- behaviour on the synthetic evaluation datasets --------------------------

class PipelineDatasets : public ::testing::TestWithParam<Dataset> {};

TEST_P(PipelineDatasets, BoundHoldsAndNoSaturationAtPaperBounds) {
  const Dataset ds = GetParam();
  Field f = generate_field(ds, scaled_dims(ds, 0.08), 7);
  for (const double rel_eb : {1e-2, 1e-4}) {
    FzParams params;
    params.eb = ErrorBound::relative(rel_eb);
    const FzCompressed c = fz_compress(f.values(), f.dims, params);
    // The paper's u16 choice relies on residuals fitting 15 bits at these
    // bounds; verify that holds on every dataset.
    EXPECT_EQ(c.stats.saturated, 0u) << dataset_name(ds) << " eb=" << rel_eb;
    const FzDecompressed d = fz_decompress(c.bytes);
    EXPECT_TRUE(error_bounded(f.values(), d.data, c.stats.abs_eb))
        << dataset_name(ds) << " eb=" << rel_eb;
    EXPECT_GT(c.stats.ratio(), 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(All, PipelineDatasets,
                         ::testing::ValuesIn(all_datasets()),
                         [](const auto& info) {
                           return std::string(dataset_name(info.param));
                         });

// ---- ratio behaviour ---------------------------------------------------------

TEST(Pipeline, LooserBoundNeverCompressesWorse) {
  const Field f = smooth_field(Dims{64, 64, 32}, 3);
  double prev_ratio = 0;
  for (const double eb : {1e-4, 5e-4, 1e-3, 5e-3, 1e-2}) {
    FzParams params;
    params.eb = ErrorBound::relative(eb);
    const FzCompressed c = fz_compress(f.values(), f.dims, params);
    EXPECT_GE(c.stats.ratio(), prev_ratio * 0.98) << eb;  // tiny slack
    prev_ratio = c.stats.ratio();
  }
}

TEST(Pipeline, ConstantFieldHitsRatioCeiling) {
  Field f;
  f.dims = Dims{1 << 16};
  f.data.assign(f.dims.count(), 42.5f);
  FzParams params;
  params.eb = ErrorBound::absolute(1e-3);
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  // Everything collapses to zero blocks: flags + header only.  The code
  // stream is 2n bytes -> flag bits are 2n/16/8... ensure > 100x overall.
  EXPECT_GT(c.stats.ratio(), 100.0);
  const FzDecompressed d = fz_decompress(c.bytes);
  EXPECT_TRUE(error_bounded(f.values(), d.data, 1e-3));
}

TEST(Pipeline, StatsAreConsistent) {
  const Field f = smooth_field(Dims{128, 64}, 5);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  EXPECT_EQ(c.stats.count, f.count());
  EXPECT_EQ(c.stats.input_bytes, f.bytes());
  EXPECT_EQ(c.stats.compressed_bytes, c.bytes.size());
  EXPECT_LE(c.stats.nonzero_blocks, c.stats.total_blocks);
  EXPECT_NEAR(c.stats.bitrate(), 32.0 / c.stats.ratio(), 1e-9);
  EXPECT_EQ(c.stage_costs.size(), 3u);  // pred-quant, fused shuffle, encode
}

TEST(Pipeline, AbsoluteAndRelativeBoundsAgree) {
  const Field f = smooth_field(Dims{4096}, 8);
  const double range = f.value_range();
  FzParams rel, abs;
  rel.eb = ErrorBound::relative(1e-3);
  abs.eb = ErrorBound::absolute(1e-3 * range);
  const FzCompressed a = fz_compress(f.values(), f.dims, rel);
  const FzCompressed b = fz_compress(f.values(), f.dims, abs);
  EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Pipeline, CompressionIsDeterministic) {
  // Reproducibility matters for archival workflows: the same input and
  // parameters must yield byte-identical streams run to run (the parallel
  // loops must not introduce ordering effects).
  const Field f = smooth_field(Dims{96, 96}, 77);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  const FzCompressed a = fz_compress(f.values(), f.dims, params);
  const FzCompressed b = fz_compress(f.values(), f.dims, params);
  EXPECT_EQ(a.bytes, b.bytes);
  params.quant = QuantVersion::V1Original;
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  const FzCompressed d = fz_compress(f.values(), f.dims, params);
  EXPECT_EQ(c.bytes, d.bytes);
}

// ---- exhaustive configuration sweep --------------------------------------------

struct SweepCase {
  Dataset ds;
  double rel_eb;
  QuantVersion quant;
};

class PipelineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelineSweep, EveryConfigurationRoundTripsWithinBound) {
  const auto [ds, rel_eb, quant] = GetParam();
  const Field f = generate_field(ds, scaled_dims(ds, 0.06), 101);
  FzParams params;
  params.eb = ErrorBound::relative(rel_eb);
  params.quant = quant;
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  const FzDecompressed d = fz_decompress(c.bytes);
  EXPECT_TRUE(error_bounded(f.values(), d.data, c.stats.abs_eb))
      << dataset_name(ds) << " eb=" << rel_eb
      << " quant=" << static_cast<int>(quant);
  // V1 on unordered particle data at tight bounds turns almost every
  // residual into an 8-byte outlier and can EXPAND (the paper evaluates
  // HACC log-transformed for exactly this reason); V2 never expands that
  // far because saturating codes stay 2 bytes.
  EXPECT_GT(c.stats.ratio(),
            quant == QuantVersion::V1Original ? 0.4 : 1.0);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const Dataset ds : all_datasets())
    for (const double eb : {1e-2, 1e-4})
      for (const QuantVersion q :
           {QuantVersion::V1Original, QuantVersion::V2Optimized})
        cases.push_back({ds, eb, q});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, PipelineSweep,
                         ::testing::ValuesIn(sweep_cases()));

// ---- point-wise relative bounds --------------------------------------------------

TEST(PipelinePointwise, RelativeErrorBoundedPerValue) {
  // Values spanning six orders of magnitude: a range-based bound would
  // obliterate the small values; the point-wise mode preserves each one's
  // relative accuracy (the paper's HACC protocol, 4.1).
  Rng rng(61);
  std::vector<f32> data(20000);
  for (auto& v : data)
    v = static_cast<f32>(std::exp(rng.uniform(-7.0, 7.0)));
  const double rel = 1e-3;
  FzParams params;
  params.eb = ErrorBound::pointwise_relative(rel);
  const FzCompressed c = fz_compress(data, Dims{data.size()}, params);
  const FzDecompressed d = fz_decompress(c.bytes);
  for (size_t i = 0; i < data.size(); ++i) {
    const double ratio = static_cast<double>(d.data[i]) / data[i];
    ASSERT_LE(ratio, (1 + rel) * (1 + 1e-5)) << i;
    ASSERT_GE(ratio, 1.0 / (1 + rel) * (1 - 1e-5)) << i;
  }
}

TEST(PipelinePointwise, RejectsNonPositiveData) {
  std::vector<f32> data{1.0f, 0.0f, 2.0f};
  FzParams params;
  params.eb = ErrorBound::pointwise_relative(1e-3);
  EXPECT_THROW(fz_compress(data, Dims{3}, params), Error);
  data[1] = -1.0f;
  EXPECT_THROW(fz_compress(data, Dims{3}, params), Error);
}

TEST(PipelinePointwise, RejectsOutOfRangeBound) {
  std::vector<f32> data{1.0f, 2.0f};
  FzParams params;
  params.eb = ErrorBound::pointwise_relative(1.5);
  EXPECT_THROW(fz_compress(data, Dims{2}, params), Error);
}

TEST(PipelinePointwise, TransformSurvivesTheStream) {
  // The log flag travels in the header: a fresh decoder context (no
  // params) must undo it.
  Rng rng(62);
  std::vector<f32> data(4096);
  for (auto& v : data) v = static_cast<f32>(std::exp(rng.uniform(0.0, 3.0)));
  FzParams params;
  params.eb = ErrorBound::pointwise_relative(1e-2);
  const FzCompressed c = fz_compress(data, Dims{data.size()}, params);
  const FzDecompressed d = fz_decompress(c.bytes);
  // Decompressed values must be near the ORIGINAL (not log-space) data.
  for (size_t i = 0; i < data.size(); ++i)
    ASSERT_NEAR(d.data[i], data[i], static_cast<double>(data[i]) * 0.011);
}

TEST(PipelinePointwise, WorksThroughChunkedContainers) {
  Rng rng(63);
  std::vector<f32> data(16384);
  for (auto& v : data) v = static_cast<f32>(std::exp(rng.uniform(-3.0, 3.0)));
  ChunkedParams params;
  params.base.eb = ErrorBound::pointwise_relative(1e-3);
  params.num_chunks = 4;
  const ChunkedCompressed c =
      fz_compress_chunked(data, Dims{data.size()}, params);
  const FzDecompressed d = fz_decompress_chunked(c.bytes);
  for (size_t i = 0; i < data.size(); ++i) {
    const double ratio = static_cast<double>(d.data[i]) / data[i];
    ASSERT_LE(std::fabs(ratio - 1.0), 1.1e-3) << i;
  }
}

// ---- double-precision path -----------------------------------------------------

TEST(PipelineF64, RoundTripWithinBound) {
  Rng rng(55);
  std::vector<f64> data(9000);
  f64 acc = 0;
  for (auto& v : data) {
    acc += rng.normal(0.0, 0.25);
    v = acc;
  }
  FzParams params;
  params.eb = ErrorBound::relative(1e-4);
  const FzCompressed c = fz_compress_f64(data, Dims{data.size()}, params);
  EXPECT_EQ(c.stats.input_bytes, data.size() * sizeof(f64));
  const FzDecompressed64 d = fz_decompress_f64(c.bytes);
  ASSERT_EQ(d.data.size(), data.size());
  for (size_t i = 0; i < data.size(); ++i)
    EXPECT_LE(std::fabs(data[i] - d.data[i]), c.stats.abs_eb * (1 + 1e-9)) << i;
}

TEST(PipelineF64, DtypeIsEnforcedAcrossDecoders) {
  std::vector<f64> d64(2048, 1.5);
  d64[7] = 2.5;
  std::vector<f32> d32(2048, 1.5f);
  d32[7] = 2.5f;
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  const FzCompressed c64 = fz_compress_f64(d64, Dims{2048}, params);
  const FzCompressed c32 = fz_compress(d32, Dims{2048}, params);
  EXPECT_THROW(fz_decompress(c64.bytes), FormatError);
  EXPECT_THROW(fz_decompress_f64(c32.bytes), FormatError);
  EXPECT_EQ(inspect(c64.bytes).dtype_bytes, 8u);
  EXPECT_EQ(inspect(c32.bytes).dtype_bytes, 4u);
}

TEST(PipelineF64, TighterBoundsThanF32AreReachable) {
  // The point of the f64 path: bounds far below f32 precision still hold.
  Rng rng(56);
  std::vector<f64> data(4096);
  f64 acc = 1e6;  // large offset: f32 ulp here is ~0.06
  for (auto& v : data) {
    acc += rng.normal(0.0, 1e-4);
    v = acc;
  }
  FzParams params;
  params.eb = ErrorBound::absolute(1e-6);
  const FzCompressed c = fz_compress_f64(data, Dims{data.size()}, params);
  EXPECT_EQ(c.stats.saturated, 0u);
  const FzDecompressed64 d = fz_decompress_f64(c.bytes);
  for (size_t i = 0; i < data.size(); ++i)
    ASSERT_LE(std::fabs(data[i] - d.data[i]), 1e-6 * (1 + 1e-9));
}

TEST(PipelineF64, RejectsNonFinite) {
  std::vector<f64> data{1.0, std::numeric_limits<f64>::infinity()};
  FzParams params;
  EXPECT_THROW(fz_compress_f64(data, Dims{2}, params), Error);
}

// ---- header / format robustness ----------------------------------------------

TEST(PipelineFormat, InspectReadsHeader) {
  const Field f = smooth_field(Dims{32, 16}, 9);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  const StreamInfo info = inspect(c.bytes);
  EXPECT_EQ(info.dims, f.dims);
  EXPECT_EQ(info.count, f.count());
  EXPECT_EQ(info.quant, QuantVersion::V2Optimized);
  EXPECT_NEAR(info.abs_eb, 1e-3 * f.value_range(), 1e-12);
}

TEST(PipelineFormat, RejectsGarbageAndTruncation) {
  const Field f = smooth_field(Dims{2048}, 10);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  FzCompressed c = fz_compress(f.values(), f.dims, params);

  std::vector<u8> garbage(64, 0xab);
  EXPECT_THROW(fz_decompress(garbage), FormatError);

  std::vector<u8> truncated(c.bytes.begin(), c.bytes.begin() + 16);
  EXPECT_THROW(fz_decompress(truncated), FormatError);

  std::vector<u8> clipped(c.bytes.begin(), c.bytes.end() - 8);
  EXPECT_THROW(fz_decompress(clipped), FormatError);

  std::vector<u8> bad_magic = c.bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(fz_decompress(bad_magic), FormatError);
}

TEST(PipelineFormat, InspectValidatesNotJustTheMagic) {
  const Field f = smooth_field(Dims{16, 16, 8}, 12);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  const FzCompressed c = fz_compress(f.values(), f.dims, params);
  ASSERT_NO_THROW(inspect(c.bytes));

  // Truncated to less than a header.
  std::vector<u8> tiny(c.bytes.begin(), c.bytes.begin() + 24);
  EXPECT_THROW(inspect(tiny), FormatError);

  // Valid magic but a poisoned field must still be rejected: inspect is the
  // front door for untrusted streams.
  auto corrupt = [&](size_t offset, u8 value) {
    std::vector<u8> s = c.bytes;
    s[offset] = value;
    return s;
  };
  EXPECT_THROW(inspect(corrupt(4, 0x7f)), FormatError);   // version
  EXPECT_THROW(inspect(corrupt(6, 0x09)), FormatError);   // quant
  EXPECT_THROW(inspect(corrupt(7, 0x04)), FormatError);   // rank
  EXPECT_THROW(inspect(corrupt(8, 0x03)), FormatError);   // dtype
  EXPECT_THROW(inspect(corrupt(9, 0x02)), FormatError);   // transform

  // A count that disagrees with the dims (nx low byte) is rejected rather
  // than returned as a bogus allocation size.
  EXPECT_THROW(inspect(corrupt(16, 0xff)), FormatError);

  // Dims blown up past what the stream could possibly encode.
  std::vector<u8> huge = c.bytes;
  for (size_t i = 16; i < 16 + 8; ++i) huge[i] = 0xff;  // nx = 2^64 - 1
  EXPECT_THROW(inspect(huge), FormatError);

  // The non-throwing twin maps every one of those to InvalidStream.
  StreamInfo si;
  EXPECT_EQ(try_inspect(tiny, si).code(), StatusCode::InvalidStream);
  EXPECT_EQ(try_inspect(huge, si).code(), StatusCode::InvalidStream);
  EXPECT_TRUE(try_inspect(c.bytes, si).ok());
  EXPECT_EQ(si.count, f.count());
}

TEST(PipelineFormat, RejectsEmptyInput) {
  FzParams params;
  EXPECT_THROW(fz_compress({}, Dims{0}, params), Error);
  std::vector<f32> one{1.0f};
  EXPECT_THROW(fz_compress(one, Dims{2}, params), Error);  // dims mismatch
}

TEST(PipelineFormat, StructuredInspectReportsSectionLayout) {
  const Field f = smooth_field(Dims{48, 20}, 14);
  FzParams params;
  params.eb = ErrorBound::relative(1e-3);
  const FzCompressed c = fz_compress(f.values(), f.dims, params);

  const StreamInfo info = inspect(c.bytes);
  EXPECT_EQ(info.dims, f.dims);
  EXPECT_EQ(info.count, f.count());
  EXPECT_EQ(info.dtype_bytes, 4u);
  EXPECT_EQ(info.quant, QuantVersion::V2Optimized);
  EXPECT_FALSE(info.log_transform);
  EXPECT_EQ(info.stream_bytes, c.bytes.size());
  // The four sections tile the stream exactly.
  EXPECT_EQ(info.header_bytes + info.bit_flag_bytes + info.block_bytes +
                info.outlier_bytes,
            info.stream_bytes);
  EXPECT_EQ(info.outlier_bytes, 0u);  // V2 streams carry no outlier list
  EXPECT_EQ(info.total_blocks, c.stats.total_blocks);
  EXPECT_EQ(info.nonzero_blocks, c.stats.nonzero_blocks);
  EXPECT_EQ(info.saturated, c.stats.saturated);
  EXPECT_NEAR(info.ratio(), c.stats.ratio(), 1e-12);
}

TEST(PipelineFormat, StructuredInspectCoversV1AndLogTransform) {
  const Field f = smooth_field(Dims{40, 16}, 15);

  FzParams v1;
  v1.quant = QuantVersion::V1Original;
  v1.eb = ErrorBound::absolute(1e-2);
  const FzCompressed c1 = fz_compress(f.values(), f.dims, v1);
  const StreamInfo i1 = inspect(c1.bytes);
  EXPECT_EQ(i1.quant, QuantVersion::V1Original);
  EXPECT_EQ(i1.radius, v1.radius);
  EXPECT_EQ(i1.header_bytes + i1.bit_flag_bytes + i1.block_bytes +
                i1.outlier_bytes,
            i1.stream_bytes);

  std::vector<f32> positive(f.values().begin(), f.values().end());
  for (f32& v : positive) v = std::fabs(v) + 1.0f;
  FzParams pw;
  pw.eb = ErrorBound::pointwise_relative(1e-3);
  const FzCompressed c2 = fz_compress(positive, f.dims, pw);
  EXPECT_TRUE(inspect(c2.bytes).log_transform);
}

TEST(PipelineParams, ValidateReturnsOneIssuePerProblem) {
  FzParams good;
  EXPECT_TRUE(good.validate().empty());
  EXPECT_TRUE(good.validate(Dims{16, 16}).empty());

  FzParams bad;
  bad.eb = ErrorBound::absolute(-1.0);
  bad.quant = static_cast<QuantVersion>(9);
  bad.simd = static_cast<SimdDispatch>(200);
  const auto issues = bad.validate();
  ASSERT_EQ(issues.size(), 3u);
  EXPECT_STREQ(issues[0].field, "eb");
  EXPECT_STREQ(issues[1].field, "quant");
  EXPECT_STREQ(issues[2].field, "simd");
  for (const ParamIssue& i : issues) EXPECT_FALSE(i.message.empty());

  FzParams pw;
  pw.eb = ErrorBound::pointwise_relative(1.5);
  ASSERT_EQ(pw.validate().size(), 1u);
  EXPECT_STREQ(pw.validate()[0].field, "eb");

  FzParams v1;
  v1.quant = QuantVersion::V1Original;
  v1.radius = 40000;
  ASSERT_EQ(v1.validate().size(), 1u);
  EXPECT_STREQ(v1.validate()[0].field, "radius");
  v1.radius = 512;
  EXPECT_TRUE(v1.validate().empty());

  EXPECT_STREQ(good.validate(Dims{0, 4}).at(0).field, "dims");
  EXPECT_STREQ(good.validate(Dims{SIZE_MAX / 2, 3}).at(0).field, "dims");
}

TEST(PipelineParams, CodecConstructionThrowsStructuredParamError) {
  FzParams bad;
  bad.eb = ErrorBound::absolute(std::numeric_limits<double>::quiet_NaN());
  bad.quant = static_cast<QuantVersion>(7);
  try {
    Codec codec(bad);
    FAIL() << "Codec accepted invalid params";
  } catch (const ParamError& e) {
    ASSERT_EQ(e.issues().size(), 2u);
    EXPECT_STREQ(e.issues()[0].field, "eb");
    EXPECT_STREQ(e.issues()[1].field, "quant");
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid FzParams"), std::string::npos);
    EXPECT_NE(what.find("[eb]"), std::string::npos);
    EXPECT_NE(what.find("[quant]"), std::string::npos);
  }
  // ParamError is an fz::Error, so existing catch sites keep working.
  EXPECT_THROW(fz_compress(std::vector<f32>(8, 1.0f), Dims{8}, bad), Error);
}

}  // namespace
}  // namespace fz
